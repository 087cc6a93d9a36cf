"""The live columnar support arena: int-slot runtime support storage.

The v2 snapshot codec proved that support state compresses ~4x once atoms,
rules and set elements are *interned* and records become arrays of slots —
but only on disk. This module makes that encoding the canonical in-memory
form: an :class:`Arena` holds append-only intern tables (atoms, rules,
signed entries, support-set elements, and one columnar record table per
support kind), and the engines keep nothing but a :class:`SupportTable`
mapping atom slots to sets of record slots. The hot maintenance loops —
record kills, well-foundedness fixpoints, REMOVEPOS/REMOVENEG sweeps —
then run entirely over small ints and frozensets of ints.

Four properties carry the design:

* **Append-only interning.** A slot, once assigned, never changes meaning,
  so arenas may be shared freely between an engine, its checkpoints, and
  any engine restored from its state, and decode caches are idempotent.
  Interning is a plain get-or-append: one thread at a time revises an
  engine (the revision service serializes its writers). Garbage (records no table references any
  more) accumulates; the serializer renumbers reachable slots canonically
  at encode time, so on-disk bytes are independent of arena history.

* **Copy-on-write tables.** ``SupportTable.copy()`` is O(1): the slot map
  is shared until either side writes, and each per-fact record set is
  privatized lazily on first mutation. Together with the copy-on-write
  :meth:`~repro.datalog.relations.Relation.copy`, this is what makes
  ``MaintenanceEngine.checkpoint()`` / transaction rollback cheap — the
  epoch-pinned snapshots the concurrent-service roadmap item needs.

* **Lazy decode.** Public surfaces (``records_of``, ``support_of``,
  ``explain``, serialization to the v1 codec) decode slots back to the
  :mod:`repro.core.supports` record objects on demand, through per-slot
  caches, so diagnostics and file formats are unchanged.

* **A citation index over fact records.** Beside the record columns the
  arena keeps, for the fact-level engine, atom slot -> record slots that
  cite it positively / negatively (filled once, when a record is
  interned: a record's body never changes) and record slot -> head slots
  it was ever attached to (filled by :meth:`Arena.attach_fact_record`,
  the one way a fact record gets a head — the saturation listener and
  both snapshot loaders go through it). An update's kill pass and
  groundedness check start from the changed atoms through this index
  instead of scanning the store. It is **append-only** — never shrunk
  when a record is killed — because checkpoints share the arena: a
  ``restore()`` can resurrect a killed record and the index must still
  know it, so readers filter candidates against the live
  :class:`SupportTable`. It is **not serialised**: it is derived data,
  and a loader rebuilds exactly the part the loaded table reaches, which
  keeps snapshot bytes independent of arena history. A lone citer or head
  is stored as a bare int, a list only from the second on.

The arena is the only runtime representation of the fact-level, cascade
and set-of-sets engines. The object-level mappings survive at the edges:
``ArenaXxx.to_record_state`` feeds the v1 codec, ``dumps`` fingerprints and
equality, and ``ArenaXxx.from_records`` loads v1 snapshots and legacy
states.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.clauses import Clause
from ..datalog.dependency import StaticDependencies
from .supports import (
    FactRecord,
    PairedRecord,
    RuleRecord,
    SetOfSetsSupport,
    Signed,
    expand_neg_element,
    expand_pos_element,
)

#: Slot of the assertion record in every record table (and of the empty
#: element in the element table): interned at arena construction, so the
#: trivial support is always slot 0.
ASSERTION = 0
EMPTY_ELEMENT = 0
NO_RULE = 0  # rules[0] is None: the "rule" of an assertion record


def _as_slots(entry: "None | int | List[int]") -> Sequence[int]:
    """An index entry as a sequence: a lone slot is kept as a bare int."""
    if entry is None:
        return ()
    if isinstance(entry, list):
        return entry
    return (entry,)


def _cite(
    citers: Dict[int, "int | List[int]"], atoms: Iterable[int], record: int
) -> None:
    """Add *record* to the citers of each of *atoms*."""
    for atom in atoms:
        known = citers.get(atom)
        if known is None:
            citers[atom] = record
        elif isinstance(known, list):
            known.append(record)
        else:
            citers[atom] = [known, record]


class Arena:
    """Append-only intern tables plus columnar record storage.

    Records are stored as parallel lists of int slots / frozensets of int
    slots — the int-slot array layout — and every interned object gets a
    reverse map so repeated interning is one dict probe. Decode caches are
    per-slot lists filled lazily.
    """

    __slots__ = (
        "atoms",
        "_atom_ids",
        "rules",
        "_rule_ids",
        "entries",
        "_entry_ids",
        "element_members",
        "_element_ids",
        "_element_decoded",
        "fact_rule",
        "fact_pos",
        "fact_neg",
        "fact_size",
        "fact_heads",
        "_fact_pos_citers",
        "_fact_neg_citers",
        "_fact_ids",
        "_fact_decoded",
        "rule_record_rule",
        "rule_record_pos",
        "rule_record_neg",
        "_rule_record_ids",
        "_rule_record_decoded",
        "paired_pos",
        "paired_neg",
        "_paired_ids",
        "_paired_decoded",
        "_expand_owner",
        "_expand_pos",
        "_expand_neg",
    )

    def __init__(self) -> None:
        # -- atom intern table ------------------------------------------
        self.atoms: List[Atom] = []
        self._atom_ids: Dict[Atom, int] = {}
        # -- rule intern table (slot 0 = None: assertions) --------------
        self.rules: List[Optional[Clause]] = [None]
        self._rule_ids: Dict[Clause, int] = {}
        # -- signed-entry and element tables (sets-of-sets supports) ----
        self.entries: List["str | Signed"] = []
        self._entry_ids: Dict["str | Signed", int] = {}
        self.element_members: List[frozenset[int]] = [frozenset()]
        self._element_ids: Dict[frozenset[int], int] = {frozenset(): 0}
        self._element_decoded: List[Optional[frozenset["str | Signed"]]] = [
            frozenset()
        ]
        # -- fact records: (rule slot, pos atom slots, neg atom slots) --
        self.fact_rule: List[int] = [NO_RULE]
        self.fact_pos: List[frozenset[int]] = [frozenset()]
        self.fact_neg: List[frozenset[int]] = [frozenset()]
        self._fact_ids: Dict[
            Tuple[int, frozenset[int], frozenset[int]], int
        ] = {(NO_RULE, frozenset(), frozenset()): ASSERTION}
        self._fact_decoded: List[Optional[FactRecord]] = [
            FactRecord.assertion()
        ]
        self.fact_size: List[int] = [1]  # 1 + |pos| + |neg|, per record
        # -- fact-record citation index (see the module docstring) ------
        self.fact_heads: List["None | int | List[int]"] = [None]
        self._fact_pos_citers: Dict[int, "int | List[int]"] = {}
        self._fact_neg_citers: Dict[int, "int | List[int]"] = {}
        # -- rule records: (rule slot, body relation-name sets) ---------
        self.rule_record_rule: List[int] = [NO_RULE]
        self.rule_record_pos: List[frozenset[str]] = [frozenset()]
        self.rule_record_neg: List[frozenset[str]] = [frozenset()]
        self._rule_record_ids: Dict[int, int] = {NO_RULE: ASSERTION}
        self._rule_record_decoded: List[Optional[RuleRecord]] = [
            RuleRecord.assertion()
        ]
        # -- paired records: (pos element slot, neg element slot) -------
        self.paired_pos: List[int] = [EMPTY_ELEMENT]
        self.paired_neg: List[int] = [EMPTY_ELEMENT]
        self._paired_ids: Dict[Tuple[int, int], int] = {
            (EMPTY_ELEMENT, EMPTY_ELEMENT): ASSERTION
        }
        self._paired_decoded: List[Optional[PairedRecord]] = [
            PairedRecord.trivial()
        ]
        # -- per-element static-expansion caches (see expand_pos) -------
        self._expand_owner: Optional[object] = None
        self._expand_pos: Dict[int, frozenset[str]] = {}
        self._expand_neg: Dict[int, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------

    def intern_atom(self, atom: Atom) -> int:
        slot = self._atom_ids.get(atom)
        if slot is None:
            slot = len(self.atoms)
            self.atoms.append(atom)
            self._atom_ids[atom] = slot
        return slot

    def atom_id(self, atom: Atom) -> Optional[int]:
        """The slot of *atom*, or None when it was never interned."""
        return self._atom_ids.get(atom)

    def atom_of(self, slot: int) -> Atom:
        return self.atoms[slot]

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def intern_rule(self, rule: Optional[Clause]) -> int:
        if rule is None:
            return NO_RULE
        slot = self._rule_ids.get(rule)
        if slot is None:
            slot = len(self.rules)
            self.rules.append(rule)
            self._rule_ids[rule] = slot
        return slot

    def rule_id(self, rule: Optional[Clause]) -> Optional[int]:
        """The slot of *rule*, or None when it was never interned."""
        if rule is None:
            return NO_RULE
        return self._rule_ids.get(rule)

    def rule_of(self, slot: int) -> Optional[Clause]:
        return self.rules[slot]

    # ------------------------------------------------------------------
    # Entries and elements (sets-of-sets supports)
    # ------------------------------------------------------------------

    def intern_entry(self, entry: "str | Signed") -> int:
        slot = self._entry_ids.get(entry)
        if slot is None:
            slot = len(self.entries)
            self.entries.append(entry)
            self._entry_ids[entry] = slot
        return slot

    def intern_element(self, members: frozenset[int]) -> int:
        slot = self._element_ids.get(members)
        if slot is None:
            slot = len(self.element_members)
            self.element_members.append(members)
            self._element_ids[members] = slot
            self._element_decoded.append(None)
        return slot

    def intern_element_entries(
        self, entries: Iterable["str | Signed"]
    ) -> int:
        return self.intern_element(
            frozenset(self.intern_entry(entry) for entry in entries)
        )

    def union_elements(self, slots: Iterable[int]) -> int:
        """The slot of the union of the given elements (``⊕`` in id space)."""
        members = frozenset().union(
            *(self.element_members[slot] for slot in slots)
        )
        return self.intern_element(members)

    def decode_element(self, slot: int) -> frozenset["str | Signed"]:
        cached = self._element_decoded[slot]
        if cached is None:
            entries = self.entries
            cached = frozenset(
                entries[member] for member in self.element_members[slot]
            )
            self._element_decoded[slot] = cached
        return cached

    def prune_element_ids(self, slots: Set[int]) -> Set[int]:
        """⊆-minimal elements among *slots* — :func:`prune_to_minimal` in
        id space, with the same entry-bucket candidate generation."""
        members = self.element_members
        if len(slots) <= 1:
            return set(slots)
        if EMPTY_ELEMENT in slots:
            return {EMPTY_ELEMENT}
        ordered = sorted(slots, key=lambda slot: len(members[slot]))
        kept: List[int] = []
        by_entry: Dict[int, List[int]] = {}
        for slot in ordered:
            element = members[slot]
            dominated = False
            seen: Set[int] = set()
            for entry in element:
                for index in by_entry.get(entry, ()):
                    if index in seen:
                        continue
                    seen.add(index)
                    if members[kept[index]] <= element:
                        dominated = True
                        break
                if dominated:
                    break
            if dominated:
                continue
            index = len(kept)
            kept.append(slot)
            for entry in element:
                by_entry.setdefault(entry, []).append(index)
        return set(kept)

    # ------------------------------------------------------------------
    # Static-dependency expansion of elements, cached per slot
    # ------------------------------------------------------------------
    #
    # The removal sweep expands every element through the static closures
    # on every pass; interned elements make the expansion cachable per
    # (element slot, statics object). The caches are owned by
    # the statics object they were computed against — a rule update
    # replaces the StratifiedDatabase's statics, which drops them.

    def _expansions(
        self, statics: StaticDependencies
    ) -> Tuple[Dict[int, frozenset[str]], Dict[int, frozenset[str]]]:
        if self._expand_owner is not statics:
            self._expand_owner = statics
            self._expand_pos = {}
            self._expand_neg = {}
        return self._expand_pos, self._expand_neg

    def expand_pos(
        self, slot: int, statics: StaticDependencies
    ) -> frozenset[str]:
        cache, _ = self._expansions(statics)
        cached = cache.get(slot)
        if cached is None:
            cached = frozenset(
                expand_pos_element(self.decode_element(slot), statics)
            )
            cache[slot] = cached
        return cached

    def expand_neg(
        self, slot: int, statics: StaticDependencies
    ) -> frozenset[str]:
        _, cache = self._expansions(statics)
        cached = cache.get(slot)
        if cached is None:
            cached = frozenset(
                expand_neg_element(self.decode_element(slot), statics)
            )
            cache[slot] = cached
        return cached

    # ------------------------------------------------------------------
    # Fact records (section 5.2 — the fact-level engine)
    # ------------------------------------------------------------------

    def intern_fact_record(
        self,
        rule_slot: int,
        pos: frozenset[int],
        neg: frozenset[int],
    ) -> int:
        key = (rule_slot, pos, neg)
        slot = self._fact_ids.get(key)
        if slot is None:
            slot = len(self.fact_rule)
            self.fact_rule.append(rule_slot)
            self.fact_pos.append(pos)
            self.fact_neg.append(neg)
            self._fact_ids[key] = slot
            self._fact_decoded.append(None)
            self.fact_size.append(1 + len(pos) + len(neg))
            self.fact_heads.append(None)
            # A record's body never changes, so its citations are
            # complete the moment the slot exists: once per record.
            _cite(self._fact_pos_citers, pos, slot)
            if neg:
                _cite(self._fact_neg_citers, neg, slot)
        return slot

    def attach_fact_record(
        self, table: "SupportTable", head: int, record: int
    ) -> None:
        """Give *head* the fact record *record* in *table* — the one way
        a fact record gets a head, so ``fact_heads`` knows every head a
        record was ever attached to. The assertion record cites nothing
        and is never looked up by citation; its heads are not kept."""
        table.add(head, record)
        if record != ASSERTION:
            heads = self.fact_heads
            known = heads[record]
            if known is None:
                heads[record] = head
            elif isinstance(known, list):
                if head not in known:
                    known.append(head)
            elif known != head:
                heads[record] = [known, head]

    def fact_record_heads(self, record: int) -> Sequence[int]:
        """Every head *record* was ever attached to (live or not)."""
        return _as_slots(self.fact_heads[record])

    def fact_citers(self, atom: int, positive: bool) -> Sequence[int]:
        """Every fact record ever interned with *atom* in its positive
        (or negative) body — candidates; filter against the live table."""
        citers = self._fact_pos_citers if positive else self._fact_neg_citers
        return _as_slots(citers.get(atom))

    def decode_fact_record(self, slot: int) -> FactRecord:
        cached = self._fact_decoded[slot]
        if cached is None:
            atoms = self.atoms
            cached = FactRecord(
                self.rules[self.fact_rule[slot]],
                frozenset(atoms[member] for member in self.fact_pos[slot]),
                frozenset(atoms[member] for member in self.fact_neg[slot]),
            )
            self._fact_decoded[slot] = cached
        return cached

    def fact_record_size(self, slot: int) -> int:
        return self.fact_size[slot]

    # ------------------------------------------------------------------
    # Rule records (section 5.1 — the cascade engine)
    # ------------------------------------------------------------------

    def intern_rule_record(self, rule: Optional[Clause]) -> int:
        rule_slot = self.intern_rule(rule)
        slot = self._rule_record_ids.get(rule_slot)
        if slot is None:
            assert rule is not None  # NO_RULE is pre-interned
            slot = len(self.rule_record_rule)
            self.rule_record_rule.append(rule_slot)
            self.rule_record_pos.append(
                frozenset(lit.relation for lit in rule.positive_body)
            )
            self.rule_record_neg.append(
                frozenset(lit.relation for lit in rule.negative_body)
            )
            self._rule_record_ids[rule_slot] = slot
            self._rule_record_decoded.append(None)
        return slot

    def rule_record_id(self, rule: Optional[Clause]) -> Optional[int]:
        """The record slot of *rule*, or None when it never fired."""
        rule_slot = self.rule_id(rule)
        if rule_slot is None:
            return None
        return self._rule_record_ids.get(rule_slot)

    def decode_rule_record(self, slot: int) -> RuleRecord:
        cached = self._rule_record_decoded[slot]
        if cached is None:
            cached = RuleRecord(
                self.rules[self.rule_record_rule[slot]],
                self.rule_record_pos[slot],
                self.rule_record_neg[slot],
            )
            self._rule_record_decoded[slot] = cached
        return cached

    # ------------------------------------------------------------------
    # Paired records (section 4.3, linked mode)
    # ------------------------------------------------------------------

    def intern_paired_record(self, pos_slot: int, neg_slot: int) -> int:
        key = (pos_slot, neg_slot)
        slot = self._paired_ids.get(key)
        if slot is None:
            slot = len(self.paired_pos)
            self.paired_pos.append(pos_slot)
            self.paired_neg.append(neg_slot)
            self._paired_ids[key] = slot
            self._paired_decoded.append(None)
        return slot

    def decode_paired_record(self, slot: int) -> PairedRecord:
        cached = self._paired_decoded[slot]
        if cached is None:
            cached = PairedRecord(
                self.decode_element(self.paired_pos[slot]),
                self.decode_element(self.paired_neg[slot]),
            )
            self._paired_decoded[slot] = cached
        return cached

    def paired_record_size(self, slot: int) -> int:
        return (
            len(self.element_members[self.paired_pos[slot]])
            + len(self.element_members[self.paired_neg[slot]])
            + 1
        )

    def prune_paired_ids(self, slots: Set[int]) -> Set[int]:
        """Keep the paired records no *other* record dominates
        (``other.pos ⊆ pos and other.neg ⊆ neg``) — the entry-bucket
        candidate generation of :meth:`prune_element_ids`, with buckets
        tagged by side."""
        if len(slots) <= 1:
            return set(slots)
        if ASSERTION in slots:  # the trivial pair dominates everything
            return {ASSERTION}
        members = self.element_members
        pos_of, neg_of = self.paired_pos, self.paired_neg
        ordered = sorted(
            slots,
            key=lambda slot: len(members[pos_of[slot]])
            + len(members[neg_of[slot]]),
        )
        kept: List[int] = []
        by_entry: Dict[Tuple[str, int], List[int]] = {}
        for slot in ordered:
            pos = members[pos_of[slot]]
            neg = members[neg_of[slot]]
            dominated = False
            seen: Set[int] = set()
            for side, element in (("p", pos), ("n", neg)):
                for entry in element:
                    for index in by_entry.get((side, entry), ()):
                        if index in seen:
                            continue
                        seen.add(index)
                        other = kept[index]
                        if (
                            members[pos_of[other]] <= pos
                            and members[neg_of[other]] <= neg
                        ):
                            dominated = True
                            break
                    if dominated:
                        break
                if dominated:
                    break
            if dominated:
                continue
            index = len(kept)
            kept.append(slot)
            for entry in pos:
                by_entry.setdefault(("p", entry), []).append(index)
            for entry in neg:
                by_entry.setdefault(("n", entry), []).append(index)
        return set(kept)


# ----------------------------------------------------------------------
# Copy-on-write support tables
# ----------------------------------------------------------------------


class SupportTable:
    """A ``{atom slot: set of record slots}`` map with O(1) copies.

    ``copy()`` shares the slot map between both sides; the first write on
    either side privatizes the map (one dict copy), and each per-fact
    record set is privatized lazily on its first mutation after a copy
    (``_owned`` tracks which value sets this table may mutate in place —
    ``None`` means all of them). Readers must treat the sets returned by
    :meth:`get` / :meth:`items` as immutable and go through the mutators.

    ``total`` is the weighted number of entries, carried through every
    mutator and through ``copy()`` — an engine's ``support_entry_count``
    reads it instead of recounting the table. *weights* is the arena's
    per-record size column (``Arena.fact_size``); without one every
    record weighs 1.
    """

    __slots__ = ("_map", "_shared_map", "_owned", "_weights", "total")

    def __init__(self, weights: Optional[List[int]] = None) -> None:
        self._map: Dict[int, Set[int]] = {}
        self._shared_map: bool = False
        self._owned: Optional[Set[int]] = None
        self._weights = weights
        self.total: int = 0

    def copy(self) -> "SupportTable":
        """O(1) copy-on-write duplicate; both sides go lazy-private."""
        self._shared_map = True
        self._owned = set()
        twin = SupportTable(self._weights)
        twin._map = self._map
        twin._shared_map = True
        twin._owned = set()
        twin.total = self.total
        return twin

    def _weigh(self, records: Set[int]) -> int:
        weights = self._weights
        if weights is None:
            return len(records)
        return sum(weights[record] for record in records)

    def _own_map(self) -> Dict[int, Set[int]]:
        if self._shared_map:
            self._map = dict(self._map)
            self._shared_map = False
        return self._map

    def _writable(self, slot: int) -> Set[int]:
        current = self._own_map().get(slot)
        owned = self._owned
        if current is None:
            current = self._map[slot] = set()
            if owned is not None:
                owned.add(slot)
        elif owned is not None and slot not in owned:
            current = self._map[slot] = set(current)
            owned.add(slot)
        return current

    def add(self, slot: int, record: int) -> None:
        current = self._writable(slot)
        if record not in current:
            current.add(record)
            weights = self._weights
            self.total += 1 if weights is None else weights[record]

    def replace(self, slot: int, records: Set[int]) -> None:
        """Install *records* (a fresh set the caller relinquishes)."""
        own = self._own_map()
        old = own.get(slot)
        if old:
            self.total -= self._weigh(old)
        own[slot] = records
        self.total += self._weigh(records)
        if self._owned is not None:
            self._owned.add(slot)

    def discard(self, slot: int, record: int) -> None:
        current = self._map.get(slot)
        if current is not None and record in current:
            self._writable(slot).discard(record)
            weights = self._weights
            self.total -= 1 if weights is None else weights[record]

    def discard_many(self, slot: int, records: Set[int]) -> None:
        current = self._map.get(slot)
        gone = current & records if current else None
        if gone:
            self._writable(slot).difference_update(gone)
            self.total -= self._weigh(gone)

    def pop(self, slot: int) -> None:
        if slot in self._map:
            self.total -= self._weigh(self._own_map().pop(slot))
            if self._owned is not None:
                self._owned.discard(slot)

    def get(self, slot: int) -> Optional[Set[int]]:
        """The record set of *slot* (read-only view), or None."""
        return self._map.get(slot)

    def __contains__(self, slot: int) -> bool:
        return slot in self._map

    def __len__(self) -> int:
        return len(self._map)

    def keys(self) -> Iterable[int]:
        return self._map.keys()

    def items(self) -> Iterable[Tuple[int, Set[int]]]:
        return self._map.items()

    def values(self) -> Iterable[Set[int]]:
        return self._map.values()


# ----------------------------------------------------------------------
# Engine support states: the arena-backed counterpart of the record dicts
# ----------------------------------------------------------------------
#
# ``_support_state()`` of an arena-backed engine returns one of these
# instead of a dict of record sets. They are cheap (the table copy is
# copy-on-write; the arena is shared — append-only, so existing slots stay
# valid), self-contained for ``load_state`` (an engine adopts the arena
# and copies the table), and they expand lazily to the classic record
# mapping for the v1 codec, ``dumps`` determinism, and equality tests.


class ArenaSupportState:
    """Base of the four arena-backed support-state forms."""

    kind = "abstract"

    __slots__ = ("arena",)

    def __init__(self, arena: Arena) -> None:
        self.arena = arena

    def to_record_state(self) -> object:
        """The classic record-backed form (dict keyed by atoms)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArenaSupportState):
            return self.to_record_state() == other.to_record_state()
        if isinstance(other, dict):
            return bool(self.to_record_state() == other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._table_sizes())} facts)"

    def _table_sizes(self) -> Dict[int, int]:
        raise NotImplementedError


class ArenaFactRecords(ArenaSupportState):
    """Fact-level records: ``{atom slot: {fact-record slots}}``."""

    kind = "fact"

    __slots__ = ("table",)

    def __init__(self, arena: Arena, table: SupportTable) -> None:
        super().__init__(arena)
        self.table = table

    def _table_sizes(self) -> Dict[int, int]:
        return {slot: len(records) for slot, records in self.table.items()}

    def to_record_state(self) -> Dict[Atom, Set[FactRecord]]:
        arena = self.arena
        decode = arena.decode_fact_record
        return {
            arena.atoms[slot]: {decode(record) for record in records}
            for slot, records in self.table.items()
        }

    @classmethod
    def from_records(
        cls,
        records: Dict[Atom, Set[FactRecord]],
        arena: Optional[Arena] = None,
    ) -> "ArenaFactRecords":
        arena = arena if arena is not None else Arena()
        table = SupportTable(arena.fact_size)
        intern_atom = arena.intern_atom
        for fact, record_set in records.items():
            head = intern_atom(fact)
            table.replace(head, set())
            for record in record_set:
                arena.attach_fact_record(
                    table,
                    head,
                    arena.intern_fact_record(
                        arena.intern_rule(record.rule),
                        frozenset(
                            intern_atom(atom)
                            for atom in record.positive_facts
                        ),
                        frozenset(
                            intern_atom(atom)
                            for atom in record.negative_facts
                        ),
                    ),
                )
        return cls(arena, table)


class ArenaRuleRecords(ArenaSupportState):
    """Cascade rule-pointer records: ``{atom slot: {rule-record slots}}``."""

    kind = "rule"

    __slots__ = ("table",)

    def __init__(self, arena: Arena, table: SupportTable) -> None:
        super().__init__(arena)
        self.table = table

    def _table_sizes(self) -> Dict[int, int]:
        return {slot: len(records) for slot, records in self.table.items()}

    def to_record_state(self) -> Dict[Atom, Set[RuleRecord]]:
        arena = self.arena
        decode = arena.decode_rule_record
        return {
            arena.atoms[slot]: {decode(record) for record in records}
            for slot, records in self.table.items()
        }

    @classmethod
    def from_records(
        cls,
        records: Dict[Atom, Set[RuleRecord]],
        arena: Optional[Arena] = None,
    ) -> "ArenaRuleRecords":
        arena = arena if arena is not None else Arena()
        table = SupportTable()
        for fact, record_set in records.items():
            table.replace(
                arena.intern_atom(fact),
                {
                    arena.intern_rule_record(record.rule)
                    for record in record_set
                },
            )
        return cls(arena, table)


class ArenaPairedRecords(ArenaSupportState):
    """Linked (Pos, Neg) pairs: ``{atom slot: {paired-record slots}}``."""

    kind = "paired"

    __slots__ = ("table",)

    def __init__(self, arena: Arena, table: SupportTable) -> None:
        super().__init__(arena)
        self.table = table

    def _table_sizes(self) -> Dict[int, int]:
        return {slot: len(records) for slot, records in self.table.items()}

    def to_record_state(self) -> Dict[Atom, Set[PairedRecord]]:
        arena = self.arena
        decode = arena.decode_paired_record
        return {
            arena.atoms[slot]: {decode(record) for record in records}
            for slot, records in self.table.items()
        }

    @classmethod
    def from_records(
        cls,
        records: Dict[Atom, Set[PairedRecord]],
        arena: Optional[Arena] = None,
    ) -> "ArenaPairedRecords":
        arena = arena if arena is not None else Arena()
        table = SupportTable()
        for fact, record_set in records.items():
            table.replace(
                arena.intern_atom(fact),
                {
                    arena.intern_paired_record(
                        arena.intern_element_entries(record.pos),
                        arena.intern_element_entries(record.neg),
                    )
                    for record in record_set
                },
            )
        return cls(arena, table)


class ArenaSosSupports(ArenaSupportState):
    """Independent Pos/Neg sets of sets: two element tables per fact."""

    kind = "sos"

    __slots__ = ("pos_table", "neg_table")

    def __init__(
        self, arena: Arena, pos_table: SupportTable, neg_table: SupportTable
    ) -> None:
        super().__init__(arena)
        self.pos_table = pos_table
        self.neg_table = neg_table

    def _table_sizes(self) -> Dict[int, int]:
        return {
            slot: len(elements) for slot, elements in self.pos_table.items()
        }

    def to_record_state(self) -> Dict[Atom, SetOfSetsSupport]:
        arena = self.arena
        decode = arena.decode_element
        neg_get = self.neg_table.get
        supports: Dict[Atom, SetOfSetsSupport] = {}
        for slot, pos_elements in self.pos_table.items():
            neg_elements = neg_get(slot) or set()
            supports[arena.atoms[slot]] = SetOfSetsSupport(
                {decode(element) for element in pos_elements},
                {decode(element) for element in neg_elements},
            )
        return supports

    @classmethod
    def from_records(
        cls,
        supports: Dict[Atom, SetOfSetsSupport],
        arena: Optional[Arena] = None,
    ) -> "ArenaSosSupports":
        arena = arena if arena is not None else Arena()
        pos_table = SupportTable()
        neg_table = SupportTable()
        for fact, support in supports.items():
            slot = arena.intern_atom(fact)
            pos_table.replace(
                slot,
                {
                    arena.intern_element_entries(element)
                    for element in support.pos
                },
            )
            neg_table.replace(
                slot,
                {
                    arena.intern_element_entries(element)
                    for element in support.neg
                },
            )
        return cls(arena, pos_table, neg_table)


def support_state_kinds() -> Dict[str, type]:
    """The serializer's dispatch table: payload kind tag -> state class."""
    return {
        ArenaFactRecords.kind: ArenaFactRecords,
        ArenaRuleRecords.kind: ArenaRuleRecords,
        ArenaPairedRecords.kind: ArenaPairedRecords,
        ArenaSosSupports.kind: ArenaSosSupports,
    }


# ----------------------------------------------------------------------
# Canonical renumbering (snapshot encode)
# ----------------------------------------------------------------------
#
# Arena slots are path-dependent (interning order) and arenas accumulate
# garbage records, so serializing the raw arrays would violate the store
# contract that equal belief states produce identical bytes. Instead the
# encoder walks exactly the slots reachable from the table, renumbers them
# in a canonical order (atoms by (relation, args repr); rules, entries and
# elements by their canonical encodings), and emits remapped int rows.
# This IS the intern-table reuse the v2 codec was missing: the arena's
# tables are remapped with one pass of dict lookups per reachable slot —
# no per-record object traversal, hashing, or occurrence counting — and
# rebuilding the arena from a record mapping first yields byte-identical
# output (asserted by the unit tests).


def _atom_sort_key(atom: Atom) -> Tuple[str, str]:
    return (atom.relation, repr(atom.args))


def _entry_sort_key(entry: "str | Signed") -> Tuple[str, str, str]:
    if isinstance(entry, Signed):
        return ("g", entry.sign, entry.relation)
    return ("s", entry, "")


class CanonicalParts:
    """The renumbered, garbage-free image of one support state.

    ``atoms``/``rules``/``entries`` hold the reachable objects in canonical
    order; ``elements``/``records``/``table`` hold int rows over those
    positions. The serializer encodes the object lists with its own codec
    and writes the int rows verbatim.
    """

    __slots__ = ("kind", "atoms", "rules", "entries", "elements", "records",
                 "table")

    def __init__(
        self,
        kind: str,
        atoms: List[Atom],
        rules: List[Optional[Clause]],
        entries: List["str | Signed"],
        elements: List[List[int]],
        records: List[List[int]],
        table: List[List[object]],
    ) -> None:
        self.kind = kind
        self.atoms = atoms
        self.rules = rules
        self.entries = entries
        self.elements = elements
        self.records = records
        self.table = table


def _canonical_atoms(
    arena: Arena, slots: Iterable[int]
) -> Tuple[List[Atom], Dict[int, int]]:
    ordered = sorted(slots, key=lambda slot: _atom_sort_key(arena.atoms[slot]))
    return (
        [arena.atoms[slot] for slot in ordered],
        {slot: index for index, slot in enumerate(ordered)},
    )


def _canonical_rules(
    arena: Arena, slots: Iterable[int], rule_key: object
) -> Tuple[List[Optional[Clause]], Dict[int, int]]:
    """Rules in canonical order; slot 0 (None) is always position 0."""
    keyed = sorted(
        (slot for slot in set(slots) if slot != NO_RULE),
        key=lambda slot: rule_key(arena.rules[slot]),  # type: ignore[operator]
    )
    ordered = [NO_RULE] + keyed
    return (
        [arena.rules[slot] for slot in ordered],
        {slot: index for index, slot in enumerate(ordered)},
    )


def _canonical_elements(
    arena: Arena, slots: Iterable[int]
) -> Tuple[List["str | Signed"], List[List[int]], Dict[int, int]]:
    """Entries and element rows for the reachable element slots."""
    reachable = sorted(set(slots))
    entry_slots: Set[int] = set()
    for slot in reachable:
        entry_slots |= arena.element_members[slot]
    entries_ordered = sorted(
        entry_slots, key=lambda slot: _entry_sort_key(arena.entries[slot])
    )
    entry_index = {slot: index for index, slot in enumerate(entries_ordered)}
    rows = sorted(
        (
            slot,
            sorted(entry_index[m] for m in arena.element_members[slot]),
        )
        for slot in reachable
    )
    rows.sort(key=lambda pair: pair[1])
    element_index = {slot: index for index, (slot, _) in enumerate(rows)}
    return (
        [arena.entries[slot] for slot in entries_ordered],
        [row for _, row in rows],
        element_index,
    )


def canonical_parts(
    state: ArenaSupportState, rule_key: object = repr
) -> CanonicalParts:
    """Build the canonical image of *state* (see module docstring).

    *rule_key* orders the reachable rules; it must be deterministic and
    injective on distinct clauses (``repr`` is — atom/term reprs
    distinguish constant types).
    """
    arena = state.arena
    if isinstance(state, ArenaFactRecords):
        record_slots: Set[int] = set()
        for records in state.table.values():
            record_slots |= records
        atom_slots: Set[int] = set(state.table.keys())
        for slot in record_slots:
            atom_slots |= arena.fact_pos[slot]
            atom_slots |= arena.fact_neg[slot]
        atoms, atom_index = _canonical_atoms(arena, atom_slots)
        rules, rule_index = _canonical_rules(
            arena, (arena.fact_rule[slot] for slot in record_slots), rule_key
        )
        record_rows = sorted(
            [
                rule_index[arena.fact_rule[slot]],
                sorted(atom_index[m] for m in arena.fact_pos[slot]),
                sorted(atom_index[m] for m in arena.fact_neg[slot]),
            ]
            for slot in record_slots
        )
        record_index = {
            tuple(map(tuple, ((row[0],), row[1], row[2]))): index
            for index, row in enumerate(record_rows)
        }

        def fact_row_key(slot: int) -> Tuple[Tuple[int, ...], ...]:
            return (
                (rule_index[arena.fact_rule[slot]],),
                tuple(sorted(atom_index[m] for m in arena.fact_pos[slot])),
                tuple(sorted(atom_index[m] for m in arena.fact_neg[slot])),
            )

        table_rows: List[List[object]] = sorted(
            [
                atom_index[slot],
                sorted(record_index[fact_row_key(r)] for r in records),
            ]
            for slot, records in state.table.items()
        )
        return CanonicalParts(
            state.kind, atoms, rules, [], [], record_rows, table_rows
        )
    if isinstance(state, ArenaRuleRecords):
        atoms, atom_index = _canonical_atoms(arena, state.table.keys())
        rule_slots: Set[int] = set()
        for records in state.table.values():
            rule_slots |= {arena.rule_record_rule[slot] for slot in records}
        rules, rule_index = _canonical_rules(arena, rule_slots, rule_key)
        table_rows = sorted(
            [
                atom_index[slot],
                sorted(
                    rule_index[arena.rule_record_rule[r]] for r in records
                ),
            ]
            for slot, records in state.table.items()
        )
        return CanonicalParts(state.kind, atoms, rules, [], [], [], table_rows)
    if isinstance(state, ArenaPairedRecords):
        atoms, atom_index = _canonical_atoms(arena, state.table.keys())
        record_slots = set()
        for records in state.table.values():
            record_slots |= records
        element_slots = {arena.paired_pos[slot] for slot in record_slots}
        element_slots |= {arena.paired_neg[slot] for slot in record_slots}
        entries, element_rows, element_index = _canonical_elements(
            arena, element_slots
        )
        record_rows = sorted(
            [
                element_index[arena.paired_pos[slot]],
                element_index[arena.paired_neg[slot]],
            ]
            for slot in record_slots
        )
        record_index = {
            (row[0], row[1]): index for index, row in enumerate(record_rows)
        }
        table_rows = sorted(
            [
                atom_index[slot],
                sorted(
                    record_index[
                        (
                            element_index[arena.paired_pos[r]],
                            element_index[arena.paired_neg[r]],
                        )
                    ]
                    for r in records
                ),
            ]
            for slot, records in state.table.items()
        )
        return CanonicalParts(
            state.kind, atoms, [], entries, element_rows, record_rows,
            table_rows,
        )
    if isinstance(state, ArenaSosSupports):
        atom_slots = set(state.pos_table.keys()) | set(
            state.neg_table.keys()
        )
        atoms, atom_index = _canonical_atoms(arena, atom_slots)
        element_slots = set()
        for elements in state.pos_table.values():
            element_slots |= elements
        for elements in state.neg_table.values():
            element_slots |= elements
        entries, element_rows, element_index = _canonical_elements(
            arena, element_slots
        )
        table_rows = sorted(
            [
                atom_index[slot],
                sorted(
                    element_index[e]
                    for e in (state.pos_table.get(slot) or ())
                ),
                sorted(
                    element_index[e]
                    for e in (state.neg_table.get(slot) or ())
                ),
            ]
            for slot in atom_slots
        )
        return CanonicalParts(
            state.kind, atoms, [], entries, element_rows, [], table_rows
        )
    raise TypeError(f"unknown arena support state {state!r}")


def from_canonical_parts(
    kind: str,
    atoms: List[Atom],
    rules: List[Optional[Clause]],
    entries: List["str | Signed"],
    elements: List[List[int]],
    records: List[List[int]],
    table: List[List[object]],
) -> ArenaSupportState:
    """Rebuild a support state from its canonical image (snapshot decode).

    A fresh arena is populated in payload order — position *k* of each
    payload list interns to slot *k* (slot 0 pre-interned values line up
    because the canonical order puts them first), so the int rows map
    one-to-one and no object-graph decode pass runs.
    """
    arena = Arena()
    atom_slots = [arena.intern_atom(atom) for atom in atoms]
    if kind == ArenaFactRecords.kind:
        rule_slots = [arena.intern_rule(rule) for rule in rules]
        record_slots = [
            arena.intern_fact_record(
                rule_slots[row[0]],  # type: ignore[index]
                frozenset(atom_slots[m] for m in row[1]),  # type: ignore[union-attr]
                frozenset(atom_slots[m] for m in row[2]),  # type: ignore[union-attr]
            )
            for row in records
        ]
        table_store = SupportTable(arena.fact_size)
        for row in table:
            head = atom_slots[row[0]]  # type: ignore[index]
            table_store.replace(head, set())
            for r in row[1]:  # type: ignore[union-attr]
                arena.attach_fact_record(table_store, head, record_slots[r])
        return ArenaFactRecords(arena, table_store)
    if kind == ArenaRuleRecords.kind:
        record_of_rule = [
            arena.intern_rule_record(rule) for rule in rules
        ]
        table_store = SupportTable()
        for row in table:
            table_store.replace(
                atom_slots[row[0]],  # type: ignore[index]
                {record_of_rule[r] for r in row[1]},  # type: ignore[union-attr]
            )
        return ArenaRuleRecords(arena, table_store)
    entry_slots = [arena.intern_entry(entry) for entry in entries]
    element_slots = [
        arena.intern_element(frozenset(entry_slots[m] for m in row))
        for row in elements
    ]
    if kind == ArenaPairedRecords.kind:
        record_slots = [
            arena.intern_paired_record(
                element_slots[row[0]], element_slots[row[1]]
            )
            for row in records
        ]
        table_store = SupportTable()
        for row in table:
            table_store.replace(
                atom_slots[row[0]],  # type: ignore[index]
                {record_slots[r] for r in row[1]},  # type: ignore[union-attr]
            )
        return ArenaPairedRecords(arena, table_store)
    if kind == ArenaSosSupports.kind:
        pos_table = SupportTable()
        neg_table = SupportTable()
        for row in table:
            slot = atom_slots[row[0]]  # type: ignore[index]
            pos_table.replace(
                slot, {element_slots[e] for e in row[1]}  # type: ignore[union-attr]
            )
            neg_table.replace(
                slot, {element_slots[e] for e in row[2]}  # type: ignore[union-attr]
            )
        return ArenaSosSupports(arena, pos_table, neg_table)
    raise ValueError(f"unknown arena support-state kind {kind!r}")
