"""Section 4.3 — the dynamic solution with Pos and Neg sets of sets.

One support element per deduction: when ``p(t)`` is deduced from positive
facts with supports ``Pos1..Posi`` / ``Neg1..Negi`` and negated relations
``r1..rj``, the sets grow by

    Pos := Pos ∪ (Pos1 ⊕ ... ⊕ Posi) ⊕ {{q1,...,qi, -r1,...,-rj}}
    Neg := Neg ∪ (Neg1 ⊕ ... ⊕ Negi) ⊕ {{+r1,...,+rj}}

A fact is now evicted only when *all* elements of the relevant set fail,
which keeps Example 4's ``accepted(a)`` alive where the single-support
solution migrates it.

Two modes:

* ``mode="paper"`` — the sets evolve independently, exactly as printed.
  Known consequence (DESIGN.md, faithfulness note 1): after a *sequence* of
  updates the surviving Pos and Neg elements no longer pair up into common
  deductions and the engine can erroneously retain a fact. Lemma 2 only
  covers one update on a freshly built model.
* ``mode="paired"`` — each deduction's (Pos element, Neg element) pair is
  kept linked in a :class:`~repro.core.supports.PairedRecord`; a record dies
  when either side fails and the fact is evicted when no record remains.
  This restores soundness across sequences at the same asymptotic cost.

Elements and paired records are interned in an
:class:`~repro.core.arena.Arena`; ⊕, minimality pruning and the removal
passes run over element ids, and ``support_of``/``records_of`` decode to the
:mod:`repro.core.supports` objects on demand.
"""

from __future__ import annotations

from ..datalog.atoms import Atom
from ..datalog.clauses import Clause
from ..datalog.evaluation import Derivation
from ..obs import OBS
from .arena import (
    ASSERTION,
    Arena,
    ArenaPairedRecords,
    ArenaSosSupports,
    EMPTY_ELEMENT,
    SupportTable,
)
from .base import MaintenanceEngine
from .supports import PairedRecord, SetOfSetsSupport, Signed


class SetOfSetsEngine(MaintenanceEngine):
    """The dynamic solution of section 4.3."""

    name = "setofsets"

    def __init__(
        self,
        program,
        *,
        mode: str = "paper",
        prune: bool = True,
        **kwargs,
    ):
        if mode not in ("paper", "paired"):
            raise ValueError(f"unknown mode {mode!r}; use 'paper' or 'paired'")
        self.mode = mode
        self.prune = prune
        self._arena = Arena()
        self._pos_table = SupportTable()  # paper: {atom slot: element ids}
        self._neg_table = SupportTable()
        self._rec_table = SupportTable()  # paired: {atom slot: record ids}
        # Base-element slots per clause live on the engine, not on plan
        # support templates: plans outlive arena replacements (load_state
        # adopts a different arena), so template-cached slots would go
        # stale.
        self._base_cache: dict[Clause, tuple[int, int]] = {}
        super().__init__(program, **kwargs)

    # ------------------------------------------------------------------
    # Support construction
    # ------------------------------------------------------------------

    def _reset_supports(self) -> None:
        self._arena = Arena()
        self._pos_table = SupportTable()
        self._neg_table = SupportTable()
        self._rec_table = SupportTable()
        self._base_cache.clear()

    def _build_listener(self):
        def listener(derivation: Derivation, is_new: bool, plan) -> None:
            self._derivations_fired += 1
            self._note_deduction(derivation)

        return listener

    def _base_slots(self, clause) -> tuple[int, int]:
        """Arena ids of the clause-level (Pos element, Neg element)
        contribution. Only the rule's body relations matter, so the pair
        is interned once per clause."""
        slots = self._base_cache.get(clause)
        if slots is None:
            negated = tuple(lit.relation for lit in clause.negative_body)
            base_pos = frozenset(
                {lit.relation for lit in clause.positive_body}
                | {Signed("-", relation) for relation in negated}
            )
            base_neg = frozenset(Signed("+", relation) for relation in negated)
            slots = (
                self._arena.intern_element_entries(base_pos),
                self._arena.intern_element_entries(base_neg),
            )
            self._base_cache[clause] = slots
        return slots

    def _note_deduction(self, derivation: Derivation) -> None:
        """⊕ carried out entirely in element-id space.

        Body supports arrive as sets of interned element (or paired-record)
        ids; each union is interned once, so repeated deductions over the
        same elements never re-hash entry sets, and pruning walks int
        buckets instead of frozensets.
        """
        arena = self._arena
        head_slot = arena.intern_atom(derivation.head)
        base_pos, base_neg = self._base_slots(derivation.clause)
        if self.mode == "paper":
            pos_factors: list[set[int]] = []
            neg_factors: list[set[int]] = []
            for fact in derivation.positive_facts:
                slot = arena.intern_atom(fact)
                pos = self._pos_table.get(slot)
                if pos is None:
                    raise KeyError(fact)
                pos_factors.append(pos)
                neg_factors.append(self._neg_table.get(slot) or set())
            pos_ids = set(self._pos_table.get(head_slot) or ())
            neg_ids = set(self._neg_table.get(head_slot) or ())
            pos_ids |= self._combine_ids(pos_factors, base_pos)
            neg_ids |= self._combine_ids(neg_factors, base_neg)
            if self.prune:
                pos_ids = set(arena.prune_element_ids(pos_ids))
                neg_ids = set(arena.prune_element_ids(neg_ids))
            self._pos_table.replace(head_slot, pos_ids)
            self._neg_table.replace(head_slot, neg_ids)
        else:
            body_factors: list[set[int]] = []
            for fact in derivation.positive_facts:
                slot = arena.intern_atom(fact)
                body = self._rec_table.get(slot)
                if body is None:
                    raise KeyError(fact)
                body_factors.append(body)
            union = arena.union_elements
            paired_pos = arena.paired_pos
            paired_neg = arena.paired_neg
            choices: list[tuple[int, int]] = [(base_pos, base_neg)]
            for factor in body_factors:
                choices = [
                    (
                        union((pos, paired_pos[record])),
                        union((neg, paired_neg[record])),
                    )
                    for pos, neg in choices
                    for record in factor
                ]
            record_ids = set(self._rec_table.get(head_slot) or ())
            record_ids.update(
                arena.intern_paired_record(pos, neg) for pos, neg in choices
            )
            if self.prune:
                record_ids = set(arena.prune_paired_ids(record_ids))
            self._rec_table.replace(head_slot, record_ids)

    def _combine_ids(self, factors: list[set[int]], base: int) -> set[int]:
        """``combine(factors + [{base}])`` over interned element ids."""
        union = self._arena.union_elements
        result = {base}
        for factor in factors:
            result = {
                union((accumulated, element))
                for accumulated in result
                for element in factor
            }
        return result

    def _register_assertion(self, fact: Atom) -> None:
        arena = self._arena
        slot = arena.intern_atom(fact)
        if self.mode == "paper":
            pos_ids = set(self._pos_table.get(slot) or ())
            neg_ids = set(self._neg_table.get(slot) or ())
            pos_ids.add(EMPTY_ELEMENT)
            neg_ids.add(EMPTY_ELEMENT)
            if self.prune:
                pos_ids = set(arena.prune_element_ids(pos_ids))
                neg_ids = set(arena.prune_element_ids(neg_ids))
            self._pos_table.replace(slot, pos_ids)
            self._neg_table.replace(slot, neg_ids)
        else:
            record_ids = set(self._rec_table.get(slot) or ())
            record_ids.add(ASSERTION)
            if self.prune:
                record_ids = set(arena.prune_paired_ids(record_ids))
            self._rec_table.replace(slot, record_ids)

    def support_of(self, fact: Atom) -> SetOfSetsSupport:
        arena = self._arena
        slot = arena.atom_id(fact)
        pos_ids = self._pos_table.get(slot) if slot is not None else None
        if pos_ids is None:
            raise KeyError(fact)
        decode = arena.decode_element
        return SetOfSetsSupport(
            {decode(element) for element in pos_ids},
            {
                decode(element)
                for element in self._neg_table.get(slot) or ()
            },
        )

    def records_of(self, fact: Atom) -> set[PairedRecord]:
        slot = self._arena.atom_id(fact)
        record_ids = self._rec_table.get(slot) if slot is not None else None
        if record_ids is None:
            raise KeyError(fact)
        decode = self._arena.decode_paired_record
        return {decode(record) for record in record_ids}

    def support_entry_count(self) -> int:
        arena = self._arena
        if self.mode == "paper":
            members = arena.element_members
            return sum(
                len(members[element]) + 1
                for table in (self._pos_table, self._neg_table)
                for elements in table.values()
                for element in elements
            )
        size = arena.paired_record_size
        return sum(
            size(record)
            for records in self._rec_table.values()
            for record in records
        )

    def _support_state(self) -> dict:
        if self.mode == "paper":
            return {
                "supports": ArenaSosSupports(
                    self._arena,
                    self._pos_table.copy(),
                    self._neg_table.copy(),
                ),
                "records": {},
            }
        return {
            "supports": {},
            "records": ArenaPairedRecords(self._arena, self._rec_table.copy()),
        }

    def _load_support_state(self, state: dict) -> None:
        # v1 snapshots and legacy states carry the object-level mappings
        # ({fact: SetOfSetsSupport} / {fact: {PairedRecord}}).
        supports = state["supports"]
        records = state["records"]
        self._base_cache.clear()
        if self.mode == "paper":
            sos = (
                supports
                if isinstance(supports, ArenaSosSupports)
                else ArenaSosSupports.from_records(supports)
            )
            self._arena = sos.arena
            self._pos_table = sos.pos_table.copy()
            self._neg_table = sos.neg_table.copy()
            self._rec_table = SupportTable()
        else:
            paired = (
                records
                if isinstance(records, ArenaPairedRecords)
                else ArenaPairedRecords.from_records(records)
            )
            self._arena = paired.arena
            self._rec_table = paired.table.copy()
            self._pos_table = SupportTable()
            self._neg_table = SupportTable()

    # ------------------------------------------------------------------
    # Removal phases
    # ------------------------------------------------------------------

    def _evict(self, fact: Atom) -> None:
        self.model.discard(fact)
        slot = self._arena.atom_id(fact)
        if slot is not None:
            self._pos_table.pop(slot)
            self._neg_table.pop(slot)
            self._rec_table.pop(slot)

    def _remove_failing(self, relation: str, side: str) -> set[Atom]:
        """Drop failing elements; evict facts whose *side* set empties.

        ``side="neg"`` is the insertion case (elements whose expanded form
        contains the increased relation fail), ``side="pos"`` the deletion
        case. The arena memoises each element's expansion per statics
        table, so across the repeated passes of a batch each element is
        expanded at most once.
        """
        statics = self.db.statics
        arena = self._arena
        expand = arena.expand_neg if side == "neg" else arena.expand_pos
        doomed: list[Atom] = []
        with OBS.span("phase:removal") as span:
            if self.mode == "paper":
                table = self._neg_table if side == "neg" else self._pos_table
                for slot, elements in list(table.items()):
                    failing = {
                        element
                        for element in elements
                        if relation in expand(element, statics)
                    }
                    if not failing:
                        continue
                    survivors = elements - failing
                    if survivors:
                        table.replace(slot, survivors)
                    else:
                        doomed.append(arena.atoms[slot])
            else:
                sides = arena.paired_neg if side == "neg" else arena.paired_pos
                for slot, records in list(self._rec_table.items()):
                    failing = {
                        record
                        for record in records
                        if relation in expand(sides[record], statics)
                    }
                    if not failing:
                        continue
                    survivors = records - failing
                    if survivors:
                        self._rec_table.replace(slot, survivors)
                    else:
                        doomed.append(arena.atoms[slot])
            for fact in doomed:
                self._evict(fact)
            if span:
                span.set("evicted", len(doomed))
        return set(doomed)

    # ------------------------------------------------------------------
    # Update procedures
    # ------------------------------------------------------------------

    def _apply_insert_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        removed = self._remove_failing(fact.relation, "neg")
        self.model.add(fact)
        self._register_assertion(fact)
        added = self._resaturate_from(
            self.db.stratum_of(fact.relation), self._build_listener()
        )
        return removed, added | {fact}

    def _apply_delete_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        removed = self._remove_failing(fact.relation, "pos")
        if fact in self.model:
            self._evict(fact)
            removed.add(fact)
        added = self._resaturate_from(
            self.db.stratum_of(fact.relation), self._build_listener()
        )
        return removed, added

    def _apply_insert_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        head = rule.head.relation
        removed = self._remove_failing(head, "neg")
        added = self._resaturate_from(
            self.db.stratum_of(head), self._build_listener()
        )
        return removed, added

    def _apply_delete_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        head = rule.head.relation
        removed = self._remove_failing(head, "pos")
        # Relation-level supports cannot tell which head facts the deleted
        # rule produced; evict every derived-only fact of the relation and
        # let re-saturation bring back the survivors.
        for fact in list(self.model.facts_of(head)):
            if not self.db.is_asserted(fact):
                self._evict(fact)
                removed.add(fact)
        added = self._resaturate_from(
            self.db.stratum_of(head), self._build_listener()
        )
        return removed, added
