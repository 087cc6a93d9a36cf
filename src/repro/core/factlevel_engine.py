"""Section 5.2 discussion — fact-level supports, the no-migration solution.

"One might consider a different form of supports in which not relations but
facts are recorded. [...] In fact, this form of supports combined with an
appropriate type of a saturation procedure keeping all possible 'original'
deductions would lead to a solution with no migration. This solution could
be of interest in the case of Artificial Intelligence applications where
typically few facts and many rules are used. However, this choice should be
rejected in the framework of databases [because it defeats the delta-driven
mechanism and the bookkeeping cost is prohibitive]."

This engine implements that rejected-but-interesting solution so the
trade-off can be measured (experiments E7, E8, E12):

* every ground deduction is kept as a fact record (rule, positive body
  *facts*, negated ground *atoms*) — a ground justification network,
  exactly a Doyle-style TMS. Records are int slots in an
  :class:`~repro.core.arena.Arena`; ``records_of`` decodes them to
  :class:`~repro.core.supports.FactRecord` objects on demand;
* an update kills precisely the records whose negative facts appeared or
  whose positive facts disappeared;
* a fact is evicted only when it has no *well-founded* record left — the
  groundedness check guards against mutually supporting positive cycles
  (``p :- q, q :- p``) surviving the loss of their external support;
* saturation runs before the kills, so a deduction enabled by the same
  update keeps its fact alive through the transition: **nothing is ever
  removed and re-added — migration is structurally zero** (asserted by the
  property tests).
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.atoms import Atom
from ..datalog.clauses import Clause
from ..datalog.evaluation import Derivation, semi_naive_saturate
from ..datalog.stratify import Stratum
from ..obs import OBS
from .arena import ASSERTION, Arena, ArenaFactRecords, SupportTable
from .base import MaintenanceEngine
from .supports import FactRecord


class FactLevelEngine(MaintenanceEngine):
    """Fact-level supports keeping all deductions (section 5.2 discussion).

    Its bookkeeping is the largest of any solution (one record per
    ground deduction). It lives as int slots in a shared
    :class:`~repro.core.arena.Arena`: kills and groundedness checks
    intersect frozensets of ints, and a checkpoint copies one
    copy-on-write :class:`~repro.core.arena.SupportTable`.
    """

    name = "factlevel"

    def __init__(self, program, **kwargs):
        self._arena = Arena()
        self._table = SupportTable()
        super().__init__(program, **kwargs)

    # ------------------------------------------------------------------
    # Supports
    # ------------------------------------------------------------------

    def _reset_supports(self) -> None:
        self._arena = Arena()
        self._table = SupportTable()

    def _build_listener(self):
        arena = self._arena
        table = self._table
        intern_atom = arena.intern_atom

        def listener(derivation: Derivation, is_new: bool, plan) -> None:
            self._derivations_fired += 1
            if not derivation.clause.body:
                slot = ASSERTION
            else:
                slot = arena.intern_fact_record(
                    arena.intern_rule(derivation.clause),
                    frozenset(
                        intern_atom(fact)
                        for fact in derivation.positive_facts
                    ),
                    frozenset(
                        intern_atom(atom)
                        for atom in derivation.negative_atoms
                    ),
                )
            table.add(intern_atom(derivation.head), slot)

        return listener

    def _register_assertion(self, fact: Atom) -> None:
        self._table.add(self._arena.intern_atom(fact), ASSERTION)

    def records_of(self, fact: Atom) -> set[FactRecord]:
        slot = self._arena.atom_id(fact)
        records = None if slot is None else self._table.get(slot)
        if records is None:
            raise KeyError(fact)
        decode = self._arena.decode_fact_record
        return {decode(record) for record in records}

    def support_entry_count(self) -> int:
        size = self._arena.fact_record_size
        return sum(
            size(record)
            for records in self._table.values()
            for record in records
        )

    def _support_state(self) -> dict:
        # The arena is shared (append-only: existing slots never change
        # meaning), the table is copy-on-write — taking a support
        # snapshot is O(facts with support), not O(entries).
        return {"records": ArenaFactRecords(self._arena, self._table.copy())}

    def _load_support_state(self, state: dict) -> None:
        records = state["records"]
        if not isinstance(records, ArenaFactRecords):
            # v1 snapshots and legacy states carry {fact: {FactRecord}}
            records = ArenaFactRecords.from_records(records)
        self._arena = records.arena
        self._table = records.table.copy()

    # ------------------------------------------------------------------
    # The cascade at fact granularity
    # ------------------------------------------------------------------

    def _evict(self, fact: Atom) -> None:
        self.model.discard(fact)
        slot = self._arena.atom_id(fact)
        if slot is not None:
            self._table.pop(slot)

    def _saturate(
        self,
        stratum: Stratum,
        inc_facts: set[Atom],
        dec_relations: set[str],
        extra_full_heads: set[str] = frozenset(),
        seed_rules: Iterable[Clause] = (),
    ) -> set[Atom]:
        seed_rules = set(seed_rules)
        # Asserted facts only ever need a full fire when their head
        # relation must re-derive (extra_full_heads) or they were seeded
        # directly; the hot insert path scans rules only — O(rules), not
        # O(asserted facts).
        candidates = (
            stratum.clauses
            if extra_full_heads or seed_rules
            else stratum.rules
        )
        full_fire = {
            clause
            for clause in candidates
            if clause in seed_rules
            or clause.head.relation in extra_full_heads
            or any(
                lit.relation in dec_relations for lit in clause.negative_body
            )
        }
        delta: dict[str, set[tuple]] = {}
        for fact in inc_facts:
            delta.setdefault(fact.relation, set()).add(fact.args)
        with OBS.span("phase:saturate") as span:
            added = semi_naive_saturate(
                stratum.clauses,
                self.model,
                self._build_listener(),
                initial_full=False,
                delta=delta,
                full_fire=full_fire,
                planner=self.planner,
            )
            if span:
                span.set("added", len(added))
                span.set("full_fire", len(full_fire))
        return added

    @staticmethod
    def _vulnerable_heads(
        stratum: Stratum, inc_facts: set[Atom], dec_facts: set[Atom]
    ) -> set[str]:
        """Head relations whose records could reference a changed fact.

        A fact-level record stores the ground body facts of one rule
        firing, so it can intersect *inc_facts* only through a negative
        body literal of the same relation as an inserted fact, and
        *dec_facts* only through a positive literal of a deleted fact's
        relation. Heads of rules with no such literal cannot lose a
        record — the kill sweep skips them, which on traffic whose
        relations no rule negates reduces the sweep to nothing instead
        of an O(model) scan per update.
        """
        inc_relations = {fact.relation for fact in inc_facts}
        dec_relations = {fact.relation for fact in dec_facts}
        return {
            clause.head.relation
            for clause in stratum.rules
            if any(
                literal.relation in inc_relations
                for literal in clause.negative_body
            )
            or any(
                literal.relation in dec_relations
                for literal in clause.positive_body
            )
        }

    def _kill_records(
        self, stratum: Stratum, inc_facts: set[Atom], dec_facts: set[Atom]
    ) -> bool:
        """Kill exactly the records invalidated by the update. Returns
        whether anything was killed (triggering a groundedness pass).

        The sweep runs in id space: two int-set intersections per
        record. A changed fact that was never interned cannot appear in
        any record, so un-interned facts drop out up front."""
        arena = self._arena
        atom_id = arena.atom_id
        inc_slots = {
            slot
            for slot in (atom_id(fact) for fact in inc_facts)
            if slot is not None
        }
        dec_slots = {
            slot
            for slot in (atom_id(fact) for fact in dec_facts)
            if slot is not None
        }
        if not inc_slots and not dec_slots:
            return False
        heads = self._vulnerable_heads(stratum, inc_facts, dec_facts)
        table = self._table
        fact_pos, fact_neg = arena.fact_pos, arena.fact_neg
        killed = False
        for relation in stratum.relations & heads:
            for fact in list(self.model.facts_of(relation)):
                slot = atom_id(fact)
                records = None if slot is None else table.get(slot)
                if not records:
                    continue
                dead = {
                    record
                    for record in records
                    if fact_neg[record] & inc_slots
                    or fact_pos[record] & dec_slots
                }
                if dead:
                    table.discard_many(slot, dead)
                    killed = True
        return killed

    def _well_founded_evictions(self, stratum: Stratum) -> set[Atom]:
        """Evict the stratum facts with no grounded deduction left.

        A record is grounded when each of its positive body facts either
        lives in a lower stratum *and is still in the model* (a record can
        go stale when its body fact died in the same stratum pass that
        created the dec entry — restratification moves relations between
        strata, so presence must be checked, not assumed) or has itself
        been validated. Iterating to a fixpoint from below rejects mutually
        supporting positive cycles.

        The groundedness fixpoint runs over atom slots. The "body fact
        lives below this stratum and is still in the model" predicate is
        memoised per slot across the whole fixpoint — the record graph
        cites the same lower-stratum facts over and over, and in id space
        the memo is one dict probe.
        """
        index = stratum.index
        stratum_of = self.db.stratification.stratum_of
        candidates = [
            fact
            for relation in stratum.relations
            for fact in self.model.facts_of(relation)
        ]
        arena = self._arena
        atom_id = arena.atom_id
        atoms = arena.atoms
        fact_pos = arena.fact_pos
        table = self._table
        model = self.model
        slot_of = {fact: atom_id(fact) for fact in candidates}
        lower: dict[int, bool] = {}

        def is_lower(slot: int) -> bool:
            cached = lower.get(slot)
            if cached is None:
                atom = atoms[slot]
                cached = lower[slot] = (
                    stratum_of(atom.relation) < index and atom in model
                )
            return cached

        validated: set[int] = set()
        changed = True
        while changed:
            changed = False
            for fact in candidates:
                slot = slot_of[fact]
                if slot is None or slot in validated:
                    continue
                for record in table.get(slot) or ():
                    grounded = all(
                        body in validated or is_lower(body)
                        for body in fact_pos[record]
                    )
                    if grounded:
                        validated.add(slot)
                        changed = True
                        break
        evicted = {
            fact
            for fact in candidates
            if slot_of[fact] is None or slot_of[fact] not in validated
        }
        for fact in evicted:
            self._evict(fact)
        span = OBS.tracer.current if OBS.enabled else None
        if span is not None:
            span.event("well_founded_check", evicted=len(evicted))
        return evicted

    def _run_cascade(
        self,
        start: int,
        inc_facts: set[Atom],
        dec_facts: set[Atom],
        seed_rules: Iterable[Clause] = (),
        forced_check_start: bool = False,
    ) -> tuple[set[Atom], set[Atom]]:
        removed_all: set[Atom] = set()
        added_all: set[Atom] = set()
        seed_rules = tuple(seed_rules)
        strata = self.db.stratification.strata
        for position, stratum in enumerate(strata[start - 1 :]):
            first = position == 0
            inc_relations = {fact.relation for fact in inc_facts}
            dec_relations = {fact.relation for fact in dec_facts}
            if not first and not self._stratum_depends_on(
                stratum, inc_relations | dec_relations
            ):
                continue
            if first and not (
                seed_rules or forced_check_start or inc_facts or dec_facts
            ):
                continue
            with OBS.span("stratum") as stratum_span:
                if stratum_span:
                    stratum_span.set("index", stratum.index)
                # Saturate FIRST: a deduction enabled by this very update
                # keeps its fact alive through the kills below — this is
                # what makes migration structurally zero.
                added = self._saturate(
                    stratum, inc_facts, dec_relations, seed_rules=seed_rules
                    if first
                    else (),
                )
                added_all |= added
                inc_facts |= added
                with OBS.span("phase:removal") as removal_span:
                    killed = self._kill_records(stratum, inc_facts, dec_facts)
                    evicted: set[Atom] = set()
                    if killed or (first and forced_check_start):
                        evicted = self._well_founded_evictions(stratum)
                        # Facts added earlier in this very update and
                        # evicted now were never part of the maintained
                        # model: churn, not removal (and certainly not
                        # migration).
                        transient = evicted & added_all
                        self._transient += len(transient)
                        added_all -= transient
                        removed_all |= evicted - transient
                        dec_facts |= evicted
                        inc_facts -= evicted
                        if evicted:
                            # Purge records of surviving same-stratum facts
                            # that cite the just-evicted ones, so no stale
                            # record outlives its body fact.
                            self._kill_records(stratum, inc_facts, dec_facts)
                    if removal_span:
                        removal_span.set("evicted", len(evicted))
                if stratum_span:
                    stratum_span.set("added", len(added))
        return removed_all, added_all

    def _stratum_depends_on(self, stratum: Stratum, active: set[str]) -> bool:
        if not active:
            return False
        for clause in stratum.clauses:
            for lit in clause.body:
                if lit.relation in active:
                    return True
        return False

    # ------------------------------------------------------------------
    # Update procedures
    # ------------------------------------------------------------------

    def _apply_insert_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        self.model.add(fact)
        self._table.replace(self._arena.intern_atom(fact), {ASSERTION})
        removed, added = self._run_cascade(
            self.db.stratum_of(fact.relation), {fact}, set()
        )
        return removed, added | {fact}

    def _apply_delete_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        slot = self._arena.atom_id(fact)
        if slot is not None:
            self._table.discard(slot, ASSERTION)
        # The fact may survive through other deductions; the well-founded
        # check at its stratum decides (and handles positive cycles whose
        # only external support was this assertion).
        removed, added = self._run_cascade(
            self.db.stratum_of(fact.relation),
            set(),
            set(),
            forced_check_start=True,
        )
        return removed, added

    def _apply_insert_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        return self._run_cascade(
            self.db.stratum_of(rule.head.relation),
            set(),
            set(),
            seed_rules=(rule,),
        )

    def _apply_delete_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        head = rule.head.relation
        killed = False
        dec_facts: set[Atom] = set()
        arena = self._arena
        table = self._table
        rule_slot = arena.rule_id(rule)
        fact_rule = arena.fact_rule
        if rule_slot is not None:  # a never-fired rule has no records
            for fact in list(self.model.facts_of(head)):
                slot = arena.atom_id(fact)
                records = None if slot is None else table.get(slot)
                if not records:
                    continue
                dead = {
                    record
                    for record in records
                    if fact_rule[record] == rule_slot
                }
                if dead:
                    killed = True
                    if dead == records:
                        # Evict here rather than in the stratum sweep:
                        # deleting the relation's last rule can drop it
                        # out of the stratification entirely, in which
                        # case no stratum would ever visit these facts
                        # again.
                        self._evict(fact)
                        dec_facts.add(fact)
                    else:
                        table.discard_many(slot, dead)
        removed, added = self._run_cascade(
            self.db.stratum_of(head),
            set(),
            dec_facts,
            forced_check_start=killed,
        )
        return removed | dec_facts, added
