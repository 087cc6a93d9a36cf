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

The paper's objection is that this "defeats the delta-driven mechanism";
here removal is delta-driven too (experiment E23). The kill pass starts
from the inserted / deleted atoms and visits only the records the arena's
citation index says ever cited them. The heads that lost a record are
closed forward over live same-stratum positive citations into the
*suspects*, and only those are re-proved:

  a non-suspect fact lost no record, and none of its live records cites a
  suspect (it would be one), so the proof that grounded it before the
  update uses only records and facts the update left alone — it stands.
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
    :class:`~repro.core.arena.Arena`: kills and groundedness checks walk
    the arena's citation index from the changed atoms, the entry count
    is a total the table carries, and a checkpoint copies one
    copy-on-write :class:`~repro.core.arena.SupportTable`.
    """

    name = "factlevel"

    def __init__(self, program, **kwargs):
        self._reset_supports()
        super().__init__(program, **kwargs)

    # ------------------------------------------------------------------
    # Supports
    # ------------------------------------------------------------------

    def _reset_supports(self) -> None:
        self._arena = Arena()
        self._table = SupportTable(self._arena.fact_size)

    def _build_listener(self):
        arena = self._arena
        table = self._table
        intern_atom = arena.intern_atom
        attach = arena.attach_fact_record

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
            attach(table, intern_atom(derivation.head), slot)

        return listener

    def _register_assertion(self, fact: Atom) -> None:
        self._arena.attach_fact_record(
            self._table, self._arena.intern_atom(fact), ASSERTION
        )

    def records_of(self, fact: Atom) -> set[FactRecord]:
        slot = self._arena.atom_id(fact)
        records = None if slot is None else self._table.get(slot)
        if records is None:
            raise KeyError(fact)
        decode = self._arena.decode_fact_record
        return {decode(record) for record in records}

    def support_entry_count(self) -> int:
        return self._table.total

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

    def _kill_records(
        self, stratum: Stratum, inc_facts: set[Atom], dec_facts: set[Atom]
    ) -> set[int]:
        """Kill exactly the records invalidated by the update; returns
        the head slots that lost one (the groundedness pass's seeds).

        The walk starts from the changed atoms: the arena's citation
        index names every record that ever cited an inserted fact
        negatively or a deleted one positively, and every head such a
        record was ever attached to. The index is append-only, so each
        candidate is checked against the live table; a head of another
        stratum is left to that stratum's own pass. A changed fact that
        was never interned cannot appear in any record."""
        arena = self._arena
        atom_id = arena.atom_id
        atoms = arena.atoms
        heads_of = arena.fact_record_heads
        relations = stratum.relations
        table = self._table
        dead: dict[int, set[int]] = {}
        visited = 0
        with OBS.span("phase:kill") as span:
            for facts, positive in ((inc_facts, False), (dec_facts, True)):
                for fact in facts:
                    slot = atom_id(fact)
                    if slot is None:
                        continue
                    for record in arena.fact_citers(slot, positive):
                        visited += 1
                        for head in heads_of(record):
                            if atoms[head].relation not in relations:
                                continue
                            live = table.get(head)
                            if live and record in live:
                                dead.setdefault(head, set()).add(record)
            for head, records in dead.items():
                table.discard_many(head, records)
            if span:
                span.set("visited", visited)
                span.set("killed", sum(map(len, dead.values())))
        return set(dead)

    def _well_founded_evictions(
        self, stratum: Stratum, seeds: set[int]
    ) -> set[Atom]:
        """Evict the stratum facts with no grounded deduction left.

        *seeds* are the head slots that lost a record. Closing them
        forward over live same-stratum positive citations gives the
        *suspects*; the groundedness fixpoint runs over those only. A
        record is grounded when each of its positive body facts either
        is not a suspect *and is still in the model* (a record can go
        stale when its body fact died in the same stratum pass that
        created the dec entry — restratification moves relations between
        strata, so presence must be checked, not assumed) or has itself
        been validated. Iterating to a fixpoint from below rejects
        mutually supporting positive cycles.

        The "not a suspect and in the model" predicate is memoised per
        slot across the whole fixpoint — the record graph cites the same
        outside facts over and over, and in id space the memo is one
        dict probe.
        """
        arena = self._arena
        atoms = arena.atoms
        fact_pos = arena.fact_pos
        heads_of = arena.fact_record_heads
        relations = stratum.relations
        table = self._table
        model = self.model
        with OBS.span("phase:well_founded") as span:
            suspects = set(seeds)
            frontier = list(seeds)
            while frontier:
                for record in arena.fact_citers(frontier.pop(), True):
                    for head in heads_of(record):
                        if (
                            head not in suspects
                            and atoms[head].relation in relations
                            and record in (table.get(head) or ())
                        ):
                            suspects.add(head)
                            frontier.append(head)
            outside: dict[int, bool] = {}

            def stands(slot: int) -> bool:
                cached = outside.get(slot)
                if cached is None:
                    cached = outside[slot] = (
                        slot not in suspects and atoms[slot] in model
                    )
                return cached

            validated: set[int] = set()
            changed = True
            while changed:
                changed = False
                for slot in suspects:
                    if slot in validated:
                        continue
                    for record in table.get(slot) or ():
                        grounded = all(
                            body in validated or stands(body)
                            for body in fact_pos[record]
                        )
                        if grounded:
                            validated.add(slot)
                            changed = True
                            break
            evicted = {atoms[slot] for slot in suspects - validated}
            for fact in evicted:
                self._evict(fact)
            if span:
                span.set("seeds", len(seeds))
                span.set("suspects", len(suspects))
                span.set("evicted", len(evicted))
        return evicted

    def _run_cascade(
        self,
        start: int,
        inc_facts: set[Atom],
        dec_facts: set[Atom],
        seed_rules: Iterable[Clause] = (),
        seeds: Iterable[int] = (),
    ) -> tuple[set[Atom], set[Atom]]:
        """Saturate, kill and evict stratum by stratum from *start* up.
        *seeds* are head slots of stratum *start* that already lost a
        record (a retracted assertion, a deleted rule's firings)."""
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
            if first and not (seed_rules or seeds or inc_facts or dec_facts):
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
                    lost = self._kill_records(stratum, inc_facts, dec_facts)
                    if first:
                        lost.update(seeds)
                    evicted: set[Atom] = set()
                    if lost:
                        evicted = self._well_founded_evictions(stratum, lost)
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
        self._register_assertion(fact)
        removed, added = self._run_cascade(
            self.db.stratum_of(fact.relation), {fact}, set()
        )
        return removed, added | {fact}

    def _apply_delete_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        slot = self._arena.intern_atom(fact)
        self._table.discard(slot, ASSERTION)
        # The fact may survive through other deductions; the well-founded
        # check seeded with it decides (and handles positive cycles whose
        # only external support was this assertion).
        return self._run_cascade(
            self.db.stratum_of(fact.relation), set(), set(), seeds=(slot,)
        )

    def _apply_insert_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        return self._run_cascade(
            self.db.stratum_of(rule.head.relation),
            set(),
            set(),
            seed_rules=(rule,),
        )

    def _apply_delete_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        head = rule.head.relation
        seeds: set[int] = set()
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
                        seeds.add(slot)
        removed, added = self._run_cascade(
            self.db.stratum_of(head), set(), dec_facts, seeds=seeds
        )
        return removed | dec_facts, added
