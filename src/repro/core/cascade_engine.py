"""Section 5.1 — the cascade solution with one-level rule-pointer supports.

Instead of a single removal phase followed by a single addition phase, the
removal and addition phases alternate stratum by stratum, driving two sets
through the strata: INC (relations incremented so far) and DEC (relations
decremented so far). "Insertions inside N_i can lead to deletions and
insertions inside N_{i+1} which in turn can lead to deletions and insertions
inside N_{i+2}, etc." — the cascade effect.

Maintaining INC/DEC lets the supports be *one level deep*: each fact simply
carries "the set of pointers pointing to the rules which triggered this fact"
(one interned record slot per clause in an :class:`~repro.core.arena.Arena`,
decoded to :class:`~repro.core.supports.RuleRecord` by ``records_of``); the
Pos/Neg elements are the rules' body relations, with no signed entries and
no static information.
Because every fact produced by one delta of one rule gets the same support
update, this is the only support form compatible with the delta-driven
(semi-naive) mechanism — the paper's implementation argument for preferring
this solution.

Two stratum-processing orders are provided (DESIGN.md, faithfulness note 2):

* ``order="saturate_first"`` (default) — saturate with the increments from
  lower strata *before* running REMOVENEG, so that a freshly enabled
  deduction can save a fact whose old deduction just failed. This realises
  the paper's prose claim that on ``{r :- p., q :- r., q :- not p.}`` the
  insertion of ``p`` does not remove ``q`` at all.
* ``order="paper"`` — the printed pseudocode (REMOVEPOS; REMOVENEG;
  SATURATE), under which ``q`` is removed by REMOVENEG and re-added by
  SATURATE (one migration).

Both orders run REMOVEPOS to an intra-stratum fixpoint (faithfulness note 3)
and propagate only the *net* per-stratum change into INC/DEC, which is what
keeps a removal-then-readdition from disturbing higher strata.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..datalog.atoms import Atom
from ..datalog.clauses import Clause
from ..datalog.evaluation import Derivation, semi_naive_saturate
from ..datalog.stratify import Stratum
from ..obs import OBS
from .arena import ASSERTION, Arena, ArenaRuleRecords, SupportTable
from .base import MaintenanceEngine, _as_fact, _as_rule
from .supports import RuleRecord


class CascadeEngine(MaintenanceEngine):
    """The cascade solution of section 5.1.

    The rule-pointer supports live as record slots in a
    :class:`~repro.core.arena.Arena` — one interned record per clause,
    fact → {slot} in a copy-on-write table — and the REMOVEPOS/REMOVENEG
    sweeps intersect the records' pre-extracted body relation-name sets
    straight out of the arena columns.
    """

    name = "cascade"

    def __init__(
        self,
        program,
        *,
        order: str = "saturate_first",
        skip_strata: bool = True,
        **kwargs,
    ):
        if order not in ("saturate_first", "paper"):
            raise ValueError(
                f"unknown order {order!r}; use 'saturate_first' or 'paper'"
            )
        self.order = order
        self.skip_strata = skip_strata
        self._arena = Arena()
        self._table = SupportTable()
        # clause → record slot. Engine-level (NOT a plan support template):
        # plan objects are pinned in the planner and outlive arena
        # replacements, so a slot cached on a plan would dangle after a
        # rebuild or state load. This cache is cleared whenever the arena
        # is replaced.
        self._slot_cache: dict[Clause, int] = {}
        self._cluster_cache: dict[int, dict[str, frozenset[str]]] = {}
        self._cluster_cache_owner: object = None
        super().__init__(program, **kwargs)

    # ------------------------------------------------------------------
    # Rule-pointer supports
    # ------------------------------------------------------------------

    def _reset_supports(self) -> None:
        self._arena = Arena()
        self._table = SupportTable()
        self._slot_cache.clear()

    def _slot_for(self, clause: Clause) -> int:
        """The arena record slot of *clause* (one dict probe when hot)."""
        slot = self._slot_cache.get(clause)
        if slot is None:
            slot = self._arena.intern_rule_record(
                clause if clause.body else None
            )
            self._slot_cache[clause] = slot
        return slot

    def _build_listener(self):
        table = self._table
        intern_atom = self._arena.intern_atom
        slot_for = self._slot_for

        def listener(derivation: Derivation, is_new: bool, plan) -> None:
            self._derivations_fired += 1
            table.add(
                intern_atom(derivation.head), slot_for(derivation.clause)
            )

        return listener

    def _register_assertion(self, fact: Atom) -> None:
        self._table.add(self._arena.intern_atom(fact), ASSERTION)

    def records_of(self, fact: Atom) -> set[RuleRecord]:
        slot = self._arena.atom_id(fact)
        records = None if slot is None else self._table.get(slot)
        if records is None:
            raise KeyError(fact)
        decode = self._arena.decode_rule_record
        return {decode(record) for record in records}

    def support_entry_count(self) -> int:
        return self._table.total

    def _support_state(self) -> dict:
        return {"records": ArenaRuleRecords(self._arena, self._table.copy())}

    def _load_support_state(self, state: dict) -> None:
        self._slot_cache.clear()
        self._cluster_cache.clear()
        self._cluster_cache_owner = None
        records = state["records"]
        if not isinstance(records, ArenaRuleRecords):
            # v1 snapshots and legacy states carry {fact: {RuleRecord}}
            records = ArenaRuleRecords.from_records(records)
        self._arena = records.arena
        self._table = records.table.copy()

    # ------------------------------------------------------------------
    # The three procedures of section 5.1
    # ------------------------------------------------------------------

    def _evict(self, fact: Atom) -> None:
        self.model.discard(fact)
        slot = self._arena.atom_id(fact)
        if slot is not None:
            self._table.pop(slot)

    def _stratum_facts(self, stratum: Stratum) -> list[Atom]:
        return [
            fact
            for relation in stratum.relations
            for fact in self.model.facts_of(relation)
        ]

    def _recursive_clusters(self, stratum: Stratum) -> dict[str, frozenset[str]]:
        """Map each relation on a positive intra-stratum cycle to its SCC,
        cached per stratification (rule updates replace the stratification
        object, which invalidates the cache).

        One-level rule-pointer supports are not well-founded across such
        cycles: a cluster of mutually recursive facts can survive the death
        of its only external support (each fact still holds the recursive
        record). Whenever a record is killed inside a recursive cluster the
        engine evicts the whole cluster and re-saturates it from below —
        the relation-level "pessimistic view" the paper applies elsewhere.
        (The section 4 solutions are immune: their supports are transitive.)
        """
        stratification = self.db.stratification
        if self._cluster_cache_owner is not stratification:
            self._cluster_cache.clear()
            self._cluster_cache_owner = stratification
        cached = self._cluster_cache.get(stratum.index)
        if cached is not None:
            return cached
        local = stratum.relations
        successors: dict[str, set[str]] = {name: set() for name in local}
        for clause in stratum.clauses:
            head = clause.head.relation
            for lit in clause.positive_body:
                if lit.relation in local:
                    successors[head].add(lit.relation)
        reach: dict[str, set[str]] = {}
        for name in local:
            seen: set[str] = set()
            frontier = list(successors[name])
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(successors[node])
            reach[name] = seen
        clusters: dict[str, frozenset[str]] = {}
        for name in local:
            if name in clusters or name not in reach[name]:
                continue
            component = frozenset(
                other
                for other in reach[name] | {name}
                if other == name or name in reach[other]
            )
            for member in component:
                clusters[member] = component
        self._cluster_cache[stratum.index] = clusters
        return clusters

    def _removepos(
        self,
        stratum: Stratum,
        driving: set[str],
        killed_relations: set[str] | None = None,
    ) -> set[Atom]:
        """REMOVEPOS(Stratum, B, C): kill records whose positive body
        intersects the decreased relations; evict facts left without
        records. Iterates to a fixpoint so intra-stratum positive chains
        cascade (locally evicted relations join the driving set).
        *killed_relations* collects the relations of facts that lost any
        record (the recursive-cluster guard needs them)."""
        driving = set(driving)
        evicted: set[Atom] = set()
        if not driving:
            return evicted
        with OBS.span("phase:removepos") as span:
            arena = self._arena
            atom_id = arena.atom_id
            table = self._table
            body_pos = arena.rule_record_pos
            changed = True
            while changed:
                changed = False
                for fact in self._stratum_facts(stratum):
                    slot = atom_id(fact)
                    records = None if slot is None else table.get(slot)
                    if records is None:
                        continue
                    dead = {
                        record
                        for record in records
                        if body_pos[record] & driving
                    }
                    if not dead:
                        continue
                    if killed_relations is not None:
                        killed_relations.add(fact.relation)
                    if dead == records:
                        self._evict(fact)
                        evicted.add(fact)
                        driving.add(fact.relation)
                        changed = True
                    else:
                        table.discard_many(slot, dead)
            if span:
                span.set("evicted", len(evicted))
        return evicted

    def _removeneg(
        self,
        stratum: Stratum,
        increased: set[str],
        fresh: frozenset = frozenset(),
        killed_relations: set[str] | None = None,
    ) -> set[Atom]:
        """REMOVENEG(Stratum, B, C): kill records whose negated relations
        intersect the increased ones. One pass suffices: negated relations
        live strictly below the stratum, so evictions here cannot trigger
        further REMOVENEG work in the same stratum — but they can trigger
        positive cascades, which the caller hands back to REMOVEPOS.

        *fresh* (saturate-first order only) lists the ``(atom slot, record
        slot)`` pairs re-validated by this update's own saturation of the
        stratum; their negation tests already ran against the final lower
        strata, so they are sound to keep.
        """
        evicted: set[Atom] = set()
        if not increased:
            return evicted
        with OBS.span("phase:removeneg") as span:
            arena = self._arena
            atom_id = arena.atom_id
            table = self._table
            body_neg = arena.rule_record_neg
            for fact in self._stratum_facts(stratum):
                slot = atom_id(fact)
                records = None if slot is None else table.get(slot)
                if records is None:
                    continue
                dead = {
                    record
                    for record in records
                    if body_neg[record] & increased
                    and (slot, record) not in fresh
                }
                if not dead:
                    continue
                if killed_relations is not None:
                    killed_relations.add(fact.relation)
                if dead == records:
                    self._evict(fact)
                    evicted.add(fact)
                else:
                    table.discard_many(slot, dead)
            if span:
                span.set("evicted", len(evicted))
        return evicted

    def _rebuild_recursive_clusters(
        self, stratum: Stratum, killed: set[str], already_evicted: set[Atom]
    ) -> set[Atom]:
        """Evict every recursive cluster touched by a kill or eviction.

        See :meth:`_recursive_clusters`. The subsequent SATURATE re-derives
        the cluster from below (its rules are full-fired through the evicted
        relations), so survivors come back — as migration, the price of
        relation-level one-level supports under recursion.
        """
        if not killed and not already_evicted:
            return set()
        clusters = self._recursive_clusters(stratum)
        if not clusters:
            return set()
        pending: set[str] = set()
        for relation in killed | {fact.relation for fact in already_evicted}:
            component = clusters.get(relation)
            if component:
                pending |= component
        evicted: set[Atom] = set()
        processed: set[str] = set()
        while pending - processed:
            batch = pending - processed
            processed |= batch
            newly: set[Atom] = set()
            for relation in batch:
                for fact in list(self.model.facts_of(relation)):
                    self._evict(fact)
                    newly.add(fact)
            evicted |= newly
            # Evictions can strip records of same-stratum consumers, which
            # may touch further clusters.
            more_killed: set[str] = set()
            more = self._removepos(
                stratum, {fact.relation for fact in newly}, more_killed
            )
            evicted |= more
            for relation in more_killed | {fact.relation for fact in more}:
                component = clusters.get(relation)
                if component:
                    pending |= component
        return evicted

    def _saturate(
        self,
        stratum: Stratum,
        inc: Mapping[str, set[tuple]],
        dec_names: set[str],
        extra_full_heads: set[str],
        seed_rules: Iterable[Clause] = (),
        journal: set | None = None,
    ) -> set[Atom]:
        """SATURATE(Stratum, B): delta-driven closure of one stratum.

        Helpful rules are those with a positive hypothesis in INC (joined
        against the increment) plus the full-fired ones: rules whose negated
        hypothesis lost tuples (a decrease can enable new instances), rules
        whose head relation just lost facts (to re-derive survivors), and
        freshly inserted rules. *journal*, when given, collects the
        (atom slot, record slot) pairs this saturation validated.
        """
        seed_rules = set(seed_rules)
        full_fire = {
            clause
            for clause in stratum.clauses
            if clause in seed_rules
            or clause.head.relation in extra_full_heads
            or any(
                lit.relation in dec_names for lit in clause.negative_body
            )
        }
        delta = {name: rows for name, rows in inc.items() if rows}
        base_listener = self._build_listener()
        if journal is None:
            listener = base_listener
        else:
            intern_atom = self._arena.intern_atom
            slot_for = self._slot_for

            def listener(derivation: Derivation, is_new: bool, plan) -> None:
                base_listener(derivation, is_new, plan)
                journal.add(
                    (intern_atom(derivation.head),
                     slot_for(derivation.clause))
                )

        with OBS.span("phase:saturate") as span:
            added = semi_naive_saturate(
                stratum.clauses,
                self.model,
                listener,
                planner=self.planner,
                initial_full=False,
                delta=delta,
                full_fire=full_fire,
            )
            if span:
                span.set("added", len(added))
                span.set("full_fire", len(full_fire))
        return added

    # ------------------------------------------------------------------
    # The cascade loop
    # ------------------------------------------------------------------

    def _stratum_is_unaffected(
        self, stratum: Stratum, active: set[str]
    ) -> bool:
        """The skip-strata improvement: "one can skip the strata in which
        no relation depends from the set DEC ∪ INC"."""
        for clause in stratum.clauses:
            for lit in clause.body:
                if lit.relation in active:
                    return False
        return True

    def _run_cascade(
        self,
        start: int,
        inc: dict[str, set[tuple]],
        dec: dict[str, set[tuple]],
        seed_rules: Iterable[Clause] = (),
        seed_evicted: frozenset[str] = frozenset(),
        seed_killed: frozenset[str] = frozenset(),
    ) -> tuple[set[Atom], set[Atom]]:
        """Process strata ``start..n``, alternating removals and additions.

        *inc*/*dec* arrive seeded with the net effect of the update below
        *start* (the inserted/deleted fact, or empty for rule updates) and
        accumulate the net per-stratum changes on the way up.
        *seed_evicted* names relations whose facts were evicted before the
        cascade started (fact/rule deletion); their rules are re-fired at
        the seed stratum so survivors with conservatively pruned supports
        are re-derived. *seed_killed* names relations where records were
        killed before the cascade started — the recursive-cluster guard
        must see those kills, or a cluster left with only its circular
        records would survive its external support.
        """
        removed_all: set[Atom] = set()
        added_all: set[Atom] = set()
        seed_rules = tuple(seed_rules)
        # The seeds were already applied to the model by the caller; keep a
        # copy so each stratum can reconstruct its pre-update content (a
        # batch may seed relations across several strata).
        seed_inc = {relation: set(rows) for relation, rows in inc.items()}
        seed_dec = {relation: set(rows) for relation, rows in dec.items()}
        strata = self.db.stratification.strata
        for stratum in strata[start - 1 :]:
            # Seeds activate at the stratum that defines them (a batch can
            # seed several strata at once).
            rules = tuple(
                rule
                for rule in seed_rules
                if self.db.stratum_of(rule.head.relation) == stratum.index
            )
            refire_heads = set(seed_evicted) & set(stratum.relations)
            pre_killed = set(seed_killed) & set(stratum.relations)
            inc_names = {name for name, rows in inc.items() if rows}
            dec_names = {name for name, rows in dec.items() if rows}
            if (
                self.skip_strata
                and not rules
                and not refire_heads
                and not pre_killed
                and self._stratum_is_unaffected(stratum, inc_names | dec_names)
            ):
                continue
            with OBS.span("stratum") as stratum_span:
                if stratum_span:
                    stratum_span.set("index", stratum.index)
                snapshot = {
                    relation: set(self.model.relation(relation).tuples)
                    for relation in stratum.relations
                }
                # Reconstruct the pre-update content so the net diff below
                # cancels a fact that leaves and returns within its stratum.
                for relation in stratum.relations:
                    snapshot[relation] -= seed_inc.get(relation, set())
                    snapshot[relation] |= seed_dec.get(relation, set())
                killed: set[str] = set(pre_killed)
                if self.order == "saturate_first":
                    journal: set = set()
                    self._saturate(
                        stratum, inc, dec_names, refire_heads, rules, journal
                    )
                    evicted = self._removepos(stratum, dec_names, killed)
                    neg_evicted = self._removeneg(
                        stratum, inc_names, frozenset(journal), killed
                    )
                    if neg_evicted:
                        evicted |= neg_evicted
                        evicted |= self._removepos(
                            stratum,
                            {fact.relation for fact in neg_evicted},
                            killed,
                        )
                    evicted |= self._rebuild_recursive_clusters(
                        stratum, killed, evicted
                    )
                    if evicted:
                        self._saturate(
                            stratum,
                            {},
                            set(),
                            {fact.relation for fact in evicted},
                        )
                else:  # printed pseudocode: REMOVEPOS; REMOVENEG; SATURATE
                    evicted = self._removepos(stratum, dec_names, killed)
                    neg_evicted = self._removeneg(
                        stratum, inc_names, killed_relations=killed
                    )
                    if neg_evicted:
                        evicted |= neg_evicted
                        evicted |= self._removepos(
                            stratum,
                            {fact.relation for fact in neg_evicted},
                            killed,
                        )
                    evicted |= self._rebuild_recursive_clusters(
                        stratum, killed, evicted
                    )
                    self._saturate(
                        stratum,
                        inc,
                        dec_names,
                        {fact.relation for fact in evicted} | refire_heads,
                        rules,
                    )
                # Account against the pre-update content: an eviction counts
                # as removal only for a pre-existing fact (anything else was
                # churn within this update), and a migrated fact is a
                # pre-existing eviction that is present again now.
                for fact in evicted:
                    if fact.args in snapshot.get(fact.relation, ()):
                        removed_all.add(fact)
                        if fact in self.model:
                            added_all.add(fact)
                    else:
                        self._transient += 1
                # Net per-stratum change drives the higher strata; a fact
                # that migrated inside this stratum is invisible above it.
                # Each relation belongs to exactly one stratum, so replacing
                # its inc/dec entries with the net diff is safe.
                stratum_gained = 0
                for relation in stratum.relations:
                    now = set(self.model.relation(relation).tuples)
                    before = snapshot[relation]
                    gained = now - before
                    inc[relation] = gained
                    dec[relation] = before - now
                    stratum_gained += len(gained)
                    added_all.update(Atom(relation, row) for row in gained)
                if stratum_span:
                    stratum_span.set("evicted", len(evicted))
                    stratum_span.set("gained", stratum_gained)
        return removed_all, added_all

    # ------------------------------------------------------------------
    # Update procedures
    # ------------------------------------------------------------------

    def apply_batch(self, updates) -> "UpdateResult":
        """One cascade pass for a whole batch of updates.

        All program-level changes are admitted first (each checked exactly
        as in the single-update operations), the *net* assertion and rule
        changes seed one INC/DEC pair, and the strata are walked once. A
        fact deleted and re-inserted by different updates of the batch is
        net-unchanged and causes no work at all.
        """
        updates = list(updates)
        begun = self._begin_update()
        with OBS.span("update:batch") as span:
            if span:
                span.set("updates", len(updates))
            return self._apply_batch_body(updates, begun)

    def _apply_batch_body(self, updates, begun) -> "UpdateResult":
        before_facts = set(self.db.program.facts)
        before_rules = set(self.db.program.rules)
        for operation, subject in updates:
            if operation == "insert_fact":
                fact = _as_fact(subject)
                if not self.db.is_asserted(fact):
                    self.db.assert_fact(fact)
            elif operation == "delete_fact":
                self.db.retract_fact(_as_fact(subject))
            elif operation == "insert_rule":
                self.db.add_rule(_as_rule(subject))
            elif operation == "delete_rule":
                self.db.remove_rule(_as_rule(subject))
            else:
                raise ValueError(f"unknown operation {operation!r}")
        net_new_facts = set(self.db.program.facts) - before_facts
        net_gone_facts = before_facts - set(self.db.program.facts)
        net_new_rules = set(self.db.program.rules) - before_rules
        net_gone_rules = before_rules - set(self.db.program.rules)

        inc: dict[str, set[tuple]] = {}
        dec: dict[str, set[tuple]] = {}
        removed: set[Atom] = set()
        seed_evicted: set[str] = set()
        seed_killed: set[str] = set()
        # Seed the whole net insertion set through the bulk path: one
        # batched model mutation per relation instead of per-fact
        # index/statistics maintenance (experiment E18).
        fresh = [fact for fact in net_new_facts if fact not in self.model]
        for fact in net_new_facts:
            if fact in self.model:
                self._register_assertion(fact)
        self.model.add_many(fresh)
        arena = self._arena
        table = self._table
        for fact in fresh:
            table.replace(arena.intern_atom(fact), {ASSERTION})
            inc.setdefault(fact.relation, set()).add(fact.args)
        for rule in net_gone_rules:
            target = arena.rule_record_id(rule)
            if target is None:  # never fired: no records point at it
                continue
            for fact in list(self.model.facts_of(rule.head.relation)):
                slot = arena.atom_id(fact)
                records = None if slot is None else table.get(slot)
                if records and target in records:
                    table.discard(slot, target)
                    seed_killed.add(fact.relation)
                    if not table.get(slot):
                        self._evict(fact)
                        removed.add(fact)
                        dec.setdefault(fact.relation, set()).add(fact.args)
                        seed_evicted.add(fact.relation)
        for fact in net_gone_facts:
            slot = arena.atom_id(fact)
            records = None if slot is None else table.get(slot)
            if records is None:
                continue
            table.discard(slot, ASSERTION)
            seed_killed.add(fact.relation)
            if not table.get(slot):
                self._evict(fact)
                removed.add(fact)
                dec.setdefault(fact.relation, set()).add(fact.args)
                seed_evicted.add(fact.relation)

        affected = (
            {relation for relation, rows in inc.items() if rows}
            | {relation for relation, rows in dec.items() if rows}
            | {rule.head.relation for rule in net_new_rules}
            | seed_evicted
            | seed_killed
        )
        if affected or net_new_rules:
            start = min(
                (self.db.stratum_of(relation) for relation in affected),
                default=1,
            )
            if net_new_rules:
                start = min(
                    [start]
                    + [
                        self.db.stratum_of(rule.head.relation)
                        for rule in net_new_rules
                    ]
                )
            cascade_removed, cascade_added = self._run_cascade(
                start,
                inc,
                dec,
                seed_rules=tuple(net_new_rules),
                seed_evicted=frozenset(seed_evicted),
                seed_killed=frozenset(seed_killed),
            )
        else:
            cascade_removed, cascade_added = set(), set()
        added = cascade_added | {
            fact for fact in net_new_facts if fact in self.model
        }
        added |= {fact for fact in removed if fact in self.model}
        return self._result(
            "batch",
            f"{len(updates)} updates",
            removed | cascade_removed,
            added,
            begun,
        )

    def _apply_insert_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        self.model.add(fact)
        self._table.replace(self._arena.intern_atom(fact), {ASSERTION})
        inc = {fact.relation: {fact.args}}
        removed, added = self._run_cascade(
            self.db.stratum_of(fact.relation), inc, {}
        )
        return removed, added | {fact}

    def _apply_delete_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        slot = self._arena.atom_id(fact)
        records = None if slot is None else self._table.get(slot)
        had_assertion = bool(records) and ASSERTION in records
        if had_assertion:
            self._table.discard(slot, ASSERTION)
        survivors = bool(self._table.get(slot)) if slot is not None else False
        if survivors:
            # Other deductions keep the fact alive — unless its relation
            # sits on a recursive cluster, where the surviving records may
            # be the cluster's own circular ones: the assertion we just
            # dropped could have been the external support.
            stratum_index = self.db.stratum_of(fact.relation)
            stratum = self.db.stratification.strata[stratum_index - 1]
            if had_assertion and fact.relation in self._recursive_clusters(
                stratum
            ):
                return self._run_cascade(
                    stratum_index,
                    {},
                    {},
                    seed_killed=frozenset({fact.relation}),
                )
            # Not recursive: the model is provably unchanged, nothing
            # cascades. (The removal-phase solutions of section 4 would
            # have evicted and re-derived the fact here.)
            return set(), set()
        self._evict(fact)
        dec = {fact.relation: {fact.args}}
        removed, added = self._run_cascade(
            self.db.stratum_of(fact.relation),
            {},
            dec,
            seed_evicted=frozenset({fact.relation}),
        )
        if fact in self.model:  # re-derived by a rule: the fact migrated
            added.add(fact)
        return removed | {fact}, added

    def _apply_insert_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        # "We add it to the stratum Pi which contains the definition of the
        # relation p and perform directly step (b) of the above algorithm."
        return self._run_cascade(
            self.db.stratum_of(rule.head.relation), {}, {}, seed_rules=(rule,)
        )

    def _apply_delete_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        # Rule pointers make deletion direct: kill exactly the records that
        # point at the deleted rule.
        head = rule.head.relation
        dec: dict[str, set[tuple]] = {}
        evicted: set[Atom] = set()
        arena = self._arena
        table = self._table
        target_slot = arena.rule_record_id(rule)
        if target_slot is not None:
            for fact in list(self.model.facts_of(head)):
                slot = arena.atom_id(fact)
                records = None if slot is None else table.get(slot)
                if records is None or target_slot not in records:
                    continue
                table.discard(slot, target_slot)
                if not table.get(slot):
                    self._evict(fact)
                    evicted.add(fact)
                    dec.setdefault(head, set()).add(fact.args)
        removed, added = self._run_cascade(
            self.db.stratum_of(head),
            {},
            dec,
            seed_evicted=frozenset({head}) if evicted else frozenset(),
            seed_killed=frozenset({head}),
        )
        added.update(fact for fact in evicted if fact in self.model)
        return removed | evicted, added
