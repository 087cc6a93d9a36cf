"""The common shape of every maintenance solution.

Each engine owns a :class:`~repro.datalog.database.StratifiedDatabase` and
the explicit representation the paper chooses: the standard model ``M(P)``,
enriched with supports ("we shall actually maintain an enrichment of M(P) in
which each fact from M(P) is tagged with some additional information").

The four update operations share admission logic and accounting; engines
implement the removal/addition phases through the ``_apply_*`` hooks. All
engines accept facts/rules either as AST objects or as source strings.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import ClassVar, Iterable, Union

from ..datalog.atoms import Atom
from ..datalog.clauses import Clause, Program
from ..datalog.database import StratifiedDatabase
from ..datalog.errors import UpdateError
from ..datalog.evaluation import saturate
from ..datalog.model import Model
from ..datalog.parser import parse_clause, parse_fact
from ..datalog.plan import Planner
from ..obs import OBS
from .metrics import MaintenanceStats, UpdateResult

Source = Union[Atom, Clause, str]


def _as_fact(value: Union[Atom, str]) -> Atom:
    if isinstance(value, str):
        return parse_fact(value)
    if isinstance(value, Atom):
        if not value.is_ground():
            raise UpdateError(f"fact {value} contains variables")
        return value
    raise TypeError(f"expected a fact, got {value!r}")


def _as_rule(value: Union[Clause, str]) -> Clause:
    clause = parse_clause(value) if isinstance(value, str) else value
    if not isinstance(clause, Clause):
        raise TypeError(f"expected a rule, got {value!r}")
    if not clause.body:
        raise UpdateError(
            f"{clause} is a fact; use insert_fact/delete_fact for facts"
        )
    return clause


class MaintenanceEngine(ABC):
    """Base class of the maintenance solutions of sections 4 and 5."""

    name: ClassVar[str] = "abstract"

    def __init__(
        self,
        program: Union[Program, StratifiedDatabase, str],
        *,
        method: str = "seminaive",
        granularity: str = "level",
        build: bool = True,
    ):
        if isinstance(program, StratifiedDatabase):
            self.db = program.copy()
        else:
            self.db = StratifiedDatabase(program, granularity)
        self.method = method
        self.model = Model()
        self.planner = Planner()  # engine-owned plan cache, reused across updates
        self.totals = MaintenanceStats()
        self._derivations_fired = 0
        self._transient = 0  # facts added and evicted within one update
        if build:
            self.rebuild()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Compute the model (and supports) from scratch."""
        self.model = Model()
        self._reset_supports()
        self._pin_rule_plans()
        for stratum in self.db.stratification:
            saturate(
                stratum.clauses, self.model, self._build_listener(),
                self.method, planner=self.planner,
            )

    def _pin_rule_plans(self) -> None:
        """Pin exactly the current program rules' plans in the planner.

        Pinned plans are exempt from the planner's LRU eviction, so a
        flood of ad-hoc probes (queries, constraint checks) through the
        same planner can never evict the rule plans the maintenance loops
        re-execute on every update. Syncing (not just adding) matters on
        the restore path: a rollback or snapshot load may swap in a
        program with fewer rules, and the dropped rules' pins must lapse
        or they would leak one unevictable plan each.
        """
        self.planner.sync_pins(self.db.program.rules)

    def _reset_supports(self) -> None:
        """Clear the support store before a rebuild. Default: nothing."""

    def _build_listener(self):
        """Derivation listener used during (re)builds. Default: counter only."""

        def listener(derivation, is_new: bool, plan) -> None:
            self._derivations_fired += 1

        return listener

    # ------------------------------------------------------------------
    # Durable state (repro.store)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """A deep, self-contained snapshot of the engine's belief state.

        The returned structure holds plain AST objects (clauses, atoms,
        immutable support records) and fresh container copies, so mutating
        the engine afterwards never aliases into it. ``load_state`` on the
        same (or a freshly constructed) engine restores program, model and
        supports exactly; :mod:`repro.store.serialize` turns the structure
        into JSON for on-disk snapshots.

        Only *belief state* is recorded — program, model, supports.
        Telemetry like the derivations-fired counter is deliberately
        excluded: it depends on the path taken (a batch replay legally
        fires fewer derivations than the same updates applied one by
        one), and equal belief states must serialize to equal bytes.
        """
        return {
            "engine": self.name,
            "method": self.method,
            "granularity": self.db.granularity,
            "program": self.db.program.clauses,
            # Columnar model dump (relation, arity, sorted rows): the bulk
            # form Model.from_relation_data restores without per-fact
            # work, and the v2 snapshot codec writes compactly. Flattening
            # it reproduces the old sorted_facts tuple exactly.
            "model": self.model.relation_data(),
            "supports": self._support_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore the belief state captured by :meth:`state_dict`.

        Rebuilds the database's derived structures (dependency graph,
        stratification, static closures) from the recorded program — these
        are cheap, rule-driven computations — but takes the model and the
        supports verbatim instead of re-running saturation, which is what
        makes a snapshot restore beat :meth:`rebuild`. When the current
        database already holds exactly the recorded program (the
        ``engine_from_state`` path), it is reused as-is.
        """
        program = tuple(state["program"])
        granularity = state.get("granularity", self.db.granularity)
        if (
            self.db.program.clauses != program
            or self.db.granularity != granularity
        ):
            self.db = StratifiedDatabase(Program(program), granularity)
        self.method = state.get("method", self.method)
        self._pin_rule_plans()
        # Bulk-load the facts: one batched statistics pass per relation
        # rebuilds the per-column distinct-value counts deterministically;
        # indexes refill lazily on first probe, so a snapshot needs to
        # carry neither. Legacy states (and v1 snapshots) carry a flat
        # fact tuple instead of relation_data; group-and-bulk-load those.
        model_state = state["model"]
        if model_state and isinstance(model_state[0], Atom):
            model = Model()
            model.add_many(model_state)
        else:
            model = Model.from_relation_data(model_state)
        self.model = model
        self._load_support_state(state["supports"])
        # The counter measures work done by *this* engine instance; a
        # restored engine starts from zero (legacy states that carried
        # the counter are ignored for the same determinism reason it
        # left state_dict).
        self._derivations_fired = 0
        self._transient = 0

    def _support_state(self) -> dict:
        """Deep copy of the support structures. Default: support-free."""
        return {}

    def _load_support_state(self, state: dict) -> None:
        """Adopt support structures from a :meth:`_support_state` copy."""
        self._reset_supports()

    def checkpoint(self) -> dict:
        """An in-process snapshot for rollback, priced for the hot path.

        Where :meth:`state_dict` flattens the model to sorted columnar
        rows (the deterministic on-disk form), a checkpoint keeps live
        objects: a copy-on-write :meth:`Model.copy` and the engine's
        support state (itself copy-on-write for arena-backed engines).
        Taking one is therefore near O(1); the deep-copy cost moves to
        the writes that actually diverge afterwards. Transactions take a
        checkpoint at ``BEGIN`` and :meth:`restore` it on failure.
        """
        return {
            "engine": self.name,
            "method": self.method,
            "granularity": self.db.granularity,
            "program": self.db.program.clauses,
            "model": self.model.copy(),
            "supports": self._support_state(),
        }

    def restore(self, checkpoint: dict) -> None:
        """Adopt the belief state of a :meth:`checkpoint`.

        The checkpoint stays valid afterwards (the model and support
        containers are re-shared copy-on-write, not moved), so one
        checkpoint can back out any number of failed attempts. Database
        structures are rebuilt only when the program actually changed
        since the checkpoint was taken; when only *facts* differ (the
        shape of every transaction rollback), the existing database is
        adjusted with incremental assert/retract instead of a full
        stratification rebuild.

        The restored clause tuple reproduces the checkpoint's ordering
        exactly — ``state_dict`` serializes the program in order, so
        snapshot bytes stay deterministic — falling back to a rebuild
        when the incremental adjustment cannot.
        """
        program = tuple(checkpoint["program"])
        granularity = checkpoint.get("granularity", self.db.granularity)
        if not self._adopt_program(program, granularity):
            self.db = StratifiedDatabase(Program(program), granularity)
        self.method = checkpoint.get("method", self.method)
        self._pin_rule_plans()
        self.model = checkpoint["model"].copy()
        self._load_support_state(checkpoint["supports"])
        self._derivations_fired = 0
        self._transient = 0

    def _adopt_program(self, program: tuple, granularity) -> bool:
        """Try to reshape ``self.db`` into *program* without a rebuild."""
        current = self.db.program.clauses
        if current == program and self.db.granularity == granularity:
            return True
        if self.db.granularity != granularity:
            return False
        if tuple(c for c in current if c.body) != tuple(
            c for c in program if c.body
        ):
            return False
        old_facts = {c.head for c in current if not c.body}
        new_ordered = [c.head for c in program if not c.body]
        new_facts = set(new_ordered)
        if old_facts == new_facts:
            # Same clause set, different order: only a rebuild can
            # reproduce the checkpoint's ordering.
            return False
        for fact in old_facts - new_facts:
            self.db.retract_fact(fact)
        for fact in new_ordered:
            if fact not in old_facts:
                self.db.assert_fact(fact)
        return self.db.program.clauses == program

    # ------------------------------------------------------------------
    # Public update API
    # ------------------------------------------------------------------

    def insert_fact(self, fact: Union[Atom, str]) -> UpdateResult:
        """INSERT(p(t)) — section 4 of the paper."""
        fact = _as_fact(fact)
        begun = self._begin_update()
        with OBS.span("update:insert_fact") as span:
            if span:
                span.set("subject", str(fact))
            if self.db.is_asserted(fact):
                return self._result(
                    "insert_fact", fact, frozenset(), frozenset(), begun,
                    noop=True,
                )
            self.db.assert_fact(fact)
            if fact in self.model:
                # The model is unchanged: asserting an already-derived fact
                # adds a unit clause whose head already holds. Only the
                # support needs to learn about the trivial deduction.
                self._register_assertion(fact)
                return self._result(
                    "insert_fact", fact, frozenset(), frozenset(), begun,
                )
            removed, added = self._apply_insert_fact(fact)
            return self._result("insert_fact", fact, removed, added, begun)

    def delete_fact(self, fact: Union[Atom, str]) -> UpdateResult:
        """DELETE(p(t)) — only asserted facts may be deleted."""
        fact = _as_fact(fact)
        begun = self._begin_update()
        with OBS.span("update:delete_fact") as span:
            if span:
                span.set("subject", str(fact))
            self.db.retract_fact(fact)  # raises when not asserted
            removed, added = self._apply_delete_fact(fact)
            return self._result("delete_fact", fact, removed, added, begun)

    def insert_rule(self, rule: Union[Clause, str]) -> UpdateResult:
        """INSERT(p(X) <- L1 & ... & Lk); must keep the program stratified.

        Hard violations (safety, stratifiability) raise code-tagged,
        position-carrying errors as before; the softer static findings for
        the admitted clause (singleton variables, cross-product joins,
        undefined references) ride along on ``UpdateResult.warnings``.
        """
        rule = _as_rule(rule)
        begun = self._begin_update()
        with OBS.span("update:insert_rule") as span:
            if span:
                span.set("subject", str(rule))
            self.db.add_rule(rule)  # checks stratification, raises on dupes
            self.planner.invalidate(rule)
            self.planner.pin(rule)
            removed, added = self._apply_insert_rule(rule)
            return self._result(
                "insert_rule", rule, removed, added, begun,
                warnings=self._rule_warnings(rule),
            )

    def delete_rule(self, rule: Union[Clause, str]) -> UpdateResult:
        """DELETE(p(X) <- L1 & ... & Lk)."""
        rule = _as_rule(rule)
        begun = self._begin_update()
        with OBS.span("update:delete_rule") as span:
            if span:
                span.set("subject", str(rule))
            self.db.remove_rule(rule)  # raises when absent
            self.planner.invalidate(rule)
            removed, added = self._apply_delete_rule(rule)
            return self._result("delete_rule", rule, removed, added, begun)

    def apply(self, operation: str, subject: Source) -> UpdateResult:
        """Dispatch by operation name; used by the update-sequence harness."""
        handler = {
            "insert_fact": self.insert_fact,
            "delete_fact": self.delete_fact,
            "insert_rule": self.insert_rule,
            "delete_rule": self.delete_rule,
        }.get(operation)
        if handler is None:
            raise ValueError(f"unknown operation {operation!r}")
        return handler(subject)

    def apply_batch(self, updates) -> UpdateResult:
        """Apply several updates as one maintenance task.

        The paper frames maintenance as "processing supplementary
        information"; a batch is simply a larger piece of it. The generic
        implementation replays the updates one by one and aggregates the
        accounting; engines may override it with a single-pass treatment
        (the cascade engine seeds INC/DEC with the whole batch, so a fact
        removed and re-added by *different* updates of the batch never
        churns at all).
        """
        updates = list(updates)
        begun = self._begin_update()
        with OBS.span("update:batch") as span:
            if span:
                span.set("updates", len(updates))
            removed: set[Atom] = set()
            added: set[Atom] = set()
            transient = 0
            for operation, subject in updates:
                result = self.apply(operation, subject)
                removed |= result.removed
                added |= result.added
                transient += result.stats.get("transient", 0)
            self._transient = transient
            return self._result(
                "batch", f"{len(updates)} updates", removed, added, begun,
            )

    # ------------------------------------------------------------------
    # Hooks implemented by each solution
    # ------------------------------------------------------------------

    @abstractmethod
    def _apply_insert_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        """Removal + addition phases; returns (removed, added)."""

    @abstractmethod
    def _apply_delete_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        ...

    @abstractmethod
    def _apply_insert_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        ...

    @abstractmethod
    def _apply_delete_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        ...

    def _register_assertion(self, fact: Atom) -> None:
        """Attach the trivial support to an already-derived, now-asserted fact."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def support_entry_count(self) -> int:
        """Total size of the bookkeeping (0 for support-free solutions)."""
        return 0

    def check(self, ignore: tuple = ()):
        """Static diagnostics for the maintained program.

        Delegates to :meth:`StratifiedDatabase.analyze`; see
        :mod:`repro.analysis` for the code registry.
        """
        return self.db.analyze(ignore=ignore)

    def _rule_warnings(self, rule: Clause) -> tuple:
        """Clause-local analyzer findings for a just-admitted rule."""
        from ..analysis import check_clause  # lazy: analysis sits above core

        return tuple(check_clause(rule, self.db.program.clauses))

    def oracle_model(self) -> Model:
        """The standard model recomputed from scratch (for verification)."""
        return self.db.compute_model(self.method)

    def is_consistent(self) -> bool:
        """True when the maintained model equals the recomputed one."""
        return self.model == self.oracle_model()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resaturate_from(self, index: int, listener=None) -> set[Atom]:
        """Step (3) of the section 4.1 procedures: M'_j = SAT(P_j, M).

        Recomputes the saturation of every stratum from *index* up over the
        current model. Returns the union of the added facts.
        """
        added: set[Atom] = set()
        strata = self.db.stratification.strata
        with OBS.span("phase:addition") as phase:
            for number, stratum in enumerate(strata[index - 1 :], start=index):
                with OBS.span("stratum") as span:
                    if span:
                        span.set("index", number)
                    new = saturate(
                        stratum.clauses, self.model, listener, self.method,
                        planner=self.planner,
                    )
                    if span:
                        span.set("added", len(new))
                    added |= new
            if phase:
                phase.set("added", len(added))
        return added

    def _begin_update(self) -> tuple:
        """Capture the counters an update's accounting is measured against."""
        self._transient = 0
        planner = self.planner
        return (
            time.perf_counter(),
            self._derivations_fired,
            planner.cache_hits,
            planner.cache_misses,
        )

    def _result(
        self,
        operation: str,
        subject,
        removed: Iterable[Atom],
        added: Iterable[Atom],
        begun: tuple,
        noop: bool = False,
        warnings: tuple = (),
    ) -> UpdateResult:
        started, fired_before, hits_before, misses_before = begun
        result = UpdateResult(
            operation=operation,
            subject=str(subject),
            removed=frozenset(removed),
            added=frozenset(added),
            model_size=len(self.model),
            duration_s=time.perf_counter() - started,
            support_entries=self.support_entry_count(),
            warnings=warnings,
            stats={
                "derivations_fired": self._derivations_fired - fired_before,
                "transient": self._transient,
                "noop": noop,
                "plan_cache_hits": self.planner.cache_hits - hits_before,
                "plan_cache_misses": self.planner.cache_misses - misses_before,
            },
        )
        self.totals.record(result)
        if OBS.enabled:
            self._record_metrics(result)
            span = OBS.tracer.current
            if span is not None:
                span.set("removed", len(result.removed))
                span.set("added", len(result.added))
                span.set("migrated", len(result.migrated))
                span.set(
                    "derivations_fired", result.stats["derivations_fired"]
                )
        return result

    def _record_metrics(self, result: UpdateResult) -> None:
        metrics = OBS.metrics
        metrics.counter(
            "repro_updates_total", "Maintenance operations applied",
            engine=self.name, operation=result.operation,
        ).inc()
        metrics.counter(
            "repro_facts_removed_total",
            "Facts evicted by removal phases", engine=self.name,
        ).inc(len(result.removed))
        metrics.counter(
            "repro_facts_added_total",
            "Facts introduced by addition phases", engine=self.name,
        ).inc(len(result.added))
        metrics.counter(
            "repro_facts_migrated_total",
            "Facts erroneously removed then re-added", engine=self.name,
        ).inc(len(result.migrated))
        metrics.counter(
            "repro_derivations_fired_total",
            "Rule firings during maintenance", engine=self.name,
        ).inc(result.stats["derivations_fired"])
        metrics.counter(
            "repro_transient_facts_total",
            "Facts added and evicted within one update", engine=self.name,
        ).inc(result.stats["transient"])
        metrics.histogram(
            "repro_update_seconds", "Wall time per maintenance operation",
            engine=self.name, operation=result.operation,
        ).observe(result.duration_s)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.model)} facts)"
