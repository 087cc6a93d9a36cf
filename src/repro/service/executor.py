"""Commutation-scheduled execution of transaction batches on one engine.

:class:`BatchExecutor` applies a batch to the store's engine — the one
maintained belief state — in two steps:

1. **Schedule** — partition the batch with
   :meth:`~repro.analysis.schedule.CommutationOracle.commuting_groups`
   (``preserve_order=True``: group execution order realizes the
   submission-order serial history). The update-cone analyzer behind the
   oracle is cached while the program's *rules* are unchanged — facts
   never transmit deltas, so fact churn keeps the cache valid. Conflicting
   arcs (DL011) and negation-sensitive hazards (DL013) never share a
   group. The oracle certifies fact updates only: a batch carrying a rule
   update (it rewrites statics), or a batch of one, is a single
   uncertified group in submission order.
2. **Apply** — group by group, every transaction runs on the engine under
   its own ``checkpoint()``; an inadmissible update rolls back to it with
   ``restore()``, so a rejected transaction leaves no trace and the rest
   of the batch commits.

The executor leaves the engine in exactly the state the submission-order
serial replay of the accepted transactions produces — the property
:func:`repro.analysis.fuzz.fuzz_service_batches` replays on every engine.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from ..analysis.schedule import CommutationOracle
from ..analysis.update_cones import UpdateConeAnalyzer
from ..core.base import MaintenanceEngine, _as_fact, _as_rule
from ..core.metrics import UpdateResult
from ..datalog.atoms import Atom
from ..datalog.clauses import Clause
from ..obs import OBS

#: One normalized update: (operation, Atom | Clause).
Update = Tuple[str, Union[Atom, Clause]]

_FACT_OPS = ("insert_fact", "delete_fact")


class TransactionOutcome:
    """What happened to one submitted transaction.

    ``mode`` is ``"commuting"`` for a member of a certified group of two
    or more transactions and ``"serial"`` otherwise.
    """

    __slots__ = ("name", "updates", "committed", "error", "mode", "results")

    def __init__(
        self,
        name: str,
        updates: Tuple[Update, ...],
        committed: bool,
        error: Optional[str],
        mode: str,
        results: Tuple[UpdateResult, ...],
    ) -> None:
        self.name = name
        self.updates = updates
        self.committed = committed
        self.error = error
        self.mode = mode
        self.results = results

    def __repr__(self) -> str:
        status = "committed" if self.committed else f"rejected ({self.error})"
        return f"TransactionOutcome({self.name}: {status}, {self.mode})"


class ExecutionReport:
    """The executor's account of one batch."""

    __slots__ = ("outcomes", "groups", "parallel_groups")

    def __init__(
        self,
        outcomes: List[TransactionOutcome],
        groups: Tuple[Tuple[str, ...], ...],
        parallel_groups: int,
    ) -> None:
        self.outcomes = outcomes
        self.groups = groups
        # Certified groups of >= 2 transactions. The name is kept for
        # perf/workloads.py:472-487 (frozen); ROADMAP item 1 retires it.
        self.parallel_groups = parallel_groups

    def accepted(self) -> List[Tuple[str, Tuple[Update, ...]]]:
        """(name, updates) of committed transactions, submission order."""
        return [
            (outcome.name, outcome.updates)
            for outcome in self.outcomes
            if outcome.committed
        ]

    def __repr__(self) -> str:
        committed = sum(1 for o in self.outcomes if o.committed)
        return (
            f"ExecutionReport({committed}/{len(self.outcomes)} committed, "
            f"{len(self.groups)} groups, {self.parallel_groups} commuting)"
        )


def _normalize(
    batch: Iterable[Tuple[str, Iterable[Tuple[str, object]]]],
) -> List[Tuple[str, Tuple[Update, ...]]]:
    normalized: List[Tuple[str, Tuple[Update, ...]]] = []
    seen: set[str] = set()
    for name, updates in batch:
        if name in seen:
            raise ValueError(f"duplicate transaction name {name!r}")
        seen.add(name)
        converted: List[Update] = []
        for operation, subject in updates:
            if operation in _FACT_OPS:
                converted.append((operation, _as_fact(subject)))
            elif operation in ("insert_rule", "delete_rule"):
                converted.append((operation, _as_rule(subject)))
            else:
                raise ValueError(f"unknown operation {operation!r}")
        normalized.append((name, tuple(converted)))
    return normalized


class BatchExecutor:
    """Scheduled batch execution on one engine."""

    def __init__(self, engine: MaintenanceEngine) -> None:
        self.engine = engine
        self._analyzer: Optional[UpdateConeAnalyzer] = None
        self._analyzer_rules: Optional[Tuple[Clause, ...]] = None
        self._oracle: Optional[CommutationOracle] = None

    def analyzer(self) -> UpdateConeAnalyzer:
        """The update-cone analyzer, cached while the rule set holds.

        Asserted facts are bodiless clauses: they add nothing to the
        dependency structure the cones close over, so the cache stays
        valid across fact-only batches — the hot service traffic.
        """
        rules = tuple(
            clause for clause in self.engine.db.program.clauses if clause.body
        )
        if rules != self._analyzer_rules:
            self._analyzer = UpdateConeAnalyzer(rules)
            self._analyzer_rules = rules
            self._oracle = CommutationOracle(self._analyzer)
        assert self._analyzer is not None
        return self._analyzer

    def oracle(self) -> CommutationOracle:
        """The pair-cached scheduling oracle over :meth:`analyzer`."""
        self.analyzer()
        assert self._oracle is not None
        return self._oracle

    def execute(
        self,
        batch: Iterable[Tuple[str, Iterable[Tuple[str, object]]]],
    ) -> ExecutionReport:
        """Run *batch*; the engine ends in the serial-replay state."""
        transactions = _normalize(batch)
        txn_map = dict(transactions)
        has_rule_ops = any(
            operation not in _FACT_OPS
            for _, updates in transactions
            for operation, _ in updates
        )
        outcomes: dict[str, TransactionOutcome] = {}
        commuting_groups = 0
        with OBS.span("service:execute") as span:
            if has_rule_ops or len(transactions) < 2:
                groups: Tuple[Tuple[str, ...], ...] = (
                    tuple(name for name, _ in transactions),
                )
                certified = False
            else:
                groups = self.oracle().commuting_groups(
                    transactions, preserve_order=True
                )
                certified = True
            for group in groups:
                mode = "serial"
                if certified and len(group) > 1:
                    mode = "commuting"
                    commuting_groups += 1
                for name in group:
                    outcomes[name] = self._apply(name, txn_map[name], mode)
            if span:
                span.set("transactions", len(transactions))
                span.set("groups", len(groups))
                span.set("commuting_groups", commuting_groups)
        if OBS.enabled:
            metrics = OBS.metrics
            metrics.counter(
                "repro_service_batches_total",
                "Transaction batches executed by the batch executor",
            ).inc()
            for outcome in outcomes.values():
                metrics.counter(
                    "repro_service_txns_total",
                    "Transactions executed, by schedule and fate",
                    mode=outcome.mode,
                    committed=str(outcome.committed).lower(),
                ).inc()
        return ExecutionReport(
            [outcomes[name] for name, _ in transactions],
            groups,
            commuting_groups,
        )

    def _apply(
        self, name: str, updates: Tuple[Update, ...], mode: str
    ) -> TransactionOutcome:
        """Apply one transaction atomically: all its updates or none."""
        engine = self.engine
        saved = engine.checkpoint()
        try:
            results = tuple(
                engine.apply(operation, subject)
                for operation, subject in updates
            )
        except Exception as error:
            engine.restore(saved)
            return TransactionOutcome(
                name, updates, False, str(error), mode, ()
            )
        return TransactionOutcome(name, updates, True, None, mode, results)
