"""The experiment harness: engines × workloads × update sequences.

Runs a maintenance engine through an update sequence, collecting the
per-update :class:`~repro.core.metrics.UpdateResult` records plus aggregate
migration, bookkeeping and timing totals, and (optionally) verifying the
maintained model against the recompute oracle after every update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.base import MaintenanceEngine
from ..core.metrics import UpdateResult
from ..core.registry import create_engine
from ..datalog.clauses import Program
from ..datalog.evaluation import compute_model
from ..workloads.updates import Update


@dataclass
class RunResult:
    """Aggregated outcome of one (engine, workload, sequence) cell."""

    engine: str
    updates: int = 0
    removed: int = 0
    added: int = 0
    migrated: int = 0
    transient: int = 0
    duration_s: float = 0.0
    build_s: float = 0.0
    support_entries_start: int = 0
    support_entries_end: int = 0
    consistent: bool = True
    divergences: int = 0
    results: list[UpdateResult] = field(default_factory=list)

    def record(self, result: UpdateResult) -> None:
        self.updates += 1
        self.removed += len(result.removed)
        self.added += len(result.added)
        self.migrated += len(result.migrated)
        self.transient += result.stats.get("transient", 0)
        self.duration_s += result.duration_s
        self.results.append(result)

    def row(self) -> list:
        """The standard table row the benches print."""
        return [
            self.engine,
            self.updates,
            self.removed,
            self.added,
            self.migrated,
            self.transient,
            self.support_entries_end,
            self.duration_s,
            "ok" if self.consistent else f"DIVERGED x{self.divergences}",
        ]


RUN_HEADERS = [
    "engine",
    "updates",
    "removed",
    "added",
    "migrated",
    "transient",
    "supports",
    "time_s",
    "oracle",
]


def run_sequence(
    engine: MaintenanceEngine,
    updates: Iterable[Update],
    verify: bool = False,
) -> RunResult:
    """Drive *engine* through *updates*; optionally verify every state."""
    run = RunResult(engine=engine.name)
    run.support_entries_start = engine.support_entry_count()
    for operation, subject in updates:
        result = engine.apply(operation, subject)
        run.record(result)
        if verify:
            oracle = compute_model(engine.db.program)
            if engine.model != oracle:
                run.consistent = False
                run.divergences += 1
    run.support_entries_end = engine.support_entry_count()
    return run


def compare_engines(
    program: Program,
    updates: Sequence[Update],
    engine_names: Sequence[str],
    verify: bool = True,
) -> list[RunResult]:
    """Run the same update sequence through several fresh engines.

    Each engine starts from its own copy of *program*; sequences must only
    contain updates valid from that state (the generators guarantee it).
    """
    outcomes = []
    for name in engine_names:
        started = time.perf_counter()
        engine = create_engine(name, program)
        build_s = time.perf_counter() - started
        run = run_sequence(engine, updates, verify=verify)
        run.engine = name  # registry name, not the class-level short name
        run.build_s = build_s
        outcomes.append(run)
    return outcomes
