"""Span recorders installed from outside the program.

The traced run wraps the public functions at each layer boundary with a
recorder — no edit under ``src/`` — and keeps the spans in memory until the
round ends. A span is ``[id, name, start, end, parent, request, thread,
value, counts]``: *parent* is the enclosing span on the same thread,
*request* is shared by every span under one top-level call, *value* is
whatever the target's ``measure`` read off the arguments or the result (a
count, a size), *counts* tallies the calls of count-only targets made
directly under the span (hot inner functions that get no span of their own).

A layer's **self time** is its span's duration minus the part its direct
children cover, so self times of one thread never overlap and add up to the
time that thread spent inside traced code.

Targets are resolved by dotted name when the tracer is installed. A target
that no longer exists becomes a note, never a crash: later issues are
expected to delete some of these functions, and their metrics then read as
absent instead of breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

# Span field positions.
ID, NAME, START, END, PARENT, REQUEST, THREAD, VALUE, COUNTS = range(9)

#: Pool threads of ``ParallelExecutor``; their spans overlap the
#: coordinator's wait, so they are kept out of the wall-clock budget.
WORKER_THREAD_PREFIX = "repro-exec"


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it lives and what to read off a call."""

    span: str
    path: str  # "package.module:attr.attr"
    measure: Optional[Callable] = None  # (args, kwargs, result, pre) -> value
    namer: Optional[Callable] = None  # (args, kwargs) -> span name override
    before: Optional[Callable] = None  # (args, kwargs) -> pre
    count_only: bool = False  # tallied on the enclosing span, no span of its own


def _committed(args, kwargs, result, pre):
    return result.committed


def _groups(args, kwargs, result, pre):
    # New pair-cache entries = verdicts that had to be computed (misses).
    after = len(getattr(args[0], "_verdicts", ()))
    return {"groups": len(result), "misses": after - pre}


def _verdict_count(args, kwargs):
    return len(getattr(args[0], "_verdicts", ()))


def _execution(args, kwargs, result, pre):
    return {
        "parallel_groups": result.parallel_groups,
        "serial_fallbacks": result.serial_fallbacks,
    }


def _update(args, kwargs, result, pre):
    stats = result.stats
    return {
        "derivations": stats.get("derivations_fired", 0),
        "migrated": len(result.migrated),
        "support_entries": result.support_entries,
        "plan_hits": stats.get("plan_cache_hits", 0),
        "plan_misses": stats.get("plan_cache_misses", 0),
    }


def _restore_name(args, kwargs):
    # Worker catch-up is the only caller that passes exact_program=False.
    if kwargs.get("exact_program", True) is False:
        return "executor.worker_restore"
    return "engine.restore"


def _file_size(args, kwargs, result, pre):
    return os.stat(result).st_size


TARGETS = (
    Target("server.parse_update", "repro.service.server:parse_update"),
    Target(
        "service.submit_batch",
        "repro.service.core:RevisionService.submit_batch",
        measure=_committed,
    ),
    Target("service.read_view", "repro.service.core:RevisionService.read_view"),
    Target("service.holds", "repro.service.core:RevisionService.holds"),
    Target(
        "schedule.commuting_groups",
        "repro.analysis.schedule:CommutationOracle.commuting_groups",
        measure=_groups,
        before=_verdict_count,
    ),
    Target(
        "schedule.pair_lookups",
        "repro.analysis.schedule:CommutationOracle._pair_key",
        count_only=True,
    ),
    Target(
        "executor.execute",
        "repro.service.executor:ParallelExecutor.execute",
        measure=_execution,
    ),
    Target(
        "executor.run_parallel",
        "repro.service.executor:ParallelExecutor._run_parallel",
    ),
    Target(
        "executor.worker_share",
        "repro.service.executor:ParallelExecutor._run_worker_share",
    ),
    Target("merge.extract", "repro.service.merge:extract_delta"),
    Target("merge.merge", "repro.service.merge:merge_deltas"),
    Target("merge.install", "repro.service.merge:apply_merged"),
    Target(
        "engine.apply_insert",
        "repro.core.base:MaintenanceEngine.insert_fact",
        measure=_update,
    ),
    Target(
        "engine.apply_delete",
        "repro.core.base:MaintenanceEngine.delete_fact",
        measure=_update,
    ),
    Target("engine.checkpoint", "repro.core.base:MaintenanceEngine.checkpoint"),
    Target(
        "engine.restore",
        "repro.core.base:MaintenanceEngine.restore",
        namer=_restore_name,
    ),
    Target("eval.saturate", "repro.datalog.evaluation:saturate"),
    Target("journal.encode", "repro.store.journal:commit_record"),
    Target("journal.append", "repro.store.journal:Journal.append"),
    Target("journal.append", "repro.store.journal:Journal.append_many"),
    Target("journal.fsync", "repro.store.journal:os.fsync"),
    Target("store.commit_batch", "repro.store.store:Store.commit_batch"),
    Target(
        "snapshot.write",
        "repro.store.snapshot:write_snapshot",
        measure=_file_size,
    ),
    Target("snapshot.load", "repro.store.snapshot:read_snapshot"),
    Target("history.replay", "repro.store.history:replay"),
)

#: Imported before patching so every ``from x import f`` binding of a
#: target already exists and can be re-pointed at the wrapper.
_PRELOAD = ("repro", "repro.service.server")


class _ModuleProxy:
    """Stands in for a module imported by a traced module (``journal.os``)
    so one of its functions is wrapped for that importer only."""

    def __init__(self, module: types.ModuleType) -> None:
        self.__dict__["_module"] = module

    def __getattr__(self, name: str):
        return getattr(self.__dict__["_module"], name)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: list[str] = []
        self._ids = itertools.count(1)
        self._request = 0
        self._loads = 0
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        thread = threading.current_thread().name
        if stack:
            parent = stack[-1][ID]
            request = stack[-1][REQUEST]
        else:
            parent = None
            if not thread.startswith(WORKER_THREAD_PREFIX):
                self._request += 1
            request = self._request
        span = [
            next(self._ids), name, time.perf_counter(), None,
            parent, request, thread, None, None,
        ]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        """``with tracer.span(name):`` — for the driver's own boundaries."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def reset(self) -> None:
        self.spans = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        for module in _PRELOAD:
            importlib.import_module(module)
        for target in targets:
            try:
                self._patch(target)
            except (ImportError, AttributeError, KeyError) as error:
                self.notes.append(
                    f"{target.span}: target {target.path} not found ({error})"
                )

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo = []

    def _wrapper(self, target: Target, function: Callable) -> Callable:
        if target.count_only:
            local = self._local

            def counted(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack:
                    span = stack[-1]
                    if span[COUNTS] is None:
                        span[COUNTS] = {}
                    counts = span[COUNTS]
                    counts[target.span] = counts.get(target.span, 0) + 1
                return function(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.span
            pre = target.before(args, kwargs) if target.before else None
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            if target.measure is not None:
                span[VALUE] = target.measure(args, kwargs, result, pre)
            return result

        traced.__wrapped__ = function
        return traced

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch(self, target: Target) -> None:
        module_name, _, dotted = target.path.partition(":")
        module = importlib.import_module(module_name)
        *owners, attribute = dotted.split(".")
        owner = module
        for name in owners:
            owner = getattr(owner, name)
        if isinstance(owner, types.ModuleType) and owner is not module:
            # A module the traced module imported (journal.os): wrap the
            # function on a proxy so other importers keep the original.
            proxy = getattr(module, owners[-1])
            if not isinstance(proxy, _ModuleProxy):
                proxy = _ModuleProxy(owner)
                self._set(module, owners[-1], proxy)
            proxy.__dict__[attribute] = self._wrapper(
                target, getattr(owner, attribute)
            )
            return
        if isinstance(owner, type):
            # Every class in the hierarchy that defines the method itself.
            classes = [owner]
            for cls in classes:
                classes.extend(cls.__subclasses__())
            if not any(attribute in cls.__dict__ for cls in classes):
                raise AttributeError(attribute)
            for cls in classes:
                raw = cls.__dict__.get(attribute)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrapper(target, raw.__func__))
                else:
                    wrapped = self._wrapper(target, raw)
                self._set(cls, attribute, wrapped)
            return
        original = owner.__dict__[attribute]
        wrapped = self._wrapper(target, original)
        # Re-point every `from module import f` binding inside the program.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)

    # ------------------------------------------------------------------
    # Export (the traced server process hands its spans to the driver)
    # ------------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "notes": self.notes},
                handle,
            )

    def load(self, path) -> None:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # The other process numbered its spans from 1 as well.
        self._loads += 1
        offset = self._loads * 1_000_000_000
        for span in payload["spans"]:
            span[ID] += offset
            if span[PARENT] is not None:
                span[PARENT] += offset
        self.spans.extend(payload["spans"])
        for note in payload["notes"]:
            if note not in self.notes:
                self.notes.append(note)


@dataclass
class LayerTotals:
    """Per-span-name aggregates over the spans that started in a window."""

    calls: dict[str, int] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    worker_self_s: dict[str, float] = field(default_factory=dict)
    values: dict[str, list] = field(default_factory=dict)
    durations: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def mean_value(self, name: str, key: Optional[str] = None) -> float:
        values = self.values.get(name, [])
        if key is not None:
            values = [value[key] for value in values]
        return sum(values) / len(values) if values else 0.0

    def sum_value(self, name: str, key: Optional[str] = None) -> float:
        values = self.values.get(name, [])
        if key is not None:
            values = [value[key] for value in values]
        return float(sum(values))


def aggregate(spans: list[list], start: float, end: float) -> LayerTotals:
    """Self time, calls and measured values of spans started in [start, end].

    Self time on pool threads is reported separately (``worker_self_s``):
    it runs while the coordinator waits, so adding it to the coordinator's
    self times would count the same wall time twice.
    """
    totals = LayerTotals()
    selected = {
        span[ID]: span
        for span in spans
        if span[END] is not None and start <= span[START] <= end
    }
    self_time = {
        key: span[END] - span[START] for key, span in selected.items()
    }
    for key, span in selected.items():
        parent = span[PARENT]
        if parent in self_time:
            self_time[parent] -= span[END] - span[START]
    for key, span in selected.items():
        name = span[NAME]
        duration = span[END] - span[START]
        totals.calls[name] = totals.calls.get(name, 0) + 1
        totals.total_s[name] = totals.total_s.get(name, 0.0) + duration
        totals.durations.setdefault(name, []).append(duration)
        bucket = (
            totals.worker_self_s
            if span[THREAD].startswith(WORKER_THREAD_PREFIX)
            else totals.self_s
        )
        bucket[name] = bucket.get(name, 0.0) + self_time[key]
        if span[VALUE] is not None:
            totals.values.setdefault(name, []).append(span[VALUE])
        for counted, count in (span[COUNTS] or {}).items():
            totals.counts[counted] = totals.counts.get(counted, 0) + count
    return totals
