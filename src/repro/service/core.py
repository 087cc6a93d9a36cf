"""The revision service: batch admission over a durable store.

:class:`RevisionService` is the single-writer front door to one
:class:`~repro.store.Store`. A submitted batch goes through the
:class:`~.executor.BatchExecutor` (commutation scheduling, then every
transaction applied on the store's engine with per-transaction rollback)
and the accepted transactions are made durable with **one** journal group
commit — one fsync, one redo-tail check — instead of one per transaction
(benchmark E22 counts them). If that commit fails, the engine is restored
to its state before the batch: live state never runs ahead of the journal.

Readers never block the writer: :meth:`RevisionService.read_view` pins an
``engine.checkpoint()`` — kilobytes of copy-on-write references — tagged
with the store revision it reflects. A view stays valid and immutable
however many batches commit after it; dropping it is garbage collection,
not coordination.

The service serializes writers with an internal lock, so many sessions
(threads, or the :mod:`~repro.service.server` front-end's connections)
may share one instance.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Tuple

from ..core.base import _as_fact
from ..obs import OBS
from ..store.store import Store
from .executor import BatchExecutor, ExecutionReport, TransactionOutcome


class BatchResult:
    """One admitted batch: execution report + journal positions."""

    __slots__ = ("report", "seqs", "revision")

    def __init__(
        self, report: ExecutionReport, seqs: List[int], revision: int
    ) -> None:
        self.report = report
        self.seqs = seqs
        self.revision = revision

    @property
    def outcomes(self) -> List[TransactionOutcome]:
        return self.report.outcomes

    @property
    def committed(self) -> int:
        return len(self.seqs)

    def __repr__(self) -> str:
        return (
            f"BatchResult({self.committed}/{len(self.report.outcomes)} "
            f"committed, revision={self.revision})"
        )


class ReadView:
    """An immutable model snapshot pinned at one store revision."""

    __slots__ = ("epoch", "_checkpoint", "_released")

    def __init__(self, epoch: int, checkpoint: dict) -> None:
        self.epoch = epoch
        self._checkpoint = checkpoint
        self._released = False

    @property
    def model(self):
        return self._checkpoint["model"]

    def holds(self, fact) -> bool:
        """Membership of *fact* in the pinned model."""
        return _as_fact(fact) in self._checkpoint["model"]

    def rows(self, relation: str) -> Tuple[tuple, ...]:
        """The pinned rows of *relation*, sorted."""
        model = self._checkpoint["model"]
        if not model.has_relation(relation):
            return ()
        # The order of Model.relation_data, for the one relation asked for.
        return tuple(sorted(model.relation(relation), key=repr))

    def release(self) -> None:
        if not self._released:
            self._released = True
            if OBS.enabled:
                OBS.metrics.gauge(
                    "repro_service_read_views",
                    "Read views currently pinning a checkpoint epoch",
                ).dec()

    def __enter__(self) -> "ReadView":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        return f"ReadView(epoch={self.epoch})"


class RevisionService:
    """Batch admission, group-commit durability, pinned readers."""

    def __init__(self, store: Store, max_workers: int = 4) -> None:
        # max_workers is accepted and unused: perf/workloads.py:449
        # (frozen) still passes it; ROADMAP item 1 retires it.
        self.store = store
        self._lock = threading.RLock()
        self._closed = False
        self.executor = BatchExecutor(store.engine)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def submit_batch(
        self,
        batch: Iterable[Tuple[str, Iterable[Tuple[str, object]]]],
    ) -> BatchResult:
        """Execute *batch* and group-commit the accepted transactions.

        The final engine state and journal are identical to admitting the
        accepted transactions one by one in submission order; rejected
        transactions (inadmissible updates) leave no trace. When the
        group commit itself fails (full disk, failed fsync) the engine is
        rolled back to its state before the batch and the error re-raised.
        """
        with self._lock:
            self._check_open()
            with OBS.span("service:batch") as span:
                # store.travel()/undo() swap the engine object; re-point.
                engine = self.executor.engine = self.store.engine
                before = engine.checkpoint()
                report = self.executor.execute(batch)
                accepted = report.accepted()
                try:
                    seqs = self.store.commit_batch(
                        [updates for _, updates in accepted]
                    )
                except BaseException:
                    engine.restore(before)
                    raise
                if span:
                    span.set("committed", len(seqs))
                if OBS.enabled and seqs:
                    OBS.metrics.histogram(
                        "repro_service_batch_size",
                        "Committed transactions per admitted batch",
                        buckets=(1, 2, 4, 8, 16, 32, 64, 128),
                    ).observe(len(seqs))
            return BatchResult(report, seqs, self.store.revision)

    def submit(self, name: str, updates) -> TransactionOutcome:
        """Admit a single transaction (a batch of one)."""
        return self.submit_batch([(name, updates)]).outcomes[0]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def read_view(self) -> ReadView:
        """Pin the current revision; the writer proceeds unblocked."""
        with self._lock:
            self._check_open()
            view = ReadView(self.store.revision, self.store.engine.checkpoint())
        if OBS.enabled:
            OBS.metrics.gauge(
                "repro_service_read_views",
                "Read views currently pinning a checkpoint epoch",
            ).inc()
        return view

    def holds(self, fact) -> bool:
        """Membership in the *current* model (one consistent read)."""
        with self._lock:
            self._check_open()
            return _as_fact(fact) in self.store.model

    def query(self, fact) -> bool:  # protocol-friendly alias
        return self.holds(fact)

    # ------------------------------------------------------------------
    # History passthrough (serialized with the writer)
    # ------------------------------------------------------------------

    def undo(self, n: int = 1) -> int:
        with self._lock:
            self._check_open()
            revision = self.store.undo(n)
            self.executor.engine = self.store.engine
            return revision

    def redo(self, n: int = 1) -> int:
        with self._lock:
            self._check_open()
            revision = self.store.redo(n)
            self.executor.engine = self.store.engine
            return revision

    def log(self) -> List[str]:
        with self._lock:
            self._check_open()
            return self.store.log()

    @property
    def revision(self) -> int:
        return self.store.revision

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self.store.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def __enter__(self) -> "RevisionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"RevisionService({self.store!r})"


__all__ = ["BatchResult", "ReadView", "RevisionService"]
