"""The concurrent revision service: one engine, many sessions.

Layers, bottom up:

* :mod:`repro.service.executor` — :class:`BatchExecutor`: runs a
  transaction batch through the commutation scheduler
  (:meth:`repro.analysis.schedule.CommutationOracle.commuting_groups`)
  and applies every transaction, group by group, on the store's engine
  under a per-transaction ``checkpoint()`` / ``restore()`` rollback.
* :mod:`repro.service.core` — :class:`RevisionService`: the executor
  wrapped around a durable :class:`~repro.store.Store` with journal
  group commit (one fsync per admitted batch) and epoch-pinned
  :class:`ReadView` snapshots for readers.
* :mod:`repro.service.server` — the ``asyncio`` newline-JSON front-end
  (``repro serve``): many sessions submit transactions, a micro-batching
  writer admits them through one service, readers pin checkpoint epochs.
"""

from .core import BatchResult, ReadView, RevisionService
from .executor import BatchExecutor, ExecutionReport, TransactionOutcome

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "ExecutionReport",
    "ReadView",
    "RevisionService",
    "TransactionOutcome",
]
