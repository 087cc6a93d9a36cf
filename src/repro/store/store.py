"""The durable store: a maintained database with a journal on disk.

Directory layout::

    mydb/
      meta.json                 engine name + construction options
      journal.jsonl             write-ahead update journal (one revision/line)
      snapshot-00000000.json    base state (written at creation)
      snapshot-000000NN.json    later checkpoints (``Store.snapshot()``)

``Store.create`` builds the engine once and pins its state as snapshot 0;
``Store.open`` restores the newest snapshot and replays the journal tail,
so reopening never recomputes the model from scratch. Every update is
journaled *before* it is applied (write-ahead), transactions commit as one
record, and ``undo``/``redo`` move a cursor along the revision history —
the belief states of the paper's revision sequence, all addressable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

from ..core.base import MaintenanceEngine, _as_fact, _as_rule
from ..core.metrics import UpdateResult
from ..core.registry import ENGINE_NAMES, create_engine
from ..datalog.atoms import Atom
from ..datalog.clauses import Clause
from ..obs import OBS
from .history import materialize, replay
from .journal import Journal, commit_record, describe, update_record
from .snapshot import snapshot_name, snapshot_positions, write_snapshot
from .transaction import Transaction

META_NAME = "meta.json"
JOURNAL_NAME = "journal.jsonl"
META_FORMAT = 1


class StoreError(Exception):
    """Store-level misuse or on-disk inconsistency."""


class Store:
    """A maintained stratified database persisted in a directory."""

    def __init__(
        self,
        path: Path,
        engine_name: str,
        engine_kwargs: dict,
        engine: MaintenanceEngine,
        journal: Journal,
        revision: int,
        snapshot_every: int = 0,
    ):
        self.path = Path(path)
        self.engine_name = engine_name
        self.engine_kwargs = dict(engine_kwargs)
        self.engine = engine
        self.journal = journal
        self._revision = revision
        self.snapshot_every = snapshot_every
        self._transaction: Optional[Transaction] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        program: str = "",
        engine: str = "cascade",
        snapshot_every: int = 0,
        **engine_kwargs,
    ) -> "Store":
        """Initialise a fresh store directory around *program*."""
        if engine not in ENGINE_NAMES:
            raise StoreError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINE_NAMES)}"
            )
        path = Path(path)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise StoreError(
                f"cannot create a store at {path}: not a directory"
            ) from error
        if (path / META_NAME).exists():
            raise StoreError(f"{path} already contains a store; use open()")
        instance = create_engine(engine, program, **engine_kwargs)
        # meta.json is the commit point of creation: the base snapshot and
        # the journal must exist before it appears, or a crash in between
        # would leave a directory that open() rejects and create() refuses.
        write_snapshot(path, 0, instance.state_dict())
        journal = Journal(path / JOURNAL_NAME)
        if len(journal):  # leftovers of an interrupted creation
            journal.truncate(0)
        meta = {
            "format": META_FORMAT,
            "engine": engine,
            "engine_kwargs": engine_kwargs,
        }
        tmp = path / (META_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, sort_keys=True, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path / META_NAME)
        return cls(
            path, engine, engine_kwargs, instance, journal, 0, snapshot_every
        )

    @classmethod
    def open(cls, path, snapshot_every: int = 0) -> "Store":
        """Reopen an existing store: restore snapshot, replay journal tail.

        A journal record that fails to replay *at the head* is the crash
        artifact of a write-ahead append whose apply never ran to admission;
        it is truncated away, matching what the live process would have
        done. Failures elsewhere raise
        :class:`~repro.store.history.ReplayError`.
        """
        path = Path(path)
        meta_path = path / META_NAME
        if not meta_path.exists():
            raise StoreError(f"{path} is not a store (no {META_NAME})")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("format") != META_FORMAT:
            raise StoreError(
                f"{path}: unsupported store format {meta.get('format')!r}"
            )
        engine_kwargs = dict(meta.get("engine_kwargs") or {})
        # Stores written while engines still took an ``arena`` option
        # persisted it; there is one representation now, and a snapshot
        # holding record objects loads through ArenaXxx.from_records.
        engine_kwargs.pop("arena", None)
        journal = Journal(path / JOURNAL_NAME)
        engine, failed_seq = materialize(
            path,
            meta["engine"],
            journal,
            len(journal),
            engine_kwargs=engine_kwargs,
            tolerate_tail=True,
        )
        if failed_seq is not None:
            journal.truncate(failed_seq - 1)
        return cls(
            path,
            meta["engine"],
            engine_kwargs,
            engine,
            journal,
            len(journal),
            snapshot_every,
        )

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    @property
    def model(self):
        """The maintained model of the current revision."""
        return self.engine.model

    @property
    def revision(self) -> int:
        """The journal position the engine currently reflects."""
        return self._revision

    @property
    def head(self) -> int:
        """The newest revision in the journal (>= :attr:`revision`)."""
        return len(self.journal)

    def log(self) -> list[str]:
        """Human-readable journal, oldest first; ``*`` marks the cursor."""
        lines = []
        for record in self.journal:
            marker = "*" if record["seq"] == self._revision else " "
            lines.append(f"{marker}{describe(record)}")
        return lines

    # ------------------------------------------------------------------
    # Updates (write-ahead journaled)
    # ------------------------------------------------------------------

    def insert_fact(self, fact: Union[Atom, str]) -> UpdateResult:
        return self._apply("insert_fact", _as_fact(fact))

    def delete_fact(self, fact: Union[Atom, str]) -> UpdateResult:
        return self._apply("delete_fact", _as_fact(fact))

    def insert_rule(self, rule: Union[Clause, str]) -> UpdateResult:
        return self._apply("insert_rule", _as_rule(rule))

    def delete_rule(self, rule: Union[Clause, str]) -> UpdateResult:
        return self._apply("delete_rule", _as_rule(rule))

    def apply(self, operation: str, subject) -> UpdateResult:
        """Dispatch by operation name, mirroring ``MaintenanceEngine.apply``."""
        if operation in ("insert_fact", "delete_fact"):
            return self._apply(operation, _as_fact(subject))
        if operation in ("insert_rule", "delete_rule"):
            return self._apply(operation, _as_rule(subject))
        raise ValueError(f"unknown operation {operation!r}")

    def _apply(self, operation: str, subject) -> UpdateResult:
        self._check_open()
        if self._transaction is not None:
            # Inside a transaction: apply live, buffer for the commit
            # record; rollback restores the pre-transaction state.
            result = self.engine.apply(operation, subject)
            self._transaction._buffer(operation, subject)
            return result
        # Refuse an inadmissible update here, before the redo tail is
        # discarded and the write-ahead record lands — a rejected update
        # must leave both the journal and the undo history untouched.
        self.engine.db.admits(operation, subject)
        self._drop_redo_tail()
        seq = self.journal.append(update_record(operation, subject))
        try:
            result = self.engine.apply(operation, subject)
        except BaseException:
            # Backstop for failures past admission — take the write-ahead
            # record back out so journal == applied history.
            self.journal.truncate(seq - 1)
            raise
        self._revision = seq
        self._maybe_autosnapshot()
        return result

    def transaction(self) -> Transaction:
        """Start an atomic batch; see :mod:`repro.store.transaction`."""
        self._check_open()
        return Transaction(self)

    def _commit_transaction(self, updates) -> None:
        """Journal an already-applied transaction batch as one revision."""
        self._drop_redo_tail()
        self._revision = self.journal.append(commit_record(updates))
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_txn_commits_total",
                "Transactions committed as single journal revisions",
            ).inc()
        self._maybe_autosnapshot()

    def commit_batch(self, transactions) -> list[int]:
        """Journal several already-applied transaction batches at once.

        *transactions* is a sequence of update lists (each the
        ``(operation, subject)`` pairs of one transaction, in order). The
        commit records land with ONE journal fsync (group commit) and one
        redo-tail check instead of one each — the concurrent service's
        durability path. The engine must already reflect every update;
        this only makes them durable and advances the revision cursor.
        """
        self._check_open()
        if self._transaction is not None:
            raise StoreError("cannot group-commit inside a transaction")
        transactions = list(transactions)
        if not transactions:
            return []
        self._drop_redo_tail()
        seqs = self.journal.append_many(
            commit_record(updates) for updates in transactions
        )
        self._revision = seqs[-1]
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_txn_commits_total",
                "Transactions committed as single journal revisions",
            ).inc(len(seqs))
            OBS.metrics.counter(
                "repro_txn_group_commits_total",
                "Group commits (one fsync covering several transactions)",
            ).inc()
        self._maybe_autosnapshot()
        return seqs

    def _drop_redo_tail(self) -> None:
        if self._revision < len(self.journal):
            # Snapshots above the cut describe revisions that no longer
            # exist; new records will reuse those seq numbers, so a stale
            # snapshot would poison a later restore. Unlink them BEFORE
            # truncating the journal: a crash in between then leaves a
            # missing snapshot (harmless — restore falls back to an older
            # one) rather than a stale one (silent wrong state).
            for seq in snapshot_positions(self.path):
                if seq > self._revision:
                    (self.path / snapshot_name(seq)).unlink()
            self.journal.truncate(self._revision)

    def _maybe_autosnapshot(self) -> None:
        if (
            self.snapshot_every
            and self._revision % self.snapshot_every == 0
        ):
            self.snapshot()

    # ------------------------------------------------------------------
    # Snapshots and time travel
    # ------------------------------------------------------------------

    def snapshot(self) -> Path:
        """Checkpoint the current state; reopening starts from here."""
        self._check_open()
        if self._transaction is not None:
            raise StoreError("cannot snapshot inside a transaction")
        return write_snapshot(self.path, self._revision, self.engine.state_dict())

    def undo(self, n: int = 1) -> int:
        """Rewind *n* revisions; the journal keeps the tail for redo.

        Returns the new revision. The engine state is materialized from the
        best snapshot at-or-below the target plus a journal-prefix replay —
        contraction over the recorded history, in AGM terms.
        """
        return self.travel(self._revision - n)

    def redo(self, n: int = 1) -> int:
        """Re-apply *n* previously undone revisions."""
        self._check_open()
        if self._transaction is not None:
            raise StoreError("cannot redo inside a transaction")
        target = self._revision + n
        if n < 0 or target > len(self.journal):
            raise StoreError(
                f"cannot redo {n} from revision {self._revision}; "
                f"journal head is {len(self.journal)}"
            )
        replay(self.engine, self.journal.records[self._revision : target])
        self._revision = target
        return self._revision

    def travel(self, revision: int) -> int:
        """Materialize the belief state as of *revision* (0 = initial)."""
        self._check_open()
        if self._transaction is not None:
            raise StoreError("cannot time-travel inside a transaction")
        if revision < 0 or revision > len(self.journal):
            raise StoreError(
                f"revision {revision} outside journal range "
                f"0..{len(self.journal)}"
            )
        if revision == self._revision:
            return self._revision
        if revision > self._revision:
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_travel_total", "Time-travel operations",
                    direction="redo",
                ).inc()
            return self.redo(revision - self._revision)
        with OBS.span("store:travel") as span:
            if span:
                span.set("from", self._revision)
                span.set("to", revision)
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_travel_total", "Time-travel operations",
                    direction="undo",
                ).inc()
            engine, _ = materialize(
                self.path,
                self.engine_name,
                self.journal,
                revision,
                engine_kwargs=self.engine_kwargs,
            )
            self.engine = engine
            self._revision = revision
        return self._revision

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"Store({str(self.path)!r}, engine={self.engine_name!r}, "
            f"revision={self._revision}/{len(self.journal)})"
        )


def open_store(
    path,
    program: Optional[str] = None,
    engine: str = "cascade",
    snapshot_every: int = 0,
    **engine_kwargs,
) -> Store:
    """Open the store at *path*, creating it first when none exists.

    *program* and the engine options only matter at creation time; an
    existing store keeps the engine it was created with.
    """
    path = Path(path)
    if (path / META_NAME).exists():
        return Store.open(path, snapshot_every=snapshot_every)
    return Store.create(
        path,
        program or "",
        engine,
        snapshot_every=snapshot_every,
        **engine_kwargs,
    )
