"""E22 — the revision service: what batch admission buys, as counts.

A transaction batch goes through the argument-level commutation
scheduler, every transaction is applied on the store's one engine, and
the accepted transactions become durable with **one** journal group
commit (one fsync, one redo-tail check) instead of one fsync per
transaction. Both guards count events; wall-clock times are printed for
the record and never asserted (the last measured ratios, and the
pool-vs-serial numbers that retired the worker pool, are in the README's
service section).

* **E22a (one durable write per batch — CI guard)** — on disjoint-key
  ledger traffic, admitting a 16-transaction batch through
  :class:`~repro.service.RevisionService` costs exactly one
  ``Journal.append_many`` call and one journal ``os.fsync``, against 16
  ``Journal.append`` calls and 16 fsyncs for per-transaction
  ``Store.transaction`` admission; every transaction commits, every
  round is scheduled into at least one commuting group, **and** the
  final store is byte-identical: the canonical v2 snapshot written after
  the batched run equals the serial store's snapshot byte for byte.

* **E22b (concurrent sessions really share commits — CI guard)** —
  driving the ``asyncio`` front-end over real sockets, with two or more
  sessions the micro-batching writer must put several transactions under
  one group commit (``repro_txn_group_commits_total`` below the commit
  count, mean ``repro_service_batch_size`` above 1); one closed-loop
  session alone never can (mean batch size 1).
"""

import asyncio
import os
import time

from repro.bench.reporting import print_table
from repro.datalog.atoms import Atom
from repro.obs import telemetry
from repro.service import RevisionService
from repro.service.server import RevisionServer, ServiceClient
from repro.store import journal, open_store
from repro.workloads import sharded_by_key

ACCOUNTS = 16
ROUNDS = 14
UPDATES_PER_TXN = 2

SESSION_COUNTS = (1, 2, 4, 8, 16)
COMMITS_PER_SESSION = 30


def _traffic(tag: int):
    """One round of disjoint-key transactions, all fresh insertions.

    Values are partitioned by *tag* so every round (and every caller)
    stays admissible against everything committed before it.
    """
    base = 100_000 + tag * 1_000
    batch = []
    for key in range(1, ACCOUNTS + 1):
        account = f"acct{key}"
        updates = [
            ("insert_fact", Atom("deposit", (account, base + step)))
            for step in range(UPDATES_PER_TXN)
        ]
        batch.append((f"r{tag}_{account}", updates))
    return batch


class _JournalSpy:
    """Counts the journal's appends and the fsyncs *it* issues.

    Stands in for ``repro.store.journal.os`` so snapshot and metadata
    fsyncs (other modules, other ``os`` bindings) are not counted.
    """

    def __init__(self, monkeypatch) -> None:
        self.fsyncs = self.appends = self.batch_appends = 0
        monkeypatch.setattr(journal, "os", self)
        for counter, name in (
            ("appends", "append"), ("batch_appends", "append_many")
        ):
            monkeypatch.setattr(
                journal.Journal, name,
                self._counting(counter, getattr(journal.Journal, name)),
            )

    def _counting(self, counter, function):
        def counted(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return function(*args, **kwargs)

        return counted

    def fsync(self, fd):
        self.fsyncs += 1
        return os.fsync(fd)

    def __getattr__(self, name):
        return getattr(os, name)  # whatever else the journal uses of os

    def counts(self):
        return (self.fsyncs, self.appends, self.batch_appends)


def test_e22a_one_group_commit_per_batch(tmp_path, monkeypatch):
    program = str(sharded_by_key(accounts=ACCOUNTS))
    rounds = [_traffic(tag) for tag in range(ROUNDS)]
    total = sum(len(batch) for batch in rounds)
    spy = _JournalSpy(monkeypatch)

    def spent(before):
        return tuple(now - then for now, then in zip(spy.counts(), before))

    serial = open_store(
        tmp_path / "serial", program=program, engine="factlevel"
    )
    started = time.perf_counter()
    for batch in rounds:
        before = spy.counts()
        for _, updates in batch:
            with serial.transaction():
                for operation, fact in updates:
                    serial.apply(operation, fact)
        # (fsyncs, Journal.append, Journal.append_many)
        assert spent(before) == (len(batch), len(batch), 0)
    serial_seconds = time.perf_counter() - started
    assert serial.revision == total

    store = open_store(
        tmp_path / "batched", program=program, engine="factlevel"
    )
    committed = 0
    commuting_groups = 0
    with RevisionService(store) as service:
        started = time.perf_counter()
        for batch in rounds:
            before = spy.counts()
            result = service.submit_batch(batch)
            assert spent(before) == (1, 0, 1)
            committed += result.committed
            commuting_groups += result.report.parallel_groups
        batched_seconds = time.perf_counter() - started
        assert committed == total
        assert service.revision == total
        # The disjoint-key rounds must actually be certified commuting.
        assert commuting_groups >= ROUNDS

        # Byte-identical durability: the canonical v2 snapshots of the
        # two stores must match exactly.
        batched_snapshot = store.snapshot().read_bytes()
    serial_snapshot = serial.snapshot().read_bytes()
    serial.close()
    assert batched_snapshot == serial_snapshot

    print_table(
        ["admission", "txns", "journal_fsyncs", "seconds", "txn_per_sec"],
        [
            ["Store.transaction (per txn)", total, total, serial_seconds,
             total / serial_seconds],
            ["submit_batch (group commit)", total, ROUNDS, batched_seconds,
             total / batched_seconds],
        ],
        "E22a: batch admission vs per-transaction admission "
        f"({ACCOUNTS} disjoint keys; times printed, not asserted)",
    )


def test_e22b_sessions_share_group_commits(tmp_path):
    program = str(sharded_by_key(accounts=max(SESSION_COUNTS)))
    store = open_store(tmp_path / "store", program=program, engine="factlevel")
    service = RevisionService(store)
    rows = []

    async def run_sessions(count: int, tag: int) -> float:
        server = RevisionServer(service, batch_window=0.001)
        await server.start()
        try:
            async def session(index: int) -> None:
                client = await ServiceClient.connect(server.host, server.port)
                try:
                    account = f"acct{index + 1}"
                    base = 10_000_000 + tag * 100_000 + index * 1_000
                    for step in range(COMMITS_PER_SESSION):
                        response = await client.commit(
                            [f"+deposit({account}, {base + step})"]
                        )
                        assert response["committed"], response
                finally:
                    await client.close()

            started = time.perf_counter()
            await asyncio.gather(*(session(i) for i in range(count)))
            return time.perf_counter() - started
        finally:
            await server.stop()

    def reading(metrics: dict, name: str) -> dict:
        (series,) = metrics[name]
        return series

    with service:
        for tag, count in enumerate(SESSION_COUNTS):
            with telemetry() as obs:
                seconds = asyncio.run(run_sessions(count, tag))
                metrics = obs.metrics_dict()
            txns = count * COMMITS_PER_SESSION
            commits = reading(metrics, "repro_txn_commits_total")["value"]
            group_commits = reading(
                metrics, "repro_txn_group_commits_total"
            )["value"]
            sizes = reading(metrics, "repro_service_batch_size")
            mean_batch = sizes["sum"] / sizes["count"]
            rows.append(
                [count, txns, group_commits, mean_batch, seconds,
                 txns / seconds]
            )
            assert commits == txns
            if count == 1:
                # A closed-loop session has one commit in flight at a time.
                assert group_commits == commits and mean_batch <= 1
            else:
                assert group_commits < commits
                assert mean_batch > 1
        expected = sum(SESSION_COUNTS) * COMMITS_PER_SESSION
        assert service.revision == expected

    print_table(
        ["sessions", "txns", "group_commits", "mean_batch", "seconds",
         "txn_per_sec"],
        rows,
        "E22b: group commits and batch size vs session count (asyncio "
        "front-end, micro-batching writer; times printed, not asserted)",
    )
