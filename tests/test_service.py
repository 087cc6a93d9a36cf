"""The concurrent revision service: executor, store, server.

The load-bearing property everywhere: admitting a batch through the
scheduler must leave the engine (and the store) in exactly the state of
a submission-order serial replay — models byte-identical, canonical
supports byte-identical, journal identical. The fuzzer's service mode
drives that differential, rollback included, across every registered
engine.
"""

import asyncio
import threading

import pytest

from repro.analysis.fuzz import fuzz_service_batches
from repro.core.registry import ENGINE_NAMES, create_engine
from repro.datalog.parser import parse_fact
from repro.service import RevisionService
from repro.service.executor import BatchExecutor
from repro.service.server import RevisionServer, ServiceClient, parse_update
from repro.store import open_store
from repro.store.journal import Journal
from repro.workloads.families import sharded_by_key
from repro.workloads.updates import keyed_transactions

EDB = ("account", "deposit", "withdrawal", "voided", "whitelisted")
ARITIES = {
    "account": 1,
    "deposit": 2,
    "withdrawal": 2,
    "voided": 2,
    "whitelisted": 1,
}


def _ledger_batch(seed: int = 0, per_txn: int = 2):
    program = sharded_by_key()
    batch = keyed_transactions(
        program,
        EDB,
        ARITIES,
        updates_per_transaction=per_txn,
        seed=seed,
    )
    return program, batch


# ----------------------------------------------------------------------
# Executor: scheduled == serial on every engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_executor_matches_serial_replay(engine_name):
    program, batch = _ledger_batch(seed=1)
    serial = create_engine(engine_name, program)
    for _, updates in batch:
        for operation, fact in updates:
            serial.apply(operation, fact)

    engine = create_engine(engine_name, program)
    report = BatchExecutor(engine).execute(batch)

    assert all(outcome.committed for outcome in report.outcomes)
    assert engine.state_dict() == serial.state_dict()
    # Disjoint-key traffic must be certified into groups of >= 2, and
    # exactly their members are reported as commuting.
    assert report.parallel_groups > 0
    commuting = {
        name for group in report.groups if len(group) > 1 for name in group
    }
    assert {
        o.name for o in report.outcomes if o.mode == "commuting"
    } == commuting
    assert {o.mode for o in report.outcomes} <= {"commuting", "serial"}


def test_executor_rejects_inadmissible_and_preserves_rest():
    program, batch = _ledger_batch(seed=2)
    bad = ("delete_fact", parse_fact("deposit(acct_nope, 77)"))
    batch = list(batch)
    batch.insert(1, ("txn_bad", [bad]))

    engine = create_engine("factlevel", program)
    report = BatchExecutor(engine).execute(batch)

    outcomes = {o.name: o for o in report.outcomes}
    assert not outcomes["txn_bad"].committed
    assert outcomes["txn_bad"].error
    accepted = report.accepted()
    assert [name for name, _ in accepted] == [
        name for name, _ in batch if name != "txn_bad"
    ]

    serial = create_engine("factlevel", program)
    for _, updates in accepted:
        for operation, fact in updates:
            serial.apply(operation, fact)
    assert engine.state_dict() == serial.state_dict()


def test_executor_serializes_rule_updates():
    program, batch = _ledger_batch(seed=3)
    batch = list(batch)[:3]
    batch.append(
        ("txn_rule", [("insert_rule", "flagged(A) :- overdrawn(A).")])
    )
    engine = create_engine("cascade", program)
    report = BatchExecutor(engine).execute(batch)
    assert all(outcome.committed for outcome in report.outcomes)
    assert all(outcome.mode == "serial" for outcome in report.outcomes)
    assert report.parallel_groups == 0


# ----------------------------------------------------------------------
# Service over a durable store
# ----------------------------------------------------------------------


def test_service_group_commit_equals_serial_store(tmp_path):
    program, batch = _ledger_batch(seed=4)

    serial = open_store(
        tmp_path / "serial", program=str(program), engine="factlevel"
    )
    for _, updates in batch:
        with serial.transaction():
            for operation, fact in updates:
                serial.apply(operation, fact)

    service = RevisionService(
        open_store(
            tmp_path / "batched", program=str(program), engine="factlevel"
        )
    )
    with service:
        result = service.submit_batch(batch)
        assert result.committed == len(batch)
        assert result.revision == service.revision
        assert (
            service.store.engine.state_dict() == serial.engine.state_dict()
        )
    serial.close()


def test_service_read_view_pins_epoch(tmp_path):
    program, batch = _ledger_batch(seed=5)
    store = open_store(tmp_path / "s", program=str(program), engine="cascade")
    with RevisionService(store) as service:
        before = service.read_view()
        result = service.submit_batch(batch)
        assert result.committed == len(batch)
        after = service.read_view()
        # The pinned view is immutable across later commits.
        assert before.epoch == 0
        assert after.epoch == service.revision
        assert len(before.model) < len(after.model)
        inserted = next(
            fact
            for _, updates in batch
            for operation, fact in updates
            if operation == "insert_fact"
        )
        assert not before.holds(inserted)
        assert after.holds(inserted)
        before.release()
        after.release()


def test_read_view_rows_sorts_one_relation(tmp_path, monkeypatch):
    from repro.datalog.relations import Relation

    program, batch = _ledger_batch(seed=5)
    store = open_store(tmp_path / "s", program=str(program), engine="factlevel")
    with RevisionService(store) as service:
        service.submit_batch(batch)
        with service.read_view() as view:
            expected = {
                name: tuple(rows)
                for name, _arity, rows in view.model.relation_data()
            }
            iterated = []
            original = Relation.__iter__
            monkeypatch.setattr(
                Relation, "__iter__",
                lambda self: iterated.append(self.name) or original(self),
            )
            rows = view.rows("posted")
            monkeypatch.undo()
            assert iterated == ["posted"]  # no other relation is touched
            assert isinstance(rows, tuple) and rows == expected["posted"]
            for name, sorted_rows in expected.items():
                assert view.rows(name) == sorted_rows
            assert view.rows("no_such_relation") == ()
            assert not view.model.has_relation("no_such_relation")


def test_service_undo_redo_replays_group_commit(tmp_path):
    program, batch = _ledger_batch(seed=6)
    store = open_store(tmp_path / "s", program=str(program), engine="dynamic")
    with RevisionService(store) as service:
        result = service.submit_batch(batch)
        head = service.revision
        final = service.store.engine.state_dict()
        assert result.committed == len(batch)
        service.undo(len(batch))
        assert service.revision == head - len(batch)
        service.redo(len(batch))
        assert service.revision == head
        assert service.store.engine.state_dict() == final


def test_service_concurrent_submitters(tmp_path):
    """Many threads share one service; total state == serial replay."""
    program, batch = _ledger_batch(seed=7)
    chunks = [batch[i::4] for i in range(4)]

    store = open_store(tmp_path / "s", program=str(program), engine="factlevel")
    errors = []
    with RevisionService(store) as service:

        def submit(chunk):
            try:
                result = service.submit_batch(chunk)
                assert result.committed == len(chunk)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=submit, args=(chunk,))
            for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.revision == len(batch)
        # All updates landed exactly once, whatever the interleaving.
        serial = create_engine("factlevel", program)
        for _, updates in batch:
            for operation, fact in updates:
                serial.apply(operation, fact)
        assert set(service.store.model) == set(serial.model)


def test_failed_group_commit_rolls_back_engine(tmp_path, monkeypatch):
    """A batch whose journal append fails leaves no trace, live or durable."""
    program, batch = _ledger_batch(seed=9)
    lost, acknowledged = batch[: len(batch) // 2], batch[len(batch) // 2 :]
    lost_fact = next(
        fact
        for _, updates in lost
        for operation, fact in updates
        if operation == "insert_fact"
    )
    oracle = create_engine("recompute", program)
    for _, updates in acknowledged:
        for operation, fact in updates:
            oracle.apply(operation, fact)

    def full_disk(self, payloads):
        raise OSError("no space left on device")

    path = tmp_path / "s"
    store = open_store(path, program=str(program), engine="factlevel")
    with RevisionService(store) as service:
        with monkeypatch.context() as patch:
            patch.setattr(Journal, "append_many", full_disk)
            with pytest.raises(OSError):
                service.submit_batch(lost)
        assert service.revision == 0
        assert not service.holds(lost_fact)
        result = service.submit_batch(acknowledged)
        assert result.committed == len(acknowledged)
        assert set(service.store.model) == set(oracle.model)

    reopened = open_store(path)
    assert reopened.revision == len(acknowledged)
    assert set(reopened.model) == set(oracle.model)
    reopened.close()


# ----------------------------------------------------------------------
# Stress: the fuzzer's service differential on every engine
# ----------------------------------------------------------------------


def test_service_fuzz_batches_equal_serial_all_engines():
    report = fuzz_service_batches(range(2), transactions=8, rng_seed=11)
    assert report.ok, report.summary()
    assert report.service_batches >= len(ENGINE_NAMES)
    assert report.commuting_groups > 0


# ----------------------------------------------------------------------
# Protocol front-end
# ----------------------------------------------------------------------


def test_parse_update_forms():
    operation, fact = parse_update("+deposit(acct1, 5).")
    assert operation == "insert_fact" and fact == parse_fact(
        "deposit(acct1, 5)"
    )
    operation, fact = parse_update("-deposit(acct1, 5)")
    assert operation == "delete_fact"
    operation, subject = parse_update(
        {"op": "insert_rule", "subject": "p(X) :- q(X)."}
    )
    assert operation == "insert_rule"
    with pytest.raises(ValueError):
        parse_update(42)


def test_server_sessions_commit_and_pin(tmp_path):
    program, batch = _ledger_batch(seed=8)
    store = open_store(tmp_path / "s", program=str(program), engine="factlevel")

    async def drive():
        service = RevisionService(store)
        server = RevisionServer(service, batch_window=0.001)
        await server.start()
        try:
            control = await ServiceClient.connect(server.host, server.port)
            pin = await control.request("pin")
            assert pin["ok"] and pin["epoch"] == 0
            baseline = await control.request(
                "rows", relation="posted", view=pin["view"]
            )

            async def session(chunk):
                client = await ServiceClient.connect(server.host, server.port)
                try:
                    count = 0
                    for _, updates in chunk:
                        specs = [
                            ("+" if op == "insert_fact" else "-") + str(fact)
                            for op, fact in updates
                        ]
                        response = await client.commit(specs)
                        assert response["committed"], response
                        count += 1
                    return count
                finally:
                    await client.close()

            chunks = [batch[i::3] for i in range(3)]
            counts = await asyncio.gather(*map(session, chunks))
            assert sum(counts) == len(batch)

            pong = await control.request("ping")
            assert pong["revision"] == len(batch)
            # The pinned view still shows the epoch-0 rows; the live
            # model has moved on.
            stale = await control.request(
                "rows", relation="posted", view=pin["view"]
            )
            assert stale["rows"] == baseline["rows"]
            live = await control.request("rows", relation="posted")
            assert live["rows"] != stale["rows"]
            await control.request("release", view=pin["view"])
            await control.close()
        finally:
            await server.stop()
            service.close()

    asyncio.run(drive())
    serial = create_engine("factlevel", program)
    for _, updates in batch:
        for operation, fact in updates:
            serial.apply(operation, fact)
    assert set(store.engine.model) == set(serial.model)
    store.close()
