"""Tests for repro.store: journal, snapshots, transactions, time travel."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.registry import ENGINE_NAMES, create_engine, engine_from_state
from repro.datalog.errors import UpdateError
from repro.datalog.evaluation import compute_model
from repro.store import (
    Journal,
    JournalError,
    Store,
    StoreError,
    TransactionError,
    dumps,
    loads,
    open_store,
    read_snapshot,
    snapshot_positions,
)
from repro.store.history import replay
from repro.store.journal import commit_record, update_record, updates_of
from repro.store.snapshot import write_snapshot
from repro.workloads.synthetic import SyntheticSpec, generate
from repro.workloads.updates import random_updates

PODS = """
submitted(1). submitted(2). submitted(3).
accepted(2).
rejected(X) :- not accepted(X), submitted(X).
"""

SMALL = SyntheticSpec(
    levels=2,
    relations_per_level=2,
    rules_per_relation=2,
    edb_relations=2,
    edb_facts_per_relation=4,
    domain_size=4,
)


@pytest.fixture
def store(tmp_path):
    return Store.create(tmp_path / "db", PODS, engine="cascade")


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------


class TestJournal:
    def test_append_assigns_dense_seq(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        assert journal.append(update_record("insert_fact", "x")) == 1
        assert journal.append(update_record("delete_fact", "y")) == 2
        assert len(journal) == 2

    def test_reload_preserves_records(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(update_record("insert_fact", "x"))
        reloaded = Journal(tmp_path / "j.jsonl")
        assert reloaded.records == journal.records

    def test_truncate(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        for i in range(5):
            journal.append(update_record("insert_fact", f"f{i}"))
        journal.truncate(2)
        assert len(journal) == 2
        assert len(Journal(tmp_path / "j.jsonl")) == 2

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(update_record("insert_fact", "x"))
        with open(path, "a") as handle:
            handle.write('{"seq": 2, "kind": "upd')  # crash mid-append
        reloaded = Journal(path)
        assert len(reloaded) == 1

    def test_corruption_in_the_middle_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(update_record("insert_fact", "x"))
        journal.append(update_record("insert_fact", "y"))
        lines = path.read_text().splitlines()
        lines[0] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            Journal(path)

    def test_bad_seq_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = dict(update_record("insert_fact", "x"), seq=7)
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(JournalError):
            Journal(path)

    def test_update_record_round_trips_subject(self):
        from repro.datalog.parser import parse_clause

        clause = parse_clause("p(X) :- q(X), not r(X).")
        [(operation, subject)] = updates_of(
            dict(update_record("insert_rule", clause), seq=1)
        )
        assert operation == "insert_rule"
        assert subject == clause

    def test_commit_record_preserves_order(self):
        from repro.datalog.parser import parse_fact

        facts = [parse_fact(f"e({i})") for i in range(4)]
        record = dict(
            commit_record([("insert_fact", fact) for fact in facts]), seq=1
        )
        assert [subject for _, subject in updates_of(record)] == facts


class TestReplay:
    def test_journal_replay_reaches_live_state(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        live = create_engine("cascade", PODS)
        for operation, subject in [
            ("insert_fact", "accepted(1)"),
            ("delete_fact", "accepted(2)"),
            ("insert_rule", "late(X) :- submitted(X), not accepted(X)."),
        ]:
            journal.append(update_record(operation, subject))
            live.apply(operation, subject)
        fresh = create_engine("cascade", PODS)
        applied, failed = replay(fresh, journal.records)
        assert applied == 3 and failed is None
        assert fresh.model == live.model
        assert dumps(fresh.state_dict()) == dumps(live.state_dict())

    def test_replay_tolerates_only_the_tail(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(update_record("insert_fact", "submitted(9)"))
        journal.append(update_record("delete_fact", "nosuch(1)"))
        fresh = create_engine("cascade", PODS)
        applied, failed = replay(
            fresh, journal.records, tolerate_tail=True
        )
        assert applied == 1 and failed == 2


# ----------------------------------------------------------------------
# Snapshots: exact state round-trip for every engine
# ----------------------------------------------------------------------


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_state_dict_round_trips_exactly(self, name):
        engine = create_engine(name, PODS)
        engine.insert_fact("submitted(4)")
        engine.delete_fact("accepted(2)")
        restored = engine_from_state(name, loads(dumps(engine.state_dict())))
        assert restored.model == engine.model
        assert restored._support_state() == engine._support_state()
        assert restored.db.program.clauses == engine.db.program.clauses
        assert dumps(restored.state_dict()) == dumps(engine.state_dict())

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_restored_engine_keeps_maintaining(self, name):
        engine = create_engine(name, PODS)
        engine.insert_fact("submitted(4)")
        restored = engine_from_state(name, loads(dumps(engine.state_dict())))
        for twin in (engine, restored):
            twin.insert_fact("accepted(3)")
            twin.delete_fact("submitted(1)")
        assert restored.model == engine.model
        assert restored._support_state() == engine._support_state()

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_snapshot_file_round_trip(self, name, tmp_path):
        store = Store.create(tmp_path / "db", PODS, engine=name)
        store.insert_fact("submitted(4)")
        store.snapshot()
        seq, state = read_snapshot(
            tmp_path / "db" / "snapshot-00000001.json"
        )
        assert seq == 1
        restored = engine_from_state(name, state)
        assert restored.model == store.engine.model
        assert restored._support_state() == store.engine._support_state()

    def test_serialization_is_deterministic(self):
        engine = create_engine("factlevel", PODS)
        other = create_engine("factlevel", PODS)
        assert dumps(engine.state_dict()) == dumps(other.state_dict())

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_v1_snapshot_file_still_restores(self, name, tmp_path):
        from repro.store.snapshot import write_snapshot

        engine = create_engine(name, PODS)
        engine.insert_fact("submitted(4)")
        path = write_snapshot(
            tmp_path, 0, engine.state_dict(), format_version=1
        )
        restored = engine_from_state(name, read_snapshot(path)[1])
        assert restored.model == engine.model
        assert restored._support_state() == engine._support_state()
        assert dumps(restored.state_dict()) == dumps(engine.state_dict())

    def test_store_opens_on_a_v1_base_snapshot(self, tmp_path):
        """A store whose base snapshot predates the v2 codec reopens
        transparently: read_snapshot regroups the legacy fact tuple into
        the columnar form every consumer now expects."""
        from repro.store.snapshot import write_snapshot

        store = Store.create(tmp_path / "db", PODS, engine="cascade")
        state = store.engine.state_dict()
        store.insert_fact("submitted(4)")
        expected = store.model.as_set()
        store.close()
        write_snapshot(tmp_path / "db", 0, state, format_version=1)
        reopened = Store.open(tmp_path / "db")
        assert reopened.model.as_set() == expected
        reopened.close()

    def test_unsupported_snapshot_format_rejected(self, tmp_path):
        import json as _json

        from repro.store.snapshot import SnapshotError, write_snapshot

        engine = create_engine("cascade", PODS)
        path = write_snapshot(tmp_path, 0, engine.state_dict())
        payload = _json.loads(path.read_text(encoding="utf-8"))
        payload["format"] = 99
        path.write_text(_json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotError):
            read_snapshot(path)
        with pytest.raises(SnapshotError):
            write_snapshot(tmp_path, 1, engine.state_dict(), format_version=99)
        payload["format"] = 2
        del payload["model"]  # truncated v2 file: missing model section
        path.write_text(_json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotError):
            read_snapshot(path)


# ----------------------------------------------------------------------
# Store lifecycle: create / open / write-ahead journaling
# ----------------------------------------------------------------------


class TestStore:
    def test_create_then_open_restores_state(self, store, tmp_path):
        store.insert_fact("accepted(1)")
        store.delete_fact("accepted(2)")
        store.close()
        reopened = Store.open(tmp_path / "db")
        assert reopened.revision == 2
        assert reopened.model.as_set() == {
            fact for fact in reopened.model.facts()
        }
        live = create_engine("cascade", PODS)
        live.insert_fact("accepted(1)")
        live.delete_fact("accepted(2)")
        assert reopened.model == live.model
        assert dumps(reopened.engine.state_dict()) == dumps(live.state_dict())

    def test_open_replays_journal_tail_over_snapshot(self, store, tmp_path):
        store.insert_fact("accepted(1)")
        store.snapshot()  # checkpoint at revision 1
        store.insert_fact("accepted(3)")  # journal tail past the snapshot
        expected = store.model.as_set()
        store.close()
        reopened = Store.open(tmp_path / "db")
        assert reopened.model.as_set() == expected

    def test_refused_update_is_not_journaled(self, store):
        with pytest.raises(UpdateError):
            store.delete_fact("nosuch(1)")
        assert store.head == 0
        store.insert_fact("submitted(4)")
        assert store.head == 1

    def test_open_requires_store_directory(self, tmp_path):
        with pytest.raises(StoreError):
            Store.open(tmp_path / "nothing")

    def test_create_refuses_existing_store(self, store, tmp_path):
        with pytest.raises(StoreError):
            Store.create(tmp_path / "db", PODS)

    def test_open_store_creates_then_reopens(self, tmp_path):
        first = open_store(tmp_path / "db", program=PODS, engine="dynamic")
        first.insert_fact("submitted(4)")
        first.close()
        second = open_store(tmp_path / "db")
        assert second.engine_name == "dynamic"
        assert second.model.contains("submitted", (4,))

    def test_autosnapshot_every(self, tmp_path):
        store = Store.create(
            tmp_path / "db", PODS, engine="cascade", snapshot_every=2
        )
        for i in range(4, 8):
            store.insert_fact(f"submitted({i})")
        assert snapshot_positions(tmp_path / "db") == [0, 2, 4]

    def test_crash_artifact_record_is_truncated_on_open(self, store, tmp_path):
        # Simulate a crash between the write-ahead append and admission:
        # the journaled update was never applied and cannot be (the fact
        # is not asserted), so open() drops it.
        store.insert_fact("submitted(4)")
        store.close()
        journal = Journal(tmp_path / "db" / "journal.jsonl")
        journal.append(update_record("delete_fact", "nosuch(1)"))
        reopened = Store.open(tmp_path / "db")
        assert reopened.head == 1
        assert reopened.model.contains("submitted", (4,))

    @pytest.mark.parametrize(
        "engine",
        ["factlevel", "cascade", "cascade-paper", "setofsets",
         "setofsets-paired"],
    )
    def test_store_created_with_arena_false_still_opens(
        self, engine, tmp_path
    ):
        # Engines once took arena=False and Store.create persisted it: the
        # directory holds the key in meta.json and a snapshot whose supports
        # are the record-object mappings. Built by hand, as that code did.
        path = tmp_path / "db"
        path.mkdir()
        state = create_engine(engine, PODS).state_dict()
        state["supports"] = {
            key: value.to_record_state() if value else value
            for key, value in state["supports"].items()
        }
        write_snapshot(path, 0, state)
        (path / "journal.jsonl").touch()
        meta = {
            "format": 1, "engine": engine, "engine_kwargs": {"arena": False},
        }
        (path / "meta.json").write_text(json.dumps(meta))

        reopened = Store.open(path)
        assert reopened.engine_kwargs == {}
        fresh = create_engine(engine, PODS)
        assert reopened.model == fresh.model
        assert (
            reopened.engine.support_entry_count()
            == fresh.support_entry_count()
        )
        with reopened.transaction():
            reopened.insert_fact("accepted(1)")
            reopened.insert_fact("submitted(4)")
        reopened.snapshot()
        reopened.delete_fact("accepted(2)")
        expected = (
            reopened.model.as_set(), reopened.engine.support_entry_count()
        )
        reopened.close()
        assert json.loads((path / "meta.json").read_text()) == meta

        again = Store.open(path)
        assert (
            again.model.as_set(), again.engine.support_entry_count()
        ) == expected
        assert again.model == compute_model(again.engine.db.program)

    def test_create_rejects_the_arena_option(self, tmp_path):
        with pytest.raises(TypeError):
            Store.create(tmp_path / "db", PODS, engine="factlevel", arena=False)


# ----------------------------------------------------------------------
# Transactions
# ----------------------------------------------------------------------


class TestTransaction:
    def test_commit_is_one_revision(self, store):
        with store.transaction():
            store.insert_fact("submitted(4)")
            store.insert_fact("submitted(5)")
        assert store.revision == 1
        assert store.journal.record(1)["kind"] == "commit"
        assert store.model.contains("submitted", (5,))

    def test_commit_replays_on_reopen(self, store, tmp_path):
        with store.transaction():
            store.insert_fact("submitted(4)")
            store.delete_fact("accepted(2)")
        expected = store.model.as_set()
        store.close()
        assert Store.open(tmp_path / "db").model.as_set() == expected

    def test_failure_mid_batch_restores_byte_identical_state(self, store):
        store.insert_fact("submitted(4)")
        before = dumps(store.engine.state_dict())
        with pytest.raises(UpdateError):
            with store.transaction():
                store.insert_fact("submitted(5)")
                store.delete_fact("nosuch(1)")  # fails mid-batch
        assert dumps(store.engine.state_dict()) == before
        assert store.head == 1  # nothing extra journaled

    def test_abort_restores_byte_identical_state(self, store):
        before = dumps(store.engine.state_dict())
        with store.transaction() as txn:
            store.insert_fact("submitted(4)")
            assert store.model.contains("submitted", (4,))  # live inside
            txn.abort()
        assert dumps(store.engine.state_dict()) == before
        assert store.head == 0

    def test_empty_transaction_journals_nothing(self, store):
        with store.transaction():
            pass
        assert store.head == 0

    def test_transactions_do_not_nest(self, store):
        with store.transaction():
            with pytest.raises(TransactionError):
                store.transaction().__enter__()

    def test_transaction_object_not_reusable(self, store):
        txn = store.transaction()
        with txn:
            store.insert_fact("submitted(4)")
        with pytest.raises(TransactionError):
            txn.__enter__()

    def test_model_consistent_after_rollback(self, store):
        with store.transaction() as txn:
            store.insert_fact("submitted(4)")
            txn.abort()
        store.insert_fact("submitted(6)")
        assert store.model == compute_model(store.engine.db.program)


# ----------------------------------------------------------------------
# Undo / redo / time travel
# ----------------------------------------------------------------------


class TestTimeTravel:
    def test_undo_materializes_earlier_state(self, store):
        base = store.model.as_set()
        store.insert_fact("submitted(4)")
        middle = store.model.as_set()
        store.delete_fact("accepted(2)")
        store.undo(1)
        assert store.model.as_set() == middle
        store.undo(1)
        assert store.model.as_set() == base
        assert store.revision == 0

    def test_redo_reapplies(self, store):
        store.insert_fact("submitted(4)")
        head = store.model.as_set()
        store.undo(1)
        store.redo(1)
        assert store.model.as_set() == head
        assert store.revision == 1

    def test_new_update_truncates_redo_tail(self, store):
        store.insert_fact("submitted(4)")
        store.insert_fact("submitted(5)")
        store.undo(2)
        store.insert_fact("submitted(6)")
        assert store.head == 1
        with pytest.raises(StoreError):
            store.redo(1)

    def test_stale_snapshots_are_dropped_with_the_tail(self, store, tmp_path):
        store.insert_fact("submitted(4)")
        store.snapshot()  # snapshot-1 describes the old revision 1
        store.undo(1)
        store.insert_fact("submitted(7)")  # new, different revision 1
        store.close()
        reopened = Store.open(tmp_path / "db")
        assert reopened.model.contains("submitted", (7,))
        assert not reopened.model.contains("submitted", (4,))

    def test_travel_to_absolute_revision(self, store):
        states = [store.model.as_set()]
        for i in range(4, 7):
            store.insert_fact(f"submitted({i})")
            states.append(store.model.as_set())
        for revision in (0, 2, 3, 1):
            store.travel(revision)
            assert store.model.as_set() == states[revision]

    def test_undo_beyond_history_raises(self, store):
        with pytest.raises(StoreError):
            store.undo(1)

    def test_refused_update_preserves_redo_tail(self, store):
        store.insert_fact("submitted(4)")
        store.insert_fact("submitted(5)")
        store.undo(2)
        with pytest.raises(UpdateError):
            store.delete_fact("nosuch(1)")  # refused before admission
        assert store.head == 2  # the undone revisions are still there
        store.redo(2)
        assert store.model.contains("submitted", (5,))

    def test_half_created_directory_is_recoverable(self, tmp_path):
        # Crash during create() before meta.json (the commit point): the
        # directory has a snapshot and journal but no meta; open_store
        # must re-create cleanly rather than brick.
        directory = tmp_path / "db"
        store = Store.create(directory, PODS)
        store.insert_fact("submitted(4)")
        store.close()
        (directory / "meta.json").unlink()  # what a mid-create crash leaves
        reopened = open_store(directory, program=PODS, engine="cascade")
        assert reopened.head == 0  # fresh store; stale journal not adopted
        assert not reopened.model.contains("submitted", (4,))

    def test_undo_of_transaction_is_atomic(self, store):
        base = store.model.as_set()
        with store.transaction():
            store.insert_fact("submitted(4)")
            store.insert_fact("submitted(5)")
        store.undo(1)
        assert store.model.as_set() == base


# ----------------------------------------------------------------------
# Property-style: journaled replay tracks the live engine; undo/redo are
# an inverse pair (alongside tests/test_properties.py)
# ----------------------------------------------------------------------


_dirs = __import__("itertools").count()

seeds = st.integers(min_value=0, max_value=10_000)
common = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


class TestStoreProperties:
    @given(seed=seeds, n_updates=st.integers(min_value=1, max_value=6))
    @common
    def test_reopen_equals_live_engine(self, seed, n_updates, tmp_path):
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, seed=seed,
        )
        directory = tmp_path / f"db-{next(_dirs)}"
        store = Store.create(directory, syn.program, engine="cascade")
        live = create_engine("cascade", syn.program)
        for operation, subject in updates:
            store.apply(operation, subject)
            live.apply(operation, subject)
        store.close()
        reopened = Store.open(directory)
        assert reopened.model == live.model
        assert dumps(reopened.engine.state_dict()) == dumps(live.state_dict())

    @given(seed=seeds, n_updates=st.integers(min_value=1, max_value=6))
    @common
    def test_undo_redo_is_inverse_pair(self, seed, n_updates, tmp_path):
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, seed=seed,
        )
        directory = tmp_path / f"db-{next(_dirs)}"
        store = Store.create(directory, syn.program, engine="cascade")
        states = [dumps(store.engine.state_dict())]
        for operation, subject in updates:
            store.apply(operation, subject)
            states.append(dumps(store.engine.state_dict()))
        for steps in range(1, len(states)):
            store.undo(steps)
            assert dumps(store.engine.state_dict()) == states[-1 - steps]
            store.redo(steps)
            assert dumps(store.engine.state_dict()) == states[-1]
        store.close()
