"""E23 — fact-level removal follows the update's cone, as counts.

Section 5.2 rejects fact-level supports for databases because keeping
every ground deduction "defeats the delta-driven mechanism". The
saturation half of the fact-level engine always was delta-driven; this
experiment guards the removal half: the kill pass starts from the
changed atoms through the arena's citation index, the groundedness check
runs over the facts reachable from the heads that lost a record, and the
bookkeeping total is carried, not recounted. Every guard counts events
or compares counts; no time or ratio is asserted.

* **E23a (no store scan)** — a spy on ``Model.facts_of`` records zero
  calls during ``insert_fact`` / ``delete_fact``, on the keyed ledger and
  on the skewed star with a negation stratum.

* **E23b (cost follows the cone, not the store)** — read from the
  ``phase:kill`` / ``phase:well_founded`` span attributes, the per-update
  ``visited`` and ``suspects`` sequences of one 200-update single-account
  churn are identical on a 64-account and a 256-account ledger. On that
  churn every inserted atom is fresh, so the append-only index holds no
  dead citers and the tight bounds hold: ``visited <= 2 * killed +
  |inc ∪ dec|`` and ``suspects <=`` the facts that lost a record plus
  their same-stratum forward closure. On the star the probes return, so
  an atom's old citers stay in the index; only the weaker bound — a kill
  pass visits no more than the records that ever cited a changed atom —
  is asserted there.

* **E23c (the entry total is carried)** — ``support_entry_count()``
  equals the recount ``sum(fact_record_size)`` after every update of the
  churn, after ``checkpoint()`` → updates → ``restore()``, and after
  snapshot → ``Store.open``.
"""

from collections import deque

from repro.bench.reporting import print_table
from repro.core.registry import create_engine
from repro.datalog.atoms import Atom
from repro.datalog.builder import ProgramBuilder
from repro.datalog.model import Model
from repro.obs import OBS, telemetry
from repro.store import Store, open_store
from repro.workloads import sharded_by_key
from repro.workloads.updates import asserted_facts

SEED = 3
DEPOSITS = 8
CHURN = 200  # updates: 100 inserts of a fresh deposit, 100 deletes
ACCOUNT = "acct1"

STAR_ROWS = 1200
STAR_WINDOW = 6
STAR_POOL = 12  # per probe relation: every probe leaves and returns
STAR_SWAPS = 48
A_BUCKETS, B_BUCKETS = 23, 29


def _ledger(accounts: int):
    return sharded_by_key(
        accounts=accounts, deposits_per_account=DEPOSITS, seed=SEED
    )


def _ledger_churn(program, count: int = CHURN):
    """Insert a fresh deposit, delete the account's oldest, and again."""
    window = deque(
        fact
        for fact in asserted_facts(program, ["deposit"])
        if fact.args[0] == ACCOUNT
    )
    updates = []
    for step in range(count // 2):
        fresh = Atom("deposit", (ACCOUNT, 1_000_000 + step))
        window.append(fresh)
        updates.append(("insert_fact", fresh))
        updates.append(("delete_fact", window.popleft()))
    return updates


def _star():
    """The perf/ star in small: ``hit`` joins a triple with two probe
    relations, ``miss`` negates it; returns the program and a churn that
    swaps probes through a pool twice over, so every probe returns."""
    builder = ProgramBuilder()
    for i in range(STAR_ROWS):
        builder.fact("triple", i % A_BUCKETS, (i // A_BUCKETS) % B_BUCKETS, i)
        builder.fact("candidate", i)
    active = {
        "sa": deque(range(STAR_WINDOW)),
        "sb": deque(range(STAR_WINDOW)),
    }
    idle = {
        "sa": deque(range(STAR_WINDOW, STAR_POOL)),
        "sb": deque(range(STAR_WINDOW, STAR_POOL)),
    }
    for relation, probes in active.items():
        for probe in probes:
            builder.fact(relation, probe)
    (
        builder.rule("hit", ("C",))
        .pos("triple", "A", "B", "C").pos("sa", "A").pos("sb", "B")
    )
    builder.rule("miss", ("C",)).pos("candidate", "C").neg("hit", "C")
    updates = []
    for step in range(STAR_SWAPS):
        relation = "sa" if step % 2 == 0 else "sb"
        new, old = idle[relation].popleft(), active[relation].popleft()
        active[relation].append(new)
        idle[relation].append(old)
        updates.append(("insert_fact", Atom(relation, (new,))))
        updates.append(("delete_fact", Atom(relation, (old,))))
    return builder.build(), updates


def _recount(engine) -> int:
    size = engine._arena.fact_record_size
    return sum(
        size(record)
        for records in engine._table.values()
        for record in records
    )


def _decoded(engine) -> dict:
    return engine.state_dict()["supports"]["records"].to_record_state()


def _spans(node, name):
    found = [node] if node.name == name else []
    for child in node.children:
        found += _spans(child, name)
    return found


def _traced_apply(engine, operation, subject):
    """Apply one update with telemetry on; returns the result, the
    ``phase:kill`` spans and the ``phase:well_founded`` spans."""
    with telemetry():
        result = engine.apply(operation, subject)
        root = OBS.tracer.last
    return (
        result,
        _spans(root, "phase:kill"),
        _spans(root, "phase:well_founded"),
    )


def _total(spans, key) -> int:
    return sum(span.attrs[key] for span in spans)


# ----------------------------------------------------------------------
# E23a
# ----------------------------------------------------------------------


def test_e23a_fact_updates_never_scan_a_relation(monkeypatch):
    calls = []
    original = Model.facts_of
    monkeypatch.setattr(
        Model, "facts_of",
        lambda self, relation: calls.append(relation)
        or original(self, relation),
    )
    star, star_updates = _star()
    ledger = _ledger(64)
    rows = []
    for label, program, updates in (
        ("ledger 64x8", ledger, _ledger_churn(ledger)),
        ("star", star, star_updates),
    ):
        engine = create_engine("factlevel", program)
        del calls[:]  # the build may scan; updates may not
        for operation, subject in updates:
            engine.apply(operation, subject)
        rows.append((label, len(engine.model), len(updates), len(calls)))
        assert not calls, f"{label}: facts_of({calls[0]!r}) during an update"
        assert engine.is_consistent()
    print_table(
        ("program", "model facts", "updates", "facts_of calls"), rows,
        "E23a: Model.facts_of calls during factlevel fact updates",
    )


# ----------------------------------------------------------------------
# E23b
# ----------------------------------------------------------------------


def _closure_of_lost(engine, before: dict, after: dict) -> set:
    """The facts that lost a record, closed forward over same-stratum
    positive citations (on the records of either side of the update)."""
    stratum_of = engine.db.stratum_of
    cited_by: dict = {}
    for table in (before, after):
        for head, records in table.items():
            for record in records:
                for body in record.positive_facts:
                    if stratum_of(body.relation) == stratum_of(head.relation):
                        cited_by.setdefault(body, set()).add(head)
    lost = {
        head
        for head, records in before.items()
        if records - after.get(head, set())
    }
    closure, frontier = set(lost), list(lost)
    while frontier:
        for head in cited_by.get(frontier.pop(), ()):
            if head not in closure:
                closure.add(head)
                frontier.append(head)
    return closure


def _ledger_sequences(accounts: int, check_bounds: bool):
    program = _ledger(accounts)
    engine = create_engine("factlevel", program)
    visited, suspects, killed = [], [], []
    for operation, subject in _ledger_churn(program):
        before = _decoded(engine) if check_bounds else None
        result, kills, checks = _traced_apply(engine, operation, subject)
        assert not result.migrated
        visited.append(_total(kills, "visited"))
        killed.append(_total(kills, "killed"))
        suspects.append(_total(checks, "suspects"))
        if check_bounds:
            changed = {subject} | result.added | result.removed
            assert visited[-1] <= 2 * killed[-1] + len(changed), (
                operation, subject, visited[-1], killed[-1], len(changed)
            )
            closure = _closure_of_lost(engine, before, _decoded(engine))
            assert suspects[-1] <= len(closure), (
                operation, subject, suspects[-1], len(closure)
            )
    assert engine.is_consistent()
    return engine, visited, suspects, killed


def test_e23b_ledger_cost_is_independent_of_the_store():
    small, visited, suspects, killed = _ledger_sequences(64, True)
    large, visited_large, suspects_large, killed_large = _ledger_sequences(
        256, False
    )
    assert len(large.model) > 3 * len(small.model)
    assert visited == visited_large
    assert suspects == suspects_large
    assert killed == killed_large
    assert sum(killed) > 0 and sum(suspects) > 0  # the churn does kill
    print_table(
        ("accounts", "model facts", "support entries", "updates",
         "visited", "killed", "suspects", "max visited", "max suspects"),
        [
            (accounts, len(engine.model), engine.support_entry_count(),
             CHURN, sum(visited), sum(killed), sum(suspects),
             max(visited), max(suspects))
            for accounts, engine in ((64, small), (256, large))
        ],
        "E23b: one account's churn — identical removal work on a 4x store",
    )


def test_e23b_star_visits_only_records_that_cited_a_changed_atom():
    program, updates = _star()
    engine = create_engine("factlevel", program)
    ever_cited: dict = {}

    def remember():
        for records in _decoded(engine).values():
            for record in records:
                for atom in record.positive_facts | record.negative_facts:
                    ever_cited.setdefault(atom, set()).add(record)

    remember()
    rows = []
    for operation, subject in updates:
        result, kills, checks = _traced_apply(engine, operation, subject)
        assert not result.migrated
        remember()
        changed = {subject} | result.added | result.removed
        bound = sum(len(ever_cited.get(atom, ())) for atom in changed)
        for kill in kills:
            assert kill.attrs["visited"] <= bound, (operation, subject)
        rows.append(
            (f"{operation} {subject}", len(changed),
             _total(kills, "visited"), _total(kills, "killed"),
             _total(checks, "suspects"), bound)
        )
    assert engine.is_consistent()
    # Probes did return: some pass walked citers that were already dead.
    assert any(visited > 2 * killed + changed
               for _, changed, visited, killed, _, _ in rows)
    print_table(
        ("update", "changed", "visited", "killed", "suspects",
         "ever cited"),
        rows[:6] + rows[-6:],
        f"E23b: star, {len(engine.model)} facts — first and last 6 updates",
    )


# ----------------------------------------------------------------------
# E23c
# ----------------------------------------------------------------------


def test_e23c_entry_total_is_carried_not_recounted(tmp_path):
    program = _ledger(64)
    updates = _ledger_churn(program)
    engine = create_engine("factlevel", program)
    assert engine.support_entry_count() == _recount(engine)
    base = engine.support_entry_count()
    for operation, subject in updates:
        result = engine.apply(operation, subject)
        assert result.support_entries == _recount(engine)
    assert engine.support_entry_count() == base  # the churn is stationary

    checkpoint = engine.checkpoint()
    pinned = engine.support_entry_count()
    engine.delete_fact(f"account({ACCOUNT})")  # drops the whole account
    assert engine.support_entry_count() == _recount(engine) < pinned
    engine.restore(checkpoint)
    assert engine.support_entry_count() == _recount(engine) == pinned

    store = open_store(tmp_path / "s", program=str(program), engine="factlevel")
    for index in range(0, 20, 2):
        with store.transaction():
            for operation, subject in updates[index:index + 2]:
                store.apply(operation, subject)
    store.snapshot()
    with store.transaction():
        for operation, subject in updates[20:22]:
            store.apply(operation, subject)  # one record of journal tail
    expected = store.engine.support_entry_count()
    store.close()
    reopened = Store.open(tmp_path / "s")
    try:
        assert reopened.engine.support_entry_count() == expected
        assert expected == _recount(reopened.engine)
    finally:
        reopened.close()
