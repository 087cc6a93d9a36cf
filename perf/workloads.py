"""The five workloads: inputs from a seed, one measured round each.

Load model, common to all of them: **closed loop** (the next request goes
out when the reply is in), **fixed operation counts** per round (a faster
build is not handed a bigger store), a **churn window** (every timed
transaction inserts one fact and deletes an older one, so the model is as
large at the end of the window as at its start), one driver process with
one driver thread and at most ``CONNECTIONS`` client connections. Stores
live in a fresh directory per round; the flush policy is the program's only
one — ``fsync`` on every journal append or group append.

A round is: set up (untimed, reported as ``setup_s``) → timed window →
close → ``REOPENS`` reopens by the driver (``reopen_s``) → correctness gate
(:mod:`check`). The window is a sequence of **laps**: a lap is the same
operations in the same proportions every time (so many commits per
session with one view cycle each, one batch, one ``sa`` and one ``sb``
swap, one pass of the headline engine over the four sequences), timed on
its own, with a reading of the host's speed (:mod:`calibrate`) before and
after it. Rounds are short — about a second of window — because reopening
a store replays its journal at the cost of the live run: a run is many
short rounds, and every metric gets samples from all along the run.

The program is driven through its public entry points only:
``python -m repro serve`` + ``ServiceClient``, ``RevisionService``,
``open_store`` / ``Store.transaction``, ``create_engine`` /
``repro.bench.run_sequence`` and ``repro.workloads``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import random
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import check
from calibrate import Host
from trace import Tracer

from repro import Atom, ProgramBuilder, SOUND_ENGINE_NAMES, create_engine, open_store
from repro.bench import run_sequence
from repro.service import RevisionService
from repro.service.server import ServiceClient
from repro.store import Store
from repro.workloads import (
    asserted_facts,
    bill_of_materials,
    negation_chain,
    reachability,
    review_pipeline,
    sharded_by_key,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Client connections of ``serve_ledger``. Fixed here, not read from
#: ``nproc``: the reference sandbox has 2 cores and the numbers are only
#: comparable while the offered concurrency is the same.
CONNECTIONS = 2
SERVICE_WORKERS = 4
ENGINE = "factlevel"
FLUSH_POLICY = "fsync on every journal append / group append"

#: Updates per timed transaction on the store-backed workloads (one insert,
#: one windowed delete), so ``updates_per_s == 2 * commit_tps`` there.
UPDATES_PER_TXN = 2

#: Laps per round. ``standard`` keeps a round short — about a second of
#: timed window — because reopening a store replays its journal at the cost
#: of the live run: a run is many short rounds, so every metric gets many
#: samples spread over the run. ``smoke`` only proves the plumbing.
SCALES = {
    "standard": {
        "ledger_accounts": 64,
        "ledger_deposits": 8,
        "serve_laps": 6,  # a lap: SERVE_LAP iterations on each session
        "batches": 6,  # a lap: one batch
        "star_rows": 4000,
        "star_laps": 8,  # a lap: one sa swap and one sb swap
        "sweep_links": 6,
        "sweep_toggles": 8,
        "sweep_chain": 40,
        "sweep_chain_flips": 4,
        "sweep_laps": 6,  # a lap: the headline engine on the four sequences
    },
    "smoke": {
        "ledger_accounts": 16,
        "ledger_deposits": 4,
        "serve_laps": 2,
        "batches": 3,
        "star_rows": 400,
        "star_laps": 3,
        "sweep_links": 2,
        "sweep_toggles": 3,
        "sweep_chain": 8,
        "sweep_chain_flips": 2,
        "sweep_laps": 2,
    },
}

BATCH_SIZE = 16
SERVE_LAP = 8  # iterations per session and lap; the last one adds a view cycle
WARM_COMMITS = 4  # untimed commits per session before the window
WARM_BATCHES = 2
STAR_WINDOW = 32
HEADLINE_ENGINE = "cascade"  # engines_sweep's headline engine (CLI default)
#: Times the driver reopens a round's store, and rebuilds the sweep's
#: engines (a rebuild is a quarter of a second, a third of a reopen).
REOPENS = 2
REBUILDS = 4


@dataclass
class Lap:
    """One timed lap of a window: equal work in every lap of a workload."""

    start: float  # perf_counter
    end: float
    updates: int
    commit_ms: list[float]

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Round:
    """Everything one round measured, before aggregation."""

    setup: tuple[float, float] = (0.0, 0.0)  # perf_counter start, end
    window: tuple[float, float] = (0.0, 0.0)
    #: The host's speed all along the round; the driver reads it between
    #: measurements and :mod:`metrics` scales every time by it.
    host: Host = field(default_factory=Host)
    transactions: int = 0  # of all laps
    laps: list[Lap] = field(default_factory=list)
    commit_ms: list[float] = field(default_factory=list)  # all laps, in order
    query_ms: list[float] = field(default_factory=list)
    view_cycle_ms: list[float] = field(default_factory=list)
    reopens: list[tuple[float, float]] = field(default_factory=list)
    journal_bytes: int = 0
    journal_transactions: int = 0
    peak_rss_mb: float = 0.0
    model_facts_start: int = 0
    model_facts_end: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    parallel_groups: int = 0
    engines: dict = field(default_factory=dict)  # engines_sweep per engine
    snapshot_facts: int = 0  # model size of the driver's last snapshot
    snapshot_bytes: int = 0

    @property
    def window_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def setup_s(self) -> float:
        return self.setup[1] - self.setup[0]

    def begin(self) -> float:
        """Start of a measurement: a speed reading, then the clock."""
        self.host.read()
        return time.perf_counter()

    def set_up(self, started: float) -> None:
        """The set-up that began at *started* is complete."""
        self.setup = (started, time.perf_counter())
        self.host.read()

    def expect(self, condition: bool, message: str) -> None:
        """Count one checked operation; record *message* when it failed."""
        self.attempted += 1
        if not condition:
            self.failures.append(message)

    def add_lap(self, start: float, end: float, transactions: int,
                commit_ms, updates: Optional[int] = None) -> None:
        """One finished lap; a store-backed transaction carries 2 updates."""
        if updates is None:
            updates = transactions * UPDATES_PER_TXN
        self.laps.append(Lap(start, end, updates, list(commit_ms)))
        self.commit_ms.extend(commit_ms)
        self.transactions += transactions


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process, the kernel's high-water mark of its RSS."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# The ledger traffic shared by serve_ledger and batch_*
# ----------------------------------------------------------------------


class LedgerTraffic:
    """Churn transactions over ``sharded_by_key``, drawn from a seed.

    Every account keeps the deposits it was generated with, in number:
    ``churn`` inserts a new deposit and deletes the account's oldest, the
    preloaded ones first, leaving the model size unchanged.
    """

    def __init__(self, seed: int, scale: dict) -> None:
        accounts = scale["ledger_accounts"]
        self.program = sharded_by_key(
            accounts=accounts,
            deposits_per_account=scale["ledger_deposits"],
            seed=seed,
        )
        self.accounts = [f"acct{i}" for i in range(1, accounts + 1)]
        self.rng = random.Random(seed)
        self.windows = {account: deque() for account in self.accounts}
        for fact in asserted_facts(self.program, ["deposit"]):
            self.windows[fact.args[0]].append(fact)
        # Above every preloaded deposit value (those are < 100).
        self._next_value = 1_000_000

    def churn(self, account: str) -> list[tuple[str, Atom]]:
        self._next_value += 1
        fact = Atom("deposit", (account, self._next_value))
        window = self.windows[account]
        window.append(fact)
        return [("insert_fact", fact), ("delete_fact", window.popleft())]


# ----------------------------------------------------------------------
# serve_ledger
# ----------------------------------------------------------------------


def _wire(updates) -> list[str]:
    return [
        ("+" if operation == "insert_fact" else "-") + str(fact)
        for operation, fact in updates
    ]


def _posted(updates) -> str:
    """The derived fact a session's own insert must make visible."""
    account, value = updates[0][1].args
    return f"posted({account}, {value})"


async def _model_size(client: ServiceClient, relations) -> int:
    total = 0
    for relation in relations:
        response = await client.request("rows", relation=relation)
        total += len(response["rows"])
    return total


async def _serve_lap(client, plan, accounts: int, result: Round) -> list[float]:
    """One session's share of a lap; returns its commit latencies in order."""
    latencies = []
    for index, updates in enumerate(plan):
        probe = _posted(updates)
        started = time.perf_counter()
        response = await client.commit(_wire(updates))
        latencies.append((time.perf_counter() - started) * 1e3)
        result.expect(
            response.get("committed") is True, f"commit refused: {response}"
        )
        started = time.perf_counter()
        response = await client.request("query", fact=probe)
        result.query_ms.append((time.perf_counter() - started) * 1e3)
        result.expect(
            response.get("holds") is True, f"own write not visible: {probe}"
        )
        if index == len(plan) - 1:
            started = time.perf_counter()
            pin = await client.request("pin")
            read = await client.request("read", view=pin["view"], fact=probe)
            rows = await client.request(
                "rows", view=pin["view"], relation="active"
            )
            release = await client.request("release", view=pin["view"])
            result.view_cycle_ms.append((time.perf_counter() - started) * 1e3)
            result.expect(
                pin.get("ok") and release.get("ok")
                and read.get("holds") is True
                and len(rows.get("rows", ())) == accounts,
                f"view cycle wrong at {probe}: {read} {len(rows.get('rows', ()))}",
            )
    return latencies


async def _serve_drive(host, port, pid, traffic, plans, warmups, result, started):
    clients = [
        await ServiceClient.connect(host, port) for _ in range(CONNECTIONS)
    ]
    try:
        for client, warmup in zip(clients, warmups):
            for updates in warmup:
                response = await client.commit(_wire(updates))
                result.expect(
                    response.get("committed") is True,
                    f"warm-up commit refused: {response}",
                )
        relations = sorted(traffic.program.relations())
        result.model_facts_start = await _model_size(clients[0], relations)
        result.set_up(started)

        window_start = time.perf_counter()
        for lap in zip(*plans):
            # The sessions meet at the lap's end and leave together.
            lap_start = result.begin()
            shares = await asyncio.gather(
                *(
                    _serve_lap(client, plan, len(traffic.accounts), result)
                    for client, plan in zip(clients, lap)
                )
            )
            result.add_lap(
                lap_start, time.perf_counter(),
                sum(len(plan) for plan in lap),
                [latency for share in shares for latency in share],
            )
        result.host.read()
        result.window = (window_start, time.perf_counter())

        result.model_facts_end = await _model_size(clients[0], relations)
        # Read while the process that hosted the engine is still alive.
        result.peak_rss_mb = peak_rss_mb(pid)
        down = await clients[0].request("shutdown")
        result.expect(down.get("ok") is True, f"shutdown refused: {down}")
    finally:
        for client in clients:
            await client.close()


def serve_ledger(seed, scale, workdir: Path, tracer: Optional[Tracer]) -> Round:
    result = Round()
    started = result.begin()
    traffic = LedgerTraffic(seed, scale)
    # Disjoint accounts per session: their commits always commute.
    shares = [traffic.accounts[i::CONNECTIONS] for i in range(CONNECTIONS)]
    def commits(session: int, count: int):
        return [
            traffic.churn(traffic.rng.choice(shares[session]))
            for _ in range(count)
        ]

    warmups = [commits(session, WARM_COMMITS) for session in range(CONNECTIONS)]
    # plans[session][lap] is that session's commits of that lap.
    plans = [
        [commits(session, SERVE_LAP) for _ in range(scale["serve_laps"])]
        for session in range(CONNECTIONS)
    ]
    accepted = [txn for plan in warmups for txn in plan] + [
        txn for session in plans for lap in session for txn in lap
    ]

    store_dir = workdir / "store"
    program_file = workdir / "ledger.dl"
    program_file.write_text(str(traffic.program), encoding="utf-8")
    serve_args = [
        "--store", str(store_dir), "--program", str(program_file),
        "--engine", ENGINE, "--port", "0",
    ]
    spans_file = workdir / "server-spans.json"
    if tracer is None:
        command = [sys.executable, "-m", "repro", "serve", *serve_args]
    else:
        command = [
            sys.executable, str(HERE / "serve_traced.py"), str(spans_file),
            *serve_args,
        ]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [environment.get("PYTHONPATH")] if p]
    )
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=environment,
    )
    try:
        banner = process.stdout.readline().strip()
        if not banner.startswith("serving on "):
            raise RuntimeError(
                f"server did not start: {banner!r} {process.stdout.read()!r}"
            )
        host, _, port = banner.removeprefix("serving on ").rpartition(":")

        asyncio.run(
            _serve_drive(
                host, int(port), process.pid, traffic, plans, warmups,
                result, started,
            )
        )
        code = process.wait(timeout=60)
        result.expect(code == 0, f"server exited with code {code}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()

    if tracer is not None and spans_file.exists():
        tracer.load(spans_file)
    _reopen_and_check(result, store_dir, traffic.program, accepted, tracer)
    return result


# ----------------------------------------------------------------------
# batch_commuting / batch_conflicting
# ----------------------------------------------------------------------


def _batch_round(seed, scale, workdir, tracer, conflicting: bool) -> Round:
    result = Round()
    started = result.begin()
    traffic = LedgerTraffic(seed, scale)
    accounts = traffic.accounts
    size = min(BATCH_SIZE, len(accounts))
    counter = itertools.count(1)

    def churn_batch():
        if conflicting:
            # One account for the whole batch: every pair conflicts
            # (DL011), so the scheduler emits `size` singleton groups.
            chosen = [traffic.rng.choice(accounts)] * size
        else:
            chosen = traffic.rng.sample(accounts, size)
        return [
            (f"t{next(counter)}", traffic.churn(account)) for account in chosen
        ]

    warm = [churn_batch() for _ in range(WARM_BATCHES)]
    timed = [churn_batch() for _ in range(scale["batches"])]

    store_dir = workdir / "store"
    store = open_store(store_dir, program=str(traffic.program), engine=ENGINE)
    service = RevisionService(store, max_workers=SERVICE_WORKERS)
    try:
        # Warm-up: worker pool created, pair cache holding the timed
        # transactions' shape.
        for batch in warm:
            outcome = service.submit_batch(batch)
            result.expect(
                outcome.committed == len(batch), f"warm-up rejected: {outcome}"
            )
        result.model_facts_start = len(store.model)
        result.set_up(started)

        window_start = time.perf_counter()
        for batch in timed:
            call_started = result.begin()
            outcome = service.submit_batch(batch)
            ended = time.perf_counter()
            result.add_lap(
                call_started, ended, len(batch), [(ended - call_started) * 1e3]
            )
            result.expect(
                outcome.committed == len(batch), f"batch rejected: {outcome}"
            )
            result.parallel_groups += outcome.report.parallel_groups
        result.host.read()
        result.window = (window_start, time.perf_counter())
        result.peak_rss_mb = peak_rss_mb()
        result.model_facts_end = len(store.model)
    finally:
        service.close()

    if conflicting:
        result.expect(
            result.parallel_groups == 0,
            f"conflicting batches ran {result.parallel_groups} parallel groups",
        )
    else:
        result.expect(
            result.parallel_groups > 0, "commuting batches never ran in parallel"
        )
    accepted = [updates for batch in warm + timed for _, updates in batch]
    reopened = _reopen_and_check(
        result, store_dir, traffic.program, accepted, tracer
    )
    check.serial_replay(
        result, reopened, str(traffic.program), accepted,
        workdir / "serial", ENGINE,
    )
    return result


def batch_commuting(seed, scale, workdir, tracer) -> Round:
    return _batch_round(seed, scale, workdir, tracer, conflicting=False)


def batch_conflicting(seed, scale, workdir, tracer) -> Round:
    return _batch_round(seed, scale, workdir, tracer, conflicting=True)


# ----------------------------------------------------------------------
# star_maintain
# ----------------------------------------------------------------------

# The E17 skewed star: big single-column buckets, near-unique (A, B)
# pairs, one hub pair holding a quarter of the relation and never probed.
A_BUCKETS, B_BUCKETS = 198, 211
HOT_A, HOT_B = 7, 13


def _star_program(rows: int, probes_a, probes_b):
    builder = ProgramBuilder()
    hot = rows // 4
    for i in range(hot):
        builder.fact("triple", HOT_A, HOT_B, i)
    for i in range(hot, rows):
        a = 1 + (i % A_BUCKETS)
        if a == HOT_A:
            a = 0
        b = (i // A_BUCKETS + a * 17) % B_BUCKETS
        if b == HOT_B:
            b = B_BUCKETS
        builder.fact("triple", a, b, i)
        # Every row a probe can ever hit is a candidate, so
        # |hit| + |miss| is constant and the model size is stationary.
        builder.fact("candidate", i)
    for a in probes_a:
        builder.fact("sa", a)
    for b in probes_b:
        builder.fact("sb", b)
    (
        builder.rule("hit", ("C",))
        .pos("triple", "A", "B", "C").pos("sa", "A").pos("sb", "B")
    )
    builder.rule("miss", ("C",)).pos("candidate", "C").neg("hit", "C")
    return builder.build()


def star_maintain(seed, scale, workdir, tracer) -> Round:
    result = Round()
    started = result.begin()
    rng = random.Random(seed)
    pools = {
        "sa": [a for a in range(A_BUCKETS + 1) if a != HOT_A],
        "sb": [b for b in range(B_BUCKETS + 1) if b != HOT_B],
    }
    active, idle = {}, {}
    for relation, pool in pools.items():
        rng.shuffle(pool)
        active[relation] = deque(pool[:STAR_WINDOW])
        idle[relation] = deque(pool[STAR_WINDOW:])
    program = _star_program(scale["star_rows"], active["sa"], active["sb"])

    transactions = []
    for step in range(2 + 2 * scale["star_laps"]):
        relation = "sa" if step % 2 == 0 else "sb"
        new, old = idle[relation].popleft(), active[relation].popleft()
        active[relation].append(new)
        idle[relation].append(old)
        transactions.append(
            [
                ("insert_fact", Atom(relation, (new,))),
                ("delete_fact", Atom(relation, (old,))),
            ]
        )
    # Two untimed transactions fill the plan cache for both probe
    # relations before the window opens; a lap is one swap of each.
    warm = transactions[:2]
    laps = [transactions[i : i + 2] for i in range(2, len(transactions), 2)]

    store_dir = workdir / "store"
    store = open_store(store_dir, program=str(program), engine=ENGINE)
    try:
        for updates in warm:
            with store.transaction():
                for operation, fact in updates:
                    store.apply(operation, fact)
        result.model_facts_start = len(store.model)
        result.set_up(started)

        window_start = time.perf_counter()
        for index, lap in enumerate(laps):
            latencies = []
            lap_start = result.begin()
            for updates in lap:
                call_started = time.perf_counter()
                with _driver_span(tracer, "driver.transaction"):
                    with store.transaction():
                        for operation, fact in updates:
                            store.apply(operation, fact)
                latencies.append((time.perf_counter() - call_started) * 1e3)
            result.add_lap(
                lap_start, time.perf_counter(), len(lap), latencies
            )
            if index == len(laps) // 2:
                # Foreground work of the window, but between laps, which
                # are equal work. Its cost is ``snapshot.write_ms``; the
                # reopen below loads it and replays the laps after it.
                result.host.read()
                result.snapshot_bytes = store.snapshot().stat().st_size
                result.snapshot_facts = len(store.model)
        result.host.read()
        result.window = (window_start, time.perf_counter())
        result.peak_rss_mb = peak_rss_mb()
        result.model_facts_end = len(store.model)
    finally:
        store.close()

    result.attempted += len(transactions)
    _reopen_and_check(result, store_dir, program, transactions, tracer)
    return result


# ----------------------------------------------------------------------
# engines_sweep
# ----------------------------------------------------------------------

#: The sweep's programs keep one topology for every seed: per-update cost
#: follows the graph's shape far more than the choice of updates, and a
#: metric that moves 20 % with the seed cannot resolve a 10 % regression.
#: The seed draws which facts are toggled, and in which order.
FAMILY_SEED = 11


def _toggles(facts, present: bool) -> list[tuple[str, Atom]]:
    """Each fact flips and flips back, one after the other.

    Every update then meets the base program give or take one fact, so the
    work of a sequence does not depend on the order the seed drew, and
    the model is as large after the sequence as before it.
    """
    first, second = (
        ("delete_fact", "insert_fact") if present
        else ("insert_fact", "delete_fact")
    )
    return [
        step for fact in facts for step in ((first, fact), (second, fact))
    ]


def _sweep_cases(seed: int, scale: dict):
    """(name, program, updates): every update has a non-monotonic effect."""
    rng = random.Random(seed)
    count = scale["sweep_toggles"]

    # Link flaps: a link going down raises `unreachable` alarms, coming
    # back clears them.
    network = reachability(nodes=24, seed=FAMILY_SEED)
    links = rng.sample(asserted_facts(network, ["link"]), scale["sweep_links"])

    # A negative review by an assigned reviewer rejects an accepted paper;
    # withdrawing it accepts the paper again.
    reviews = review_pipeline(papers=60, seed=FAMILY_SEED)
    assigned = rng.sample(asserted_facts(reviews, ["reviewer"]), count)
    negative = [Atom("negative_review", pair.args) for pair in assigned]

    # A missing part blocks every assembly that requires it.
    parts_program = bill_of_materials(seed=FAMILY_SEED)
    parts = sorted(
        {f.args[1] for f in asserted_facts(parts_program, ["uses"])}, key=str
    )
    missing = [Atom("missing", (part,)) for part in rng.sample(parts, count)]

    # The paper's Example 2: asserting p0 flips the whole chain.
    chain = negation_chain(scale["sweep_chain"])
    p0 = [Atom("p0", ())] * scale["sweep_chain_flips"]

    return [
        ("reachability", network, _toggles(links, present=True)),
        ("review_pipeline", reviews, _toggles(negative, present=False)),
        ("bill_of_materials", parts_program, _toggles(missing, present=False)),
        ("negation_chain", chain, _toggles(p0, present=False)),
    ]


def engines_sweep(seed, scale, workdir, tracer) -> Round:
    result = Round()
    started = result.begin()
    cases = _sweep_cases(seed, scale)
    engines = {
        name: [create_engine(name, program) for _, program, _ in cases]
        for name in SOUND_ENGINE_NAMES
    }
    result.model_facts_start = sum(
        len(engine.model) for engine in engines[HEADLINE_ENGINE]
    )
    result.set_up(started)

    def one_pass(instances) -> dict:
        """One engine over the four sequences; every toggle flips back, so
        the engine ends where it started and can go again."""
        started = result.begin()
        runs = [
            run_sequence(engine, updates)
            for engine, (_, _, updates) in zip(instances, cases)
        ]
        ended = time.perf_counter()
        result.attempted += sum(run.updates for run in runs)
        return {
            "interval": (started, ended),
            "seconds": ended - started,
            "updates": sum(run.updates for run in runs),
            "update_ms": [
                r.duration_s * 1e3 for run in runs for r in run.results
            ],
            "migrated": sum(run.migrated for run in runs),
            "support_entries": sum(run.support_entries_end for run in runs),
        }

    def headline_lap(measured: dict) -> None:
        result.add_lap(
            *measured["interval"], measured["updates"], measured["update_ms"],
            updates=measured["updates"],
        )

    window_start = time.perf_counter()
    for name, instances in engines.items():
        result.engines[name] = one_pass(instances)
    headline_lap(result.engines[HEADLINE_ENGINE])
    for _ in range(scale["sweep_laps"] - 1):
        headline_lap(one_pass(engines[HEADLINE_ENGINE]))
    result.host.read()
    result.window = (window_start, time.perf_counter())
    result.peak_rss_mb = peak_rss_mb()
    result.model_facts_end = sum(
        len(engine.model) for engine in engines[HEADLINE_ENGINE]
    )

    # No store to reopen: the way back to a maintained model is a rebuild
    # from the program. Rebuilding every engine from every final program
    # is that cost, and the rebuilt recompute engine is the oracle.
    for _ in range(REBUILDS):
        rebuild_started = result.begin()
        rebuilt = {
            name: [
                create_engine(name, engine.db.program) for engine in instances
            ]
            for name, instances in engines.items()
        }
        result.reopens.append((rebuild_started, time.perf_counter()))
    result.host.read()
    for index, (case, _, _) in enumerate(cases):
        oracle = rebuilt["recompute"][index].model
        for name in SOUND_ENGINE_NAMES:
            result.expect(
                engines[name][index].model == oracle,
                f"{name} diverged from the recompute oracle on {case}",
            )
    return result


# ----------------------------------------------------------------------
# Shared tail of the store-backed rounds
# ----------------------------------------------------------------------


def _driver_span(tracer: Optional[Tracer], name: str):
    """A root span around one driver call, so its layers share a request."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _reopen_and_check(result, store_dir, program, accepted, tracer):
    """Reopen the round's store as a new process would; gate on it."""
    journal = store_dir / "journal.jsonl"
    result.journal_bytes = journal.stat().st_size
    result.journal_transactions = len(accepted)
    for _ in range(REOPENS):
        # The same files every time: open reads them and close writes
        # nothing, so each reopen is the first one over again.
        started = result.begin()
        with _driver_span(tracer, "driver.reopen"):
            reopened = Store.open(store_dir)
        result.reopens.append((started, time.perf_counter()))
    result.host.read()
    check.durability(result, reopened, program, accepted)
    return reopened


WORKLOADS = {
    "serve_ledger": serve_ledger,
    "batch_commuting": batch_commuting,
    "batch_conflicting": batch_conflicting,
    "star_maintain": star_maintain,
    "engines_sweep": engines_sweep,
}
