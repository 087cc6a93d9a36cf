"""E19 — telemetry overhead and the estimate-vs-actual plan records.

The observability layer (``repro.obs``) promises two things at once:

* **E19a (disabled overhead)** — with telemetry off, the instrumented
  hot paths must do no telemetry work at all. The guard is structural,
  not a stopwatch: with a registry *instantiated but disabled* — the
  state a process is in after `telemetry on` / `telemetry off`, strictly
  no cheaper than never-enabled — one saturation of the E17a skewed star
  constructs zero ``Span`` objects, makes zero ``StepObserver`` calls and
  zero instrument ``inc``/``set``/``observe`` calls (real or null). The
  same spies must see work once telemetry is on, so the guard cannot
  pass because a method was renamed. Wall-clock for both states is
  printed, not asserted: the two sides run identical code, so a ratio
  between them only measures scheduler noise.

* **E19b (enabled fidelity)** — with telemetry on, one maintenance
  update over a join-heavy clause must produce a trace whose per-plan-
  step records carry both the ``estimated`` and the actual (``rows``)
  matched-row counts for *every* step of the clause, and the registry
  must expose the update counters in the Prometheus text format. The
  trace and the exposition are written into the gitignored artifact
  directory (``benchmarks/out/bench-e19-trace.json`` /
  ``benchmarks/out/bench-e19-metrics.txt``) so CI archives a real
  artifact, not just a pass/fail bit — and the working tree stays clean.

The workload is E17a's skewed star — the join the planner instrumentation
is most interesting on — driven both through raw saturation (E19a) and a
maintained engine update (E19b).
"""

import collections
import json
import time

from repro.bench.reporting import artifact_path, print_table
from repro.core.registry import create_engine
from repro.datalog.atoms import Atom, fact
from repro.datalog.builder import ProgramBuilder
from repro.datalog.evaluation import semi_naive_saturate
from repro.datalog.model import Model
from repro.datalog.plan import Planner, StepObserver
from repro.obs import OBS, telemetry
from repro.obs.metrics import Counter, Gauge, Histogram, _NullInstrument
from repro.obs.trace import Span

TRIPLE_ROWS = 20_000
A_BUCKETS = 198
B_BUCKETS = 211
PROBES = 32
REPEATS = 7


def _star_rules():
    builder = ProgramBuilder()
    (
        builder.rule("hit", ("C",))
        .pos("triple", "A", "B", "C")
        .pos("sa", "A")
        .pos("sb", "B")
    )
    return builder.build().rules


def _star_model(rows: int = TRIPLE_ROWS) -> Model:
    model = Model()
    for i in range(rows):
        a = 1 + (i % A_BUCKETS)
        b = (i // A_BUCKETS + a * 17) % B_BUCKETS
        model.add(Atom("triple", (a, b, i)))
    for i in range(PROBES):
        model.add(Atom("sa", (1 + (i * 5) % A_BUCKETS,)))
        model.add(Atom("sb", ((i * 11) % B_BUCKETS,)))
    return model


def _saturate_once() -> float:
    model = _star_model()
    planner = Planner()
    started = time.perf_counter()
    semi_naive_saturate(_star_rules(), model, planner=planner)
    return time.perf_counter() - started


SPIED = (
    (Span, ("__init__",)),
    (StepObserver, ("__init__", "begin", "count")),
    (Counter, ("inc",)),
    (Gauge, ("set", "inc", "dec")),
    (Histogram, ("observe",)),
    (_NullInstrument, ("inc", "dec", "set", "observe")),
)


def _install_spies(monkeypatch) -> collections.Counter:
    """Count every call into the telemetry classes, by ``Class.method``."""
    calls: collections.Counter = collections.Counter()

    def spy(owner, method):
        original = getattr(owner, method)
        label = f"{owner.__name__}.{method}"

        def counted(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, method, counted)

    for owner, methods in SPIED:
        for method in methods:
            spy(owner, method)
    return calls


def test_e19a_disabled_overhead(benchmark, monkeypatch):
    """Telemetry off must do zero telemetry work on the saturation path."""
    assert not OBS.enabled
    # Put the process in the worst disabled state: a registry exists (it
    # was enabled once), collection is off again.
    OBS.enable()
    OBS.disable()
    OBS.reset()

    # Unasserted timing column: never-touched vs instantiated-then-disabled
    # are the same code path, interleaved best-of-N.
    baseline = disabled = float("inf")
    for _ in range(REPEATS):
        baseline = min(baseline, _saturate_once())
        disabled = min(disabled, _saturate_once())

    with monkeypatch.context() as patch:
        calls = _install_spies(patch)
        _saturate_once()
        disabled_calls = dict(calls)
        calls.clear()
        with telemetry():
            _saturate_once()
        enabled_calls = dict(calls)
    OBS.reset()

    print_table(
        ["triple_rows", "baseline_s", "disabled_telemetry_s", "ratio",
         "disabled_calls", "enabled_calls"],
        [[TRIPLE_ROWS, baseline, disabled, disabled / baseline,
          sum(disabled_calls.values()), sum(enabled_calls.values())]],
        "E19a: disabled-telemetry work on the E17a skewed star",
    )
    assert disabled_calls == {}, (
        f"disabled telemetry still did work: {disabled_calls}"
    )
    # Positive control: the spies are attached to the live code paths.
    assert enabled_calls.get("Span.__init__", 0) > 0
    assert enabled_calls.get("StepObserver.count", 0) > 0
    assert enabled_calls.get("Counter.inc", 0) > 0

    model = _star_model()
    benchmark(
        lambda: semi_naive_saturate(
            _star_rules(), model.copy(), planner=Planner()
        )
    )


def _engine_program(rows: int):
    builder = ProgramBuilder()
    (
        builder.rule("hit", ("C",))
        .pos("triple", "A", "B", "C")
        .pos("sa", "A")
        .pos("sb", "B")
    )
    for i in range(rows):
        a = 1 + (i % A_BUCKETS)
        b = (i // A_BUCKETS + a * 17) % B_BUCKETS
        builder.fact("triple", a, b, i)
    for i in range(1, PROBES):
        builder.fact("sa", 1 + (i * 5) % A_BUCKETS)
        builder.fact("sb", (i * 11) % B_BUCKETS)
    return builder.build()


def _collect_plan_events(span, into):
    into.extend(e for e in span.events if e.get("name") == "plan")
    for child in span.children:
        _collect_plan_events(child, into)


def test_e19b_enabled_trace_has_estimates_and_actuals():
    """One traced update records estimated AND actual rows per plan step."""
    engine = create_engine("cascade", _engine_program(rows=5_000))
    with telemetry():
        engine.insert_fact(fact("sa", 1))  # drives the 3-way join delta
        root = OBS.tracer.last
        exposition = OBS.exposition()
        chrome = OBS.tracer.chrome_events()

    plan_events = []
    _collect_plan_events(root, plan_events)
    join_events = [e for e in plan_events if "hit(" in e["clause"]]
    assert join_events, f"no plan record for the join rule in {plan_events}"
    checked = 0
    for event in join_events:
        assert len(event["steps"]) == 3  # triple, sa, sb — every step
        for step in event["steps"]:
            assert "estimated" in step, step
            assert "rows" in step, step
            assert step["estimated"] >= 0.0
            assert step["rows"] >= 0
            checked += 1
    print_table(
        ["join_plan_records", "steps_checked"],
        [[len(join_events), checked]],
        "E19b: estimate-vs-actual coverage of the join-heavy clause",
    )

    assert 'repro_updates_total{engine="cascade",operation="insert_fact"} 1' \
        in exposition
    with open(
        artifact_path("bench-e19-trace.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {"root": root.to_dict(), "traceEvents": chrome}, handle, indent=1
        )
    with open(
        artifact_path("bench-e19-metrics.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(exposition)
