"""The repository's benchmark: one command, every metric by name.

    python perf/run.py [--workload W] [--seed N] [--repeats R]
                       [--traced] [--smoke] [--out FILE]

Without ``--workload`` the whole suite runs. End-to-end numbers come from
untraced rounds; ``--traced`` adds rounds with the span recorders of
:mod:`trace` installed and prints the per-layer metrics, the
per-transaction budget and the tracing overhead. Every round ends in the
correctness gate (:mod:`check`); the exit code is non-zero when any check
failed.

The benchmark driver's contract (``BENCHMARK.json``) is the same program:

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

``--seconds`` replaces the fixed number of rounds by "as many fixed-size
rounds as fit" — the operation count of a round never changes, so a faster
build gets more rounds, not a bigger store — and the last line of standard
output is the contract's JSON object, carrying exactly the metrics
``BENCHMARK.json`` lists (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

try:
    import metrics
    import workloads
    from trace import Tracer  # perf/trace.py, not the stdlib module
except ImportError as error:
    # A checkout without src/ has no program to measure.
    sys.exit(f"perf/run.py: cannot import the program: {error}")

#: Hash randomization is switched off for the driver and everything it
#: starts. The engines iterate over sets of atoms; the iteration order
#: decides how much they migrate, and with a random hash seed the same
#: commit measured 15 % apart from one process to the next.
HASH_SEED = "0"
DEFAULT_SEED = 11
DEFAULT_REPEATS = 3
MIN_ROUNDS = 2
#: Scratch space inside the checkout (ignored by git): store directories of
#: the rounds, removed as each round ends.
OUT = HERE / "out"


def environment(args, scratch: Path) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "store_filesystem": filesystem_of(scratch),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "traced": args.traced,
        "scale": "smoke" if args.smoke else "standard",
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "flush_policy": workloads.FLUSH_POLICY,
        "connections": workloads.CONNECTIONS,
    }


def filesystem_of(path: Path) -> str:
    """Filesystem type holding *path*, from the longest matching mount."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype, *_ = line.split()
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def run_rounds(name, args, scale, scratch, tracer, seconds, repeats):
    """Fixed-size rounds: *repeats* of them, or as many as fit *seconds*."""
    function = workloads.WORKLOADS[name]
    rounds, layers = [], []
    timed = 0.0
    while True:
        workdir = Path(tempfile.mkdtemp(prefix="round-", dir=scratch))
        try:
            if tracer is not None:
                tracer.reset()
            result = function(args.seed, scale, workdir, tracer)
            if tracer is not None:
                layers.append(
                    metrics.layer_metrics(name, result, tracer.spans)
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        rounds.append(result)
        # The window and the reopens are the measured phases of a round.
        timed += result.window_s + sum(end - start for start, end in result.reopens)
        if seconds is None:
            if len(rounds) >= repeats:
                break
        elif timed >= seconds and len(rounds) >= MIN_ROUNDS:
            break
    return rounds, layers


def run_workload(name, args, scale, scratch) -> dict:
    """All rounds of one workload -> its section of the result document."""
    started = time.perf_counter()
    if args.traced:
        # Reference rounds without the recorders: the overhead ratio's
        # base, and the end-to-end section of a traced suite run.
        reference = 1 if args.seconds is not None else args.repeats
        untraced, _ = run_rounds(
            name, args, scale, scratch, None, None, reference
        )
        tracer = Tracer()
        tracer.install()
        try:
            traced, layers = run_rounds(
                name, args, scale, scratch, tracer, args.seconds, args.repeats
            )
        finally:
            tracer.uninstall()
        notes = tracer.notes
    else:
        untraced, _ = run_rounds(
            name, args, scale, scratch, None, args.seconds, args.repeats
        )
        traced, layers, notes = [], [], []

    every = untraced + traced
    failures = [f for r in every for f in r.failures]
    guard = metrics.guard_stationarity(name, untraced)
    section = {
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "window_s": [r.window_s for r in untraced],
        "drift_ratio": metrics.drift_ratio(untraced, minimum=1),
        "attempted": sum(r.attempted for r in every) + (1 if guard else 0),
        "failed": len(failures) + len(guard),
        "failures": failures + guard,
        "end_to_end": metrics.end_to_end(name, untraced),
        "samples": [metrics.samples(r) for r in untraced],
        "notes": notes,
    }
    if traced:
        layer = metrics.per_layer(name, traced, untraced, layers)
        section["budget_ms_per_txn"] = layer.pop("_budget")
        section["per_layer"] = layer
    section["wall_s"] = time.perf_counter() - started
    return section


def print_section(name: str, section: dict) -> None:
    print(f"\n== {name}: {section['rounds']} rounds"
          f" (+{section['traced_rounds']} traced), windows "
          + ", ".join(f"{w:.2f}s" for w in section["window_s"])
          + f"; {section['attempted']} operations, {section['failed']} failed"
          + f"; drift {section['drift_ratio'] or 0:.3f}")

    def table(entries: dict) -> None:
        for metric, entry in entries.items():
            extra = f"  n={entry['samples']}" if "samples" in entry else ""
            print(
                f"  {metric:<36} {entry['value']:>14.4f} {entry['unit']:<6}"
                f" [{entry['min']:.4f} .. {entry['max']:.4f}]{extra}"
            )

    table(section["end_to_end"])
    if "per_layer" in section:
        print("  -- per layer (traced rounds)")
        table(section["per_layer"])
        print("  -- budget, ms per committed transaction (coordinator threads)")
        for layer, value in section["budget_ms_per_txn"].items():
            print(f"  {layer:<36} {value:>14.4f} ms")
    for note in section["notes"]:
        print(f"  note: {note}")
    for failure in section["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(section: dict, traced: bool) -> str:
    """The driver's last line: exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    source = section["per_layer"] if traced else section["end_to_end"]
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    return json.dumps(
        {
            "correct": section["failed"] == 0,
            "attempted": section["attempted"],
            "failed": section["failed"],
            "metrics": {
                m["name"]: {
                    "value": source[m["name"]]["value"], "unit": m["unit"],
                }
                for m in listed
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=None,
                        help="rounds per workload, each on a fresh store "
                             f"(default {DEFAULT_REPEATS}; 1 with --smoke)")
    parser.add_argument("--traced", action="store_true",
                        help="add traced rounds and print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts: same checks and schema in < 20 s")
    parser.add_argument("--out", metavar="FILE", help="write the JSON document")
    parser.add_argument("--seconds", type=float, default=None,
                        help="(driver) run fixed-size rounds until this much "
                             "time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="(driver) 1 = --traced")
    args = parser.parse_args(argv)
    if args.trace is not None:
        args.traced = bool(args.trace)
    if args.repeats is None:
        args.repeats = 1 if args.smoke else DEFAULT_REPEATS
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.workload is None:
        return run_suite(args)

    scale = workloads.SCALES["smoke" if args.smoke else "standard"]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        document = {
            "schema": 1,
            "environment": environment(args, scratch),
            "workloads": {},
        }
        print(json.dumps(document["environment"], sort_keys=True))
        section = run_workload(args.workload, args, scale, scratch)
        document["workloads"][args.workload] = section
        print_section(args.workload, section)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.out:
        write_document(args.out, document)
    if args.seconds is not None:
        sys.stdout.flush()
        print(contract_line(section, args.traced))
    return 1 if section["failed"] else 0


def write_document(path, document: dict) -> None:
    Path(path).write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_suite(args) -> int:
    """Every workload, each in a driver process of its own.

    One process per workload keeps ``peak_rss_mb`` and the collector's
    heap the workload's own, exactly as when the benchmark driver runs a
    single workload; the sections are merged into one document.
    """
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="suite-", dir=OUT))
    document = None
    status = 0
    try:
        for name in workloads.WORKLOADS:
            part = scratch / f"{name}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--repeats", str(args.repeats),
                "--out", str(part),
            ]
            command += ["--traced"] if args.traced else []
            command += ["--smoke"] if args.smoke else []
            status |= subprocess.run(command, check=False).returncode
            if not part.exists():
                continue  # the child crashed before it could report
            loaded = json.loads(part.read_text(encoding="utf-8"))
            if document is None:
                document = loaded
            else:
                document["workloads"].update(loaded["workloads"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out and document is not None:
        write_document(args.out, document)
    return 1 if status else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
