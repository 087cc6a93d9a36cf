"""Compare two result documents of ``perf/run.py --out``.

    python perf/compare.py A.json B.json

A is the reference (the parent commit, or the first of two A/A sets), B the
candidate. For every workload and end-to-end metric both documents hold,
the table shows the two medians, how much *worse* B is (positive = worse,
whatever the metric's direction), the regression bound and a verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``REGRESSION`` — it is; the exit code becomes 1;
* ``unresolved`` — the rounds of A or of B spread (IQR / median) wider than
  the bound, so the runs cannot tell a change of that size from noise
  (``setup_s`` is exempt: a process's first round pays its one-time warm-up);
* ``info`` — the metric carries no bound (demoted candidates, see README).

Per-layer metrics present in both documents are listed below each
workload as plain deltas; they never affect the exit code.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Bounds of the end-to-end metrics the driver does not track (they do not
#: exist on every workload, or repeat exactly). ``commit_tps`` follows
#: ``updates_per_s``, its constant multiple on the store-backed workloads.
EXACT = {"journal_bytes_per_txn": 0.0, "error_rate": 0.0}


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table["commit_tps"] = table["updates_per_s"]
    table.update(EXACT)
    return table


def spread(values: list[float]) -> float:
    """IQR / median of a metric's per-round values (0 for a single round).

    The rounds are the whole population, not a sample of it: with the
    inclusive method one disturbed round out of three moves the quartiles
    half as far as it moves the range, in step with the median it
    accompanies.
    """
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def worse_by(better: str, a: float, b: float) -> float:
    """Share of A by which B is worse; negative when B is better."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (a - b) / a if better == "higher" else (b - a) / a


def compare(a: dict, b: dict) -> int:
    table = bounds()
    regressions = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        left, right = a["workloads"][workload], b["workloads"][workload]
        print(f"\n== {workload}")
        print(f"  {'metric':<24}{'A':>12}{'B':>12}{'worse by':>10}"
              f"{'bound':>8}{'spread A/B':>14}  verdict")
        for name, entry in left["end_to_end"].items():
            other = right["end_to_end"].get(name)
            if other is None:
                continue
            delta = worse_by(entry["better"], entry["value"], other["value"])
            spreads = spread(entry["values"]), spread(other["values"])
            bound = table.get(name)
            if bound is None:
                verdict = "info"
            elif delta > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif max(spreads) > bound and name != "setup_s":
                # setup_s is exempt, as under the driver: a process's first
                # round pays its one-time warm-up (imports, first plans).
                verdict = "unresolved"
            else:
                verdict = "ok"
            shown = "-" if bound is None else f"{bound * 100:.0f}%"
            print(
                f"  {name:<24}{entry['value']:>12.4f}{other['value']:>12.4f}"
                f"{delta * 100:>9.1f}%{shown:>8}"
                f"{spreads[0] * 100:>7.1f}%{spreads[1] * 100:>6.1f}%  {verdict}"
            )
        layers = left.get("per_layer", {})
        for name, entry in layers.items():
            other = right.get("per_layer", {}).get(name)
            if other is None or (entry["value"] == 0 and other["value"] == 0):
                continue
            print(
                f"    {name:<38}{entry['value']:>12.4f}{other['value']:>12.4f}"
                f" {entry['unit']}"
            )
    return regressions


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    regressions = compare(a, b)
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
