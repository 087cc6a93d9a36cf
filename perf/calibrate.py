"""The host's speed, read between the measurements it is used to scale.

The reference sandbox is a couple of cores of a shared machine. What the
neighbours do changes how fast *everything* here runs — by 10 % from one
second to the next, by 30 to 50 % for minutes on end (the same commit's
``star_maintain`` transaction took 53 ms and 103 ms a quarter of an hour
apart) — and no statistic over one run's wall-clock times can take out a
slowdown that lasts longer than the run. So the driver process reads the
host's speed all along the run, with a fixed piece of work that has nothing
to do with the program (``reading``: JSON, sorting, set algebra, small
objects, string formatting — the interpreter-bound, allocation-heavy kind of
work the program does, which slows down about as much as the program when
the host gets busy; an arithmetic loop slows down a third as much), and
every wall-clock time is reported *at reference speed*: multiplied by
``REFERENCE_S`` over the readings taken just before and just after it.

``REFERENCE_S`` is one reading on the reference sandbox with the neighbours
away, so on a quiet host the scaled times are the wall-clock times. On
another machine they are "what this would take on the reference sandbox";
ratios between two commits measured on the same machine are what matters,
and those do not depend on the constant.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
import time

#: Seconds one ``reading`` takes on the quiet reference sandbox.
REFERENCE_S = 0.0030
#: Passes over the work per reading: long enough (3 ms) to average over
#: the host's millisecond jitter, short enough to fit between two laps.
PASSES = 3
#: Readings per call of ``Host.read``.
READINGS = 3
#: A time is scaled by the readings taken up to this long before it began
#: and after it ended: the host's speed moves from one second to the next,
#: and single readings jitter (median 1.5 x the fastest tenth on a busy day),
#: so the neighbouring boundaries' readings are wanted too, older ones not.
NEIGHBOURHOOD_S = 0.5

_DOCUMENT = {
    f"key{i}": [(i, f"v{i}"), {"a": i, "b": [i, i + 1, str(i)]}]
    for i in range(60)
}
_WORD = re.compile(r"[a-z]+(\d+)")


class _Point:
    __slots__ = ("x", "y", "tags")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y, self.tags = x, y, set()

    def norm(self) -> int:
        return self.x * self.x + self.y * self.y


def reading() -> float:
    """Seconds the fixed piece of work takes right now."""
    started = time.perf_counter()
    for _ in range(PASSES):
        _work()
    return time.perf_counter() - started


def _work() -> None:
    back = json.loads(json.dumps(_DOCUMENT, sort_keys=True))
    rows = sorted(
        ((k, v[1]["a"] % 7, len(v[1]["b"])) for k, v in back.items()),
        key=lambda row: (row[1], row[0]),
    )
    sets = [frozenset((r[1], j) for j in range(r[2] + r[1])) for r in rows]
    seen: set = set()
    for a, b in zip(sets, sets[1:]):
        seen |= a & b
        seen ^= a - b
    points = [_Point(i, row[1]) for i, row in enumerate(rows)]
    for point in points:
        point.tags.update(seen if point.y & 1 else ())
        point.x += point.norm() % 5
    index: dict[str, list[str]] = {}
    for name in [f"{p.x:05d}-{p.y}" for p in points]:
        index.setdefault(name[:3], []).append(name)
    hits = sum(int(m.group(1)) for m in map(_WORD.match, back) if m)
    table = {r[1]: r for r in [(i, str(i), {"k": i}) for i in range(2000)]}
    if not (seen and index and hits and table):
        raise RuntimeError("the calibration work lost its result")


class Host:
    """The speed readings of one round, in time order."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def read(self) -> None:
        """Take readings now: between two measurements, never inside one."""
        for _ in range(READINGS):
            self.seconds.append(reading())
            self.stamps.append(time.perf_counter())

    def spent(self, start: float, end: float) -> float:
        """Seconds of [start, end] that went into readings."""
        first = bisect.bisect_left(self.stamps, start)
        last = bisect.bisect_right(self.stamps, end)
        return sum(self.seconds[first:last])

    def factor(self, start: float, end: float) -> float:
        """What a time measured over [start, end] is multiplied by.

        No reading is ever taken inside a measurement, so the readings
        stamped within the neighbourhood of [start, end] are the ones
        before it began and after it ended.
        """
        first = bisect.bisect_left(self.stamps, start - NEIGHBOURHOOD_S)
        last = bisect.bisect_right(self.stamps, end + NEIGHBOURHOOD_S)
        around = self.seconds[first:last]
        if not around:
            raise RuntimeError("no speed reading around a measurement")
        return REFERENCE_S / statistics.median(around)
