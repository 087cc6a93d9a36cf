"""Process-wide metrics: counters, gauges and histograms with exposition.

The instruments are deliberately tiny — a counter is one attribute add —
because they sit on maintenance paths: journal appends, snapshot writes,
index builds, update accounting. Two usage patterns keep the *disabled*
cost at one attribute lookup:

* rare events (an index build, a reclamation sweep, a snapshot) guard the
  whole block with ``if OBS.enabled:`` and fetch instruments through the
  registry inside the guard;
* a caller that cannot afford even the registry lookup per event caches
  the instrument handle once; when telemetry is off the handle is one of
  the shared null instruments below, whose methods are no-ops.

Instruments and the registry are thread-safe: sessions sharing one
revision service increment counters and observe histograms from many
threads at once, so every update takes a per-instrument lock and create-or-get
takes a registry lock. The disabled path is untouched — ``OBS.metrics``
is the lock-free :class:`NullRegistry` then, and the ``if OBS.enabled:``
guard is still one attribute lookup (the E19 overhead guard enforces it).

:meth:`MetricsRegistry.exposition` renders the whole registry in the
Prometheus text format (``# TYPE`` / ``# HELP`` comments, ``_bucket`` /
``_sum`` / ``_count`` series per histogram), so a future service front-end
(ROADMAP item 1) can expose ``/metrics`` by returning the string verbatim.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Optional, TypeVar, Union, cast

# Latency-oriented default buckets (seconds): journal fsyncs sit around
# 1e-4..1e-2, full updates around 1e-4..1, snapshot writes up to ~10.
DEFAULT_BUCKETS = (
    0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0,
)

Labels = tuple[tuple[str, str], ...]


def _labelize(labels: dict) -> Labels:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (sizes, cursors, cache fill)."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """A cumulative-bucket histogram over float observations."""

    __slots__ = (
        "name", "labels", "buckets", "counts", "sum", "count", "_lock"
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative count per upper bound (Prometheus ``le`` semantics)."""
        with self._lock:
            return dict(zip(self.buckets, self.counts))


class _NullInstrument:
    """Shared no-op stand-in for any instrument kind.

    Falsy, stateless and method-complete, so a cached handle obtained
    while telemetry was disabled costs nothing when used.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()

_Instrument = Union[Counter, Gauge, Histogram]
_I = TypeVar("_I", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Create-or-get instruments by name (+ optional labels).

    A name is bound to one instrument kind; asking for the same name with
    a different kind raises, mirroring the Prometheus data model. Distinct
    label sets under one name are distinct time series sharing the name's
    kind and help text. Create-or-get is serialized by a registry lock so
    concurrent first lookups of one series return the same instrument.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, Labels], _Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._helps: dict[str, str] = {}
        self._lock = threading.Lock()

    def _get(
        self,
        cls: type[_I],
        name: str,
        help: str,
        labels: dict,
        **kwargs: Any,
    ) -> _I:
        with self._lock:
            kind = self._kinds.get(name)
            if kind is None:
                self._kinds[name] = cls.kind
                if help:
                    self._helps[name] = help
            elif kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} is a {kind}, not a {cls.kind}"
                )
            key = (name, _labelize(labels))
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
            return cast(_I, instrument)

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> Histogram:
        kwargs: dict[str, Iterable[float]] = (
            {} if buckets is None else {"buckets": buckets}
        )
        return self._get(Histogram, name, help, labels, **kwargs)

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._helps.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    def as_dict(self) -> dict:
        """A JSON-ready dump: name → list of {labels, value(s)} series."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        out: dict[str, list] = {}
        for (name, labels), instrument in instruments:
            series: dict = {"labels": dict(labels)}
            if isinstance(instrument, Histogram):
                series["sum"] = instrument.sum
                series["count"] = instrument.count
                series["buckets"] = {
                    str(bound): count
                    for bound, count in instrument.bucket_counts().items()
                }
            else:
                series["value"] = instrument.value
            out.setdefault(name, []).append(series)
        return out

    def exposition(self) -> str:
        """The registry in the Prometheus text exposition format."""
        with self._lock:
            snapshot = sorted(self._instruments.items())
            helps = dict(self._helps)
            kinds = dict(self._kinds)
        lines: list[str] = []
        by_name: dict[str, list] = {}
        for (name, _labels), instrument in snapshot:
            by_name.setdefault(name, []).append(instrument)
        for name, instruments in by_name.items():
            help_text = helps.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kinds[name]}")
            for instrument in instruments:
                rendered = _render_labels(instrument.labels)
                if isinstance(instrument, Histogram):
                    cumulative = 0
                    for bound, count in zip(
                        instrument.buckets, instrument.counts
                    ):
                        cumulative = count
                        le = _render_labels(
                            instrument.labels + (("le", repr(bound)),)
                        )
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    le = _render_labels(
                        instrument.labels + (("le", "+Inf"),)
                    )
                    lines.append(f"{name}_bucket{le} {instrument.count}")
                    lines.append(f"{name}_sum{rendered} {instrument.sum}")
                    lines.append(
                        f"{name}_count{rendered} {instrument.count}"
                    )
                else:
                    lines.append(f"{name}{rendered} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")


class NullRegistry:
    """Registry twin whose instruments are all the shared no-op.

    :data:`~repro.obs.runtime.OBS` swaps this in while telemetry is
    disabled, so code holding ``OBS.metrics`` pays one attribute lookup
    plus empty method calls — no dict traffic, no allocation.
    """

    __slots__ = ()

    def counter(
        self, name: str, help: str = "", **labels: object
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(
        self, name: str, help: str = "", **labels: object
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def as_dict(self) -> dict:
        return {}

    def exposition(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()
