"""Counters, gauges, histograms and the registry that names them.

Design constraints (why this module looks the way it does):

* **One series, one lock.** Every labelled series holds one state under
  one uncontended lock: a counter one number, a gauge its level and the
  max merged from elsewhere, a histogram its bucket counts, sum and
  count. Counters that mirror events are folds (:meth:`EventLog.fold`)
  and already run under the log's lock; the direct writes that remain
  are a few thousand per run, at ~0.5 µs per locked increment on a
  2-core host.
* **Mergeable.** The process-pool executor's workers live in other address
  spaces; their numbers come home as snapshots folded into the
  coordinator's registry by :meth:`MetricsRegistry.merge_snapshot`, the
  one merge: counters and histograms add, gauges take the max, so
  folding snapshots in any order or grouping gives the same registry
  (property-tested). Offline aggregation folds files into a fresh
  registry the same way.
* **Export-agnostic.** A snapshot is a plain JSON-able dict; the exporters
  in :mod:`repro.obs.exporters` render it as Prometheus text or JSON
  without ever touching live instruments.

Example::

    reg = MetricsRegistry("pipeline")
    done = reg.counter("tasks_done", "tasks finished", labelnames=("kind",))
    done.labels(kind="encode").inc()
    depth = reg.gauge("queue_depth", "ready tasks")
    depth.set(3)
    lat = reg.histogram("task_us", "task latency (µs)")
    lat.observe(420.0)
    snap = reg.snapshot()          # plain dict, safe to json.dumps
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any, Mapping, Sequence

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "DEFAULT_LATENCY_BUCKETS_US",
    "MONOTONIC_CLOCK",
]

#: The one default time source for the whole obs package: monotonic,
#: immune to wall-clock jumps (NTP slews, DST). Histogram timers use it
#: directly (seconds); the event log derives its µs timestamps from the
#: same callable, so timer observations and event timelines are
#: comparable by construction.
MONOTONIC_CLOCK = time.perf_counter

#: Default histogram bucket upper bounds, tuned for µs-scale latencies:
#: geometric 1-2.5-5 decades from 5 µs to 5 s (the executor clock is µs for
#: both simulated and wall time). An implicit +Inf bucket follows the last.
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _label_key(labelnames: Sequence[str], labels: Mapping[str, str]) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ObservabilityError(
            f"labels {sorted(labels)} do not match declared labelnames "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _CounterChild:
    """A single monotonically increasing series.

    Example::

        c = registry.counter("requests", "requests served")
        c.inc()
        c.inc(3)
        assert c.value() == 4
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        # The int 0 until the first write, a float after it: snapshots of
        # never-written counters keep the shape the pinned digests hash.
        self._value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter; ``amount`` must be non-negative."""
        if amount < 0:
            raise ObservabilityError("counters can only increase")
        with self._lock:
            self._value += float(amount)

    def _merge_external(self, amount: float) -> None:
        with self._lock:
            self._value += float(amount)

    def value(self) -> float:
        """Current value."""
        return self._value


class _GaugeChild:
    """A single settable series (last write wins within a process).

    Example::

        g = registry.gauge("inflight", "tasks currently running")
        g.set(2);  g.inc();  g.dec()
        assert g.value() == 2
    """

    __slots__ = ("_value", "_external", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._external: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    def _merge_external(self, value: float) -> None:
        with self._lock:
            self._external = value if self._external is None else max(self._external, value)

    def value(self) -> float:
        """Current value; externally merged gauges contribute their max."""
        with self._lock:
            if self._external is None:
                return self._value
            return max(self._value, self._external)


class _HistogramChild:
    """One labelled histogram series with fixed bucket upper bounds.

    Holds its *non-cumulative* bucket counts, sum and count; the
    Prometheus renderer cumulates at the end.

    Example::

        h = registry.histogram("svc_us", "service time", buckets=(10, 100))
        h.observe(7);  h.observe(70);  h.observe(700)
        counts, total, n = h.raw()     # counts == [1, 1, 1] (incl. +Inf)
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_n", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._n = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        i = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._n += 1

    def time(self, clock=None):
        """Context manager that observes the elapsed time of its body.

        ``clock`` defaults to :func:`time.perf_counter` (seconds); pass the
        executor's µs clock to record in the run's own time base::

            with histogram.time(clock=lambda: runtime.now):
                do_work()
        """
        return _Timer(self, clock)

    def _merge_external(self, counts: Sequence[int], total: float, n: int) -> None:
        if len(counts) != len(self._counts):
            raise ObservabilityError(
                f"histogram merge: {len(counts)} buckets vs {len(self._counts)}"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total
            self._n += n

    def raw(self) -> tuple[list[int], float, int]:
        """``(non-cumulative counts, sum, count)``."""
        with self._lock:
            return list(self._counts), self._sum, self._n

    def count(self) -> int:
        """Total number of observations."""
        return self.raw()[2]

    def sum(self) -> float:
        """Sum of all observed values."""
        return self.raw()[1]

    def mean(self) -> float:
        """Mean observation, or 0.0 when empty."""
        _, total, n = self.raw()
        return total / n if n else 0.0


class _Timer:
    __slots__ = ("_hist", "_clock", "_t0")

    def __init__(self, hist: _HistogramChild, clock) -> None:
        self._hist = hist
        self._clock = clock if clock is not None else MONOTONIC_CLOCK

    def __enter__(self) -> "_Timer":
        self._t0 = self._clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._hist.observe(self._clock() - self._t0)


class _Metric:
    """Shared labelling machinery: a metric is a family of children."""

    kind = "base"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """Get or create the child series for one label combination.

        Example::

            done = reg.counter("tasks", "tasks run", labelnames=("kind",))
            done.labels(kind="encode").inc()
        """
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _default_child(self):
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name!r} declares labels {self.labelnames}; "
                "use .labels(...) to pick a series"
            )
        return self._children[()]

    def series(self) -> list[tuple[dict[str, str], Any]]:
        """All ``(labels dict, child)`` pairs, in creation order."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in list(self._children.items())
        ]

    def snapshot_series(self) -> list[dict[str, Any]]:
        """Plain-dict state of every series (kind-specific shape)."""
        raise NotImplementedError


class _ValueMetric(_Metric):
    """A family whose series each read as one number (counters, gauges)."""

    def value(self) -> float:
        """Current value of the label-less series."""
        return self._default_child().value()

    def snapshot_series(self) -> list[dict[str, Any]]:
        """``{"labels", "value"}`` per series."""
        return [
            {"labels": labels, "value": child.value()}
            for labels, child in self.series()
        ]


class Counter(_ValueMetric):
    """A monotonically increasing metric family.

    Example::

        errs = reg.counter("task_failures", "task bodies that raised")
        errs.inc()
    """

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less series."""
        self._default_child().inc(amount)


class Gauge(_ValueMetric):
    """A point-in-time level (queue depth, in-flight tasks, workers).

    Example::

        depth = reg.gauge("ready_depth", "ready-queue length")
        depth.set(len(queue))
    """

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        """Set the label-less series."""
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add to the label-less series."""
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract from the label-less series."""
        self._default_child().dec(amount)


class Histogram(_Metric):
    """A distribution with fixed bucket upper bounds (+Inf implicit).

    Example::

        lat = reg.histogram("block_latency_us", "per-block latency",
                            buckets=(100, 1000, 10000))
        lat.observe(740.0)
        lat.mean()
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS_US))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation on the label-less series."""
        self._default_child().observe(value)

    def time(self, clock=None):
        """Time a ``with`` body into the label-less series."""
        return self._default_child().time(clock)

    def count(self) -> int:
        """Observation count of the label-less series."""
        return self._default_child().count()

    def sum(self) -> float:
        """Observation sum of the label-less series."""
        return self._default_child().sum()

    def mean(self) -> float:
        """Mean observation of the label-less series (0.0 when empty)."""
        return self._default_child().mean()

    def snapshot_series(self) -> list[dict[str, Any]]:
        """``{"labels", "bounds", "counts", "sum", "count"}`` per series
        (non-cumulative counts; the last entry is the +Inf bucket)."""
        out = []
        for labels, child in self.series():
            counts, total, n = child.raw()
            out.append({
                "labels": labels,
                "bounds": list(self.buckets),
                "counts": counts,
                "sum": total,
                "count": n,
            })
        return out


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    Calling :meth:`counter` / :meth:`gauge` / :meth:`histogram` twice with
    the same name returns the same instrument, so independent subsystems
    (runtime, executor, speculation manager) can share one registry without
    coordination. Re-declaring a name with a different type raises.

    Example::

        reg = MetricsRegistry("run42")
        reg.counter("spec_commits", "commits").inc()
        snap = reg.snapshot()
        reg2 = MetricsRegistry("run42")
        reg2.merge_snapshot(snap)      # cross-process aggregation
        assert reg2.value("spec_commits") == 1
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != cls.kind:
                    raise ObservabilityError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                if tuple(labelnames) != existing.labelnames:
                    raise ObservabilityError(
                        f"metric {name!r} labelnames {existing.labelnames} != "
                        f"{tuple(labelnames)}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> Histogram:
        """Get or create a :class:`Histogram` (buckets fixed at creation)."""
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        """The metric registered under ``name``, or None."""
        with self._lock:
            return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def value(self, name: str, **labels: str) -> float:
        """Convenience: current value of one counter/gauge series.

        Example::

            reg.value("sre_tasks_completed", speculative="yes")
        """
        metric = self.get(name)
        if metric is None:
            raise ObservabilityError(f"no metric named {name!r}")
        child = metric.labels(**labels) if labels else metric._default_child()
        return child.value()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, JSON-able view of every metric's current state."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            "namespace": self.namespace,
            "metrics": [
                {
                    "name": m.name,
                    "type": m.kind,
                    "help": m.help,
                    "labelnames": list(m.labelnames),
                    "series": m.snapshot_series(),
                }
                for m in metrics
            ],
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold an external snapshot (e.g. from a worker process) in.

        Counter and histogram series *add*; gauges take the max (a level
        observed elsewhere cannot meaningfully sum). Metrics absent here
        are created with the snapshot's declared type and buckets.
        """
        for m in snapshot.get("metrics", ()):
            kind = m.get("type")
            if kind not in _VALID_TYPES:
                raise ObservabilityError(f"unknown metric type {kind!r}")
            labelnames = tuple(m.get("labelnames", ()))
            if kind == "counter":
                metric = self.counter(m["name"], m.get("help", ""), labelnames)
            elif kind == "gauge":
                metric = self.gauge(m["name"], m.get("help", ""), labelnames)
            else:
                bounds = None
                if m["series"]:
                    bounds = m["series"][0].get("bounds")
                metric = self.histogram(m["name"], m.get("help", ""), labelnames,
                                        buckets=bounds)
            for s in m.get("series", ()):
                child = (metric.labels(**s.get("labels", {}))
                         if labelnames else metric._default_child())
                if kind == "histogram":
                    child._merge_external(s["counts"], s["sum"], s["count"])
                else:
                    child._merge_external(s["value"])


def histogram_quantile(bounds: Sequence[float], counts: Sequence[float],
                       q: float) -> float | None:
    """Estimate the ``q``-quantile of one histogram series.

    ``bounds`` / ``counts`` are the :meth:`Histogram.snapshot_series`
    shape: non-cumulative counts with the implicit +Inf bucket last
    (``len(counts) == len(bounds) + 1``). Linear interpolation within
    the winning bucket, Prometheus-style; observations in the +Inf
    bucket clamp to the highest finite bound (there is no upper edge to
    interpolate toward). Returns ``None`` for an empty series.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total <= 0:
        return None
    rank = q * total
    seen = 0.0
    for i, count in enumerate(counts):
        if count <= 0:
            continue
        if seen + count >= rank:
            if i >= len(bounds):  # +Inf bucket: clamp to the last edge
                return float(bounds[-1]) if bounds else None
            lo = float(bounds[i - 1]) if i > 0 else 0.0
            hi = float(bounds[i])
            frac = (rank - seen) / count
            return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        seen += count
    return float(bounds[-1]) if bounds else None
