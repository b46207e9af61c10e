"""Render registry snapshots: Prometheus text, JSON, periodic dumps.

Exporters are pure functions over the plain-dict snapshots produced by
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` — they never touch live
instruments, so a snapshot taken mid-run can be rendered later, shipped
across a pipe, or diffed against another run.

Formats:

* **Prometheus text exposition** (:func:`to_prometheus_text`) — the
  ``# HELP`` / ``# TYPE`` line format every Prometheus-compatible scraper
  ingests. Counters are suffixed ``_total``; histograms render cumulative
  ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
* **JSON snapshot** (:func:`to_json_snapshot`) — the snapshot itself with a
  format header, loadable with :func:`load_json_snapshot` and mergeable
  with :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` (this
  is how ``EXPERIMENTS.md``'s "regenerate a figure's numbers" workflow
  reads a run's counters back).

For long production-style runs, :class:`PeriodicSnapshotWriter` dumps a
snapshot to disk on an interval from a daemon thread::

    with PeriodicSnapshotWriter(registry, "run.metrics.json", interval_s=5):
        executor.run()
    # run.metrics.json now holds the final snapshot (written on exit too)
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Mapping

from repro.errors import ObservabilityError

__all__ = [
    "to_prometheus_text",
    "to_json_snapshot",
    "load_json_snapshot",
    "write_metrics",
    "PeriodicSnapshotWriter",
]

#: JSON snapshot format version (bumped on incompatible layout changes).
SNAPSHOT_FORMAT = 1


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels: Mapping[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*labels.items(), *extra]
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    f = float(value)
    return repr(int(f)) if f.is_integer() else repr(f)


def to_prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Metric names are prefixed with the snapshot's namespace; counter names
    get the conventional ``_total`` suffix. The output ends with a newline
    as the format requires.

    Example::

        text = to_prometheus_text(registry.snapshot())
        pathlib.Path("metrics.prom").write_text(text)
    """
    ns = snapshot.get("namespace", "repro")
    lines: list[str] = []
    for metric in snapshot.get("metrics", ()):
        kind = metric["type"]
        base = f"{ns}_{metric['name']}"
        if kind == "counter" and not base.endswith("_total"):
            base += "_total"
        lines.append(f"# HELP {base} {_escape_help(metric.get('help', ''))}")
        lines.append(f"# TYPE {base} {kind}")
        for s in metric.get("series", ()):
            labels = s.get("labels", {})
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{base}{_labels_text(labels)} {_format_value(s['value'])}"
                )
                continue
            cumulative = 0
            for bound, count in zip(s["bounds"], s["counts"]):
                cumulative += count
                lines.append(
                    f"{base}_bucket"
                    f"{_labels_text(labels, (('le', _format_value(bound)),))} "
                    f"{cumulative}"
                )
            cumulative += s["counts"][len(s["bounds"])]
            lines.append(
                f"{base}_bucket{_labels_text(labels, (('le', '+Inf'),))} {cumulative}"
            )
            lines.append(f"{base}_sum{_labels_text(labels)} {_format_value(s['sum'])}")
            lines.append(f"{base}_count{_labels_text(labels)} {s['count']}")
    return "\n".join(lines) + "\n"


def to_json_snapshot(snapshot: Mapping[str, Any], *, indent: int | None = 2,
                     meta: Mapping[str, Any] | None = None) -> str:
    """Serialise a snapshot to JSON with a format header.

    ``meta`` (e.g. ``RunConfig.to_dict()``) is embedded under a ``"meta"``
    key so the export is self-describing: a snapshot file alone says what
    run produced it.

    Example::

        doc = json.loads(to_json_snapshot(registry.snapshot()))
        doc["metrics"][0]["name"]
    """
    doc: dict[str, Any] = {"format": SNAPSHOT_FORMAT, **dict(snapshot)}
    if meta is not None:
        doc["meta"] = dict(meta)
    return json.dumps(doc, indent=indent)


def load_json_snapshot(text: str) -> dict[str, Any]:
    """Parse a snapshot previously written by :func:`to_json_snapshot`.

    Raises :class:`~repro.errors.ObservabilityError` on a missing or
    incompatible format header, so stale files fail loudly.
    """
    doc = json.loads(text)
    if doc.get("format") != SNAPSHOT_FORMAT:
        raise ObservabilityError(
            f"unsupported metrics snapshot format {doc.get('format')!r} "
            f"(expected {SNAPSHOT_FORMAT})"
        )
    doc.pop("format", None)
    return doc


def write_metrics(path: str, snapshot: Mapping[str, Any],
                  fmt: str | None = None, *,
                  meta: Mapping[str, Any] | None = None) -> str:
    """Write a snapshot to ``path``; returns the format used.

    ``fmt`` is ``"prom"`` or ``"json"``; when None it is inferred from the
    file extension (``.json`` → JSON, anything else → Prometheus text).
    ``meta`` describes the run that produced the numbers: embedded as a
    ``"meta"`` object in JSON, rendered as leading ``#`` comment lines in
    Prometheus text. The write goes through a same-directory temp file +
    atomic rename so a scraper never reads a half-written snapshot.
    """
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "prom"
    if fmt not in ("prom", "json"):
        raise ObservabilityError(f"unknown metrics format {fmt!r}")
    if fmt == "json":
        text = to_json_snapshot(snapshot, meta=meta)
    else:
        text = to_prometheus_text(snapshot)
        if meta:
            header = "".join(
                f"# meta {k}={_escape_help(str(v))}\n" for k, v in meta.items()
            )
            text = header + text
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return fmt


class PeriodicSnapshotWriter:
    """Dump a registry's snapshot to disk on a fixed interval.

    Designed for long production-style runs: a daemon thread wakes every
    ``interval_s`` seconds and rewrites ``path`` atomically, so an external
    observer (or a crash post-mortem) always sees a recent, complete
    snapshot. A final snapshot is written on :meth:`stop` / context exit.

    Example::

        writer = PeriodicSnapshotWriter(registry, "run.prom", interval_s=10)
        writer.start()
        try:
            run_long_workload()
        finally:
            writer.stop()          # writes one last snapshot
    """

    def __init__(self, registry, path: str, *, interval_s: float = 5.0,
                 fmt: str | None = None,
                 meta: Mapping[str, Any] | None = None) -> None:
        if interval_s <= 0:
            raise ObservabilityError("interval_s must be positive")
        self.registry = registry
        self.path = str(path)
        self.interval_s = interval_s
        self.fmt = fmt
        #: run description embedded in every write (see write_metrics).
        self.meta = meta
        self.writes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def flush(self) -> None:
        """Write one snapshot now (also callable without start())."""
        write_metrics(self.path, self.registry.snapshot(), self.fmt,
                      meta=self.meta)
        self.writes += 1

    def start(self) -> "PeriodicSnapshotWriter":
        """Start the background writer thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="obs-snapshot-writer", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and write a final snapshot.

        The final flush is unconditional: even if the writer thread died
        or refuses to join, ``stop()`` still leaves a fresh, complete
        snapshot on disk — short runs (interval longer than the run) and
        crashed runs keep their post-mortem data. Idempotent.
        """
        self._stop.set()
        try:
            if self._thread is not None:
                self._thread.join()
                self._thread = None
        finally:
            self.flush()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.flush()
            except Exception:
                # A transient write failure (disk pressure, a vanished
                # directory) must not kill the periodic thread; a
                # persistent one surfaces through the final stop() flush.
                continue

    def __enter__(self) -> "PeriodicSnapshotWriter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
