"""Shared pieces of the benchmark: spans, percentiles, registry reads,
daemon processes, resource watches and the correctness oracle.

Nothing here imports ``repro`` at module level, so the entry point can
check for the source tree before anything needs it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterator

import numpy as np

clock = time.perf_counter
#: worker processes per run, on every executor and in every micro-leg.
WORKERS = 2


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Spans:
    """Bench-side spans kept in memory and written out once at the end.

    Each span is ``{id, name, start_s, end_s, parent, run_id, ...attrs}``
    on the bench clock (:func:`clock`). A disabled recorder records
    nothing, so untraced passes pay one attribute test per call site.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []
        self.run_id = ""
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs: Any) -> int | None:
        if not self.enabled:
            return None
        sid = next(self._ids)
        self.records.append({"id": sid, "name": name, "start_s": start,
                             "end_s": end, "parent": parent,
                             "run_id": self.run_id, **attrs})
        return sid

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None,
             **attrs: Any) -> Iterator[int | None]:
        """Time the body; children may name the yielded id as parent.

        The id is reserved before the body runs, so a child recorded
        inside the body points at a parent that is written on exit.
        """
        if not self.enabled:
            yield None
            return
        sid = next(self._ids)
        t0 = clock()
        try:
            yield sid
        finally:
            self.records.append({"id": sid, "name": name, "start_s": t0,
                                 "end_s": clock(), "parent": parent,
                                 "run_id": self.run_id, **attrs})

    def self_time_s(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        child_time: dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_time[r["parent"]] = (child_time.get(r["parent"], 0.0)
                                           + r["end_s"] - r["start_s"])
        out: dict[str, float] = {}
        for r in self.records:
            own = r["end_s"] - r["start_s"] - child_time.get(r["id"], 0.0)
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.records,
                                    "self_time_s": self.self_time_s()}))


# ---------------------------------------------------------------------------
# statistics and registry snapshots
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    """The q-th percentile (linear interpolation) of a non-empty sample."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(arr, q))


def median(values) -> float:
    return pct(values, 50)


def _series(snapshot: dict, name: str, labels: dict[str, str]) -> list[dict]:
    for metric in snapshot.get("metrics", []):
        if metric["name"] == name:
            return [s for s in metric["series"]
                    if all(s["labels"].get(k) == v
                           for k, v in labels.items())]
    return []


def counter(snapshot: dict, name: str, **labels: str) -> float:
    """Sum of a counter/gauge over the series matching ``labels``."""
    return float(sum(s["value"] for s in _series(snapshot, name, labels)))


def hist_sum(snapshot: dict, name: str, **labels: str) -> float:
    return float(sum(s["sum"] for s in _series(snapshot, name, labels)))


def hist_count(snapshot: dict, name: str, **labels: str) -> float:
    return float(sum(s["count"] for s in _series(snapshot, name, labels)))


def hist_quantile(snapshot: dict, name: str, q: float, **labels: str) -> float:
    """The program's ``histogram_quantile`` over the series matching
    ``labels``, merged; an empty histogram reads 0."""
    from repro.obs.metrics import histogram_quantile

    series = _series(snapshot, name, labels)
    if not series:
        return 0.0
    counts = np.sum([s["counts"] for s in series], axis=0)
    value = histogram_quantile(series[0]["bounds"], counts.tolist(), q)
    return 0.0 if value is None else value


# ---------------------------------------------------------------------------
# processes, shared memory and memory watch
# ---------------------------------------------------------------------------

def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments currently linked."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-")}
    except FileNotFoundError:
        return set()


def _children(pid: int) -> set[int]:
    out: set[int] = set()
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.update(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> set[int]:
    """Every live (or unreaped) process below ``pid``."""
    out: set[int] = set()
    todo = [pid]
    while todo:
        for child in _children(todo.pop()):
            if child not in out:
                out.add(child)
                todo.append(child)
    return out


def exists(pid: int) -> bool:
    return os.path.exists(f"/proc/{pid}")


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssWatch:
    """Peak resident memory of a set of process trees.

    A thread samples each process's ``VmHWM`` (its own high-water mark)
    every ``interval_s`` and keeps the largest value seen per pid, so a
    worker that exits between samples still counts with the peak it had
    reached at the last one. :attr:`peak_mb` is the sum over pids.
    Sampling reads a few ``/proc`` files; it never touches the program.
    """

    def __init__(self, roots: list[int], interval_s: float = 0.2) -> None:
        self.roots = list(roots)
        self.interval_s = interval_s
        self._peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-rss")

    def sample(self) -> None:
        for root in self.roots:
            for pid in {root} | descendants(root):
                kb = _hwm_kb(pid)
                if kb > self._peak_kb.get(pid, 0):
                    self._peak_kb[pid] = kb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "RssWatch":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return sum(self._peak_kb.values()) / 1024.0


class Daemon:
    """A ``repro`` CLI daemon run as a subprocess of its own session.

    Started through the CLI (``python -m repro.cli <argv>``) with the
    checkout's ``src`` on ``PYTHONPATH``; the caller rendezvouses on the
    port file the daemon writes once it listens. :meth:`stop` asks for a
    clean exit (SIGTERM for the worker pool, the ``shutdown`` op for
    serve, chosen by the caller) and returns whether the daemon and every
    process it started are gone; stragglers are killed as a group so
    nothing outlives the benchmark either way.
    """

    def __init__(self, root: Path, out_dir: Path, name: str,
                 argv: list[str]) -> None:
        self.root = root
        self.name = name
        self.port_file = out_dir / f"{name}.port"
        self.log_path = out_dir / f"{name}.log"
        self.argv = argv
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.seen: set[int] = set()

    def start(self, timeout_s: float = 60.0) -> int:
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *self.argv,
                 "--port-file", str(self.port_file)],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                text = self.port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                self.port = int(text)
                return self.port
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited with {self.proc.returncode} before "
                    f"listening; see {self.log_path}")
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"{self.name} did not listen within "
                                   f"{timeout_s}s")
            time.sleep(0.002)

    def note_children(self) -> None:
        """Remember the daemon's current process tree for the leak check."""
        if self.proc is not None and self.proc.poll() is None:
            self.seen |= descendants(self.proc.pid)

    def stop(self, *, sigterm: bool, timeout_s: float = 30.0) -> bool:
        """Wait for the daemon to exit (after SIGTERM if asked); True when
        it exited by itself and left no process of its tree behind."""
        if self.proc is None:
            return True
        self.note_children()
        if sigterm and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        clean = True
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            clean = False
        deadline = time.monotonic() + 5.0
        while any(exists(p) for p in self.seen) and time.monotonic() < deadline:
            time.sleep(0.01)
        if any(exists(p) for p in self.seen) or self.proc.poll() is None:
            clean = False
        self.kill()
        self.port_file.unlink(missing_ok=True)
        return clean and self.proc.returncode == 0

    def kill(self) -> None:
        """Kill whatever is left of the daemon's process group; reap it."""
        if self.proc is None:
            return
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------------

class Oracle:
    """Counts operations and the ones that failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def output_problems(roundtrip_ok: bool | None, committed_bits: int,
                    exact: int, tolerance: float) -> list[str]:
    """Why a run's output is wrong: the program's round-trip verifier did
    not pass, or the committed output is larger than the exact
    whole-input tree's by more than the run's tolerance."""
    problems = []
    if roundtrip_ok is not True:
        problems.append(f"round trip not verified (roundtrip_ok={roundtrip_ok})")
    excess = committed_bits / exact - 1.0
    if excess > tolerance:
        problems.append(f"committed output {100 * excess:.3f}% over the exact "
                        f"tree (tolerance {100 * tolerance:.1f}%)")
    return problems


def exact_bits(data: bytes) -> int:
    """Bits of ``data`` under the Huffman tree of its whole histogram."""
    from repro.huffman.histogram import byte_histogram
    from repro.huffman.tree import HuffmanTree

    hist = byte_histogram(data)
    return HuffmanTree.from_histogram(hist).encoded_bits(hist)
