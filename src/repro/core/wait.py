"""The side-effect barrier: wait buffers for speculative results.

Speculative data arriving at a state-modifying boundary (disk, network) is
buffered until the speculation is validated (§II-A, the hexagon node in the
paper's figures). :class:`WaitBuffer` stores results keyed by speculation
version; a commit flushes one version's entries to the real sink in
deterministic key order, a rollback discards them.

After a commit, the committed version's remaining in-flight results flush
straight through as they arrive — speculative tasks that were still queued
or running at commit time simply continue, their outputs now authoritative.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import SpeculationError
from repro.obs.events import EventLog

__all__ = ["WaitBuffer"]

CommitSink = Callable[[Any, Any, float], None]


def _flush_order(keys: Iterable[Any]) -> list[Any]:
    """Total order for commit flushes.

    Keys compare on their own values whenever the key set is mutually
    comparable — integer block ids flush 0, 1, 2, ..., 10, 11 rather than
    the lexicographic 0, 1, 10, 11, 2 a repr-based sort would produce.
    Mixed-type key sets (no natural total order) fall back to grouping by
    type name and ordering within each group — by value where the group is
    self-comparable, by ``repr`` as the last resort — so the flush order
    stays deterministic and comparable subsets keep their own order.
    """
    try:
        return sorted(keys)
    except TypeError:
        pass
    try:
        return sorted(keys, key=lambda k: (type(k).__name__, k))
    except TypeError:
        return sorted(keys, key=lambda k: (type(k).__name__, repr(k)))


class WaitBuffer:
    """Versioned holding area for speculative outputs.

    Args:
        sink: callable ``(key, value, commit_time)`` invoked when an entry
            becomes authoritative (at commit, or on deposit after commit).
        events: optional flight recorder; deposits, flushes and discards
            emit ``buffer_*`` events (causes follow the ambient scope, so
            a rollback's discards chain under its ``destroy_signal``).
    """

    def __init__(self, sink: CommitSink | None = None,
                 events: EventLog | None = None) -> None:
        self._sink = sink
        self._events = events if events is not None else EventLog(enabled=False)
        self._entries: dict[int, dict[Any, tuple[Any, float]]] = {}
        self._committed_version: int | None = None

    # ------------------------------------------------------------------
    @property
    def committed_version(self) -> int | None:
        return self._committed_version

    def pending(self, version: int) -> int:
        """Number of buffered entries for a version."""
        return len(self._entries.get(version, ()))

    def deposit(self, version: int, key: Any, value: Any, now: float) -> None:
        """Hold a speculative result (or flush it if its version committed)."""
        if version == self._committed_version:
            self._events.emit("buffer_flush", version=version, key=str(key),
                              passthrough=True)
            self._emit(key, value, now)
            return
        self._entries.setdefault(version, {})[key] = (value, now)
        self._events.emit("buffer_deposit", version=version, key=str(key))

    def commit(self, version: int, now: float) -> int:
        """Declare a version valid; flush its entries in key order.

        Returns the number of entries flushed. Only one version may ever
        commit (the paper's single final decision per speculation domain).
        """
        if self._committed_version is not None:
            raise SpeculationError(
                f"version {self._committed_version} already committed"
            )
        self._committed_version = version
        held = self._entries.pop(version, {})
        for key in _flush_order(held):
            value, _deposit_time = held[key]
            self._events.emit("buffer_flush", version=version, key=str(key))
            self._emit(key, value, now)
        return len(held)

    def discard(self, version: int) -> int:
        """Drop a rolled-back version's entries; returns how many."""
        held = self._entries.pop(version, None)
        for key in (held or ()):
            self._events.emit("buffer_discard", version=version, key=str(key))
        return len(held) if held else 0

    def _emit(self, key: Any, value: Any, now: float) -> None:
        if self._sink is not None:
            self._sink(key, value, now)
