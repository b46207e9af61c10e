"""One speculative stream: the plumbing every speculative app shares.

A streaming app has a serial *update chain* (reduces, design iterations,
mini-batch steps) refining a value, and a data-parallel *pass* over its
blocks that needs that value. :class:`SpeculativeStream` turns the pair
into the paper's speculative pipeline (§II-A): it builds the
:class:`~repro.core.wait.WaitBuffer` and the
:class:`~repro.core.manager.SpeculationManager` from the four points,
opens one pass per version (and the natural pass at most once), fans
each ready block out to the live passes, routes every result to the
barrier or straight to the commit sink, and answers which versions are
authoritative. An app supplies only its own parts: the update chain
(which calls :meth:`~SpeculativeStream.offer`), the predictor and
validator, and ``make_pass(value, version)``, which returns the function
spawning one block's tasks under ``value`` (``version`` None: the natural
pass). Those tasks hand their results to :meth:`~SpeculativeStream.deliver`.

Per-block latency is recorded here too (:class:`LatencyCollector`): the
time a block's authoritative result completes minus the time it arrived
(§V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.frequency import SpeculationInterval, VerificationPolicy, get_verification
from repro.core.manager import SpeculationManager
from repro.core.spec import Predictor, SpecVersion, SpeculationSpec, Validator
from repro.core.tolerance import RelativeTolerance
from repro.core.wait import WaitBuffer
from repro.errors import ExperimentError
from repro.sre.runtime import Runtime

__all__ = ["LatencyCollector", "Pass", "SpeculationConfig", "SpeculativeStream",
           "pass_label"]


@dataclass
class SpeculationConfig:
    """The speculation knobs every app takes (§II-B).

    Defaults follow the paper's x86 disk configuration: speculate from
    the first reduce, verify every 8th update, 1 % tolerance.
    """

    speculative: bool = True
    #: speculation step size (0 = speculate on the first partial value).
    step: int = 1
    #: "every_k" / "optimistic" / "full", or a VerificationPolicy instance.
    verification: VerificationPolicy | str = "every_k"
    verify_k: int = 8
    tolerance: float = 0.01

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ExperimentError("step must be >= 0")
        if not (0.0 <= self.tolerance):
            raise ExperimentError("tolerance must be non-negative")

    def resolve_verification(self) -> VerificationPolicy:
        if isinstance(self.verification, VerificationPolicy):
            return self.verification
        return get_verification(self.verification, k=self.verify_k)


class LatencyCollector:
    """Arrival / encode / commit records for one run.

    Latency of block *i* = (completion of *i*'s authoritative encode) −
    (arrival of *i*). A speculative encode is authoritative only if its
    version was eventually committed; rolled-back encodes are real work
    that happened, but the block's processing is complete only once a
    *valid* encoding exists — this is how the paper's rollback plateaus
    (Fig. 7b) appear in the curves. Commit latency (completion measured
    when the result clears the side-effect barrier) is collected alongside
    for the buffering ablation.
    """

    def __init__(self) -> None:
        self._arrivals: dict[int, float] = {}
        self._encodes: dict[int, list[tuple[float, int | None]]] = {}
        self._commits: dict[int, float] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_arrival(self, block: int, time: float) -> None:
        if block in self._arrivals:
            raise ExperimentError(f"block {block} arrived twice")
        self._arrivals[block] = time

    def record_encode(self, block: int, time: float, version: int | None) -> None:
        """An encode of ``block`` completed under speculation ``version``
        (None = the natural, always-valid path)."""
        self._encodes.setdefault(block, []).append((time, version))

    def record_commit(self, block: int, time: float) -> None:
        """Block ``block``'s result cleared the side-effect barrier."""
        self._commits[block] = time

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self._arrivals)

    def arrivals(self) -> np.ndarray:
        """Arrival times indexed by block id (dense, block order)."""
        return self._series(self._arrivals)

    def arrival_time(self, block: int) -> float:
        """Arrival time of one block (raises if it never arrived)."""
        if block not in self._arrivals:
            raise ExperimentError(f"block {block} has no recorded arrival")
        return self._arrivals[block]

    def encode_attempts(self, block: int) -> list[tuple[float, int | None]]:
        """All encodes of one block, valid or not (rollback diagnostics)."""
        return list(self._encodes.get(block, ()))

    def wasted_encodes(self, valid_versions: Iterable[int | None]) -> int:
        """Number of encode completions that were later rolled back."""
        valid = set(valid_versions)
        return sum(
            1
            for attempts in self._encodes.values()
            for (_, v) in attempts
            if v not in valid
        )

    def completions(self, valid_versions: Iterable[int | None]) -> np.ndarray:
        """Authoritative completion time per block (block order).

        Each block must have exactly one valid encode — more means two
        authoritative paths raced (a bug), none means the run lost a block.
        """
        valid = set(valid_versions)
        out = np.empty(len(self._arrivals), dtype=np.float64)
        for i, block in enumerate(sorted(self._arrivals)):
            hits = [t for (t, v) in self._encodes.get(block, ()) if v in valid]
            if len(hits) != 1:
                raise ExperimentError(
                    f"block {block} has {len(hits)} valid encodes (want exactly 1)"
                )
            out[i] = hits[0]
        return out

    def latencies(self, valid_versions: Iterable[int | None]) -> np.ndarray:
        """Per-block latency, in block order (the paper's y-axis)."""
        return self.completions(valid_versions) - self.arrivals()

    def commit_latencies(self) -> np.ndarray:
        """Latency to the commit point (barrier clearance), block order."""
        arr = self.arrivals()
        out = np.empty_like(arr)
        for i, block in enumerate(sorted(self._arrivals)):
            if block not in self._commits:
                raise ExperimentError(f"block {block} never committed")
            out[i] = self._commits[block]
        return out - arr

    def _series(self, mapping: dict[int, float]) -> np.ndarray:
        return np.array([mapping[b] for b in sorted(mapping)], dtype=np.float64)


def pass_label(version: SpecVersion | None) -> str:
    """The task-name segment of a pass: ``v<vid>``, or ``nat``."""
    return f"v{version.vid}" if version is not None else "nat"


#: make_pass(value, version) -> on_block(index): spawns one block's tasks
PassFactory = Callable[[Any, SpecVersion | None], Callable[[int], None]]


class Pass:
    """One version's pass over the stream's blocks (``version`` None: the
    natural, authoritative pass). Spawns each ready block's tasks once,
    and none once its version is rolled back."""

    def __init__(self, value: Any, version: SpecVersion | None,
                 on_block: Callable[[int], None]) -> None:
        self.value = value
        self.version = version
        self.on_block = on_block
        self._made: set[int] = set()
        self._bootstrapped = False

    @property
    def dead(self) -> bool:
        return self.version is not None and not self.version.active

    def bootstrap(self, ready: Iterable[int]) -> None:
        """Absorb every block that was ready before this pass opened."""
        if self._bootstrapped:
            raise ExperimentError("pass bootstrapped twice")
        self._bootstrapped = True
        for index in sorted(ready):
            self.block_ready(index)

    def block_ready(self, index: int) -> None:
        if self.dead or index in self._made:
            return
        self._made.add(index)
        self.on_block(index)


class SpeculativeStream:
    """One speculation domain over a stream of ``n_blocks`` blocks.

    With ``config.speculative`` off there is no barrier and no manager:
    the final update opens the natural pass and every result commits
    as it lands. ``on_commit(block, now)`` runs when a block's result
    becomes authoritative (huffman releases the block's shm ref there).
    """

    def __init__(
        self,
        runtime: Runtime,
        name: str,
        config: SpeculationConfig,
        n_blocks: int,
        *,
        predictor: Predictor,
        validator: Validator,
        make_pass: PassFactory,
        on_commit: Callable[[int, float], None] | None = None,
        check_cost_hint: dict[str, float] | None = None,
    ) -> None:
        if n_blocks < 1:
            raise ExperimentError("need at least one block")
        self.runtime = runtime
        self.config = config
        self.n_blocks = n_blocks
        self.collector = LatencyCollector()
        self.blocks: dict[int, Any] = {}
        #: authoritative result per block, filled by the commit sink.
        self.committed: dict[int, Any] = {}
        self._make_pass = make_pass
        self._on_commit = on_commit
        self._passes: list[Pass] = []
        self._ready: set[int] = set()
        self._natural: Pass | None = None

        self.barrier: WaitBuffer | None = None
        self.manager: SpeculationManager | None = None
        if config.speculative:
            self.barrier = WaitBuffer(sink=self._commit, events=runtime.events)
            spec = SpeculationSpec(
                name, predictor=predictor, validator=validator,
                launch=self._launch_speculative, recompute=self.launch_natural,
                barrier=self.barrier,
                tolerance=RelativeTolerance(config.tolerance),
                interval=SpeculationInterval(config.step),
                verification=config.resolve_verification())
            if check_cost_hint is not None:
                spec.check_cost_hint = check_cost_hint
            self.manager = SpeculationManager(runtime, spec)

    # ------------------------------------------------------------------
    # input
    # ------------------------------------------------------------------
    def arrive(self, index: int, block: Any) -> None:
        """Record block ``index``'s arrival (each block arrives once)."""
        if not (0 <= index < self.n_blocks):
            raise ExperimentError(f"block index {index} out of range")
        if index in self.blocks:
            raise ExperimentError(f"block {index} fed twice")
        self.blocks[index] = block
        self.collector.record_arrival(index, self.runtime.now)

    def offer(self, index: int, value: Any, is_final: bool = False) -> None:
        """One update of the chain; without speculation only the final
        one matters, and it opens the natural pass."""
        if self.manager is not None:
            self.manager.offer_update(index, value, is_final=is_final)
        elif is_final:
            self.launch_natural(value)

    def block_ready(self, index: int) -> None:
        """Block ``index`` is ready for the passes: spawn its tasks in
        every live pass, dropping the dead ones."""
        self._ready.add(index)
        self._passes = [p for p in self._passes if not p.dead]
        for p in tuple(self._passes):
            p.block_ready(index)

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _open(self, value: Any, version: SpecVersion | None) -> Pass:
        p = Pass(value, version, self._make_pass(value, version))
        self._passes.append(p)
        p.bootstrap(self._ready)
        return p

    def _launch_speculative(self, version: SpecVersion) -> None:
        self._open(version.value, version)

    def launch_natural(self, value: Any) -> Pass:
        """Open the authoritative pass under the true value."""
        if self._natural is not None:
            raise ExperimentError("natural pass launched twice")
        self._natural = self._open(value, None)
        return self._natural

    def deliver(self, version: SpecVersion | None, block: int, value: Any) -> None:
        """A pass finished ``block``: record it, then commit it (natural
        pass) or hold it at the barrier (speculative pass)."""
        now = self.runtime.now
        if version is None:
            self.collector.record_encode(block, now, None)
            self._commit(block, value, now)
        else:
            self.collector.record_encode(block, now, version.vid)
            assert self.barrier is not None
            self.barrier.deposit(version.vid, block, value, now)

    def _commit(self, block: int, value: Any, now: float) -> None:
        """A block's result became authoritative (the Store node)."""
        if self._on_commit is not None:
            self._on_commit(block, now)
        self.collector.record_commit(block, now)
        self.committed[block] = value

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def outcome(self) -> str:
        """``"non_speculative"``, ``"commit"`` or ``"recompute"``."""
        if self.manager is None:
            return "non_speculative"
        if self.manager.outcome is None:
            raise ExperimentError("run not finished")
        return self.manager.outcome

    def valid_versions(self) -> set[int | None]:
        """Versions whose results are authoritative (None: natural)."""
        if self.outcome() == "commit":
            assert self.manager is not None
            return {next(v.vid for v in self.manager.versions if v.committed)}
        return {None}

    @property
    def committed_value(self) -> Any:
        """The value the authoritative output was computed with."""
        if self.manager is not None and self.manager.outcome == "commit":
            return next(v for v in self.manager.versions if v.committed).value
        if self._natural is None:
            raise ExperimentError("run not finished: no authoritative value")
        return self._natural.value
