"""Zero-copy shared-memory block transport for the process back-end.

The paper's Cell back-end wins by keeping 4 KB blocks in SPE local stores
and DMA-staging them ahead of execution; the pipe transport instead
re-pickles every ``(fn, inputs)`` payload per task, so one input block's
bytes cross the coordinator→worker pipe once per kernel that touches it.
This module removes the copies:

* :class:`BlockStore` (coordinator side) places each block — input data,
  histograms, committed kernel outputs above ``min_bytes`` — into a named
  ``multiprocessing.shared_memory`` segment **exactly once**, packing many
  blocks per segment with a bump allocator;
* :class:`BlockRef` is the handle that pickles as ``(segment, offset,
  length, ...)`` instead of the bytes themselves — a few hundred bytes on
  the wire regardless of block size;
* :func:`swap_in` transparently resolves refs back into NumPy views (or
  unpickled objects) inside whichever address space runs the task; worker
  processes attach each segment lazily, once, and keep the mapping.

Reclamation is refcounted. Every ref handed out carries counted
references: the pipeline holds a *base* reference per block until the
block's encoding commits, and each speculation version additionally holds
references for the tasks it spawned — released through
``SpecVersion.release_resources`` on commit *and* on rollback, so a
mis-speculated version cannot pin memory. When every block in a sealed
segment reaches zero references the segment is unlinked. The coordinator
keeps its own mapping open until :meth:`BlockStore.close` (existing views
stay valid after an unlink; only the *name* disappears), so a worker that
loses the race — attaches after the unlink — fails with
:class:`~repro.errors.SegmentGone` and the coordinator re-runs the task
inline or reaps it, never corrupting data.

Instrumented on the run's registry: ``shm_segments`` /
``shm_bytes_resident`` gauges, ``shm_blocks_stored`` and
``shm_refs_released{reason=commit|rollback|close}`` counters (the
payload-bytes-avoided counter lives with the process executor, which is
the layer that knows what would otherwise have crossed the pipe).
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.errors import SegmentGone, TransportError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "BlockRef",
    "BlockStore",
    "SegmentGone",
    "detach_all",
    "iter_refs",
    "materialize_segment",
    "read_block",
    "referenced_bytes",
    "release_segment",
    "resolve",
    "segment_size",
    "swap_in",
    "write_block",
]

#: Pickle protocol for objects stored as pickled segments.
_PROTOCOL = pickle.HIGHEST_PROTOCOL

_store_seq = itertools.count()
_segment_seq = itertools.count()


class BlockRef:
    """A picklable handle to one block inside a shared-memory segment.

    ``kind`` selects the resolution: ``"ndarray"`` refs resolve to a
    read-only NumPy view straight into the segment (zero copy);
    ``"pickle"`` refs resolve by unpickling the stored bytes (cached per
    location, so a tree referenced by 64 encode tasks deserialises once
    per address space).
    """

    __slots__ = ("segment", "offset", "length", "kind", "dtype", "shape")

    def __init__(self, segment: str, offset: int, length: int,
                 kind: str = "ndarray", dtype: str = "uint8",
                 shape: tuple[int, ...] = ()) -> None:
        self.segment = segment
        self.offset = offset
        self.length = length
        self.kind = kind
        self.dtype = dtype
        self.shape = tuple(shape)

    def __reduce__(self):
        return (BlockRef, (self.segment, self.offset, self.length,
                           self.kind, self.dtype, self.shape))

    @property
    def key(self) -> tuple[str, int]:
        """Identity of the stored block: ``(segment, offset)``."""
        return (self.segment, self.offset)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BlockRef)
                and self.key == other.key and self.length == other.length)

    def __hash__(self) -> int:
        return hash((self.segment, self.offset, self.length))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<BlockRef {self.segment}+{self.offset} "
                f"{self.length}B {self.kind}>")


# ---------------------------------------------------------------------------
# Per-process segment cache.
#
# One mapping per segment per address space, however many refs point into
# it. The coordinator's BlockStore registers segments here at creation, so
# resolving locally (threads / sim / inline fallback) never re-attaches;
# worker processes attach lazily on first resolve.
# ---------------------------------------------------------------------------

_cache_lock = threading.Lock()
_segments: dict[str, shared_memory.SharedMemory] = {}
_attached: set[str] = set()  # names this process attached (vs created)
_objects: dict[tuple[str, int], Any] = {}  # resolved "pickle"-kind blocks
#: Unmapped-but-unclosable mappings (live views exported). Kept referenced
#: so SharedMemory.__del__ never runs against exported pointers.
_zombies: list[shared_memory.SharedMemory] = []


def _segment_for(name: str) -> shared_memory.SharedMemory:
    with _cache_lock:
        seg = _segments.get(name)
        if seg is not None:
            return seg
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise SegmentGone(
            f"shared-memory segment {name!r} is gone (reclaimed after "
            "commit/rollback before this reference resolved)"
        ) from None
    with _cache_lock:
        # Lost a race with another resolver: keep the first mapping.
        existing = _segments.get(name)
        if existing is not None:
            seg.close()
            return existing
        _segments[name] = seg
        _attached.add(name)
    return seg


def resolve(ref: BlockRef) -> Any:
    """Materialise a :class:`BlockRef` in the calling address space.

    Raises :class:`~repro.errors.SegmentGone` when the segment no longer
    exists (it was reclaimed — only possible for refs of dead versions).
    """
    if ref.kind == "pickle":
        with _cache_lock:
            obj = _objects.get(ref.key)
        if obj is not None:
            return obj
    seg = _segment_for(ref.segment)
    raw = seg.buf[ref.offset:ref.offset + ref.length]
    if ref.kind == "pickle":
        obj = pickle.loads(bytes(raw))
        with _cache_lock:
            _objects[ref.key] = obj
        return obj
    view = np.frombuffer(seg.buf, dtype=np.dtype(ref.dtype),
                         count=int(np.prod(ref.shape)) if ref.shape else
                         ref.length // np.dtype(ref.dtype).itemsize,
                         offset=ref.offset)
    if ref.shape:
        view = view.reshape(ref.shape)
    view.flags.writeable = False  # kernels must treat shared inputs as const
    return view


def detach_all() -> int:
    """Close every segment mapping this process *attached* (worker-side).

    Returns the number of mappings closed. Mappings with live exported
    NumPy views cannot be closed (``BufferError``) and are skipped — the
    OS reclaims them with the process.
    """
    closed = 0
    with _cache_lock:
        names = list(_attached)
        for name in names:
            seg = _segments.get(name)
            if seg is None:
                _attached.discard(name)
                continue
            try:
                seg.close()
            except BufferError:  # pragma: no cover - live views exported
                continue
            closed += 1
            _segments.pop(name, None)
            _attached.discard(name)
        _objects.clear()
    return closed


# ---------------------------------------------------------------------------
# Remote materialisation: the dist back-end's chunked-stream transport
# lands block bytes here, keyed through the same (segment, offset)
# vocabulary BlockRef already speaks — a remote worker then resolves an
# unmodified BlockRef against the materialised copy.
# ---------------------------------------------------------------------------


def segment_size(name: str) -> int:
    """Byte size of a segment known to this process (the push header)."""
    with _cache_lock:
        seg = _segments.get(name)
    if seg is None:
        raise SegmentGone(f"segment {name!r} is not mapped in this process")
    return seg.size


def materialize_segment(name: str, size: int) -> bool:
    """Ensure segment ``name`` exists in this address space.

    Attach when the name already resolves (the pool shares the
    coordinator's host — zero-copy fast path); otherwise create it with
    ``size`` bytes so pushed block chunks have somewhere to land.
    Returns True when the segment was created here — the caller owns
    unlinking it (see :func:`release_segment`).
    """
    with _cache_lock:
        if name in _segments:
            return False
    try:
        _segment_for(name)
        return False
    except SegmentGone:
        pass
    seg = shared_memory.SharedMemory(name=name, create=True, size=size)
    with _cache_lock:
        existing = _segments.get(name)
        if existing is not None:  # pragma: no cover - creation race
            seg.close()
            seg.unlink()
            return False
        _segments[name] = seg
    return True


def read_block(segment: str, offset: int, length: int) -> bytes:
    """Raw bytes of one block — what the coordinator pushes for a ref."""
    seg = _segment_for(segment)
    if offset < 0 or offset + length > seg.size:
        raise SegmentGone(
            f"block [{offset}, {offset + length}) outside segment "
            f"{segment!r} ({seg.size} B)")
    return bytes(seg.buf[offset:offset + length])


def write_block(segment: str, offset: int, data: bytes) -> None:
    """Copy one pushed chunk into a materialised segment at ``offset``."""
    seg = _segment_for(segment)
    if offset < 0 or offset + len(data) > seg.size:
        raise SegmentGone(
            f"chunk [{offset}, {offset + len(data)}) outside segment "
            f"{segment!r} ({seg.size} B)")
    seg.buf[offset:offset + len(data)] = data


def release_segment(name: str, *, unlink: bool = False) -> None:
    """Drop this process's mapping of ``name``; optionally unlink it.

    The dist pool calls this at session teardown for every segment it
    materialised (``unlink=True`` for created copies, False for same-host
    attachments). Unknown names are tolerated no-ops.
    """
    with _cache_lock:
        seg = _segments.pop(name, None)
        was_attached = name in _attached
        _attached.discard(name)
        for key in [k for k in _objects if k[0] == name]:
            del _objects[key]
    if seg is None:
        return
    try:
        seg.close()
    except BufferError:  # pragma: no cover - live views exported
        _zombies.append(seg)
        return
    if unlink:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    elif was_attached:
        # CPython < 3.13 registers attached segments with the resource
        # tracker as if this process owned them; drop the bogus claim so
        # the owner's unlink doesn't trigger a leak warning at our exit.
        try:
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker already gone
            pass


# ---------------------------------------------------------------------------
# Payload walking: find / swap refs in (fn, inputs) structures.
# ---------------------------------------------------------------------------

def iter_refs(obj: Any) -> Iterator[BlockRef]:
    """Yield every :class:`BlockRef` reachable in a payload structure.

    Walks the same shapes tasks are built from: dict / list / tuple
    containers and ``functools.partial`` argument chains.
    """
    if isinstance(obj, BlockRef):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from iter_refs(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from iter_refs(v)
    elif hasattr(obj, "func") and hasattr(obj, "args") and hasattr(obj, "keywords"):
        yield from iter_refs(obj.args)
        yield from iter_refs(obj.keywords or {})


def referenced_bytes(obj: Any) -> int:
    """Total bytes of shared-memory data a payload structure references.

    This is what the process back-end's budget check must count: the
    pickled handle is a few hundred bytes however big the block is.
    """
    return sum(ref.length for ref in iter_refs(obj))


def swap_in(obj: Any) -> Any:
    """Replace every :class:`BlockRef` in a payload structure with its data.

    Returns the original object untouched (no rebuild) when it contains no
    refs; containers and partials are rebuilt only along ref-carrying
    paths. Raises :class:`~repro.errors.SegmentGone` when a segment has
    been reclaimed.
    """
    if isinstance(obj, BlockRef):
        return resolve(obj)
    if isinstance(obj, dict):
        out, changed = {}, False
        for k, v in obj.items():
            nv = swap_in(v)
            changed = changed or nv is not v
            out[k] = nv
        return out if changed else obj
    if isinstance(obj, (list, tuple)):
        swapped = [swap_in(v) for v in obj]
        if all(nv is v for nv, v in zip(swapped, obj)):
            return obj
        return type(obj)(swapped) if isinstance(obj, tuple) else swapped
    if hasattr(obj, "func") and hasattr(obj, "args") and hasattr(obj, "keywords"):
        args = tuple(swap_in(a) for a in obj.args)
        kw = {k: swap_in(v) for k, v in (obj.keywords or {}).items()}
        if all(na is a for na, a in zip(args, obj.args)) and all(
            kw[k] is v for k, v in (obj.keywords or {}).items()
        ):
            return obj
        from functools import partial
        return partial(obj.func, *args, **kw)
    return obj


# ---------------------------------------------------------------------------
# The coordinator-side store.
# ---------------------------------------------------------------------------

class _Segment:
    """One shared-memory arena: bump-allocated, refcount-reclaimed."""

    __slots__ = ("shm", "capacity", "used", "sealed", "live_blocks", "unlinked")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.capacity = shm.size
        self.used = 0
        self.sealed = False
        self.live_blocks = 0
        self.unlinked = False


class BlockStore:
    """Coordinator-side arena of shared-memory blocks with refcounts.

    Args:
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry` to record
            ``shm_*`` instruments on (optional).
        min_bytes: objects smaller than this are not worth a segment slot;
            :meth:`put` returns ``None`` for them and the caller ships the
            value inline as before.
        segment_bytes: arena capacity. Blocks larger than this get a
            dedicated segment of exactly their size.

    Thread-safety: all mutation happens under one lock; the runtime calls
    in from the coordinator threads only.
    """

    def __init__(self, *, metrics: Any | None = None,
                 events: Any | None = None,
                 min_bytes: int = 1024,
                 segment_bytes: int = 1 << 20) -> None:
        if segment_bytes < 1 or min_bytes < 0:
            raise TransportError("segment_bytes must be >= 1, min_bytes >= 0")
        self.min_bytes = min_bytes
        self.segment_bytes = segment_bytes
        self._lock = threading.Lock()
        self._prefix = f"repro-{os.getpid()}-{next(_store_seq)}"
        self._segs: dict[str, _Segment] = {}
        self._open: _Segment | None = None  # current bump-allocation arena
        self._refcounts: dict[tuple[str, int], int] = {}
        self._ref_meta: dict[tuple[str, int], BlockRef] = {}
        #: Blocks force-released by crash recovery (quarantined payloads).
        #: The version machinery still holds logical references to them and
        #: will release/acquire later as its cleanup runs its course; those
        #: calls become tolerated no-ops instead of double-release errors.
        self._forfeited: set[tuple[str, int]] = set()
        self._closed = False
        #: flight recorder (see repro.obs.events): ref releases emit
        #: ``shm_release`` events whose ambient cause scope ties them into
        #: rollback / commit cascades; a disabled log when none is given,
        #: so the release counters below still fold.
        self._events = events if events is not None else EventLog(enabled=False)
        self.segments_reclaimed = 0
        # A store without a registry counts into a private one.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._g_segments = metrics.gauge(
            "shm_segments", "shared-memory segments currently existing")
        self._g_resident = metrics.gauge(
            "shm_bytes_resident", "bytes held in live shared-memory segments")
        self._c_blocks = metrics.counter(
            "shm_blocks_stored", "blocks placed into shared memory")
        released = metrics.counter(
            "shm_refs_released",
            "shared-memory block references released",
            labelnames=("reason",))
        bytes_released = metrics.counter(
            "shm_bytes_released",
            "bytes of pinned shared-memory blocks whose references "
            "were released (block length × refs dropped)",
            labelnames=("reason",))
        own = self._prefix + "-"  # this store's segment names

        def folded(event: dict[str, Any]) -> None:
            if event["segment"].startswith(own):
                released.labels(reason=event["reason"]).inc(event["refs"])
                bytes_released.labels(reason=event["reason"]).inc(
                    event["nbytes"])

        self._events.fold("shm_release", folded)

    # -- allocation ----------------------------------------------------
    def _new_segment(self, capacity: int) -> _Segment:
        name = f"{self._prefix}-{next(_segment_seq)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=capacity)
        seg = _Segment(shm)
        self._segs[shm.name] = seg
        # Register in the process-local cache so local resolve is free.
        with _cache_lock:
            _segments[shm.name] = shm
        self._g_segments.inc()
        self._g_resident.inc(capacity)
        return seg

    def _alloc(self, nbytes: int) -> tuple[_Segment, int]:
        if nbytes > self.segment_bytes:
            seg = self._new_segment(nbytes)
            seg.sealed = True  # dedicated segment: nothing else fits
            seg.used = nbytes
            return seg, 0
        seg = self._open
        if seg is None or seg.capacity - seg.used < nbytes:
            if seg is not None:
                seg.sealed = True
                self._maybe_reclaim(seg)
            seg = self._open = self._new_segment(self.segment_bytes)
        offset = seg.used
        seg.used += nbytes
        return seg, offset

    # -- public API ----------------------------------------------------
    def put(self, value: Any, *, refs: int = 1) -> BlockRef | None:
        """Place a value into shared memory once; returns its ref (or
        ``None`` when the value is below ``min_bytes`` — ship it inline).

        ``refs`` is the initial reference count the caller now owns.
        NumPy arrays are stored raw (resolve = zero-copy view); anything
        else is stored pickled (resolve = cached unpickle).
        """
        if self._closed:
            raise TransportError("BlockStore is closed")
        if refs < 1:
            raise TransportError("initial refs must be >= 1")
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            raw = arr.view(np.uint8).reshape(-1).data
            kind, dtype, shape = "ndarray", arr.dtype.str, arr.shape
        else:
            raw = pickle.dumps(value, protocol=_PROTOCOL)
            kind, dtype, shape = "pickle", "uint8", ()
        nbytes = len(raw)
        if nbytes < self.min_bytes:
            return None
        with self._lock:
            seg, offset = self._alloc(nbytes)
            seg.shm.buf[offset:offset + nbytes] = raw
            seg.live_blocks += 1
            ref = BlockRef(seg.shm.name, offset, nbytes, kind, dtype, shape)
            self._refcounts[ref.key] = refs
            self._ref_meta[ref.key] = ref
        if kind == "pickle":
            with _cache_lock:
                _objects[ref.key] = value  # prime the local resolve cache
        self._c_blocks.inc()
        return ref

    def acquire(self, ref: BlockRef, n: int = 1) -> BlockRef:
        """Take ``n`` additional references on a stored block."""
        with self._lock:
            if ref.key not in self._refcounts:
                if ref.key in self._forfeited:
                    return ref  # crash-forfeited: late acquires are no-ops
                raise TransportError(f"acquire on unknown/reclaimed block {ref!r}")
            self._refcounts[ref.key] += n
        return ref

    def release(self, ref: BlockRef, *, reason: str = "commit", n: int = 1) -> None:
        """Drop ``n`` references; reclaims the segment at zero.

        ``reason`` feeds the ``shm_refs_released{reason=...}`` counter —
        ``"commit"`` for the authoritative path, ``"rollback"`` for
        mis-speculated versions, ``"close"`` for end-of-run sweeps.
        """
        with self._lock:
            count = self._refcounts.get(ref.key)
            if count is None:
                if ref.key in self._forfeited:
                    return  # crash-forfeited: late releases are no-ops
                raise TransportError(
                    f"release of unreferenced block {ref!r} (double release?)")
            if count < n:
                raise TransportError(
                    f"release({n}) exceeds refcount {count} for {ref!r}")
            count -= n
            freed = False
            if count:
                self._refcounts[ref.key] = count
            else:
                del self._refcounts[ref.key]
                del self._ref_meta[ref.key]
                seg = self._segs[ref.segment]
                seg.live_blocks -= 1
                self._maybe_reclaim(seg)
                freed = True
        self._events.emit("shm_release", reason=reason, refs=n,
                          nbytes=ref.length * n, segment=ref.segment,
                          freed=freed or None)

    def release_crashed(self, refs: "Iterable[BlockRef]") -> int:
        """Force-release every outstanding reference on ``refs``.

        Crash-recovery path: a quarantined task's payload pinned these
        blocks for a worker that will never run it, so the pins can never
        be paid back through the normal commit/rollback releases. All
        outstanding references are dropped at once (reclaiming segments
        whose last block this was) and the keys are marked *forfeited*:
        the version machinery's own later ``release``/``acquire`` calls on
        them become tolerated no-ops instead of double-release errors.

        Returns the number of references dropped. Accounted under
        ``shm_refs_released{reason="crash"}`` / ``shm_bytes_released`` and
        one ``shm_release`` event per block (``reason="crash"``), emitted
        under whatever cause scope the caller holds — the crash event, so
        the flight recorder ties the reclamation into the cascade.
        """
        dropped: list[tuple[BlockRef, int]] = []
        with self._lock:
            for ref in refs:
                count = self._refcounts.pop(ref.key, 0)
                if not count:
                    continue
                del self._ref_meta[ref.key]
                self._forfeited.add(ref.key)
                seg = self._segs[ref.segment]
                seg.live_blocks -= 1
                self._maybe_reclaim(seg)
                dropped.append((ref, count))
        for ref, count in dropped:
            self._events.emit("shm_release", reason="crash", refs=count,
                              nbytes=ref.length * count,
                              segment=ref.segment, freed=True)
        return sum(count for _ref, count in dropped)

    def refcount(self, ref: BlockRef) -> int:
        """Current reference count (0 once fully released)."""
        with self._lock:
            return self._refcounts.get(ref.key, 0)

    @property
    def live_refs(self) -> int:
        """Total outstanding references across all blocks."""
        with self._lock:
            return sum(self._refcounts.values())

    @property
    def live_segments(self) -> int:
        """Segments not yet unlinked."""
        with self._lock:
            return sum(1 for s in self._segs.values() if not s.unlinked)

    def _maybe_reclaim(self, seg: _Segment) -> None:
        # Caller holds self._lock. Unlink removes the *name*: our own
        # mapping (and any worker's existing mapping) stays valid; only a
        # late attach fails, which the executor handles via SegmentGone.
        if seg.unlinked or not seg.sealed or seg.live_blocks > 0:
            return
        try:
            seg.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - lost an unlink race
            pass
        seg.unlinked = True
        self.segments_reclaimed += 1
        self._g_segments.dec()
        self._g_resident.dec(seg.capacity)

    def close(self, *, reason: str = "close") -> None:
        """Release every outstanding ref, unlink and unmap everything.

        Idempotent. After close the store cannot allocate; local views
        created earlier stay valid until the arrays are garbage collected
        (the OS frees the pages when the last mapping goes).
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            leftovers = list(self._ref_meta.values())
        for ref in leftovers:
            count = self.refcount(ref)
            if count:
                self.release(ref, reason=reason, n=count)
        with self._lock:
            if self._open is not None:
                self._open.sealed = True
                self._maybe_reclaim(self._open)
                self._open = None
            for seg in self._segs.values():
                if not seg.unlinked:  # pragma: no cover - defensive
                    try:
                        seg.shm.unlink()
                    except FileNotFoundError:
                        pass
                    seg.unlinked = True
                    self.segments_reclaimed += 1
                    self._g_segments.dec()
                    self._g_resident.dec(seg.capacity)
                with _cache_lock:
                    _segments.pop(seg.shm.name, None)
                    _objects_keys = [k for k in _objects
                                     if k[0] == seg.shm.name]
                    for k in _objects_keys:
                        del _objects[k]
                try:
                    seg.shm.close()
                except BufferError:
                    # Live NumPy views still point into the mapping (e.g.
                    # the pipeline's result arrays). The mapping lives on
                    # until they are collected; the name is already gone.
                    # Keep the object referenced so its __del__ (which
                    # would re-raise the BufferError as stderr noise) does
                    # not fire while views are alive.
                    _zombies.append(seg.shm)
            self._segs.clear()

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def release_callback(self, ref: BlockRef) -> Callable[[str], None]:
        """A ``release_resources``-shaped callback releasing one ref."""
        def _release(reason: str) -> None:
            self.release(ref, reason=reason)
        return _release
