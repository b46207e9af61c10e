"""Per-layer numbers: micro-legs timed from outside the program, and the
layer counters a traced pass reads from the registry the program exports.

Every function here calls the program's public functions only:
``repro.huffman`` kernels, ``Runtime``/``make_executor`` with no-op
tasks, ``BlockStore.put`` and ``shm.swap_in``, and ``send_frame`` /
``recv_frame`` with ``encode_blob`` payloads.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from perfbench.harness import (WORKERS, Spans, clock, counter, hist_count,
                               hist_quantile, hist_sum, median)

KB = 1024
MIB = 1 << 20
MB = 1e6


def _chunks(data: bytes, size: int, limit: int) -> list[bytes]:
    out = [data[i:i + size] for i in range(0, len(data), size)]
    return [c for c in out if len(c) == size][:limit]


def _reps(data: bytes, unit: int, cap: int) -> int:
    """``cap`` repetitions, or one per ``unit`` bytes of a shorter input."""
    return max(1, min(cap, len(data) // unit))


def kernel_legs(data: bytes, spans: Spans) -> dict[str, float]:
    """Count, tree, encode and decode kernels over the workload's bytes,
    cut into 4 KB and 128 KB blocks (at most 128 and 4 of them, decoding
    the first 16 and 1)."""
    from repro.huffman.codec import decode_stream, encode_block
    from repro.huffman.histogram import byte_histogram
    from repro.huffman.tree import HuffmanTree

    tree = HuffmanTree.from_histogram(byte_histogram(data))
    out: dict[str, float] = {}
    tree_us: list[float] = []
    with spans.span("kernels") as parent:
        for label, size, n, n_dec in (("4k", 4 * KB, 128, 16),
                                      ("128k", 128 * KB, 4, 1)):
            blocks = _chunks(data, size, n)
            if not blocks:
                raise ValueError(f"workload input is shorter than one "
                                 f"{label} block")
            nbytes = sum(len(b) for b in blocks)
            t0 = clock()
            hists = []
            for b in blocks:
                t = clock()
                hists.append(byte_histogram(b))
                spans.add("huffman.count", t, clock(), parent, block=label)
            out[f"huffman.count_mb_s.{label}"] = nbytes / MB / (clock() - t0)
            for h in hists:
                t = clock()
                HuffmanTree.from_histogram(h)
                t1 = clock()
                tree_us.append((t1 - t) * 1e6)
                spans.add("huffman.tree", t, t1, parent, block=label)
            t0 = clock()
            encoded = []
            for b in blocks:
                t = clock()
                encoded.append(encode_block(b, tree))
                spans.add("huffman.encode", t, clock(), parent, block=label)
            out[f"huffman.encode_mb_s.{label}"] = nbytes / MB / (clock() - t0)
            t0 = clock()
            for b, (packed, nbits) in zip(blocks[:n_dec], encoded[:n_dec]):
                t = clock()
                if decode_stream(packed, nbits, tree) != b:
                    raise AssertionError("kernel leg: decode != input")
                spans.add("huffman.decode", t, clock(), parent, block=label)
            dec_bytes = sum(len(b) for b in blocks[:n_dec])
            out[f"huffman.decode_mb_s.{label}"] = dec_bytes / MB / (clock() - t0)
    out["huffman.tree_us"] = median(tree_us)
    return out


def noop_task_legs(spans: Spans, n_tasks: int) -> dict[str, float]:
    """µs per no-op task through the runtime on sim, threads and procs:
    scheduling plus dispatch, with executor start and stop outside the
    timed interval."""
    from repro.sre.registry import make_executor
    from repro.sre.runtime import Runtime
    from repro.sre.task import Task

    out: dict[str, float] = {}
    with spans.span("noop_tasks") as parent:
        for name in ("sim", "threads", "procs"):
            runtime = Runtime(track_memory=False)
            done: list[object] = []
            # ``dict`` is a picklable builtin returning {}: a task body that
            # does no work and has no outputs, so only the runtime's cost shows.
            tasks = [Task(f"noop:{i}", dict, kind="noop") for i in range(n_tasks)]
            for task in tasks:
                task.on_complete.append(lambda t, o: done.append(t))
            if name == "sim":
                ex = make_executor("sim", runtime, platform="x86",
                                   workers=WORKERS)
                t0 = clock()
                for task in tasks:
                    runtime.add_task(task)
                ex.run()
                t1 = clock()
            else:
                ex = make_executor(name, runtime, workers=WORKERS)
                ex.start()
                try:
                    t0 = clock()
                    for task in tasks:
                        ex.submit(runtime.add_task, task)
                    ex.close_input()
                    if not ex.wait_idle(timeout=120.0):
                        raise RuntimeError(f"{name}: no-op tasks did not drain")
                    t1 = clock()
                finally:
                    ex.shutdown()
                ex.raise_errors()
            if len(done) != n_tasks:
                raise AssertionError(f"{name}: {len(done)}/{n_tasks} no-op "
                                     "tasks completed")
            spans.add(f"sre.noop.{name}", t0, t1, parent, tasks=n_tasks)
            out[f"sre.noop_task_us.{name}"] = (t1 - t0) * 1e6 / n_tasks
    return out


def shm_legs(data: bytes, spans: Spans) -> dict[str, float]:
    """µs per ``BlockStore.put`` of a 4 KB block (at most 256 of them)
    and per ``shm.swap_in`` of its ref; the store is closed (segments
    unlinked) afterwards."""
    from repro.sre import shm

    blocks = [np.frombuffer(b, dtype=np.uint8) for b in _chunks(data, 4 * KB, 256)]
    put_us: list[float] = []
    swap_us: list[float] = []
    store = shm.BlockStore()
    try:
        with spans.span("shm") as parent:
            refs = []
            for arr in blocks:
                t = clock()
                refs.append(store.put(arr))
                t1 = clock()
                put_us.append((t1 - t) * 1e6)
                spans.add("shm.put", t, t1, parent)
            for ref, arr in zip(refs, blocks):
                t = clock()
                view = shm.swap_in(ref)
                t1 = clock()
                swap_us.append((t1 - t) * 1e6)
                spans.add("shm.swap_in", t, t1, parent)
                if not np.array_equal(view, arr):
                    raise AssertionError("shm leg: swap_in != stored block")
    finally:
        store.close()
    return {"shm.put_us": median(put_us), "shm.swap_in_us": median(swap_us)}


def _echo(sock: socket.socket) -> None:
    """Wire peer: echo 4 KB frames back; ack 1 MiB frames after decoding."""
    from repro.serve.wire import decode_blob, recv_frame, send_frame

    with sock:
        while True:
            frame = recv_frame(sock)
            if frame is None:
                return
            if frame["op"] == "echo":
                send_frame(sock, frame)
            else:
                send_frame(sock, {"op": "ack",
                                  "n": len(decode_blob(frame["data_b64"]))})


def wire_legs(data: bytes, spans: Spans) -> dict[str, float]:
    """Frame round trip with a 4 KB ``encode_blob`` payload, and one-way
    MB/s of 1 MiB payload frames, over a socketpair to an echo thread."""
    from repro.serve.wire import decode_blob, encode_blob, recv_frame, send_frame

    n_rtt = _reps(data, 2 * KB, 300)
    n_bulk = _reps(data, 128 * KB, 8)

    small = data[:4 * KB]
    big = (data * (MIB // len(data) + 1))[:MIB]
    a, b = socket.socketpair()
    peer = threading.Thread(target=_echo, args=(b,), daemon=True)
    peer.start()
    rtt_us: list[float] = []
    try:
        with a, spans.span("wire") as parent:
            for _ in range(n_rtt):
                t = clock()
                send_frame(a, {"op": "echo", "data_b64": encode_blob(small)})
                if decode_blob(recv_frame(a)["data_b64"]) != small:
                    raise AssertionError("wire leg: echo != payload")
                t1 = clock()
                rtt_us.append((t1 - t) * 1e6)
                spans.add("wire.rtt_4k", t, t1, parent)
            t0 = clock()
            for _ in range(n_bulk):
                t = clock()
                send_frame(a, {"op": "bulk", "data_b64": encode_blob(big)})
                if recv_frame(a)["n"] != len(big):
                    raise AssertionError("wire leg: bulk size mismatch")
                spans.add("wire.bulk_1m", t, clock(), parent)
            bulk_s = clock() - t0
    finally:
        peer.join(timeout=10.0)
    return {"wire.frame_rtt_us_4k": median(rtt_us),
            "wire.frame_mb_s_1m": n_bulk * len(big) / MB / bulk_s}


def micro_legs(data: bytes, spans: Spans) -> dict[str, float]:
    """Every micro-leg. Repetitions are capped and otherwise scale with
    the input, so a short input makes short legs."""
    return {**kernel_legs(data, spans),
            **noop_task_legs(spans, _reps(data, KB, 1000)),
            **shm_legs(data, spans), **wire_legs(data, spans)}


def registry_layers(snap: dict, n_blocks: int) -> dict[str, float]:
    """Runtime, transport and speculation counters from a run's registry
    snapshot."""
    completed = counter(snap, "sre_tasks_completed")
    encodes = hist_count(snap, "sre_task_us", kind="encode")
    return {
        "sre.dispatch_us_per_task": (hist_sum(snap, "sre_task_us")
                                     - hist_sum(snap, "exec_task_wall_us"))
                                    / max(1.0, completed),
        "sre.task_body_s.count": hist_sum(snap, "exec_task_wall_us",
                                          kind="count") / 1e6,
        "sre.task_body_s.encode": hist_sum(snap, "exec_task_wall_us",
                                           kind="encode") / 1e6,
        "sre.tasks_completed": completed,
        "sre.tasks_aborted": counter(snap, "sre_tasks_aborted"),
        "shm.blocks_stored": counter(snap, "shm_blocks_stored"),
        "shm.rollback_bytes_released": counter(snap, "shm_bytes_released",
                                               reason="rollback"),
        "dist.abort_rtt_us_p50": hist_quantile(snap, "dist_abort_rtt_us", 0.5),
        "core.checks": counter(snap, "spec_checks"),
        "core.checks_failed": counter(snap, "spec_checks", verdict="fail"),
        "core.rollbacks": counter(snap, "spec_rollbacks"),
        "core.wasted_encodes": encodes - n_blocks,
        "core.useful_encode_ratio": n_blocks / encodes if encodes else 0.0,
    }
