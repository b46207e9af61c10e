"""Deterministic replay & time-travel debugging from the flight recorder.

A recorded ``*.events.jsonl`` log (docs/flight-recorder.md) is a causally
closed record of every *decision* the speculation protocol took: where it
speculated, which checks it launched, every verdict with its measured
error, every rollback and the final commit/recompute call. This module
closes the loop (ROADMAP item 4): it parses that log back into a
:class:`DecisionSchedule` and re-executes the run **forcing** the
recorded schedule through the decision/execution seam
(:class:`~repro.core.decisions.DecisionSource`), so any production
anomaly or chaos-test failure becomes a reproducible artifact.

Three layers:

* :func:`extract_schedule` — events → ordered decision *gates*
  (``predict`` / ``launch`` / ``respec`` / ``verdict`` /
  ``final_verdict``), the exact sequence of nondeterministic points the
  recorded run passed through.
* :class:`ReplayDirector` — a :class:`DecisionSource` that answers every
  predicate from the recorded gate at the cursor and *re-orders*
  asynchronous callback delivery (updates, prediction completions, check
  verdicts) to match the recording, parking early arrivals until the
  cursor reaches their gate. Divergence — a check error that no longer
  matches, a gate that is never reached, a different outcome or output
  digest — raises :class:`~repro.errors.ReplayDivergence` naming the
  first mismatched recorded event seq.
* :func:`replay_path` — the ``repro replay`` entry point: faithful
  replay, or (with ``force`` overrides) a **counterfactual** run of the
  recorded input under a different policy, with
  :class:`CascadeSummary`/:func:`render_diff` quantifying the cascade
  delta (rollbacks, wasted µs, shm churn).

Why forcing the decisions is sufficient for byte-identical output: task
*data* is deterministic (same workload bytes, same seeded RNG), update
values are pure functions of the input blocks, and the commit stream is
ordered by the WaitBuffer's deterministic flush. The only
nondeterminism on live executors is the *interleaving* of completion
callbacks against the update stream — exactly what the director pins.
See docs/replay.md for the full model and its limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any

from repro.core.decisions import DecisionSource
from repro.errors import ExperimentError, ReplayDivergence, ReplayError
from repro.obs.events import read_event_log

__all__ = [
    "DECISION_KINDS",
    "Gate",
    "DecisionSchedule",
    "extract_schedule",
    "decision_signature",
    "ReplayDirector",
    "CascadeSummary",
    "render_diff",
    "config_from_header",
    "ReplayResult",
    "replay_path",
]

#: Event kinds that constitute the *decision schedule* of a run. Replay
#: asserts event-for-event equality over these; consequence events
#: (task_spawn, rollback_done footprint sizes, shm_release, ...) are
#: timing-dependent on live executors and deliberately excluded.
DECISION_KINDS = frozenset({
    "spec_predict", "spec_launch", "check_pass", "check_fail",
    "destroy_signal", "spec_commit", "spec_recompute",
})


@dataclass(frozen=True)
class Gate:
    """One recorded nondeterministic decision point, in schedule order.

    ``pos`` is the gate's position in the schedule (the director's
    cursor compares against it); ``seq`` is the recorded event seq
    (what divergence errors point at).
    """

    kind: str  # predict | launch | respec | verdict | final_verdict
    seq: int
    pos: int
    version: int | None
    index: int | None = None
    outcome: str | None = None  # "pass" / "fail" for verdict gates
    error: float | None = None


@dataclass
class DecisionSchedule:
    """The ordered decision gates of one recorded run, plus its verdicts."""

    gates: list[Gate] = field(default_factory=list)
    #: "commit" or "recompute" (None when the recording never finalized).
    outcome: str | None = None
    commit_version: int | None = None
    #: the recorded ``run_result`` event, when present: outcome,
    #: compressed_bits, output_sha256 — the byte-identity oracle.
    run_result: dict[str, Any] | None = None

    def __len__(self) -> int:
        return len(self.gates)


def extract_schedule(events: list[dict[str, Any]]) -> DecisionSchedule:
    """Parse recorded events into the causally-ordered decision schedule.

    Worker-merged events (``clock == "worker"``) never carry decision
    kinds but are skipped defensively; everything else is consumed in
    recorded seq order, which *is* the order the coordinator took the
    decisions (all decisions happen under the runtime lock).
    """
    sched = DecisionSchedule()
    gates = sched.gates
    for e in events:
        if e.get("clock") == "worker":
            continue
        kind = e.get("kind")
        if kind not in DECISION_KINDS:
            if kind == "run_result":
                sched.run_result = e
                if e.get("outcome"):
                    sched.outcome = e["outcome"]
            continue
        seq = int(e.get("seq", 0))
        vid = e.get("version")
        index = e.get("index")
        if kind == "spec_predict":
            gates.append(Gate("predict", seq, len(gates), vid, index))
        elif kind == "spec_launch":
            gkind = "respec" if e.get("reused") else "launch"
            gates.append(Gate(gkind, seq, len(gates), vid, index))
        elif kind in ("check_pass", "check_fail"):
            gkind = "final_verdict" if e.get("final") else "verdict"
            gates.append(Gate(
                gkind, seq, len(gates), vid, index,
                outcome="pass" if kind == "check_pass" else "fail",
                error=e.get("error"),
            ))
        elif kind == "spec_commit":
            sched.outcome = "commit"
            sched.commit_version = vid
        elif kind == "spec_recompute":
            sched.outcome = "recompute"
        # destroy_signal is a *consequence* of a failed verdict — it is
        # part of the equality signature but gates nothing by itself.
    return sched


def decision_signature(
    events: list[dict[str, Any]],
) -> list[tuple[Any, ...]]:
    """Order-sensitive signature of a run's decision events.

    Two runs with equal signatures took the same speculation decisions
    in the same order — the property replay tests assert. Timestamps,
    seqs and footprint sizes are excluded (timing-dependent); kinds,
    version ids, update indices and pass/fail verdicts are not.
    """
    sig: list[tuple[Any, ...]] = []
    for e in events:
        if e.get("clock") == "worker" or e.get("kind") not in DECISION_KINDS:
            continue
        sig.append((
            e["kind"], e.get("version"), e.get("index"),
            bool(e.get("final")), bool(e.get("reused")),
        ))
    return sig


class _Parked:
    """A deferred callback delivery (identity-compared, never __eq__)."""

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: tuple) -> None:
        self.kind = kind
        self.args = args


class ReplayDirector(DecisionSource):
    """Forces a recorded :class:`DecisionSchedule` onto a live run.

    Sits on the decision/execution seam: the manager's entry points
    hand every asynchronous callback to the director, which delivers it
    only when the schedule cursor reaches the matching gate (early
    arrivals park; each consumed gate re-pumps the parking lot), and
    answers every predicate (speculate? check? accept? re-speculate?)
    from the recorded gate rather than the live policy.

    Safety properties (argued in docs/replay.md):

    * *silent* updates — ones with no recorded gate — are always safe
      to deliver immediately: every forced predicate returns False for
      them;
    * a recorded-stale callback (one that produced no event) is parked
      until its version is dead or the run finalized, then delivered
      into the manager's stale no-op path;
    * forcing never wedges the executor — a mismatch is *recorded* (the
      first one wins) and the run drains; :meth:`finish` raises after,
      so divergence is loud without deadlocking a live worker pool.
    """

    def __init__(self, schedule: DecisionSchedule) -> None:
        self.schedule = schedule
        self.gates = schedule.gates
        #: cursor: gates[:pos] are consumed, gates[pos] is next expected.
        self.pos = 0
        self.divergence: ReplayDivergence | None = None
        self._manager = None
        self._parked: list[_Parked] = []
        self._pumping = False
        self._verdict_gate: Gate | None = None
        self._predict_gate: dict[int, Gate] = {}
        self._launch_gate: dict[int, Gate] = {}
        self._check_by_index: dict[int, Gate] = {}
        self._final_gate: Gate | None = None
        for g in self.gates:
            if g.kind == "predict":
                self._predict_gate[g.index] = g
            elif g.kind == "launch":
                self._launch_gate[g.version] = g
            elif g.kind == "verdict":
                self._check_by_index[g.index] = g
            elif g.kind == "final_verdict":
                self._final_gate = g
        self._final_pos = (
            self._final_gate.pos if self._final_gate is not None
            else len(self.gates)
        )

    # -- lifecycle ------------------------------------------------------
    def bind(self, manager) -> None:
        if self._manager is not None and self._manager is not manager:
            raise ReplayError(
                "a ReplayDirector drives exactly one speculation domain; "
                "multi-domain replay is not supported"
            )
        self._manager = manager

    # -- divergence bookkeeping ----------------------------------------
    def _note(self, detail: str, seq: int | None) -> None:
        if self.divergence is None:
            self.divergence = ReplayDivergence(detail, seq)

    def first_unconsumed_seq(self) -> int | None:
        return self.gates[self.pos].seq if self.pos < len(self.gates) else None

    @property
    def pending(self) -> int:
        """Callbacks still parked (nonzero at the end means divergence)."""
        return len(self._parked)

    def finish(self) -> None:
        """Assert the whole recorded schedule was consumed; raise if not."""
        if self.divergence is not None:
            raise self.divergence
        if self.pos < len(self.gates):
            g = self.gates[self.pos]
            raise ReplayDivergence(
                f"recorded decision '{g.kind}' (version {g.version}, "
                f"index {g.index}) was never reached — "
                f"{len(self.gates) - self.pos} of {len(self.gates)} gates "
                f"unconsumed, {len(self._parked)} callback(s) undelivered",
                g.seq,
            )
        if self._parked:
            kinds = ", ".join(sorted({p.kind for p in self._parked}))
            raise ReplayDivergence(
                f"{len(self._parked)} callback(s) undelivered at end of "
                f"replay ({kinds}) — the run produced work the recording "
                "never saw"
            )

    # -- gate mechanics -------------------------------------------------
    def _consume(self, gate: Gate) -> None:
        assert self.gates[self.pos] is gate
        self.pos += 1

    def _deliverable(self, p: _Parked) -> bool:
        m = self._manager
        if p.kind == "update":
            index = p.args[0]
            g = self._predict_gate.get(index)
            if g is not None:
                return self.pos == g.pos
            c = self._check_by_index.get(index)
            if c is not None:
                v = m.active_version
                return (
                    v is not None and v.active and v.vid == c.version
                    and v.value is not None and self.pos <= c.pos
                )
            return True  # silent: no recorded decision at this index
        if p.kind == "prediction":
            version = p.args[0]
            g = self._launch_gate.get(version.vid)
            if g is None:  # never launched in the recording → stale path
                return (not version.active) or m.finalized
            return self.pos == g.pos
        if p.kind == "verdict":
            version, index = p.args[0], p.args[1]
            g = self._check_by_index.get(index)
            if g is None or g.version != version.vid:
                # no recorded counterpart → wait for the stale no-op path
                return (
                    version is not m.active_version or not version.active
                    or m.finalized
                )
            return self.pos == g.pos
        if p.kind == "final_ready":
            return self.pos == self._final_pos
        if p.kind == "final_verdict":
            g = self._final_gate
            return g is None or self.pos == g.pos
        raise AssertionError(p.kind)  # pragma: no cover

    def _deliver(self, p: _Parked) -> None:
        m = self._manager
        if p.kind == "update":
            m._process_update(*p.args)
        elif p.kind == "prediction":
            version = p.args[0]
            g = self._launch_gate.get(version.vid)
            if g is not None and self.pos == g.pos:
                self._consume(g)
            m._process_prediction_ready(*p.args)
        elif p.kind == "verdict":
            version, index = p.args[0], p.args[1]
            g = self._check_by_index.get(index)
            if g is not None and g.version == version.vid \
                    and self.pos == g.pos:
                self._consume(g)
                self._verdict_gate = g
            try:
                m._process_verdict(*p.args)
            finally:
                self._verdict_gate = None
        elif p.kind == "final_ready":
            m._process_final_ready(*p.args)
        elif p.kind == "final_verdict":
            g = self._final_gate
            if g is not None and self.pos == g.pos:
                self._consume(g)
                self._verdict_gate = g
            try:
                m._process_final_verdict(*p.args)
            finally:
                self._verdict_gate = None

    def _offer(self, p: _Parked) -> None:
        if self._deliverable(p):
            self._deliver(p)
            self._pump()
        else:
            self._parked.append(p)

    def _pump(self) -> None:
        """Deliver every parked callback that became deliverable.

        Loops to a fixed point: consuming a gate (or mutating manager
        state) can unlock further parked items. Reentrancy-guarded —
        deliveries run manager code that routes back through this
        director.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            progress = True
            while progress:
                progress = False
                for p in list(self._parked):
                    if p not in self._parked:  # identity check (__eq__ unset)
                        continue
                    if self._deliverable(p):
                        self._parked.remove(p)
                        self._deliver(p)
                        progress = True
        finally:
            self._pumping = False

    # -- delivery hooks -------------------------------------------------
    def on_update(self, manager, index: int, value: Any) -> None:
        self._offer(_Parked("update", (index, value)))

    def on_final(self, manager, value: Any) -> None:
        # The final predictor only *computes* the true value — the
        # decision point is the final verdict, gated via on_final_ready.
        manager._process_final(value)
        self._pump()

    def on_prediction_ready(self, manager, version, outputs) -> None:
        self._offer(_Parked("prediction", (version, outputs)))

    def on_verdict(self, manager, version, index, ref_value, outs) -> None:
        self._offer(_Parked("verdict", (version, index, ref_value, outs)))

    def on_final_ready(self, manager, ref_value, outs) -> None:
        self._offer(_Parked("final_ready", (ref_value, outs)))

    def on_final_verdict(self, manager, version, outs) -> None:
        self._offer(_Parked("final_verdict", (version, outs)))

    # -- forced predicates ----------------------------------------------
    def speculate_at(self, manager, index: int, had_rollback: bool) -> bool:
        g = self.gates[self.pos] if self.pos < len(self.gates) else None
        if g is None or g.kind != "predict" or g.index != index:
            return False
        expected = manager._vid + 1
        if g.version != expected:
            self._note(
                f"recorded speculation is v{g.version} but replay would "
                f"allocate v{expected}", g.seq)
        self._consume(g)
        return True

    def check_at(self, manager, version, index: int) -> bool:
        g = self._check_by_index.get(index)
        return g is not None and g.version == version.vid

    def accept(self, manager, version, index, error: float,
               *, final: bool = False) -> bool:
        g = self._verdict_gate
        if g is None:
            # A verdict with no recorded gate reached the live (non-stale)
            # path — only possible after an earlier mismatch.
            self._note(
                f"check verdict on v{version.vid} (index {index}) has no "
                "recorded counterpart", None)
            return True
        if g.error is not None and not math.isclose(
                error, g.error, rel_tol=1e-6, abs_tol=1e-9):
            self._note(
                f"check on v{version.vid} measured error {error!r}, "
                f"recording says {g.error!r} — input or code drifted",
                g.seq)
        return g.outcome == "pass"

    def respeculate_after_failure(self, manager, version, index: int) -> bool:
        g = self.gates[self.pos] if self.pos < len(self.gates) else None
        if g is None or g.kind != "respec" or g.index != index:
            return False
        expected = manager._vid + 1
        if g.version != expected:
            self._note(
                f"recorded re-speculation is v{g.version} but replay would "
                f"allocate v{expected}", g.seq)
        self._consume(g)
        return True


# ----------------------------------------------------------------------
# cascade accounting & counterfactual diffs


@dataclass
class CascadeSummary:
    """What a run's mis-speculation cascades cost, from its event log.

    The unit `repro replay --diff` compares between the recorded run and
    a counterfactual one (same input, different policy).
    """

    speculations: int = 0
    checks_passed: int = 0
    checks_failed: int = 0
    rollbacks: int = 0
    tasks_destroyed: int = 0
    buffer_discarded: int = 0
    wasted_us: float = 0.0
    shm_rollback_bytes: int = 0
    worker_crashes: int = 0
    task_retries: int = 0
    commits: int = 0
    recomputes: int = 0
    outcome: str | None = None
    compressed_bits: int | None = None
    output_sha256: str | None = None

    @classmethod
    def from_events(cls, events: list[dict[str, Any]]) -> "CascadeSummary":
        s = cls()
        for e in events:
            kind = e.get("kind")
            if kind == "spec_predict":
                s.speculations += 1
            elif kind == "spec_launch" and e.get("reused"):
                s.speculations += 1  # re-speculation: no predict event
            elif kind == "check_pass":
                s.checks_passed += 1
            elif kind == "check_fail":
                s.checks_failed += 1
            elif kind == "destroy_signal":
                s.rollbacks += 1
            elif kind == "rollback_done":
                s.tasks_destroyed += int(e.get("tasks_destroyed", 0))
                s.buffer_discarded += int(e.get("buffer_discarded", 0))
                s.wasted_us += float(e.get("wasted_us", 0.0))
            elif kind == "shm_release" and e.get("reason") == "rollback":
                s.shm_rollback_bytes += int(e.get("nbytes", 0))
            elif kind == "worker_crash":
                s.worker_crashes += 1
            elif kind == "task_retry":
                s.task_retries += 1
            elif kind == "spec_commit":
                s.commits += 1
                s.outcome = s.outcome or "commit"
            elif kind == "spec_recompute":
                s.recomputes += 1
                s.outcome = s.outcome or "recompute"
            elif kind == "run_result":
                if e.get("outcome"):
                    s.outcome = e["outcome"]
                s.compressed_bits = e.get("compressed_bits")
                s.output_sha256 = e.get("output_sha256")
        return s


def render_diff(
    a: CascadeSummary, b: CascadeSummary,
    labels: tuple[str, str] = ("recorded", "counterfactual"),
) -> str:
    """Two-column cascade comparison with a delta column (b - a)."""
    rows: list[tuple[str, Any, Any]] = []
    for f in fields(CascadeSummary):
        rows.append((f.name.replace("_", " "),
                     getattr(a, f.name), getattr(b, f.name)))
    name_w = max(len(r[0]) for r in rows)

    def _fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.0f}"
        if v is None:
            return "-"
        text = str(v)
        return text[:12] + "…" if len(text) > 16 else text

    col_w = max(len(labels[0]), len(labels[1]),
                *(max(len(_fmt(va)), len(_fmt(vb))) for _, va, vb in rows))
    lines = [f"{'':{name_w}}  {labels[0]:>{col_w}}  {labels[1]:>{col_w}}  "
             f"{'delta':>10}"]
    for name, va, vb in rows:
        delta = ""
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) \
                and not isinstance(va, bool):
            d = vb - va
            delta = f"{d:+.0f}" if d else "0"
        elif va != vb:
            delta = "≠"
        lines.append(f"{name:{name_w}}  {_fmt(va):>{col_w}}  "
                     f"{_fmt(vb):>{col_w}}  {delta:>10}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# run reconstruction & entry points


def config_from_header(
    header: dict[str, Any] | None,
    *,
    events_out: str | None = None,
    overrides: dict[str, Any] | None = None,
):
    """Rebuild the recorded run's RunConfig from the log header.

    The header's ``meta.run_config`` (stamped by the run scaffold for
    every app) is the full parameterisation — its ``app`` field picks the
    registered runner; replay re-runs it with side outputs
    redirected (no trace, no metrics file, events to ``events_out`` or
    the in-memory ring only) and any counterfactual ``overrides``
    applied last. Raw-bytes workloads degrade to ``"custom"`` in the
    stamp and cannot be regenerated — a clear :class:`ReplayError`.
    """
    from repro.experiments.config import RunConfig

    meta = (header or {}).get("meta") or {}
    rc = meta.get("run_config")
    if not isinstance(rc, dict):
        raise ReplayError(
            "event log header carries no run_config — only logs recorded "
            "with events_out set (`repro run --events-out`, or any "
            "registered app's runner / run_job) are replayable"
        )
    if rc.get("workload") == "custom":
        raise ReplayError(
            "recorded run used a raw-bytes workload; the input cannot be "
            "regenerated from the log — replay named workloads instead"
        )
    # Logs from older builds carry RunConfig fields since retired (e.g.
    # ``trace``); the replay is built from the fields this build has.
    known = {f.name for f in fields(RunConfig)}
    clean = {k: v for k, v in rc.items() if k in known}
    clean.update(metrics_out=None, events=True, events_out=events_out)
    for key, value in (overrides or {}).items():
        if value is not None:
            clean[key] = value
    return RunConfig.from_kwargs(**clean)


@dataclass
class ReplayResult:
    """Everything one ``repro replay`` invocation produced."""

    header: dict[str, Any]
    schedule: DecisionSchedule
    report: Any  # RunReport
    #: True when force-overrides made this a counterfactual run (the
    #: recorded schedule was NOT forced — live decisions under the new
    #: policy).
    counterfactual: bool
    recorded: CascadeSummary
    replayed: CascadeSummary
    #: decision-signature equality recorded vs. replayed; None for
    #: counterfactual runs (inequality is the point there).
    schedule_match: bool | None


def replay_path(
    path: str,
    *,
    force: dict[str, Any] | None = None,
    events_out: str | None = None,
) -> ReplayResult:
    """Replay (or counterfactually re-run) a recorded event log.

    Faithful mode (no ``force``): re-executes under a
    :class:`ReplayDirector` and verifies the run end-to-end — schedule
    consumed, decision signatures equal, same outcome, same output
    sha256 — raising :class:`~repro.errors.ReplayDivergence` on the
    first mismatch. Counterfactual mode (any non-None ``force`` value,
    e.g. ``{"policy": "aggressive"}``): re-runs the recorded input under
    live decisions with the overrides applied; compare cascades via
    ``result.recorded`` / ``result.replayed`` (:func:`render_diff`).
    The recorded ``run_config.app`` picks the runner through
    :func:`~repro.experiments.jobs.run_job`, so every registered app's
    log replays.
    """
    from repro.experiments.jobs import run_job

    header, events = read_event_log(path)
    schedule = extract_schedule(events)
    recorded = CascadeSummary.from_events(events)
    overrides = {k: v for k, v in (force or {}).items() if v is not None}
    cfg = config_from_header(header, events_out=events_out,
                             overrides=overrides)

    if overrides:
        report = run_job(cfg)
        replayed = CascadeSummary.from_events(_events_of(report))
        return ReplayResult(header, schedule, report, True,
                            recorded, replayed, None)

    director = ReplayDirector(schedule)
    try:
        report = run_job(cfg, decisions=director)
    except ExperimentError as exc:
        # A wedged schedule surfaces as an unfinished pipeline; convert
        # to the divergence that actually caused it.
        if director.divergence is not None:
            raise director.divergence from exc
        if director.first_unconsumed_seq() is not None or director.pending:
            raise ReplayDivergence(
                f"run failed before the recorded schedule completed: {exc}",
                director.first_unconsumed_seq()) from exc
        raise
    director.finish()

    replayed_events = _events_of(report)
    replayed = CascadeSummary.from_events(replayed_events)
    rr = schedule.run_result or {}
    recorded_sha = rr.get("output_sha256")
    replayed_sha = getattr(report, "output_sha256", None)
    if recorded_sha and replayed_sha and recorded_sha != replayed_sha:
        raise ReplayDivergence(
            f"output sha256 {replayed_sha[:12]}… != recorded "
            f"{recorded_sha[:12]}… (decision schedule matched — data or "
            "codec drifted)", rr.get("seq"))
    if schedule.outcome and replayed.outcome \
            and schedule.outcome != replayed.outcome:
        raise ReplayDivergence(
            f"outcome {replayed.outcome!r} != recorded "
            f"{schedule.outcome!r}", rr.get("seq"))

    rec_sig = decision_signature(events)
    rep_sig = decision_signature(replayed_events)
    match = rec_sig == rep_sig
    if not match:
        seq = _first_mismatch_seq(events, rec_sig, rep_sig)
        raise ReplayDivergence(
            f"decision schedules differ ({len(rec_sig)} recorded vs "
            f"{len(rep_sig)} replayed decision events)", seq)
    return ReplayResult(header, schedule, report, False,
                        recorded, replayed, match)


def _events_of(report: Any) -> list[dict[str, Any]]:
    log = getattr(report, "events", None)
    return log.events() if log is not None else []


def _first_mismatch_seq(
    events: list[dict[str, Any]],
    rec_sig: list[tuple[Any, ...]],
    rep_sig: list[tuple[Any, ...]],
) -> int | None:
    decision_seqs = [
        e.get("seq") for e in events
        if e.get("kind") in DECISION_KINDS and e.get("clock") != "worker"
    ]
    for i, rec in enumerate(rec_sig):
        if i >= len(rep_sig) or rep_sig[i] != rec:
            return decision_seqs[i] if i < len(decision_seqs) else None
    return None
