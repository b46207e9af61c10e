"""The speculation manager — drives predict / check / commit / rollback.

The manager consumes a stream of *updates*: successive refinements of the
value being speculated (in the Huffman benchmark, each reduce output is an
update carrying the prefix histogram so far; the last reduce output is the
*final* update carrying the global histogram).

Protocol per update (non-final), mirroring §III-B:

* **No active speculation** and the update index is a speculation
  opportunity (step-size rule) → build a prediction task; when it completes,
  the client's ``launch`` callback constructs the speculative subgraph.
* **Active speculation** and the verification policy fires at this index →
  build a *candidate* prediction from the fresh update plus a check task
  comparing old vs new under the tolerance rule. A passing check changes
  nothing — the candidate "will not trigger anything new and will simply be
  destroyed". A failing check rolls the version back; re-speculation starts
  immediately (full-verification policy, or whenever the index is itself an
  opportunity) reusing the already-computed candidate as the new prediction.

The **final** update always triggers building the true value (the paper's
final tree is needed by the check itself — the serial bottleneck was ever
only the *wait* for complete input, not the build) and a final tolerance
check: pass → commit the wait buffer; fail → roll back and launch the
non-speculative recompute path.
"""

from __future__ import annotations

from typing import Any

from repro.core.decisions import DecisionSource, LiveDecisionSource
from repro.core.rollback import RollbackEngine
from repro.core.spec import SpecVersion, SpeculationSpec
from repro.core.stats import fold_speculation
from repro.errors import SpeculationError
from repro.sre.runtime import Runtime
from repro.sre.task import Task

__all__ = ["SpeculationManager"]


class SpeculationManager:
    """Orchestrates one speculation domain over a runtime.

    The manager is a pure *observer/driver*: it owns no tasks and no
    threads — it reacts to update offers (:meth:`offer_update`) and to
    completion hooks of the prediction/check tasks it spawns, always on
    the executor's coordinating thread (under the runtime lock for live
    executors), so no extra synchronisation is needed here.

    Decisions and execution are separated (docs/replay.md): each entry
    point routes through the manager's
    :class:`~repro.core.decisions.DecisionSource` (``self.decisions``),
    which answers every *whether* and controls every *when*. The live
    default reproduces the spec's policies verbatim; the replay director
    substitutes a recorded schedule.

    Accounting has one write per fact: the event. Each speculation
    event carries ``domain`` (the spec's name), and the per-run
    :class:`~repro.core.stats.SpeculationStats` (returned in every
    ``PipelineResult.spec_stats``), the always-on registry series
    (``spec_speculations`` / ``spec_checks{verdict}`` / ``spec_rollbacks``
    / ``spec_commits`` / ``spec_recomputes`` / ...) and the rollback
    engine's tallies are folds over this domain's events — derived, so
    exporter output matches the figures by construction.
    """

    def __init__(
        self,
        runtime: Runtime,
        spec: SpeculationSpec,
        decisions: DecisionSource | None = None,
    ) -> None:
        self.runtime = runtime
        self.spec = spec
        #: The decision/execution seam (docs/replay.md): every *whether*
        #: (speculate? check? accept? re-speculate?) and every *when*
        #: (callback delivery order) is answered here. Resolution order:
        #: explicit argument, then ``runtime.decisions`` (how the replay
        #: director and the experiment runner inject one without the
        #: pipelines knowing), then the live spec-driven default.
        self.decisions: DecisionSource = (
            decisions
            if decisions is not None
            else getattr(runtime, "decisions", None) or LiveDecisionSource(spec)
        )
        self.decisions.bind(self)
        self.engine = RollbackEngine(runtime, spec.barrier, domain=spec.name)
        self.stats = fold_speculation(runtime.events, runtime.metrics, spec.name)
        self.versions: list[SpecVersion] = []
        self.active_version: SpecVersion | None = None
        self.final_value: Any = None
        #: "commit" or "recompute" once the final decision is made.
        self.outcome: str | None = None
        self.finalized = False
        self._had_rollback = False
        self._vid = 0
        self._final_seen = False

    # ------------------------------------------------------------------
    # update stream
    # ------------------------------------------------------------------
    def offer_update(self, index: int, value: Any, is_final: bool = False) -> None:
        """Feed one source update (e.g. a reduce output) to the manager.

        Args:
            index: monotone position of the update in the refinement
                stream (reduce 3's prefix histogram has index 4 — the
                count of reduces folded in). Drives both the speculation
                interval (step-size rule) and the verification policy.
            value: the partial value itself (e.g. the prefix histogram).
            is_final: True for the last update, which carries the complete
                value; triggers the final check and the commit/recompute
                decision instead of a speculation opportunity.

        Raises :class:`~repro.errors.SpeculationError` if a final update
        is offered twice, or any update arrives after the final one.
        """
        if is_final:
            if self._final_seen:
                raise SpeculationError("final update offered twice")
            self._final_seen = True
            self.decisions.on_final(self, value)
            return
        if self._final_seen:
            raise SpeculationError("update offered after the final update")
        if self.finalized:  # pragma: no cover - defensive; implies final seen
            return
        self.decisions.on_update(self, index, value)

    def _process_update(self, index: int, value: Any) -> None:
        """Handle one delivered (non-final) update.

        Split from :meth:`offer_update` so a :class:`DecisionSource` can
        defer delivery; a deferred update may legitimately land after
        the run finalized, hence the re-check.
        """
        if self.finalized:
            return
        version = self.active_version
        if version is None or not version.active:
            if self.decisions.speculate_at(self, index, self._had_rollback):
                self._speculate(index, value)
        elif (
            version.value is not None
            and index > version.created_index
            and self.decisions.check_at(self, version, index)
        ):
            self._launch_check(version, index, value)

    # ------------------------------------------------------------------
    # speculation
    # ------------------------------------------------------------------
    def _next_vid(self) -> int:
        self._vid += 1
        return self._vid

    def _speculate(self, index: int, update_value: Any, predicted: Any = None) -> None:
        events = self.runtime.events
        version = SpecVersion(self._next_vid(), index, self.runtime.now)
        self.versions.append(version)
        self.active_version = version
        if predicted is not None:
            # Re-speculation after a failed check: the candidate value was
            # already computed by the check's candidate task — reuse it. The
            # ambient cause scope (the failed check) makes this the
            # "rebuild" edge of the lineage graph.
            version.value = predicted
            version.launch_seq = self._emit(
                "spec_launch", version=version.vid, index=index, reused=True)
            with events.cause(version.launch_seq):
                self.spec.launch(version)
            return
        version.predict_seq = self._emit(
            "spec_predict", version=version.vid, index=index)
        ptask = self.spec.predictor(update_value, f"{self.spec.name}:predict:v{version.vid}")
        ptask.control = True
        version.prediction_task = version.register(ptask)
        ptask.on_complete.append(
            lambda _task, outs, v=version: self.decisions.on_prediction_ready(
                self, v, outs)
        )
        with events.cause(version.predict_seq):
            self.runtime.add_task(ptask)

    def _process_prediction_ready(
        self, version: SpecVersion, outputs: dict[str, Any]
    ) -> None:
        if not version.active or self.finalized:
            return
        if "out" not in outputs:
            raise SpeculationError(
                f"predictor task for v{version.vid} produced no 'out' port"
            )
        version.value = outputs["out"]
        version.launch_seq = self._emit(
            "spec_launch", version=version.vid, cause=version.predict_seq,
            index=version.created_index)
        with self.runtime.events.cause(version.launch_seq):
            self.spec.launch(version)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _launch_check(self, version: SpecVersion, index: int, ref_value: Any) -> None:
        candidate = self.spec.predictor(
            ref_value, f"{self.spec.name}:candidate:u{index}:v{version.vid}"
        )
        candidate.control = True

        def check_fn(candidate: Any, _v=version, _ref=ref_value) -> dict[str, Any]:
            error = self.spec.validator(_v.value, candidate, _ref)
            return {"error": float(error), "candidate": candidate}

        check = Task(
            f"{self.spec.name}:check:u{index}:v{version.vid}",
            check_fn,
            inputs=("candidate",),
            kind="check",
            control=True,
            cost_hint=self.spec.check_cost_hint,
        )
        check.on_complete.append(
            lambda _task, outs, v=version, i=index, r=ref_value:
                self.decisions.on_verdict(self, v, i, r, outs)
        )
        with self.runtime.events.cause(version.launch_seq):
            self.runtime.add_task(candidate)
            self.runtime.add_task(check)
        self.runtime.connect(candidate, "out", check, "candidate")

    def _process_verdict(
        self, version: SpecVersion, index: int, ref_value: Any, outs: dict[str, Any]
    ) -> None:
        error = outs["error"]
        if version is not self.active_version or not version.active or self.finalized:
            self._verdict("check_stale", version, error, index=index)
            return
        if self.decisions.accept(self, version, index, error):
            self._verdict("check_pass", version, error, index=index)
            return
        fail_seq = self._verdict("check_fail", version, error, index=index)
        with self.runtime.events.cause(fail_seq):
            self._rollback(version)
            if self.decisions.respeculate_after_failure(self, version, index):
                self._speculate(index, ref_value, predicted=outs["candidate"])

    def _emit(self, kind: str, **data: Any) -> int:
        """Emit one of this domain's speculation events (its ``domain`` is
        what this manager's folds and its engine's select on)."""
        return self.runtime.events.emit(kind, domain=self.spec.name, **data)

    def _verdict(self, kind: str, version: SpecVersion, error: float,
                 **data: Any) -> int:
        """Emit one check verdict (``check_pass`` / ``_fail`` / ``_stale``)."""
        margin = getattr(self.spec.tolerance, "margin", None)
        return self._emit(kind, version=version.vid, cause=version.launch_seq,
                          error=error, tolerance=margin, **data)

    def _rollback(self, version: SpecVersion) -> None:
        self.engine.rollback(version)
        self._had_rollback = True
        if self.active_version is version:
            self.active_version = None

    # ------------------------------------------------------------------
    # final decision
    # ------------------------------------------------------------------
    def _process_final(self, value: Any) -> None:
        ftask = self.spec.predictor(value, f"{self.spec.name}:final")
        ftask.control = True
        ftask.on_complete.append(
            lambda _task, outs, v=value: self.decisions.on_final_ready(
                self, v, outs)
        )
        self.runtime.add_task(ftask)

    def _process_final_ready(self, ref_value: Any, outs: dict[str, Any]) -> None:
        self.final_value = outs.get("out")
        version = self.active_version
        if version is None or not version.active or version.value is None:
            # Nothing validatable in flight: destroy any half-born attempt
            # (the final update overtook its prediction) and take the
            # normal path. Its spec_abandon roots the rollback cascade, as
            # a failing check roots every other one.
            if version is not None and version.active:
                abandon_seq = self._emit("spec_abandon", version=version.vid)
                with self.runtime.events.cause(abandon_seq):
                    self._rollback(version)
            self._recompute()
            return

        def final_check_fn(_v=version, _ref=ref_value) -> dict[str, Any]:
            error = self.spec.validator(_v.value, self.final_value, _ref)
            return {"error": float(error)}

        check = Task(
            f"{self.spec.name}:check:final:v{version.vid}",
            final_check_fn,
            kind="check",
            control=True,
            cost_hint=self.spec.check_cost_hint,
        )
        check.on_complete.append(
            lambda _task, c_outs, v=version: self.decisions.on_final_verdict(
                self, v, c_outs)
        )
        self.runtime.add_task(check)

    def _process_final_verdict(self, version: SpecVersion, outs: dict[str, Any]) -> None:
        error = outs["error"]
        if self.finalized:
            self._verdict("check_stale", version, error, final=True)
            return
        if version.active and self.decisions.accept(
                self, version, None, error, final=True):
            pass_seq = self._verdict("check_pass", version, error, final=True)
            with self.runtime.events.cause(pass_seq):
                self._commit(version)
            return
        fail_seq = self._verdict("check_fail", version, error, final=True)
        with self.runtime.events.cause(fail_seq):
            if version.active:
                self._rollback(version)
            self._recompute()

    def _commit(self, version: SpecVersion) -> None:
        version.committed = True
        self.finalized = True
        self.outcome = "commit"
        commit_seq = self._emit("spec_commit", version=version.vid,
                                lifetime_us=self.runtime.now - version.created_at)
        with self.runtime.events.cause(commit_seq):
            # The version's fate is decided: drop whatever it pinned (e.g.
            # shared-memory block refs acquired for its second-pass tasks).
            version.release_resources("commit")
            if self.spec.barrier is not None:
                self.spec.barrier.commit(version.vid, self.runtime.now)

    def _recompute(self) -> None:
        self.finalized = True
        self.outcome = "recompute"
        with self.runtime.events.cause(self._emit("spec_recompute")):
            self.spec.recompute(self.final_value)
