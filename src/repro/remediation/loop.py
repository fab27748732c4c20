"""The remediation loop: detect → propose → verify → schedule, in sim time.

:class:`RemediationLoop` is the conductor. The serving loop hands it a
*port* (see :class:`RemediationPort`) — a narrow adapter over the live
run exposing read-only health signals, the actuation knobs, the materials
for shadow snapshots, and deterministic shadow seeds. On every tick the
loop:

1. checks applied actions for post-apply regression and rolls back,
2. asks each detector for anomalies on this tick's :class:`LoopView`,
3. maps detections to candidate actions via the proposers,
4. cooldown-filters, then shadow-verifies each surviving candidate
   against a baseline replay (both seeded by a child spawned off the live
   RNG, one seed per tick, so comparisons are paired and
   byte-deterministic),
5. lets the risk-ranked scheduler apply the winners.

Every stage appends to the :class:`RemediationReport` timeline, which is
byte-identical per seed (the regression golden pins it) and exports to
JSONL for the CI artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.remediation.actions import RemediationAction
from repro.remediation.detectors import (
    Detection,
    Detector,
    LoopView,
    default_detectors,
)
from repro.remediation.proposers import Proposer, default_proposers
from repro.remediation.scheduler import RiskRankedScheduler
from repro.remediation.shadow import (
    ShadowSpec,
    ShadowVerdict,
    ShadowVerifier,
    scenario_for_shadow,
)


class RemediationPort(Protocol):
    """What a live run must expose for the loop to drive it.

    Implemented by the serving loop's ``_RemediationPort``; the loop never
    touches ``_ServingRun`` directly.
    """

    # --- health signals -------------------------------------------------
    def violation_fraction(self, now: float) -> float: ...
    @property
    def backlog_depth(self) -> int: ...
    @property
    def backlog_threshold(self) -> int: ...
    @property
    def in_flight(self) -> int: ...
    @property
    def arrivals_total(self) -> int: ...
    @property
    def n_domains(self) -> int: ...
    def open_domains(self) -> tuple[int, ...]: ...
    def breaker_flaps(self) -> tuple[int, ...]: ...
    def crashes_by_domain(self) -> tuple[int, ...]: ...
    def poisoned_domains(self, now: float) -> tuple[int, ...]: ...

    # --- actuators (see actions.Actuators) ------------------------------
    def get_degree(self) -> int: ...
    def set_degree(self, degree: int) -> None: ...
    @property
    def max_degree(self) -> int: ...
    def get_pool_capacity(self) -> Optional[int]: ...
    def set_pool_capacity(self, capacity: Optional[int]) -> None: ...
    def get_admission_limit(self) -> Optional[int]: ...
    def set_admission_limit(self, limit: int) -> None: ...
    def quarantined_domains(self) -> frozenset[int]: ...
    def quarantine_domain(self, domain: int) -> None: ...
    def release_domain(self, domain: int) -> None: ...

    # --- shadow materials & determinism seams ---------------------------
    def shadow_materials(self) -> dict: ...
    def predict_exec_s(self, degree: int) -> float: ...
    def shadow_seed(self, label: str) -> int: ...
    @property
    def live_horizon_s(self) -> float: ...

    # --- telemetry ------------------------------------------------------
    def emit(self, stage: str, **fields) -> None: ...


@dataclass(frozen=True)
class RemediationConfig:
    """Knobs of the control loop itself."""

    tick_interval_s: float = 60.0
    shadow_horizon_s: float = 240.0
    max_detections_per_tick: int = 4
    max_actions_per_tick: int = 1
    cooldown_s: float = 300.0
    rollback_window_s: float = 600.0
    regression_margin: float = 0.10
    attainment_margin: float = 0.0    # shadow accept margin
    cost_margin: float = 0.02        # "cheaper at parity" threshold
    verify: bool = True              # False = apply proposals unverified
    min_arrival_rate_per_s: float = 0.05  # floor for the observed-rate estimate

    def __post_init__(self) -> None:
        # NaN passes every comparison below, so finiteness is checked first.
        positive = ("tick_interval_s", "shadow_horizon_s", "min_arrival_rate_per_s")
        non_negative = ("cooldown_s", "rollback_window_s", "regression_margin",
                        "attainment_margin", "cost_margin")
        for name in positive + non_negative:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive (got {getattr(self, name)})")
        for name in non_negative:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0 (got {getattr(self, name)})")
        if self.max_detections_per_tick < 1 or self.max_actions_per_tick < 1:
            raise ValueError("per-tick caps must be >= 1")


def _json_safe(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class RemediationReport:
    """The full remediation timeline of one serving run.

    Byte-identical per seed — ``signature()`` is pinned by the regression
    golden — and exportable as JSONL (one event per line, time-ordered)
    for the CI artifact.
    """

    detections: list[Detection] = field(default_factory=list)
    proposals: list[tuple[float, tuple, str]] = field(default_factory=list)
    verdicts: list[ShadowVerdict] = field(default_factory=list)
    applications: list[tuple[float, tuple]] = field(default_factory=list)
    rollbacks: list[tuple[float, tuple, tuple]] = field(default_factory=list)
    ticks: int = 0

    @property
    def n_detections(self) -> int:
        return len(self.detections)

    @property
    def n_proposals(self) -> int:
        return len(self.proposals)

    @property
    def n_accepted(self) -> int:
        return sum(1 for v in self.verdicts if v.accepted)

    @property
    def n_applied(self) -> int:
        return len(self.applications)

    @property
    def n_rollbacks(self) -> int:
        return len(self.rollbacks)

    def signature(self) -> tuple:
        return (
            self.ticks,
            tuple(d.signature() for d in self.detections),
            tuple(
                (round(t, 9), sig, reason) for t, sig, reason in self.proposals
            ),
            tuple(v.signature() for v in self.verdicts),
            tuple((round(t, 9), sig) for t, sig in self.applications),
            tuple(
                (round(t, 9), inv, orig) for t, inv, orig in self.rollbacks
            ),
        )

    def timeline(self) -> list[dict]:
        """All stages merged into one time-ordered event list."""
        events: list[dict] = []
        for d in self.detections:
            events.append({
                "t": d.time, "stage": "detection", "kind": d.kind,
                "severity": d.severity, "detail": dict(d.detail),
            })
        for t, sig, reason in self.proposals:
            events.append({
                "t": t, "stage": "proposal", "action": list(sig),
                "reason": reason,
            })
        for v in self.verdicts:
            events.append({
                "t": v.time, "stage": "verdict", "action": list(v.action_signature),
                "accepted": v.accepted, "reason": v.reason,
                "baseline_attainment": v.baseline.attainment,
                "candidate_attainment": (
                    None if v.candidate is None else v.candidate.attainment
                ),
            })
        for t, sig in self.applications:
            events.append({"t": t, "stage": "apply", "action": list(sig)})
        for t, inv, orig in self.rollbacks:
            events.append({
                "t": t, "stage": "rollback", "action": list(inv),
                "rolled_back": list(orig),
            })
        stage_order = {
            "detection": 0, "proposal": 1, "verdict": 2, "apply": 3,
            "rollback": 4,
        }
        events.sort(key=lambda e: (e["t"], stage_order[e["stage"]]))
        return events

    def to_jsonl(self) -> str:
        """One JSON object per timeline event (the CI artifact format)."""
        lines = []
        for event in self.timeline():
            lines.append(json.dumps(
                {k: _json_safe(v) for k, v in event.items()}, sort_keys=True
            ))
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> str:
        return (
            f"{self.ticks} ticks: {self.n_detections} detections → "
            f"{self.n_proposals} proposals → {self.n_accepted} accepted → "
            f"{self.n_applied} applied, {self.n_rollbacks} rolled back"
        )


class RemediationLoop:
    """Detector → proposer → verifier → scheduler, one instance per run.

    Construct once, pass to ``ServingSimulator(remediation=...)``; the
    serving loop calls :meth:`begin_run` and then :meth:`tick` every
    ``config.tick_interval_s`` of sim time. Reusable across runs (each
    ``begin_run`` resets all cross-tick state and starts a new report).
    """

    def __init__(
        self,
        config: Optional[RemediationConfig] = None,
        detectors: Optional[list[Detector]] = None,
        proposers: Optional[list[Proposer]] = None,
        verifier: Optional[ShadowVerifier] = None,
        scheduler: Optional[RiskRankedScheduler] = None,
    ) -> None:
        self.config = config if config is not None else RemediationConfig()
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.proposers = (
            list(proposers) if proposers is not None else default_proposers()
        )
        self.verifier = verifier if verifier is not None else ShadowVerifier(
            horizon_s=self.config.shadow_horizon_s,
            attainment_margin=self.config.attainment_margin,
            cost_margin=self.config.cost_margin,
        )
        self.scheduler = scheduler if scheduler is not None else (
            RiskRankedScheduler(
                cooldown_s=self.config.cooldown_s,
                max_actions_per_tick=self.config.max_actions_per_tick,
                rollback_window_s=self.config.rollback_window_s,
                regression_margin=self.config.regression_margin,
            )
        )
        self.report = RemediationReport()
        self.port: Optional[RemediationPort] = None
        self._last_arrivals = 0
        self._last_tick_time = 0.0
        self._baseline_admission_limit: Optional[int] = None

    # ------------------------------------------------------------------ #
    def begin_run(self, port: RemediationPort) -> None:
        """Bind to one live run; resets every piece of cross-run state."""
        self.port = port
        self.report = RemediationReport()
        self.scheduler.reset()
        self._last_arrivals = 0
        self._last_tick_time = 0.0
        self._baseline_admission_limit = port.get_admission_limit()
        for detector in self.detectors:
            detector.reset()

    # ------------------------------------------------------------------ #
    def _view(self, now: float) -> LoopView:
        port = self.port
        arrivals = port.arrivals_total
        dt = now - self._last_tick_time
        rate = (
            (arrivals - self._last_arrivals) / dt
            if dt > 0.0
            else self.config.min_arrival_rate_per_s
        )
        self._last_arrivals = arrivals
        self._last_tick_time = now
        return LoopView(
            now=now,
            violation_fraction=port.violation_fraction(now),
            backlog_depth=port.backlog_depth,
            backlog_threshold=port.backlog_threshold,
            in_flight=port.in_flight,
            arrival_rate_per_s=max(rate, self.config.min_arrival_rate_per_s),
            degree=port.get_degree(),
            max_degree=port.max_degree,
            pool_capacity=port.get_pool_capacity(),
            admission_limit=port.get_admission_limit(),
            baseline_admission_limit=self._baseline_admission_limit,
            n_domains=port.n_domains,
            open_domains=port.open_domains(),
            quarantined_domains=tuple(sorted(port.quarantined_domains())),
            breaker_flaps=port.breaker_flaps(),
            crashes_by_domain=port.crashes_by_domain(),
            predict_exec_s=port.predict_exec_s,
        )

    def _spec(self, view: LoopView) -> ShadowSpec:
        port = self.port
        materials = port.shadow_materials()
        scenario = scenario_for_shadow(
            materials["scenario"],
            port.poisoned_domains(view.now),
            self.config.shadow_horizon_s,
            port.live_horizon_s,
        )
        return ShadowSpec(
            profile=materials["profile"],
            app=materials["app"],
            exec_model=materials["exec_model"],
            config=materials["config"],
            scenario=scenario,
            retry_policy=materials["retry_policy"],
            arrival_rate_per_s=view.arrival_rate_per_s,
            degree=view.degree,
            batch_timeout_s=materials["batch_timeout_s"],
            warm_ttl_s=materials["warm_ttl_s"],
            pool_capacity=view.pool_capacity,
            admission_limit=view.admission_limit,
            quarantined=view.quarantined_domains,
            breaker_failure_threshold=materials["breaker_failure_threshold"],
            breaker_recovery_s=materials["breaker_recovery_s"],
        )

    # ------------------------------------------------------------------ #
    def tick(self, now: float) -> int:
        """One control-loop pass; returns the number of actions applied."""
        if self.port is None:
            raise RuntimeError("begin_run() must be called before tick()")
        port = self.port
        self.report.ticks += 1
        view = self._view(now)

        # 1. Post-apply watch: undo our own regressions first. An inverse
        # can have become invalid since apply time (e.g. re-quarantining
        # would strand the last routable domain after other rollbacks);
        # such an inverse is skipped, never allowed to kill the live run.
        for record in self.scheduler.due_rollbacks(now, view.violation_fraction):
            try:
                record.inverse.apply(port)
            except ValueError:
                continue
            self.report.rollbacks.append(
                (now, record.inverse.signature(), record.action.signature())
            )
            port.emit(
                "rollback",
                action=str(record.action.kind),
                violation=round(view.violation_fraction, 9),
            )
        if self.report.rollbacks and self.report.rollbacks[-1][0] == now:
            view = self._refresh_view(view)

        # 2. Detect.
        detections: list[Detection] = []
        for detector in self.detectors:
            detections.extend(detector.observe(view))
        detections = detections[: self.config.max_detections_per_tick]
        for detection in detections:
            self.report.detections.append(detection)
            port.emit(
                "detection",
                detector=detection.kind,
                severity=round(detection.severity, 9),
            )
        if not detections:
            return 0

        # 3. Propose (dedup by key, first proposer wins).
        candidates: list[RemediationAction] = []
        seen: set[str] = set()
        for detection in detections:
            for proposer in self.proposers:
                if detection.kind not in proposer.kinds:
                    continue
                for action in proposer.propose(detection, view):
                    if action.key() in seen:
                        continue
                    seen.add(action.key())
                    candidates.append(action)
        for action in candidates:
            self.report.proposals.append(
                (now, action.signature(), getattr(action, "reason", ""))
            )
            port.emit("proposal", action=action.kind)
        # Cooldown-gate *before* paying for shadow replays.
        eligible = [
            a for a in candidates if self.scheduler.ready(a.key(), now)
        ]
        if not eligible:
            return 0

        # 4. Shadow-verify against one paired baseline replay per tick.
        if self.config.verify:
            spec = self._spec(view)
            seed = port.shadow_seed(f"remediation/tick{self.report.ticks}")
            baseline = self.verifier.score(spec, seed)
            accepted = []
            for action in eligible:
                verdict = self.verifier.verify(action, spec, seed, baseline, now)
                self.report.verdicts.append(verdict)
                port.emit(
                    "verdict",
                    action=action.kind,
                    accepted=verdict.accepted,
                    reason=verdict.reason,
                )
                if verdict.accepted:
                    accepted.append(action)
        else:
            accepted = eligible

        # 5. Apply, risk-ranked and capped. The live knobs may have moved
        # since the proposal snapshot (this tick's own rollbacks); an
        # action the actuators now refuse is dropped, not fatal.
        applied = 0
        for action in self.scheduler.select(accepted, now):
            try:
                inverse = action.apply(port)
            except ValueError:
                continue
            self.scheduler.on_applied(
                action, inverse, now, view.violation_fraction
            )
            self.report.applications.append((now, action.signature()))
            port.emit("apply", action=action.kind)
            applied += 1
        return applied

    def _refresh_view(self, view: LoopView) -> LoopView:
        """Re-snapshot knob state after rollbacks (health fields are
        unchanged within one tick; rate bookkeeping is not re-advanced)."""
        port = self.port
        from dataclasses import replace
        return replace(
            view,
            degree=port.get_degree(),
            pool_capacity=port.get_pool_capacity(),
            admission_limit=port.get_admission_limit(),
            quarantined_domains=tuple(sorted(port.quarantined_domains())),
        )
