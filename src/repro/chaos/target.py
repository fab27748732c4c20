"""The ``chaos-serving`` campaign target: one audited serving run per storm.

The chaos search evaluates candidate storms through this
:class:`~repro.harness.targets.CampaignTarget`, so every evaluation —
including the minimized repro the shrinker emits — is a first-class
harness run: a byte-stable :class:`~repro.harness.manifest.RunManifest`
(the storm embeds as a validated :meth:`StormSpec.to_dict` payload, the
platform profile and app spec embed in full), a ``summary.json`` that
``propack-chaos replay`` / ``propack-campaign reproduce`` re-assert
byte-identically, and a ``metrics.jsonl`` carrying every invariant
violation the auditor found in the finished run.

The target lives in ``repro.chaos`` — not ``repro.harness`` — because it
needs the auditor; the layering gate keeps harness (and everything below)
import-free of chaos. Importing ``repro.chaos`` registers the target in
the process-wide default registry.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.chaos.auditor import InvariantAuditor
from repro.chaos.composer import StormSpec
from repro.harness.manifest import canonical_json
from repro.harness.targets import CampaignTarget, RunOutput, register_target

#: Resolution defaults; every value lands fully expanded in the manifest.
_DEFAULTS: dict[str, Any] = {
    "app": "xapian",
    "platform": "google-cloud-functions",
    "horizon_s": 900.0,
    "rate_per_s": 6.0,
    "degree": 4,
    "batch_timeout_s": 2.0,
    "qos_sojourn_s": 30.0,
    "warm_ttl_s": 120.0,
    "protected": False,
    "admission_limit": 64,
    "audit": True,
    "slo_attainment_floor": 0.9,
}


class ChaosServingTarget(CampaignTarget):
    """Serve one storm, audited, and summarize the damage."""

    name = "chaos-serving"

    def resolve(self, params: Mapping[str, Any]) -> dict[str, Any]:
        from dataclasses import asdict

        from repro.platform.providers import PROVIDERS
        from repro.workloads import ALL_APPS

        params = dict(params)
        storm_payload = params.pop("storm", {})
        # Normalizing through StormSpec both validates the knobs and pins
        # every default into the manifest.
        storm = StormSpec.from_dict(storm_payload)
        resolved = dict(_DEFAULTS)
        for key in _DEFAULTS:
            if key in params:
                resolved[key] = params.pop(key)
        if params:
            raise ValueError(f"chaos-serving: unknown params {sorted(params)}")
        if resolved["app"] not in ALL_APPS:
            raise ValueError(f"chaos-serving: unknown app {resolved['app']!r}")
        if resolved["platform"] not in PROVIDERS:
            raise ValueError(
                f"chaos-serving: unknown platform {resolved['platform']!r}"
            )
        if resolved["horizon_s"] <= 0 or resolved["rate_per_s"] <= 0:
            raise ValueError("chaos-serving: horizon and rate must be positive")
        resolved["protected"] = bool(resolved["protected"])
        resolved["audit"] = bool(resolved["audit"])
        resolved["storm"] = storm.to_dict()
        resolved["app_spec"] = asdict(ALL_APPS[resolved["app"]])
        resolved["platform_profile"] = asdict(PROVIDERS[resolved["platform"]])
        return resolved

    def execute(self, resolved: Mapping[str, Any], seed: int) -> RunOutput:
        import numpy as np

        from repro.core.models import ExecutionTimeModel
        from repro.faults.retry import ExponentialBackoffRetry
        from repro.platform.providers import PROVIDERS
        from repro.resilience import (
            CircuitBreakerBank,
            ConcurrencyLimitAdmission,
            ResiliencePolicy,
        )
        from repro.serving import (
            FixedTTL,
            PoissonProcess,
            ServingConfig,
            ServingSimulator,
            StreamingPolicy,
            WarmPool,
        )
        from repro.workloads import ALL_APPS

        profile = PROVIDERS[resolved["platform"]]
        app = ALL_APPS[resolved["app"]]
        serving_cfg = ServingConfig(qos_sojourn_s=float(resolved["qos_sojourn_s"]))
        storm = StormSpec.from_dict(resolved["storm"])
        scenario = storm.compose(
            float(resolved["horizon_s"]), serving_cfg.fault_domains
        )
        # The coefficient-pinned model the seeded goldens use: exec time is
        # a pure function of the packing degree, no profiling required.
        exec_model = ExecutionTimeModel(
            coeff_a=app.base_seconds, coeff_b=0.03, mem_gb=app.mem_gb
        )
        resilience = None
        if resolved["protected"]:
            resilience = ResiliencePolicy(
                admission=ConcurrencyLimitAdmission(
                    limit=int(resolved["admission_limit"])
                ),
                breakers=CircuitBreakerBank(
                    n_domains=serving_cfg.fault_domains,
                    rng=np.random.default_rng(seed),
                    failure_threshold=3,
                    recovery_s=60.0,
                ),
            )
        simulator = ServingSimulator(
            profile,
            app,
            exec_model,
            pool=WarmPool(FixedTTL(float(resolved["warm_ttl_s"]))),
            config=serving_cfg,
            resilience=resilience,
            scenario=scenario,
            retry_policy=ExponentialBackoffRetry(max_retries=3),
            seed=seed,
        )
        run = simulator.run(
            PoissonProcess(float(resolved["rate_per_s"])),
            StreamingPolicy(
                degree=int(resolved["degree"]),
                batch_timeout_s=float(resolved["batch_timeout_s"]),
            ),
            float(resolved["horizon_s"]),
        )
        violations: list = []
        events_seen = 0
        if resolved["audit"]:
            report = InvariantAuditor().finalize(
                run, breakers=resilience.breakers if resilience else None
            )
            violations = report.violations
            events_seen = report.events_seen
        attainment = run.windowed_p99_attainment()
        # A total-loss storm completes nothing; the digest has no quantile.
        p99 = run.p99_sojourn_s if run.n_completed > 0 else -1.0
        summary = {
            "storm": storm.name,
            "protected": bool(resolved["protected"]),
            "requests": run.n_requests,
            "completed": run.n_completed,
            "shed": run.n_shed,
            "failed": run.n_failed,
            "attainment": attainment,
            "p99_s": p99,
            "expense_usd": run.expense.total_usd,
            "usd_per_1k_completed": run.cost_per_completed_request_usd() * 1000,
            "crashes": run.resilience.crashes,
            "retries": run.resilience.retries,
            "throttled": run.resilience.throttled_attempts,
            "throttle_drops": run.resilience.throttle_drops,
            "breaker_opens": run.resilience.breaker_opens,
            "max_backlog": run.backlog.max_depth,
            "conserved": run.conserved() and run.resilience.conserved(),
            "slo_breach": attainment < float(resolved["slo_attainment_floor"]),
            "audit_events": events_seen,
            "violations": len(violations),
            "violation_kinds": sorted({v.invariant for v in violations}),
        }
        metrics = "".join(
            canonical_json(
                {"invariant": v.invariant, "time": v.time, "message": v.message}
            )
            + "\n"
            for v in violations
        )
        return RunOutput(summary=summary, metrics_jsonl=metrics)


# Module-level registration: importing repro.chaos (or this module) makes
# "chaos-serving" resolvable by manifests; module caching keeps it one-shot.
register_target(ChaosServingTarget())
