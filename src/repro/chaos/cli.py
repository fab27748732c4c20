"""``propack-chaos`` — adversarial storm search, auditing, and replay.

Subcommands::

    propack-chaos search --seed 0 --rounds 3 --root results
        Run the coverage-guided storm search against (un)protected
        serving, shrink the best failing storm to a minimal reproducing
        scenario, and persist it as a harness manifest under
        results/chaos/<run_id>/. Exits 0 when a failing storm was found
        and minimized (that is the search *succeeding*), 1 when every
        storm survived.

    propack-chaos audit --scenario calm --protected
        Serve one named fault scenario (or a storm JSON file), check the
        finished run with the invariant auditor and report the verdict.
        Exits non-zero on any violation — this is the CI gate that golden runs
        stay invariant-clean.

    propack-chaos replay results/chaos/<run_id>/manifest.json
        Re-execute a minimized storm manifest twice and assert both
        reproductions are byte-identical to the recorded summary.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional, Sequence

from repro.chaos.auditor import InvariantAuditor
from repro.chaos.composer import CORPUS, StormSpec
from repro.chaos.search import ChaosSearch, SearchConfig
from repro.harness.artifacts import ArtifactStore
from repro.harness.reproduce import reproduce_run
from repro.telemetry.logging import add_verbosity_flags, echo, get_console_logger


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propack-chaos",
        description=(
            "Adversarial chaos search with an invariant auditor "
            "and minimized repro manifests."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="find, shrink, and persist a storm")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--rounds", type=int, default=3,
                        help="mutation rounds after the seed corpus")
    search.add_argument("--population", type=int, default=4,
                        help="mutants evaluated per round")
    search.add_argument("--horizon", type=float, default=900.0,
                        help="serving horizon per evaluation (seconds)")
    search.add_argument("--rate", type=float, default=6.0,
                        help="arrival rate (requests/second)")
    search.add_argument("--protected", action="store_true",
                        help="attack protected serving (default: unprotected)")
    search.add_argument("--slo-floor", type=float, default=0.9,
                        help="windowed P99 attainment below this is a breach")
    search.add_argument("--shrink-budget", type=int, default=24,
                        help="max evaluations spent minimizing")
    search.add_argument("--root", default="results",
                        help="artifact root for the minimized manifest")
    search.add_argument("--campaign", default="chaos")
    add_verbosity_flags(search)

    audit = sub.add_parser("audit", help="audit one serving run")
    audit.add_argument("--scenario", default="calm",
                       help="a named FaultScenario (calm/flaky/stormy/"
                            "throttled), a storm archetype, or a JSON file "
                            "holding a StormSpec dict")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--horizon", type=float, default=900.0)
    audit.add_argument("--rate", type=float, default=6.0)
    audit.add_argument("--protected", action="store_true")
    add_verbosity_flags(audit)

    replay = sub.add_parser("replay", help="re-assert a minimized manifest")
    replay.add_argument("manifest", help="path to a run's manifest.json")
    replay.add_argument("--times", type=int, default=2,
                        help="how many reproductions to assert (default 2)")
    add_verbosity_flags(replay)

    return parser


# --------------------------------------------------------------------- #
def _cmd_search(args, log) -> int:
    config = SearchConfig(
        seed=args.seed,
        rounds=args.rounds,
        population=args.population,
        horizon_s=args.horizon,
        rate_per_s=args.rate,
        protected=args.protected,
        slo_attainment_floor=args.slo_floor,
        shrink_budget=args.shrink_budget,
        campaign=args.campaign,
    )

    def narrate(evaluation) -> None:
        log.info(
            "evaluated %-18s score=%.3f attainment=%.3f classes=%s",
            evaluation.spec.name,
            evaluation.score,
            evaluation.summary.get("attainment", 1.0),
            ",".join(sorted(evaluation.classes)) or "-",
        )

    search = ChaosSearch(config, on_evaluation=narrate)
    report = search.run(ArtifactStore(args.root))
    echo(report.summary())
    if report.found_failure:
        echo(f"coverage: {len(report.coverage)} features over "
             f"{report.evaluations} evaluations")
        echo(f"minimized run_id: {report.run_id}")
        return 0
    return 1


def _cmd_audit(args, log) -> int:
    import numpy as np

    from repro.core.models import ExecutionTimeModel
    from repro.faults.retry import ExponentialBackoffRetry
    from repro.faults.scenario import SCENARIOS
    from repro.platform.providers import GOOGLE_CLOUD_FUNCTIONS
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
    from repro.workloads import XAPIAN

    serving_cfg = ServingConfig()
    archetypes = {spec.name: spec for spec in CORPUS}
    if args.scenario in SCENARIOS:
        scenario = SCENARIOS[args.scenario]
    elif args.scenario in archetypes:
        scenario = archetypes[args.scenario].compose(
            args.horizon, serving_cfg.fault_domains
        )
    elif Path(args.scenario).exists():
        payload = json.loads(Path(args.scenario).read_text())
        scenario = StormSpec.from_dict(payload).compose(
            args.horizon, serving_cfg.fault_domains
        )
    else:
        known = sorted(SCENARIOS) + sorted(archetypes)
        raise SystemExit(
            f"error: {args.scenario!r} is neither a named scenario "
            f"({', '.join(known)}) nor a StormSpec JSON file"
        )

    resilience = None
    if args.protected:
        resilience = ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(limit=64),
            breakers=CircuitBreakerBank(
                n_domains=serving_cfg.fault_domains,
                rng=np.random.default_rng(args.seed),
                failure_threshold=3,
                recovery_s=60.0,
            ),
        )
    simulator = ServingSimulator(
        GOOGLE_CLOUD_FUNCTIONS,
        XAPIAN,
        ExecutionTimeModel(
            coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
        ),
        pool=WarmPool(FixedTTL(120.0)),
        config=serving_cfg,
        resilience=resilience,
        scenario=scenario,
        retry_policy=ExponentialBackoffRetry(max_retries=3),
        seed=args.seed,
    )
    run = simulator.run(
        PoissonProcess(args.rate),
        StreamingPolicy(degree=4, batch_timeout_s=2.0),
        args.horizon,
    )
    report = InvariantAuditor().finalize(
        run, breakers=resilience.breakers if resilience else None
    )
    echo(
        f"{scenario.name}: {run.n_requests} requests, "
        f"{run.n_completed} completed, {run.n_shed} shed, "
        f"{run.n_failed} failed; attainment "
        f"{run.windowed_p99_attainment():.3f}"
    )
    echo(report.summary())
    for violation in report.violations:
        log.error("%s", violation)
    return 0 if report.ok else 1


def _cmd_replay(args, log) -> int:
    import repro.chaos.target  # noqa: F401  (registers chaos-serving)

    if args.times < 1:
        raise SystemExit("error: --times must be >= 1")
    for attempt in range(1, args.times + 1):
        report = reproduce_run(args.manifest)
        if not (report.matched and report.byte_identical):
            echo(f"replay {attempt}/{args.times}: MISMATCH "
                 f"(run {report.run_id})")
            for m in report.mismatches:
                echo(f"  {m.key}: recorded={m.expected!r} "
                     f"reproduced={m.actual!r}")
            if not report.byte_identical and not report.mismatches:
                echo("  summary values match but serialization drifted")
            return 1
        log.info("replay %d/%d: byte-identical", attempt, args.times)
    echo(
        f"run {report.run_id} ({report.target}): REPRODUCED byte-identically "
        f"{args.times}× in a row"
    )
    if report.resolution_drift:
        log.warning(
            "resolution drift (same params resolve differently today): %s",
            ", ".join(report.resolution_drift),
        )
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "audit": _cmd_audit,
    "replay": _cmd_replay,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    log = get_console_logger(
        verbose=getattr(args, "verbose", 0), quiet=getattr(args, "quiet", 0)
    )
    try:
        return _COMMANDS[args.command](args, log)
    except (FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
