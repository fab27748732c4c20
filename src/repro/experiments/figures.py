"""One function per paper artifact.

Every function reproduces the corresponding figure's sweep and returns a
:class:`~repro.experiments.tables.FigureResult` whose rows are the series
the paper plots. Shape assertions live in ``benchmarks/``; this module only
measures.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.batching import SerialBatcher
from repro.baselines.nopack import run_unpacked
from repro.baselines.oracle import Oracle
from repro.baselines.pywren import PywrenManager
from repro.baselines.stagger import StaggeredInvoker
from repro.core.models import fit_model_family
from repro.experiments.runner import ExperimentContext, improvement
from repro.experiments.tables import FigureResult
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA
from repro.sim.stats import relative_spread
from repro.workloads import (
    SMITH_WATERMAN,
    SORT,
    STATELESS_COST,
    VIDEO,
    XAPIAN,
)

MOTIVATION_APPS = (VIDEO, SORT, STATELESS_COST)


# --------------------------------------------------------------------- #
# Motivation figures
# --------------------------------------------------------------------- #

def fig1(ctx: ExperimentContext) -> FigureResult:
    """Fig. 1 — scaling time as a fraction of total service time."""
    result = FigureResult(
        "F1",
        "Scaling time share of total service time (no packing)",
        ["platform", "app", "concurrency", "scaling_s", "service_s", "share_pct"],
    )
    for profile in ctx.cloud_profiles():
        for app in MOTIVATION_APPS:
            for c in ctx.config.concurrencies:
                run = ctx.baseline(app, c, profile)
                result.add(
                    platform=profile.name,
                    app=app.name,
                    concurrency=c,
                    scaling_s=run.scaling_time,
                    service_s=run.service_time(),
                    share_pct=100.0 * run.scaling_time / run.service_time(),
                )
    return result


def fig2(ctx: ExperimentContext) -> FigureResult:
    """Fig. 2 — scheduling/start-up/shipping each grow with concurrency.

    Reported as the paper does: each component's completion makespan as a
    percentage of its own value at the highest concurrency.
    """
    result = FigureResult(
        "F2",
        "Scaling-time components vs concurrency (% of value at max C)",
        ["concurrency", "scheduling_pct", "startup_pct", "shipping_pct"],
    )
    plat = ctx.platform()
    samples = {}
    for c in ctx.config.concurrencies:
        run = ctx.baseline(SORT, c)
        samples[c] = run.component_totals()
    top = samples[max(samples)]
    for c in ctx.config.concurrencies:
        result.add(
            concurrency=c,
            scheduling_pct=100.0 * samples[c]["scheduling"] / top["scheduling"],
            startup_pct=100.0 * samples[c]["startup"] / top["startup"],
            shipping_pct=100.0 * samples[c]["shipping"] / top["shipping"],
        )
    return result


def fig4(ctx: ExperimentContext) -> FigureResult:
    """Fig. 4 — execution time vs packing degree: observed + model fit."""
    result = FigureResult(
        "F4",
        "Instance execution time vs packing degree (observed vs model)",
        ["app", "degree", "observed_s", "model_s", "error_pct"],
    )
    pp = ctx.propack()
    for app in MOTIVATION_APPS:
        profile = pp.interference_profile(app)
        for degree, observed in profile.observed().items():
            model = profile.model.predict(degree)
            result.add(
                app=app.name,
                degree=degree,
                observed_s=observed,
                model_s=model,
                error_pct=100.0 * abs(model - observed) / observed,
            )
        result.notes.append(
            f"{app.name}: {len(profile.degrees)} sampled degrees, "
            f"alpha={profile.model.alpha:.4f}"
        )
    return result


def fig5a(ctx: ExperimentContext) -> FigureResult:
    """Fig. 5a — execution time of one instance is flat in concurrency."""
    result = FigureResult(
        "F5a",
        "Instance execution time vs concurrency level (packing degree 1)",
        ["app", "concurrency", "mean_exec_s"],
    )
    for app in MOTIVATION_APPS:
        series = []
        for c in ctx.config.concurrencies:
            run = ctx.baseline(app, c)
            series.append(run.mean_exec_seconds)
            result.add(app=app.name, concurrency=c, mean_exec_s=run.mean_exec_seconds)
        result.notes.append(
            f"{app.name}: relative spread {100 * relative_spread(series):.2f}% "
            "(paper: <5%)"
        )
    return result


def fig5b(ctx: ExperimentContext) -> FigureResult:
    """Fig. 5b — scaling time is independent of the application."""
    result = FigureResult(
        "F5b",
        "Scaling time vs concurrency, per application (no packing)",
        ["concurrency", "app", "scaling_s"],
    )
    by_c: dict[int, list[float]] = {}
    for app in MOTIVATION_APPS:
        for c in ctx.config.concurrencies:
            run = ctx.baseline(app, c)
            result.add(concurrency=c, app=app.name, scaling_s=run.scaling_time)
            by_c.setdefault(c, []).append(run.scaling_time)
    worst = max(relative_spread(v) for v in by_c.values())
    result.notes.append(
        f"max cross-application scaling-time spread at fixed C: {100 * worst:.2f}%"
    )
    return result


# --------------------------------------------------------------------- #
# Mechanism figures
# --------------------------------------------------------------------- #

def fig6(ctx: ExperimentContext) -> FigureResult:
    """Fig. 6 — scaling time falls with packing degree at fixed C."""
    c = ctx.config.high_concurrency
    result = FigureResult(
        "F6",
        f"Scaling time vs packing degree (concurrency {c})",
        ["app", "degree", "scaling_s"],
    )
    plat = ctx.platform()
    for app in MOTIVATION_APPS:
        max_degree = app.max_packing_degree(plat.profile.max_memory_mb)
        for degree in sorted({1, 2, 4, 8, min(12, max_degree), max_degree}):
            run = plat.run_burst(
                BurstSpec(app=app, concurrency=c, packing_degree=degree)
            )
            result.add(app=app.name, degree=degree, scaling_s=run.scaling_time)
    return result


def fig7(ctx: ExperimentContext) -> FigureResult:
    """Fig. 7 — expense is not monotonic in the packing degree (C=1000)."""
    c = ctx.config.low_concurrency
    result = FigureResult(
        "F7",
        f"Expense vs packing degree (concurrency {c})",
        ["app", "degree", "expense_usd"],
    )
    plat = ctx.platform()
    for app in MOTIVATION_APPS:
        max_degree = app.max_packing_degree(plat.profile.max_memory_mb)
        series = []
        for degree in range(1, max_degree + 1):
            run = plat.run_burst(
                BurstSpec(app=app, concurrency=c, packing_degree=degree)
            )
            series.append(run.expense.total_usd)
            result.add(app=app.name, degree=degree, expense_usd=run.expense.total_usd)
        arg = int(np.argmin(series)) + 1
        result.notes.append(
            f"{app.name}: expense minimum at degree {arg} of {max_degree}"
            + (" (interior minimum — non-monotonic)" if arg < max_degree else "")
        )
    return result


def fig8(ctx: ExperimentContext) -> FigureResult:
    """Fig. 8 — Oracle packing degree vs ProPack's, per figure of merit."""
    result = FigureResult(
        "F8",
        "Oracle vs ProPack packing degree (joint objective)",
        ["app", "concurrency", "merit", "oracle_degree", "propack_degree", "match"],
    )
    plat = ctx.platform()
    oracle = Oracle(plat)
    pp = ctx.propack()
    for app in MOTIVATION_APPS:
        max_degree = app.max_packing_degree(plat.profile.max_memory_mb)
        degrees = range(1, max_degree + 1, ctx.config.oracle_stride)
        for c in ctx.config.concurrencies:
            sweep = oracle.sweep(app, c, degrees=degrees)
            for merit in ctx.config.merits:
                oracle_deg = sweep.best_degree("joint", merit=merit)
                plan, _ = pp.plan(app, c, objective="joint", merit=merit)
                result.add(
                    app=app.name,
                    concurrency=c,
                    merit=merit,
                    oracle_degree=oracle_deg,
                    propack_degree=plan.degree,
                    match=abs(plan.degree - oracle_deg) <= 2,
                )
    return result


def validation_chi2(ctx: ExperimentContext) -> FigureResult:
    """Sec. 2.4 — χ² goodness of fit of the service & expense models."""
    result = FigureResult(
        "S2.4",
        "Pearson chi-square goodness of fit (critical value 4.075 @ dof 14)",
        ["app", "concurrency", "service_chi2", "expense_chi2", "accepted"],
    )
    pp = ctx.propack()
    for app in MOTIVATION_APPS:
        for c in (ctx.config.low_concurrency, ctx.config.high_concurrency):
            gof = pp.validate_models(app, c)
            result.add(
                app=app.name,
                concurrency=c,
                service_chi2=gof["service"].statistic,
                expense_chi2=gof["expense"].statistic,
                accepted=gof["service"].accepted and gof["expense"].accepted,
            )
    stats = [r["service_chi2"] for r in result.rows]
    result.notes.append(
        f"max service statistic {max(stats):.3f} (paper: 3.81); "
        f"max expense statistic {max(r['expense_chi2'] for r in result.rows):.4f} "
        "(paper: 0.055)"
    )
    return result


# --------------------------------------------------------------------- #
# Headline evaluation figures
# --------------------------------------------------------------------- #

def _improvement_sweep(ctx: ExperimentContext, metric: str) -> FigureResult:
    titles = {
        "service": ("F9", "Service-time improvement over no packing (%)"),
        "scaling": ("F10", "Scaling-time improvement over no packing (%)"),
        "expense": ("F11", "Expense improvement over no packing (%)"),
    }
    fig_id, title = titles[metric]
    # The paper reports the service figure across all figures of merit
    # (total/tail/median); scaling and expense are merit-free quantities.
    merits = ctx.config.merits if metric == "service" else ("total",)
    result = FigureResult(
        fig_id,
        title,
        ["app", "concurrency", "merit", "degree", "improvement_pct", "std_pct"],
    )
    pp = ctx.propack()
    for app in MOTIVATION_APPS:
        for c in ctx.config.concurrencies:
            for merit in merits:
                # The paper repeats every experiment for statistical
                # significance; we report the mean over repetitions.
                values = []
                degree = None
                for _ in range(ctx.config.repetitions):
                    base = ctx.baseline(app, c)
                    out = pp.run(app, c, objective="joint", merit=merit)
                    degree = out.plan.degree
                    if metric == "service":
                        values.append(
                            improvement(
                                base.service_time(merit),
                                out.result.service_time(merit),
                            )
                        )
                    elif metric == "scaling":
                        values.append(
                            improvement(base.scaling_time, out.result.scaling_time)
                        )
                    else:
                        values.append(
                            improvement(base.expense.total_usd, out.total_expense_usd)
                        )
                result.add(
                    app=app.name,
                    concurrency=c,
                    merit=merit,
                    degree=degree,
                    improvement_pct=float(np.mean(values)),
                    std_pct=float(np.std(values)),
                )
    high = [
        r["improvement_pct"]
        for r in result.rows
        if r["concurrency"] == ctx.config.high_concurrency
    ]
    result.notes.append(
        f"mean improvement at C={ctx.config.high_concurrency}: "
        f"{float(np.mean(high)):.1f}%"
    )
    return result


def fig9(ctx: ExperimentContext) -> FigureResult:
    """Fig. 9 — total service time improvement (85% avg at C=5000)."""
    return _improvement_sweep(ctx, "service")


def fig10(ctx: ExperimentContext) -> FigureResult:
    """Fig. 10 — scaling time improvement (>90% at C=5000)."""
    return _improvement_sweep(ctx, "scaling")


def fig11(ctx: ExperimentContext) -> FigureResult:
    """Fig. 11 — expense improvement (66% avg at C=5000)."""
    return _improvement_sweep(ctx, "expense")


def fig12(ctx: ExperimentContext) -> FigureResult:
    """Fig. 12 — absolute service function-hours and expense at C=2000."""
    c = ctx.config.mid_concurrency
    result = FigureResult(
        "F12",
        f"Absolute function-hours and expense (concurrency {c})",
        ["app", "variant", "function_hours", "expense_usd"],
    )
    pp = ctx.propack()
    for app in MOTIVATION_APPS:
        base = ctx.baseline(app, c)
        out = pp.run(app, c, objective="joint")
        result.add(
            app=app.name,
            variant="no packing",
            function_hours=base.function_hours,
            expense_usd=base.expense.total_usd,
        )
        result.add(
            app=app.name,
            variant="propack",
            function_hours=out.result.function_hours,
            expense_usd=out.total_expense_usd,
        )
    return result


def fig13(ctx: ExperimentContext) -> FigureResult:
    """Fig. 13 — ProPack(Service Time) vs joint on service time."""
    return _single_objective_delta(ctx, "service", "F13")


def fig14(ctx: ExperimentContext) -> FigureResult:
    """Fig. 14 — ProPack(Expense) vs joint on expense."""
    return _single_objective_delta(ctx, "expense", "F14")


def _single_objective_delta(
    ctx: ExperimentContext, objective: str, fig_id: str
) -> FigureResult:
    metric_name = "service" if objective == "service" else "expense"
    result = FigureResult(
        fig_id,
        f"ProPack({objective}-only) vs ProPack(joint): {metric_name} improvement (%)",
        [
            "app",
            "concurrency",
            "joint_improvement_pct",
            "single_improvement_pct",
            "delta_pct",
        ],
    )
    pp = ctx.propack()
    deltas = []
    for app in MOTIVATION_APPS:
        for c in ctx.config.concurrencies:
            base = ctx.baseline(app, c)
            joint = pp.run(app, c, objective="joint")
            single = pp.run(app, c, objective=objective)
            if objective == "service":
                base_v = base.service_time()
                joint_v = joint.result.service_time()
                single_v = single.result.service_time()
            else:
                base_v = base.expense.total_usd
                joint_v = joint.total_expense_usd
                single_v = single.total_expense_usd
            joint_imp = improvement(base_v, joint_v)
            single_imp = improvement(base_v, single_v)
            deltas.append(single_imp - joint_imp)
            result.add(
                app=app.name,
                concurrency=c,
                joint_improvement_pct=joint_imp,
                single_improvement_pct=single_imp,
                delta_pct=single_imp - joint_imp,
            )
    result.notes.append(
        f"mean extra improvement of the single-objective variant: "
        f"{float(np.mean(deltas)):.1f}% (paper: 7.5% service / 9.3% expense)"
    )
    return result


def fig15(ctx: ExperimentContext) -> FigureResult:
    """Fig. 15 — Oracle degrees: service-only vs expense-only objectives."""
    result = FigureResult(
        "F15",
        "Oracle packing degree by objective (and ProPack's choice)",
        [
            "app",
            "concurrency",
            "objective",
            "oracle_degree",
            "propack_degree",
            "match",
        ],
    )
    plat = ctx.platform()
    oracle = Oracle(plat)
    pp = ctx.propack()
    for app in MOTIVATION_APPS:
        max_degree = app.max_packing_degree(plat.profile.max_memory_mb)
        degrees = range(1, max_degree + 1, ctx.config.oracle_stride)
        for c in (ctx.config.low_concurrency, ctx.config.mid_concurrency):
            sweep = oracle.sweep(app, c, degrees=degrees)
            for objective in ("service", "expense"):
                oracle_deg = sweep.best_degree(objective)
                plan, _ = pp.plan(app, c, objective=objective)
                result.add(
                    app=app.name,
                    concurrency=c,
                    objective=objective,
                    oracle_degree=oracle_deg,
                    propack_degree=plan.degree,
                    match=abs(plan.degree - oracle_deg) <= 2,
                )
    return result


def fig16(ctx: ExperimentContext) -> FigureResult:
    """Fig. 16 — effect of the W_S/W_E weights (Stateless @ high C)."""
    c = ctx.config.high_concurrency
    app = STATELESS_COST
    result = FigureResult(
        "F16",
        f"Weight sweep for {app.name} (concurrency {c})",
        ["w_s", "w_e", "degree", "service_improvement_pct", "expense_improvement_pct"],
    )
    pp = ctx.propack()
    base = ctx.baseline(app, c)
    for w_s in ctx.config.weight_grid:
        out = pp.run(app, c, objective="joint", w_s=w_s)
        result.add(
            w_s=w_s,
            w_e=round(1.0 - w_s, 2),
            degree=out.plan.degree,
            service_improvement_pct=improvement(
                base.service_time(), out.result.service_time()
            ),
            expense_improvement_pct=improvement(
                base.expense.total_usd, out.total_expense_usd
            ),
        )
    return result


def fig17(ctx: ExperimentContext) -> FigureResult:
    """Fig. 17 — Smith-Waterman improvements (service/scaling/expense)."""
    app = SMITH_WATERMAN
    result = FigureResult(
        "F17",
        "Smith-Waterman improvements over no packing (%)",
        [
            "concurrency",
            "degree",
            "service_improvement_pct",
            "scaling_improvement_pct",
            "expense_improvement_pct",
        ],
    )
    pp = ctx.propack()
    for c in ctx.config.concurrencies:
        base = ctx.baseline(app, c)
        out = pp.run(app, c, objective="joint")
        result.add(
            concurrency=c,
            degree=out.plan.degree,
            service_improvement_pct=improvement(
                base.service_time(), out.result.service_time()
            ),
            scaling_improvement_pct=improvement(
                base.scaling_time, out.result.scaling_time
            ),
            expense_improvement_pct=improvement(
                base.expense.total_usd, out.total_expense_usd
            ),
        )
    max_deg = app.max_packing_degree(ctx.platform().profile.max_memory_mb)
    result.notes.append(
        f"max packing degree {max_deg}; chosen degrees stay well below it "
        "(compute-intensive functions pack poorly — paper Fig. 17)"
    )
    return result


def fig18(ctx: ExperimentContext) -> FigureResult:
    """Fig. 18 — FuncX vs AWS Lambda: scaling, and ProPack on both."""
    result = FigureResult(
        "F18",
        "FuncX vs AWS Lambda (scaling time and ProPack service time)",
        ["concurrency", "aws_scaling_s", "funcx_scaling_s", "funcx_speedup_pct",
         "app", "aws_propack_service_s", "funcx_propack_service_s"],
    )
    aws = ctx.platform()
    funcx = ctx.funcx()
    pp_aws = ctx.propack()
    from repro.core.propack import ProPack

    pp_fx = ProPack(funcx.platform)
    for c in ctx.config.concurrencies:
        aws_scaling = aws.measure_scaling_time(c)
        fx_scaling = funcx.measure_scaling_time(c)
        for app in (SORT,):
            aws_out = pp_aws.run(app, c, objective="joint")
            fx_out = pp_fx.run(app, c, objective="joint")
            result.add(
                concurrency=c,
                aws_scaling_s=aws_scaling,
                funcx_scaling_s=fx_scaling,
                funcx_speedup_pct=improvement(aws_scaling, fx_scaling),
                app=app.name,
                aws_propack_service_s=aws_out.result.service_time(),
                funcx_propack_service_s=fx_out.result.service_time(),
            )
    return result


def fig19(ctx: ExperimentContext) -> FigureResult:
    """Fig. 19 — ProPack vs Pywren (service time and expense)."""
    result = FigureResult(
        "F19",
        "ProPack improvement over Pywren (%)",
        ["app", "concurrency", "service_improvement_pct", "expense_improvement_pct"],
    )
    plat = ctx.platform()
    pp = ctx.propack()
    pywren = PywrenManager(plat)
    service_imps, expense_imps = [], []
    for app in MOTIVATION_APPS:
        for c in ctx.config.concurrencies:
            pw = pywren.map(app, c)
            out = pp.run(app, c, objective="joint")
            s_imp = improvement(pw.service_time(), out.result.service_time())
            e_imp = improvement(pw.expense.total_usd, out.total_expense_usd)
            service_imps.append(s_imp)
            expense_imps.append(e_imp)
            result.add(
                app=app.name,
                concurrency=c,
                service_improvement_pct=s_imp,
                expense_improvement_pct=e_imp,
            )
    result.notes.append(
        f"mean: service {float(np.mean(service_imps)):.1f}% "
        f"(paper: 52%), expense {float(np.mean(expense_imps)):.1f}% (paper: 78%)"
    )
    return result


def fig20(ctx: ExperimentContext) -> FigureResult:
    """Fig. 20 — Xapian under a QoS bound on tail latency."""
    app = XAPIAN
    c = ctx.config.high_concurrency
    qos = ctx.config.xapian_qos_s
    result = FigureResult(
        "F20",
        f"Xapian QoS-aware packing (concurrency {c}, QoS tail <= {qos}s)",
        ["variant", "w_s", "degree", "tail_service_s", "expense_usd",
         "meets_qos", "tail_improvement_pct", "expense_improvement_pct"],
    )
    pp = ctx.propack()
    base = ctx.baseline(app, c)
    base_tail = base.service_time("tail")
    base_usd = base.expense.total_usd

    service_out = pp.run(app, c, objective="service", merit="tail")
    qos_out = pp.run(app, c, objective="joint", qos_tail_bound_s=qos)
    expense_out = pp.run(app, c, objective="expense")
    for variant, out, w_s in (
        ("service-only", service_out, 1.0),
        ("qos-joint", qos_out, qos_out.qos_decision.w_s),
        ("expense-only", expense_out, 0.0),
    ):
        tail = out.result.service_time("tail")
        result.add(
            variant=variant,
            w_s=w_s,
            degree=out.plan.degree,
            tail_service_s=tail,
            expense_usd=out.total_expense_usd,
            meets_qos=tail <= qos,
            tail_improvement_pct=improvement(base_tail, tail),
            expense_improvement_pct=improvement(base_usd, out.total_expense_usd),
        )
    result.notes.append(
        f"QoS search chose W_S={qos_out.qos_decision.w_s:.2f} "
        f"(paper: 0.65 for Xapian); baseline tail {base_tail:.1f}s"
    )
    return result


def fig21(ctx: ExperimentContext) -> FigureResult:
    """Fig. 21 — improvements across cloud providers (C=1000)."""
    c = ctx.config.low_concurrency
    result = FigureResult(
        "F21",
        f"Cross-platform improvements (concurrency {c})",
        ["platform", "app", "degree", "service_improvement_pct",
         "expense_improvement_pct"],
    )
    for profile in ctx.cloud_profiles():
        pp = ctx.propack(profile)
        for app in MOTIVATION_APPS:
            base = ctx.baseline(app, c, profile)
            out = pp.run(app, c, objective="joint")
            result.add(
                platform=profile.name,
                app=app.name,
                degree=out.plan.degree,
                service_improvement_pct=improvement(
                    base.service_time(), out.result.service_time()
                ),
                expense_improvement_pct=improvement(
                    base.expense.total_usd, out.total_expense_usd
                ),
            )
    return result


# --------------------------------------------------------------------- #
# Ablations (ours, grounded in the paper's design discussion)
# --------------------------------------------------------------------- #

def ablation_model_families(ctx: ExperimentContext) -> FigureResult:
    """Sec. 2.2's model selection: which family fits ET and scaling best."""
    result = FigureResult(
        "A1",
        "Model-family fit ranking (SSE) for ET(P) and Scaling(C)",
        ["curve", "family", "sse", "rank"],
    )
    pp = ctx.propack()
    profile = pp.interference_profile(VIDEO)
    fits = fit_model_family(profile.degrees, profile.exec_times)
    for rank, fit in enumerate(fits, start=1):
        result.add(curve="exec-time(video)", family=fit.family, sse=fit.sse, rank=rank)
    scaling = pp.scaling_profile()
    fits = fit_model_family(scaling.concurrencies, scaling.scaling_times)
    for rank, fit in enumerate(fits, start=1):
        result.add(curve="scaling(aws)", family=fit.family, sse=fit.sse, rank=rank)
    return result


def ablation_alternatives(ctx: ExperimentContext) -> FigureResult:
    """Serial batching and staggering vs ProPack (paper Secs. 1 and 4)."""
    c = ctx.config.mid_concurrency
    result = FigureResult(
        "A2",
        f"Alternative mitigations vs ProPack (concurrency {c})",
        ["app", "technique", "service_s", "expense_usd"],
    )
    plat = ctx.platform()
    pp = ctx.propack()
    for app in (SORT, STATELESS_COST):
        base = ctx.baseline(app, c)
        result.add(app=app.name, technique="no packing",
                   service_s=base.service_time(), expense_usd=base.expense.total_usd)
        batch = SerialBatcher(plat, batch_size=500).run(app, c)
        result.add(app=app.name, technique="serial batching (500)",
                   service_s=batch.service_time, expense_usd=batch.expense_usd)
        stag = StaggeredInvoker(plat, delay_s=0.25).run(app, c)
        result.add(app=app.name, technique="staggered (0.25s)",
                   service_s=stag.service_time, expense_usd=stag.expense_usd)
        out = pp.run(app, c, objective="joint")
        result.add(app=app.name, technique="propack",
                   service_s=out.result.service_time(),
                   expense_usd=out.total_expense_usd)
    return result


def ablation_provider_mitigation(ctx: ExperimentContext) -> FigureResult:
    """Paper Sec. 5: effective provider-side mitigation lowers P_opt.

    Sweep the scheduler-search coefficient down (the provider 'fixing' its
    control plane) and watch the service-time-optimal packing degree shrink
    — the desirable outcome the paper predicts for functions with large
    memory footprints. (The expense-optimal degree is scaling-independent,
    so the service objective is where mitigation shows.)
    """
    from repro.core.propack import ProPack
    from repro.platform.base import ServerlessPlatform

    c = ctx.config.mid_concurrency
    result = FigureResult(
        "A3",
        f"Provider-side mitigation sweep (concurrency {c}, app=sort)",
        ["sched_search_factor", "scaling_at_c_s", "degree",
         "service_improvement_pct"],
    )
    for factor in (1.0, 0.5, 0.25, 0.1, 0.02):
        profile = AWS_LAMBDA.with_overrides(
            name=f"aws-mitigated-{factor}",
            sched_search_s=AWS_LAMBDA.sched_search_s * factor,
        )
        platform = ServerlessPlatform(profile, seed=ctx.config.seed)
        pp = ProPack(platform)
        base = run_unpacked(platform, SORT, c)
        out = pp.run(SORT, c, objective="service")
        result.add(
            sched_search_factor=factor,
            scaling_at_c_s=base.scaling_time,
            degree=out.plan.degree,
            service_improvement_pct=improvement(
                base.service_time(), out.result.service_time()
            ),
        )
    return result


def ablation_skew(ctx: ExperimentContext) -> FigureResult:
    """Input skew robustness (our extension).

    The paper's models assume homogeneous per-function work. With skewed
    inputs a packed instance waits for its slowest function, so the
    homogeneous model under-predicts packed execution — this ablation
    quantifies how the χ² fit and the realized improvement degrade as the
    coefficient of variation grows.
    """
    from repro.core.validation import chi_square_statistic
    from repro.platform.base import ServerlessPlatform

    c = ctx.config.mid_concurrency
    app = SORT
    result = FigureResult(
        "A4",
        f"Input-skew robustness (app={app.name}, concurrency {c})",
        ["skew_cv", "service_chi2", "service_improvement_pct"],
    )
    # Timeout enforcement off: at high skew the slowest straggler in a
    # fully packed instance can cross the 15-minute cap, and this ablation
    # wants to observe that regime, not crash on it.
    plat = ServerlessPlatform(AWS_LAMBDA, seed=ctx.config.seed, enforce_timeout=False)
    pp = ctx.propack()
    optimizer = pp.optimizer(app, c)
    degrees = [d for d in optimizer.degrees() if d % 2 == 1]
    plan, _ = pp.plan(app, c, objective="joint")
    for cv in (0.0, 0.2, 0.4, 0.8):
        observed, expected = [], []
        for degree in degrees:
            run = plat.run_burst(
                BurstSpec(app=app, concurrency=c, packing_degree=degree, skew_cv=cv)
            )
            observed.append(run.service_time())
            expected.append(optimizer.service.predict(degree))
        base = plat.run_burst(BurstSpec(app=app, concurrency=c, skew_cv=cv))
        packed = plat.run_burst(
            BurstSpec(app=app, concurrency=c, packing_degree=plan.degree, skew_cv=cv)
        )
        result.add(
            skew_cv=cv,
            service_chi2=chi_square_statistic(observed, expected),
            service_improvement_pct=improvement(
                base.service_time(), packed.service_time()
            ),
        )
    return result


def ablation_amortization(ctx: ExperimentContext) -> FigureResult:
    """Overhead amortization over repeated runs (paper Sec. 2.2 note)."""
    from repro.extensions.campaigns import run_campaign
    from repro.platform.base import ServerlessPlatform

    c = ctx.config.low_concurrency
    result = FigureResult(
        "A5",
        f"Profiling-overhead amortization (app={STATELESS_COST.name}, "
        f"concurrency {c})",
        ["runs", "cumulative_expense_improvement_pct", "overhead_share_pct"],
    )
    platform = ServerlessPlatform(AWS_LAMBDA, seed=ctx.config.seed + 1)
    report = run_campaign(platform, STATELESS_COST, c, runs=6)
    for n, pct in report.amortization_curve():
        packed = sum(report.per_run_packed_usd[:n]) + report.overhead_usd
        result.add(
            runs=n,
            cumulative_expense_improvement_pct=pct,
            overhead_share_pct=100.0 * report.overhead_usd / packed,
        )
    return result


def ablation_rightsizing(ctx: ExperimentContext) -> FigureResult:
    """How much of the expense win comes from the paper's 10 GB baseline?

    The paper provisions maximum-memory instances for *all* runs (Sec. 3),
    so the unpacked baseline pays for 10 GB per function. A cost-conscious
    user might right-size the baseline to the function's footprint — but on
    Lambda, CPU scales with memory, so the right-sized function runs on a
    fraction of a core and its execution time balloons. This ablation
    re-baselines against that realistic right-sized deployment: the expense
    gap narrows (GB-seconds are nearly CPU-bound-invariant) while ProPack
    dominates on service time — quantifying why the paper's max-memory
    setup is the right operating point for concurrent bursts.
    """
    c = ctx.config.mid_concurrency
    result = FigureResult(
        "A6",
        f"Right-sized baseline ablation (concurrency {c})",
        ["app", "baseline", "baseline_usd", "propack_usd",
         "expense_improvement_pct", "service_improvement_pct"],
    )
    plat = ctx.platform()
    pp = ctx.propack()
    for app in MOTIVATION_APPS:
        out = pp.run(app, c, objective="joint")
        for label, provisioned in (
            ("max-memory (paper)", None),
            ("right-sized", app.mem_mb),
        ):
            base = plat.run_burst(
                BurstSpec(app=app, concurrency=c, provisioned_mb=provisioned)
            )
            result.add(
                app=app.name,
                baseline=label,
                baseline_usd=base.expense.total_usd,
                propack_usd=out.total_expense_usd,
                expense_improvement_pct=improvement(
                    base.expense.total_usd, out.total_expense_usd
                ),
                service_improvement_pct=improvement(
                    base.service_time(), out.result.service_time()
                ),
            )
    return result


def streaming_policies(ctx: ExperimentContext) -> FigureResult:
    """S1 (ours) — packing a sustained request stream under a sojourn QoS.

    For several Poisson arrival rates, plan a ``(degree, timeout)`` policy
    with the streaming planner and validate it in the serving simulator
    (a 120 s keep-alive pool, billed cold-start initialization and warm
    idle time). Cost per request falls as traffic grows (fuller batches
    fit under the same bound).
    """
    from repro.extensions.streaming import StreamingPlanner
    from repro.serving import (
        FixedTTL,
        PoissonProcess,
        ServingSimulator,
        StreamingPolicy,
        WarmPool,
    )
    from repro.workloads import XAPIAN

    qos = 25.0
    result = FigureResult(
        "S1",
        f"Streaming packing for {XAPIAN.name} (p95 sojourn <= {qos}s)",
        ["rate_per_s", "degree", "timeout_s", "p95_sojourn_s", "meets_qos",
         "usd_per_1k_requests", "savings_vs_solo_pct"],
    )
    pp = ctx.propack()
    exec_model = pp.exec_model(XAPIAN)
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, exec_model)
    n = 400

    def serve(policy, rate, repetition):
        simulator = ServingSimulator(
            AWS_LAMBDA,
            XAPIAN,
            exec_model,
            pool=WarmPool(FixedTTL(120.0)),
            seed=ctx.config.seed,
        )
        return simulator.run(
            PoissonProcess(rate), policy, n / rate, repetition=repetition
        )

    for rate in (0.5, 2.0, 8.0, 32.0):
        policy = planner.plan(arrival_rate_per_s=rate, qos_sojourn_s=qos)
        run = serve(policy, rate, 0)
        solo = serve(StreamingPolicy(degree=1, batch_timeout_s=0.0), rate, 1)
        cost = run.cost_per_request_usd()
        result.add(
            rate_per_s=rate,
            degree=policy.degree,
            timeout_s=policy.batch_timeout_s,
            p95_sojourn_s=run.p95_sojourn_s,
            meets_qos=run.p95_sojourn_s <= qos,
            usd_per_1k_requests=cost * 1000,
            savings_vs_solo_pct=improvement(solo.cost_per_request_usd(), cost),
        )
    return result


def multitenant_benefit(ctx: ExperimentContext) -> FigureResult:
    """M2 (ours) — the provider-side benefit of packing (paper Sec. 5).

    Two tenants share one fleet: a big analytics burst and a small
    latency-sensitive burst. Sweep the big tenant's packing degree and
    measure the *small* tenant's scaling time — packing by one tenant
    frees the shared placement loop for everyone else.
    """
    from repro.platform.multitenant import SharedFleet
    from repro.workloads import XAPIAN

    big_c = min(3000, ctx.config.high_concurrency)
    result = FigureResult(
        "M2",
        f"Neighbor-tenant benefit of packing (big tenant C={big_c})",
        ["big_tenant_degree", "big_scaling_s", "small_scaling_s",
         "small_service_s"],
    )
    for degree in (1, 2, 4, 8):
        fleet = SharedFleet(AWS_LAMBDA, seed=ctx.config.seed)
        fleet.submit(
            "big", BurstSpec(app=SORT, concurrency=big_c, packing_degree=degree)
        )
        fleet.submit("small", BurstSpec(app=XAPIAN, concurrency=300))
        results = fleet.run()
        result.add(
            big_tenant_degree=degree,
            big_scaling_s=results["big"].scaling_time,
            small_scaling_s=results["small"].scaling_time,
            small_service_s=results["small"].service_time(),
        )
    return result


def decentralization_matrix(ctx: ExperimentContext) -> FigureResult:
    """D1 (ours) — packing composes with decentralized scheduling.

    Paper Sec. 5: Wukong/FaaSNet-style decentralization attacks the same
    bottleneck from the provider side; it is "not free" (synchronization
    overhead grows with the shard count) and "not necessarily competitive"
    with packing. This matrix crosses control-plane topologies with
    packing: decentralization collapses scaling time (until sync overhead
    bites), but only packing also cuts expense — and the combination wins
    on both axes.
    """
    from repro.core.propack import ProPack
    from repro.platform.base import ServerlessPlatform

    c = ctx.config.high_concurrency
    result = FigureResult(
        "D1",
        f"Decentralized scheduling x packing (app=sort, C={c})",
        ["shards", "packing", "degree", "scaling_s", "service_s", "expense_usd"],
    )
    for shards in (1, 4, 64):
        profile = AWS_LAMBDA.with_overrides(
            name=f"aws-shards-{shards}", scheduler_shards=shards
        )
        platform = ServerlessPlatform(profile, seed=ctx.config.seed)
        base = run_unpacked(platform, SORT, c)
        result.add(
            shards=shards, packing="none", degree=1,
            scaling_s=base.scaling_time, service_s=base.service_time(),
            expense_usd=base.expense.total_usd,
        )
        out = ProPack(platform).run(SORT, c, objective="joint")
        result.add(
            shards=shards, packing="propack", degree=out.plan.degree,
            scaling_s=out.result.scaling_time,
            service_s=out.result.service_time(),
            expense_usd=out.total_expense_usd,
        )
    return result


def fault_sweep(ctx: ExperimentContext) -> FigureResult:
    """Failure-blind vs failure-aware packing across crash rates.

    Sweeps the per-attempt failure rate and compares the seed's
    failure-blind planner against the failure-aware planner (expected
    retry costs folded into the model curves) on the same flaky platform:
    chosen degree, realized service time, expense, and the work-loss
    ratio (wasted billed GB-seconds / total billed GB-seconds).
    """
    from repro.baselines.failureblind import compare_failure_awareness
    from repro.platform.base import ServerlessPlatform

    result = FigureResult(
        "FAULTS",
        "Failure-aware packing vs the failure-blind planner",
        [
            "failure_rate", "planner", "degree", "service_s", "expense_usd",
            "failed_attempts", "lost_functions", "work_loss_pct",
        ],
    )
    c = ctx.config.fault_concurrency
    for rate in ctx.config.failure_rates:
        profile = AWS_LAMBDA.with_overrides(
            name=f"aws-lambda-q{rate}", failure_rate=rate
        )
        platform = ServerlessPlatform(profile, seed=ctx.config.seed)
        comparison = compare_failure_awareness(platform, SORT, c)
        for planner, outcome in (
            ("blind", comparison.blind), ("aware", comparison.aware)
        ):
            run = outcome.result
            result.add(
                failure_rate=rate,
                planner=planner,
                degree=outcome.plan.degree,
                service_s=run.service_time(),
                expense_usd=outcome.total_expense_usd,
                failed_attempts=run.n_failed_attempts,
                lost_functions=run.lost_functions,
                work_loss_pct=100.0 * run.fault_stats.work_loss_ratio,
            )
    high = max(ctx.config.failure_rates)
    blind_deg = [r["degree"] for r in result.select(failure_rate=high, planner="blind")]
    aware_deg = [r["degree"] for r in result.select(failure_rate=high, planner="aware")]
    result.notes.append(
        f"at q={high}: blind packs P={blind_deg[0]}, aware backs off to "
        f"P={aware_deg[0]} (each crash of a packed instance loses P× work)"
    )
    return result


def serving_day(ctx: ExperimentContext) -> FigureResult:
    """SV1 (ours) — a simulated diurnal day of sustained service.

    Crosses keep-alive policy {none, fixed TTL, hybrid histogram} with
    planning mode {static policy planned at the base rate, online
    replanner} over one diurnal day of Xapian traffic. Reports cost per
    1k requests, cold-start fraction, p99 sojourn, and SLO violations —
    the acceptance claim is that the hybrid histogram beats no-keep-alive
    on cold-start fraction at equal-or-lower total cost.
    """
    from repro.extensions.streaming import StreamingPlanner
    from repro.serving import (
        DiurnalProcess,
        FixedTTL,
        HybridHistogram,
        NoKeepAlive,
        OnlineReplanner,
        ServingConfig,
        ServingSimulator,
        WarmPool,
    )
    from repro.workloads import XAPIAN

    cfg = ctx.config
    result = FigureResult(
        "SV1",
        (
            f"Diurnal serving day for {XAPIAN.name} "
            f"(horizon={cfg.serving_horizon_s:g}s, base rate="
            f"{cfg.serving_base_rate_per_s:g}/s, QoS p99 <= "
            f"{cfg.serving_qos_s:g}s)"
        ),
        [
            "keepalive", "mode", "requests", "usd_per_1k_requests",
            "cold_start_pct", "idle_gb_s", "p50_s", "p99_s",
            "slo_violation_pct", "policy_changes", "final_degree",
        ],
    )
    pp = ctx.propack()
    exec_model = pp.exec_model(XAPIAN)
    scaling_model = pp.scaling_model()
    serving_cfg = ServingConfig(qos_sojourn_s=cfg.serving_qos_s)
    process = DiurnalProcess(
        base_rate_per_s=cfg.serving_base_rate_per_s,
        amplitude=cfg.serving_amplitude,
        period_s=cfg.serving_horizon_s,
    )
    static_policy = StreamingPlanner(AWS_LAMBDA, XAPIAN, exec_model).plan(
        arrival_rate_per_s=cfg.serving_base_rate_per_s,
        qos_sojourn_s=cfg.serving_qos_s,
    )
    policies = (NoKeepAlive, lambda: FixedTTL(60.0), HybridHistogram)
    for make_policy in policies:
        for mode in ("static", "replan"):
            controller = (
                OnlineReplanner(
                    AWS_LAMBDA,
                    XAPIAN,
                    exec_model,
                    qos_sojourn_s=cfg.serving_qos_s,
                    scaling_model=scaling_model,
                )
                if mode == "replan"
                else None
            )
            simulator = ServingSimulator(
                AWS_LAMBDA,
                XAPIAN,
                exec_model,
                pool=WarmPool(make_policy()),
                config=serving_cfg,
                controller=controller,
                seed=cfg.seed,
            )
            run = simulator.run(process, static_policy, cfg.serving_horizon_s)
            result.add(
                keepalive=run.policy_name,
                mode=mode,
                requests=run.n_requests,
                usd_per_1k_requests=run.cost_per_request_usd() * 1000,
                cold_start_pct=100.0 * run.cold_start_fraction,
                idle_gb_s=run.idle_gb_seconds,
                p50_s=run.p50_sojourn_s,
                p99_s=run.p99_sojourn_s,
                slo_violation_pct=100.0 * run.slo_violation_fraction,
                policy_changes=run.policy_changes,
                final_degree=run.final_degree,
            )
    none_static = result.select(keepalive="no-keep-alive", mode="static")[0]
    hybrid_static = [
        r for r in result.rows
        if r["mode"] == "static" and r["keepalive"].startswith("hybrid")
    ][0]
    result.notes.append(
        "hybrid histogram vs no-keep-alive (static): cold starts "
        f"{hybrid_static['cold_start_pct']:.1f}% vs "
        f"{none_static['cold_start_pct']:.1f}% at "
        f"${hybrid_static['usd_per_1k_requests']:.4f} vs "
        f"${none_static['usd_per_1k_requests']:.4f} per 1k requests"
    )
    return result


def overload_flashcrowd(ctx: ExperimentContext) -> FigureResult:
    """OV1 (ours) — protection mode × flash-crowd arrivals under faults.

    An MMPP flash crowd (burst rate ×10+ the diurnal base) hits a faulty
    platform (elevated crashes with a persistent tail, a throttled control
    plane, stragglers). The same traffic and fault seed are served three
    ways: unprotected (PR 2 loop), admission-only, and full protection
    (admission + per-domain circuit breakers + brownout). The acceptance
    claim is that protected serving achieves strictly higher windowed P99
    SLO attainment than unprotected at equal-or-lower expense per
    *completed* request — shedding is only worth it if the survivors are
    cheap and on time.
    """
    import numpy as np

    from repro.extensions.streaming import StreamingPlanner
    from repro.faults.retry import ExponentialBackoffRetry
    from repro.faults.scenario import FaultScenario
    from repro.platform.providers import GOOGLE_CLOUD_FUNCTIONS
    from repro.resilience import (
        BrownoutController,
        CircuitBreakerBank,
        ConcurrencyLimitAdmission,
        ResiliencePolicy,
    )
    from repro.serving import (
        DiurnalProcess,
        FixedTTL,
        MarkovModulatedProcess,
        OnlineReplanner,
        ServingConfig,
        ServingSimulator,
        SuperposedProcess,
        WarmPool,
    )
    from repro.workloads import XAPIAN

    cfg = ctx.config
    profile = GOOGLE_CLOUD_FUNCTIONS  # egress is billed, so retries show up
    result = FigureResult(
        "OV1",
        (
            f"Flash-crowd overload for {XAPIAN.name} on {profile.name} "
            f"(horizon={cfg.overload_horizon_s:g}s, base="
            f"{cfg.overload_base_rate_per_s:g}/s, flash="
            f"{cfg.overload_flash_rate_per_s:g}/s, QoS p99 <= "
            f"{cfg.overload_qos_s:g}s)"
        ),
        [
            "protection", "requests", "completed", "shed", "failed",
            "attainment_pct", "p99_s", "usd_per_1k_completed",
            "wasted_gb_s", "retries", "throttled", "breaker_transitions",
            "brownout_level", "max_backlog",
        ],
    )
    exec_model = ctx.propack().exec_model(XAPIAN)
    process = SuperposedProcess([
        DiurnalProcess(
            base_rate_per_s=cfg.overload_base_rate_per_s,
            amplitude=cfg.serving_amplitude,
            period_s=cfg.overload_horizon_s,
        ),
        MarkovModulatedProcess(
            cfg.overload_flash_rate_per_s,
            0.0,
            mean_on_s=cfg.overload_flash_mean_on_s,
            mean_off_s=cfg.overload_flash_mean_off_s,
            start_on=False,
        ),
    ])
    scenario = FaultScenario(
        name="flash-crowd",
        crash_rate=0.08,
        persistent_fraction=0.05,
        poison_heal_s=900.0,
        throttle_capacity=30,
        throttle_refill_per_s=1.0,
        straggler_rate=0.005,
    )
    policy = StreamingPlanner(profile, XAPIAN, exec_model).plan(
        arrival_rate_per_s=cfg.overload_base_rate_per_s,
        qos_sojourn_s=cfg.overload_qos_s,
    )
    serving_cfg = ServingConfig(qos_sojourn_s=cfg.overload_qos_s)

    # The admission cap holds the healthy in-flight level (a few batches'
    # worth of requests); the flash crowd pushes far past it, so the cap
    # binds exactly when windows would otherwise drown.
    admit_limit = 8 * policy.degree

    def protection_for(mode: str):
        if mode == "unprotected":
            return None
        admission = ConcurrencyLimitAdmission(limit=admit_limit)
        if mode == "admission":
            return ResiliencePolicy(admission=admission)
        return ResiliencePolicy(
            admission=admission,
            breakers=CircuitBreakerBank(
                n_domains=serving_cfg.fault_domains,
                rng=np.random.default_rng(cfg.seed),
                failure_threshold=3,
                recovery_s=60.0,
            ),
            # A mild boost: the planner already packs near the latency
            # knee, so brownout trades a little execution time for a
            # large cut in dispatches (and their crash exposure).
            brownout=BrownoutController(
                violation_threshold=0.02,
                backlog_threshold=serving_cfg.backlog_threshold,
                degree_boost=1.25,
            ),
        )

    for mode in ("unprotected", "admission", "full"):
        controller = OnlineReplanner(
            profile, XAPIAN, exec_model, qos_sojourn_s=cfg.overload_qos_s
        )
        simulator = ServingSimulator(
            profile,
            XAPIAN,
            exec_model,
            pool=WarmPool(FixedTTL(60.0)),
            config=serving_cfg,
            controller=controller,
            resilience=protection_for(mode),
            scenario=scenario,
            retry_policy=ExponentialBackoffRetry(max_retries=3),
            seed=cfg.seed,
        )
        run = simulator.run(process, policy, cfg.overload_horizon_s)
        assert run.conserved() and run.resilience.conserved()
        result.add(
            protection=mode,
            requests=run.n_requests,
            completed=run.n_completed,
            shed=run.n_shed,
            failed=run.n_failed,
            attainment_pct=100.0 * run.windowed_p99_attainment(),
            p99_s=run.p99_sojourn_s,
            usd_per_1k_completed=run.cost_per_completed_request_usd() * 1000,
            wasted_gb_s=run.resilience.wasted_gb_seconds,
            retries=run.resilience.retries,
            throttled=run.resilience.throttled_attempts,
            breaker_transitions=run.resilience.breaker_transitions,
            brownout_level=run.resilience.brownout_max_level,
            max_backlog=run.backlog.max_depth,
        )
    unprot = result.select(protection="unprotected")[0]
    full = result.select(protection="full")[0]
    result.notes.append(
        "full protection vs unprotected: windowed P99 attainment "
        f"{full['attainment_pct']:.1f}% vs {unprot['attainment_pct']:.1f}% at "
        f"${full['usd_per_1k_completed']:.4f} vs "
        f"${unprot['usd_per_1k_completed']:.4f} per 1k completed requests"
    )
    return result


#: Registry used by the CLI and the benchmark suite.
def selfhealing_storms(ctx: ExperimentContext) -> FigureResult:
    """SH1 (ours) — self-healing vs hand-tuned vs unprotected under storms.

    Two stormy fault scenarios — a domain-poisoning storm (correlated
    bursts with persistent poison) and a deep-poison storm (most crashes
    leave their domain persistently sick, with a slow heal) — are each
    served three ways with the same traffic and fault seed:

    * **unprotected** — the day-one config: generous admission, lazy
      breakers, nobody watching;
    * **hand-tuned** — a static config an operator who knew the storm in
      advance would pick (tight admission, twitchy breakers);
    * **self-healing** — the day-one config plus the closed-loop
      auto-remediation control plane (detect → propose → shadow-verify →
      apply with rollback).

    The acceptance claim: the loop beats unprotected on windowed P99
    attainment at equal-or-lower cost per completed request, and lands
    within ~10% of the hand-tuned config — operator-free gets most of the
    operator's win.
    """
    import numpy as np

    from repro.faults.retry import ExponentialBackoffRetry
    from repro.faults.scenario import FaultScenario
    from repro.platform.providers import GOOGLE_CLOUD_FUNCTIONS
    from repro.remediation import RemediationConfig, RemediationLoop
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

    cfg = ctx.config
    profile = GOOGLE_CLOUD_FUNCTIONS
    exec_model = ctx.propack().exec_model(XAPIAN)
    serving_cfg = ServingConfig(qos_sojourn_s=cfg.selfheal_qos_s)
    result = FigureResult(
        "SH1",
        (
            f"Self-healing serving for {XAPIAN.name} on {profile.name} "
            f"(horizon={cfg.selfheal_horizon_s:g}s, rate="
            f"{cfg.selfheal_rate_per_s:g}/s, QoS p99 <= "
            f"{cfg.selfheal_qos_s:g}s)"
        ),
        [
            "scenario", "mode", "requests", "completed", "shed", "failed",
            "attainment_pct", "p99_s", "usd_per_1k_completed",
            "detections", "applied", "rollbacks",
        ],
    )

    scenarios = [
        FaultScenario(
            name="poison-storm",
            crash_rate=0.05,
            correlated_bursts=2,
            correlated_fraction=0.5,
            correlated_window_s=120.0,
            persistent_fraction=0.5,
            poison_heal_s=600.0,
            straggler_rate=0.01,
        ),
        FaultScenario(
            name="deep-poison",
            crash_rate=0.06,
            correlated_bursts=1,
            correlated_fraction=0.6,
            correlated_window_s=180.0,
            persistent_fraction=0.7,
            poison_heal_s=900.0,
            straggler_rate=0.01,
        ),
    ]

    def resilience_for(mode):
        if mode == "hand-tuned":
            # The operator who saw the storm coming: tight admission and
            # twitchy breakers that evict bad domains fast.
            return ResiliencePolicy(
                admission=ConcurrencyLimitAdmission(
                    limit=cfg.selfheal_handtuned_limit
                ),
                breakers=CircuitBreakerBank(
                    n_domains=serving_cfg.fault_domains,
                    rng=np.random.default_rng(cfg.seed),
                    failure_threshold=2,
                    recovery_s=90.0,
                ),
            )
        # Day-one config shared by "unprotected" and "self-healing".
        return ResiliencePolicy(
            admission=ConcurrencyLimitAdmission(
                limit=cfg.selfheal_admission_limit
            ),
            breakers=CircuitBreakerBank(
                n_domains=serving_cfg.fault_domains,
                rng=np.random.default_rng(cfg.seed),
                failure_threshold=5,
                recovery_s=45.0,
            ),
        )

    for scenario in scenarios:
        for mode in ("unprotected", "hand-tuned", "self-healing"):
            remediation = None
            if mode == "self-healing":
                remediation = RemediationLoop(RemediationConfig(
                    tick_interval_s=cfg.selfheal_tick_interval_s,
                    shadow_horizon_s=cfg.selfheal_shadow_horizon_s,
                ))
            simulator = ServingSimulator(
                profile,
                XAPIAN,
                exec_model,
                pool=WarmPool(FixedTTL(120.0)),
                config=serving_cfg,
                resilience=resilience_for(mode),
                scenario=scenario,
                retry_policy=ExponentialBackoffRetry(max_retries=3),
                seed=cfg.seed,
                remediation=remediation,
            )
            run = simulator.run(
                PoissonProcess(cfg.selfheal_rate_per_s),
                StreamingPolicy(degree=4, batch_timeout_s=2.0),
                cfg.selfheal_horizon_s,
            )
            assert run.conserved() and run.resilience.conserved()
            report = run.remediation
            result.add(
                scenario=scenario.name,
                mode=mode,
                requests=run.n_requests,
                completed=run.n_completed,
                shed=run.n_shed,
                failed=run.n_failed,
                attainment_pct=100.0 * run.windowed_p99_attainment(),
                p99_s=run.p99_sojourn_s,
                usd_per_1k_completed=(
                    run.cost_per_completed_request_usd() * 1000
                ),
                detections=0 if report is None else report.n_detections,
                applied=0 if report is None else report.n_applied,
                rollbacks=0 if report is None else report.n_rollbacks,
            )
    for scenario in scenarios:
        unprot = result.select(scenario=scenario.name, mode="unprotected")[0]
        tuned = result.select(scenario=scenario.name, mode="hand-tuned")[0]
        healed = result.select(scenario=scenario.name, mode="self-healing")[0]
        result.notes.append(
            f"{scenario.name}: self-healing "
            f"{healed['attainment_pct']:.1f}% vs unprotected "
            f"{unprot['attainment_pct']:.1f}% vs hand-tuned "
            f"{tuned['attainment_pct']:.1f}% attainment at "
            f"${healed['usd_per_1k_completed']:.4f} / "
            f"${unprot['usd_per_1k_completed']:.4f} / "
            f"${tuned['usd_per_1k_completed']:.4f} per 1k completed "
            f"({healed['applied']} actions, {healed['rollbacks']} rollbacks)"
        )
    return result


def chaos_worst_storm(ctx: ExperimentContext) -> FigureResult:
    """CH1 (ours) — protected vs unprotected serving under the worst storm.

    A seeded adversarial search (:mod:`repro.chaos.search`) attacks the
    *unprotected* serving loop with multi-phase storms composed from the
    fault primitives plus the gray-failure model, shrinks the best
    SLO-breaking storm to a minimal reproducing scenario, and this figure
    then serves that minimized storm twice with identical traffic and
    fault seeds:

    * **unprotected** — no admission control, no breakers;
    * **protected** — concurrency-limit admission plus per-domain circuit
      breakers.

    The invariant auditor checks both finished runs; the figure asserts
    zero violations (the chaos harness must never flag the real engine)
    on top of exact request conservation. ``audit_events`` counts the
    dispatch records it read.

    The acceptance claim: the search finds at least one storm that breaks
    the SLO floor unprotected, and protection recovers attainment at
    equal-or-lower cost per completed request under that same storm.
    """
    from repro.chaos.search import ChaosSearch, SearchConfig

    cfg = ctx.config
    result = FigureResult(
        "CH1",
        (
            f"Adversarial worst-storm serving (horizon="
            f"{cfg.chaos_horizon_s:g}s, rate={cfg.chaos_rate_per_s:g}/s, "
            f"SLO floor {cfg.chaos_slo_floor:g} windowed P99 attainment)"
        ),
        [
            "storm", "mode", "requests", "completed", "shed", "failed",
            "attainment_pct", "usd_per_1k_completed", "crashes",
            "breaker_opens", "audit_events", "violations",
        ],
    )

    search_cfg = SearchConfig(
        seed=cfg.seed,
        rounds=cfg.chaos_search_rounds,
        population=cfg.chaos_search_population,
        horizon_s=cfg.chaos_horizon_s,
        rate_per_s=cfg.chaos_rate_per_s,
        protected=False,
        slo_attainment_floor=cfg.chaos_slo_floor,
        shrink_budget=cfg.chaos_shrink_budget,
    )
    search = ChaosSearch(search_cfg)
    report = search.run()
    assert report.found_failure, "chaos search found no SLO-breaking storm"
    storm = report.minimized.spec
    result.notes.append(
        f"search: {report.evaluations} evaluations, "
        f"{len(report.coverage)} coverage features; minimized storm: "
        f"{storm.describe()}"
    )

    for mode in ("unprotected", "protected"):
        params = search.params_for(storm)
        params["protected"] = mode == "protected"
        output = search.target.execute(
            search.target.resolve(params), search_cfg.seed
        )
        s = output.summary
        assert s["conserved"], f"{mode}: request conservation broke"
        assert s["violations"] == 0, (
            f"{mode}: invariant auditor flagged the engine: "
            f"{s['violation_kinds']}"
        )
        result.add(
            storm=storm.name,
            mode=mode,
            requests=s["requests"],
            completed=s["completed"],
            shed=s["shed"],
            failed=s["failed"],
            attainment_pct=100.0 * s["attainment"],
            usd_per_1k_completed=s["usd_per_1k_completed"],
            crashes=s["crashes"],
            breaker_opens=s["breaker_opens"],
            audit_events=s["audit_events"],
            violations=s["violations"],
        )

    unprot = result.select(mode="unprotected")[0]
    prot = result.select(mode="protected")[0]
    result.notes.append(
        f"{storm.name}: protected {prot['attainment_pct']:.1f}% vs "
        f"unprotected {unprot['attainment_pct']:.1f}% attainment at "
        f"${prot['usd_per_1k_completed']:.4f} / "
        f"${unprot['usd_per_1k_completed']:.4f} per 1k completed; "
        f"auditor clean over "
        f"{prot['audit_events'] + unprot['audit_events']} events"
    )
    return result


def fusion_comparison(ctx: ExperimentContext) -> FigureResult:
    """FU1 (ours) — user-side ProPack vs platform-side fusion vs both.

    One multi-tenant mixed-app demand set (``repro.fusion.MIXES``) is
    deployed three ways on the same seeded shared datacenter:

    * **propack** — every tenant packs their own clones at their Eq. 7
      degree; no cross-app or cross-tenant sharing (the user-side
      baseline, i.e. the paper as published);
    * **fusion** — functions arrive unpacked and the platform builds
      fusion groups from scratch;
    * **both** — user-side degrees first, then the platform merges the
      underfull remainder groups across apps and tenants.

    Each deployment runs once at burst scale and once at serving scale,
    and the *same* run is billed twice post-hoc: exact per-ms metering
    and the legacy coarse schedule (100 ms granularity + 100 ms minimum
    billed duration) — dynamics are billing-independent, so the service
    columns within a (scale, mode) pair are identical by construction.

    The acceptance claim: under rounded billing, platform-side fusion on
    top of ProPack (``both``) is strictly cheaper per 1k functions than
    user-side ProPack alone at every scale, with zero constraint
    violations and an auditor-clean fairness ledger (per-tenant
    conservation and exact billing attribution).
    """
    from repro.chaos.invariants import assert_fleet_invariants
    from repro.fusion import FUSION_MODES, FusedFleet, mix_demands
    from repro.fusion.scheduler import rebill
    from repro.platform.providers import PROVIDERS
    from repro.workloads import ALL_APPS

    cfg = ctx.config
    result = FigureResult(
        "FU1",
        (
            f"Platform-side fusion vs user-side ProPack "
            f"(mix={cfg.fusion_mix}, rounding={cfg.fusion_granularity_s:g}s, "
            f"min billed={cfg.fusion_min_billed_s:g}s)"
        ),
        [
            "scale", "mode", "billing", "functions", "instances",
            "fused_instances", "merges", "service_s", "expense_usd",
            "usd_per_1k_functions", "violations",
        ],
    )

    exact_profile = PROVIDERS["aws-lambda"]
    rounded_profile = exact_profile.with_overrides(
        billing_granularity_s=cfg.fusion_granularity_s,
        min_billed_duration_s=cfg.fusion_min_billed_s,
    )

    scales = (
        ("burst", cfg.fusion_burst_scale),
        ("serving", cfg.fusion_serving_scale),
    )
    for scale_label, scale in scales:
        for mode in FUSION_MODES:
            # The planner sees the rounded schedule (that is the regime
            # where consolidation saves rounding losses per invocation).
            fleet = FusedFleet(rounded_profile, seed=cfg.fusion_seed)
            for tenant, app, count in mix_demands(cfg.fusion_mix, scale):
                fleet.submit(tenant, ALL_APPS[app], count)
            run = fleet.run(mode)
            assert_fleet_invariants(run)
            assert not run.constraint_violations, run.constraint_violations

            for billing, report in (
                ("rounded-100ms", run.report),
                ("exact", rebill(run.report, exact_profile)),
            ):
                result.add(
                    scale=scale_label,
                    mode=mode,
                    billing=billing,
                    functions=report.plan.n_functions,
                    instances=report.plan.n_instances,
                    fused_instances=report.plan.fused_instances,
                    merges=run.decision.merges,
                    service_s=report.service_time,
                    expense_usd=report.expense_usd,
                    usd_per_1k_functions=report.usd_per_1k_functions(),
                    violations=len(run.constraint_violations),
                )

    for scale_label, _ in scales:
        propack = result.select(
            scale=scale_label, mode="propack", billing="rounded-100ms"
        )[0]
        both = result.select(
            scale=scale_label, mode="both", billing="rounded-100ms"
        )[0]
        saved = improvement(
            propack["usd_per_1k_functions"], both["usd_per_1k_functions"]
        )
        assert saved > 0.0, (
            f"{scale_label}: platform-side fusion did not beat user-side "
            f"ProPack ({both['usd_per_1k_functions']:.4f} vs "
            f"{propack['usd_per_1k_functions']:.4f} usd/1k)"
        )
        result.notes.append(
            f"{scale_label} (scale={dict(scales)[scale_label]}): both is "
            f"{saved:.1f}% cheaper per 1k functions than user-side propack "
            f"under 100 ms-rounded billing "
            f"({both['instances']} vs {propack['instances']} instances, "
            f"{both['merges']} merges)"
        )
    result.notes.append(
        "all runs auditor-clean: tenant conservation, billing attribution, "
        "and fusion constraints verified per mode"
    )
    return result


ALL_FIGURES = {
    "fig1": fig1,
    "fig2": fig2,
    "fig4": fig4,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "validation": validation_chi2,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "fig20": fig20,
    "fig21": fig21,
    "ablation_models": ablation_model_families,
    "ablation_alternatives": ablation_alternatives,
    "ablation_mitigation": ablation_provider_mitigation,
    "ablation_skew": ablation_skew,
    "ablation_amortization": ablation_amortization,
    "ablation_rightsizing": ablation_rightsizing,
    "streaming": streaming_policies,
    "multitenant": multitenant_benefit,
    "decentralization": decentralization_matrix,
    "faults": fault_sweep,
    "serving": serving_day,
    "overload": overload_flashcrowd,
    "selfhealing": selfhealing_storms,
    "chaos": chaos_worst_storm,
    "fusion": fusion_comparison,
}
