"""Measure one workload: set-up, warm-up, timed iterations, checks, metrics.

Untraced runs report the end-to-end metrics; traced runs (``trace=True``)
alternate untraced and traced iterations and report the per-layer metrics
plus the tracing overhead. Both return a :class:`Report` whose ``result``
is the JSON object the command prints last.

Every host time is normalised to a reference pass run just before it in
the same process (:mod:`bench.calibrate`), so that the host's other
tenants cancel out of the metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from bench.calibrate import REFERENCE_S, reference_seconds
from bench.trace import (
    FLUID_FALLBACKS,
    FLUID_HITS,
    SETUP_ITERATION,
    SIM_COMPACTIONS,
    SIM_EVENTS,
    Tracer,
)
from bench.workloads import SIM_UNITS, WORKLOADS

SETUP_REPETITIONS = 5
#: Floor on timed iterations, so ``iter_s_p75`` has at least 10 samples beyond it.
MIN_ITERATIONS = 40
TRACED_ITERATIONS = 5

HOST_UNITS = {
    "setup_s": "s",
    "iter_s_p50": "s",
    "iter_s_p75": "s",
    "requests_per_s": "requests/s",
    "peak_rss_mb": "MB",
}
END_TO_END_UNITS = {**HOST_UNITS, **SIM_UNITS}


class _View:
    """One traced pass's spans, counters and result fields."""

    def __init__(self, tracer: Tracer, spans: dict, iteration: int, fields: dict):
        self._tracer = tracer
        self._spans = spans
        self._iteration = iteration
        self._fields = fields

    def calls(self, span: str) -> float:
        return self._spans.get(span, (0, 0.0, 0.0))[0]

    def self_s(self, span: str) -> float:
        return self._spans.get(span, (0, 0.0, 0.0))[1]

    def incl_s(self, span: str) -> float:
        return self._spans.get(span, (0, 0.0, 0.0))[2]

    def counter(self, key: str) -> int:
        return self._tracer.counter(self._iteration, key)

    def field(self, key: str) -> float:
        return self._fields.get(key, 0)


def _calls(span: str) -> Callable[[_View], float]:
    return lambda v: v.calls(span)


def _self(span: str) -> Callable[[_View], float]:
    return lambda v: v.self_s(span)


def _counter(key: str) -> Callable[[_View], float]:
    return lambda v: v.counter(key)


def _field(key: str) -> Callable[[_View], float]:
    return lambda v: v.field(key)


def _events_per_s(v: _View) -> float:
    busy = v.incl_s("sim.run")
    return v.counter(SIM_EVENTS) / busy if busy > 0 else 0.0


#: Per-layer metrics: name -> (unit, read from the set-up pass?, reader).
#: ``0`` where the workload never enters the layer.
PER_LAYER: dict[str, tuple[str, bool, Callable[[_View], float]]] = {
    "core.profile.self_s": ("s", True, _self("core.profile")),
    "core.plan.calls": ("calls", True, _calls("core.plan")),
    "core.plan.self_s": ("s", True, _self("core.plan")),
    "serving.replan.calls": ("calls", False, _calls("serving.replan")),
    "serving.replan.self_s": ("s", False, _self("serving.replan")),
    "platform.run_burst.self_s": ("s", False, _self("platform.run_burst")),
    "platform.billing.calls": ("calls", False, _calls("platform.billing")),
    "platform.billing.self_s": ("s", False, _self("platform.billing")),
    "platform.result_stats.self_s": ("s", False, _self("platform.result_stats")),
    "engine.fluid.hits": ("count", False, _counter(FLUID_HITS)),
    "engine.fluid.fallbacks": ("count", False, _counter(FLUID_FALLBACKS)),
    "engine.fluid.self_s": ("s", False, _self("engine.fluid")),
    "engine.collect.self_s": ("s", False, _self("engine.collect")),
    "engine.kernel.calls": ("calls", False, _calls("engine.kernel")),
    "engine.kernel.self_s": ("s", False, _self("engine.kernel")),
    "sim.run.self_s": ("s", False, _self("sim.run")),
    "sim.events": ("count", False, _counter(SIM_EVENTS)),
    "sim.compactions": ("count", False, _counter(SIM_COMPACTIONS)),
    "sim.events_per_s": ("events/s", False, _events_per_s),
    "interference.calls": ("calls", False, _calls("interference")),
    "interference.self_s": ("s", False, _self("interference")),
    "faults.failed_attempts": ("count", False, _field("faults.failed_attempts")),
    "faults.retries": ("count", False, _field("faults.retries")),
    "faults.hedged_attempts": ("count", False, _field("faults.hedged_attempts")),
    "faults.work_loss_ratio": ("fraction", False, _field("faults.work_loss_ratio")),
    "serving.run.self_s": ("s", False, _self("serving.run")),
    "serving.arrivals.self_s": ("s", False, _self("serving.arrivals")),
    "serving.warmpool.calls": ("calls", False, _calls("serving.warmpool")),
    "serving.warm_hit_ratio": ("fraction", False, _field("serving.warm_hit_ratio")),
    "serving.quantiles.calls": ("calls", False, _calls("serving.quantiles")),
    "serving.quantiles.self_s": ("s", False, _self("serving.quantiles")),
    "resilience.admission.calls": ("calls", False, _calls("resilience.admission")),
    "resilience.admission.self_s": ("s", False, _self("resilience.admission")),
    "resilience.breakers.self_s": ("s", False, _self("resilience.breakers")),
    "resilience.brownout.self_s": ("s", False, _self("resilience.brownout")),
    "resilience.admit_ratio": ("fraction", False, _field("resilience.admit_ratio")),
    "telemetry.publish.calls": ("calls", False, _calls("telemetry.publish")),
    "telemetry.publish.self_s": ("s", False, _self("telemetry.publish")),
    "telemetry.export.self_s": ("s", False, _self("telemetry.export")),
    "telemetry.spans": ("count", False, _field("telemetry.spans")),
    "chaos.audit.events": ("count", False, _field("chaos.audit.events")),
    "chaos.audit.finalize_s": ("s", False, _self("chaos.audit")),
    "model.sched_s": ("sim_s", False, _field("model.sched_s")),
    "model.build_s": ("sim_s", False, _field("model.build_s")),
    "model.ship_s": ("sim_s", False, _field("model.ship_s")),
    "model.scaling_frac": ("fraction", False, _field("model.scaling_frac")),
    "model.cold_frac": ("fraction", False, _field("model.cold_frac")),
    "model.p99_s": ("sim_s", False, _field("model.p99_s")),
    "model.attainment": ("fraction", False, _field("model.attainment")),
}
OVERHEAD_METRIC = "trace.overhead"


@dataclass
class Report:
    """One workload run: the printed result plus what produced it."""

    workload: str
    seed: int
    trace: bool
    iterations: int
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Median raw time of the reference passes; raw host seconds are about
    #: the normalised ones times ``reference_s / REFERENCE_S``.
    reference_s: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.failures

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.iterations,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


@contextmanager
def _frozen_heap() -> Iterator[None]:
    """Move everything set-up and warm-up left alive out of the collector's
    reach for the timed phase, then give it back.

    GC stays on inside every iteration for what the iteration allocates;
    only the interpreter's import heap and the set-up objects are exempt.
    Without this, each full collection during an iteration walks that
    heap, which made iteration times ~8% slower and their run-to-run
    spread on a shared host about twice as wide.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class _Timeline:
    """Work timed between reference passes (see :mod:`bench.calibrate`).

    A pass runs before the first item and after every item, so each item
    sits between two passes. Its normalised time is its raw time scaled
    by :data:`REFERENCE_S` over the mean of those two passes: a slowdown
    that starts or ends during the item shows in one of them. In ten
    experiments of eight or twelve processes each, this rather than the
    pass before alone narrowed the spread of the 75th percentile in seven
    (at worst 5.6% instead of 7.5%) and left the median's about the same.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.passes: list[float] = []

    def time(self, work: Callable[[], Any]) -> Any:
        """Run ``work`` between two passes, from a fresh collection; return
        its result."""
        if not self.passes:
            self.passes.append(reference_seconds())
        gc.collect()
        start = perf_counter()
        result = work()
        self.raw.append(perf_counter() - start)
        self.passes.append(reference_seconds())
        return result

    def normalised(self) -> list[float]:
        return [
            t * REFERENCE_S * 2.0 / (before + after)
            for t, before, after in zip(self.raw, self.passes, self.passes[1:])
        ]


def _iteration(workload, state) -> Callable[[], tuple[Any, Any]]:
    """One timed iteration: the run and the numbers read off it."""
    def run():
        raw = workload.iterate(state)
        return raw, workload.outcome(raw)
    return run


def _iteration_failures(workload, state, raw, out, expected) -> list[str]:
    failures = workload.check(state, raw)
    if out.signature != expected.signature:
        failures.append("simulated signature differs from the warm-up's")
    return failures


def measure(
    name: str,
    seed: int,
    seconds: float = 0.0,
    iterations: Optional[int] = None,
) -> Report:
    """End-to-end metrics of one untraced run.

    Runs ``iterations`` timed iterations when given; otherwise iterates
    until ``seconds`` of wall time have passed and at least
    :data:`MIN_ITERATIONS` were measured.
    """
    workload = WORKLOADS[name]
    setups = _Timeline()
    for _ in range(SETUP_REPETITIONS):
        state = setups.time(lambda: workload.setup(seed))

    raw = workload.iterate(state)
    expected = workload.outcome(raw)
    report = Report(name, seed, trace=False, iterations=0)
    report.failures += workload.check(state, raw) + workload.check_once(state, raw)
    del raw
    # The reference pass stands in for the host only while nothing else
    # in this process competes with the iterations for the interpreter.
    if threading.active_count() != 1:
        report.failures.append(f"{threading.active_count()} threads alive; the benchmark "
                               "measures one")

    timeline = _Timeline()
    with _frozen_heap():
        began = perf_counter()
        while (
            len(timeline.raw) < iterations if iterations is not None
            else len(timeline.raw) < MIN_ITERATIONS or perf_counter() - began < seconds
        ):
            raw, out = timeline.time(_iteration(workload, state))
            failures = _iteration_failures(workload, state, raw, out, expected)
            if failures:
                report.failed += 1
                report.failures += [f"iteration {len(timeline.raw)}: {f}" for f in failures]
            del raw, out

    times = timeline.normalised()
    report.iterations = len(times)
    report.reference_s = statistics.median(setups.passes + timeline.passes)
    p50 = statistics.median(times)
    values = {
        "setup_s": statistics.median(setups.normalised()),
        "iter_s_p50": p50,
        "iter_s_p75": statistics.quantiles(times, n=4)[2] if len(times) > 1 else p50,
        # Work summed over every timed iteration over their summed time,
        # so slow iterations count here while the percentiles ignore them.
        "requests_per_s": expected.requests * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **expected.sim,
    }
    report.metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    return report


def measure_traced(
    name: str,
    seed: int,
    spans_path: Optional[str] = None,
    iterations: int = TRACED_ITERATIONS,
) -> tuple[Report, Tracer]:
    """Per-layer metrics: a traced set-up, then untraced/traced iteration pairs.

    Tracing must not change what the program computes: every traced
    iteration's signature must equal the untraced warm-up's, and on the
    fluid workload every burst must still take the fluid path.
    """
    workload = WORKLOADS[name]
    tracer = Tracer()
    with tracer.installed():
        state = workload.setup(seed)

    raw = workload.iterate(state)
    expected = workload.outcome(raw)
    report = Report(name, seed, trace=True, iterations=0)
    report.failures += workload.check(state, raw)
    del raw

    # Untraced and traced iterations alternate on one timeline: even
    # items are untraced, odd ones traced.
    timeline = _Timeline()
    fields: dict[int, dict] = {}
    with _frozen_heap():
        for i in range(1, iterations + 1):
            for traced in (False, True):
                if traced:
                    tracer.iteration_id = i
                    with tracer.installed():
                        raw, out = timeline.time(_iteration(workload, state))
                    fields[i] = workload.layer_counts(raw)
                else:
                    raw, out = timeline.time(_iteration(workload, state))
                failures = _iteration_failures(workload, state, raw, out, expected)
                if traced and workload.all_fluid:
                    hits = tracer.counter(i, FLUID_HITS)
                    if hits != len(raw.runs):
                        failures.append(f"{hits} fluid hits for {len(raw.runs)} bursts")
                if failures:
                    report.failed += 1
                    kind = "traced" if traced else "untraced"
                    report.failures += [f"{kind} iteration {i}: {f}" for f in failures]
                del raw, out
    times = timeline.normalised()
    report.iterations = len(times)
    report.reference_s = statistics.median(timeline.passes)

    aggregate = tracer.aggregate()
    setup_view = _View(tracer, aggregate.get(SETUP_ITERATION, {}), SETUP_ITERATION, {})
    views = [
        _View(tracer, aggregate.get(i, {}), i, fields[i])
        for i in range(1, iterations + 1)
    ]
    metrics: dict[str, tuple[float, str]] = {}
    for metric, (unit, from_setup, read) in PER_LAYER.items():
        value = read(setup_view) if from_setup else statistics.median(read(v) for v in views)
        metrics[metric] = (float(value), unit)
    overhead = statistics.median(times[1::2]) / statistics.median(times[0::2]) - 1.0
    metrics[OVERHEAD_METRIC] = (overhead, "fraction")
    report.metrics = metrics
    if spans_path is not None:
        tracer.write(spans_path)
    return report, tracer
