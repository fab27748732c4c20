"""Timing wrappers around the program's public entry points.

The traced run patches each entry point listed in :data:`TARGETS` with a
wrapper that records one span per call: name, start, end, parent span and
iteration id. Nothing inside the program changes; the wrappers live here
and are removed again when the traced block exits, even on error.

Each method is patched on the class that *defines* it (found by walking
the MRO), never on a subclass that merely inherits it. That keeps
``fluid_ineligibility``'s "is this hook overridden?" identity check
passing, so tracing cannot reroute a burst off the fluid path.

A span's self time is its duration minus the part of it its child spans
cover (:func:`self_times`). Spans stay in memory as flat arrays and are
written out once, at the end of the run (:meth:`Tracer.write`).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Optional, Sequence

#: (module, class or None for a module function, attributes, span name).
#: The per-layer metrics in ``BENCHMARK.json`` are read from these spans.
TARGETS: tuple[tuple[str, Optional[str], tuple[str, ...], str], ...] = (
    ("repro.core.propack", "ProPack",
     ("interference_profile", "scaling_profile"), "core.profile"),
    ("repro.core.propack", "ProPack", ("plan",), "core.plan"),
    ("repro.extensions.streaming", "StreamingPlanner", ("plan",), "core.plan"),
    ("repro.serving.controller", "OnlineReplanner", ("replan",), "serving.replan"),
    ("repro.platform.base", "ServerlessPlatform", ("run_burst",), "platform.run_burst"),
    ("repro.platform.billing", "BillingModel",
     ("burst_expense", "serving_expense"), "platform.billing"),
    ("repro.platform.metrics", "RunResult",
     ("service_time", "scaling_time", "breakdown"), "platform.result_stats"),
    ("repro.engine.burst", "BurstDispatchKernel", ("run",), "engine.burst"),
    ("repro.engine.burst", "BurstDispatchKernel", ("collect",), "engine.collect"),
    ("repro.engine.fluid", None, ("try_run_fluid",), "engine.fluid"),
    ("repro.engine.kernel", "DispatchKernel",
     ("crash_decision", "straggler_factor", "exec_noise_factor",
      "throttle_gate", "next_retry_delay", "run_synchronous_chain"),
     "engine.kernel"),
    ("repro.sim.engine", "Simulator", ("run",), "sim.run"),
    ("repro.interference.model", "InterferenceModel",
     ("execution_seconds",), "interference"),
    ("repro.serving.service", "ServingSimulator", ("run",), "serving.run"),
    *(
        ("repro.serving.arrivals", cls, ("sample",), "serving.arrivals")
        for cls in ("PoissonProcess", "InhomogeneousPoissonProcess",
                    "MarkovModulatedProcess", "AzureTraceProcess",
                    "SuperposedProcess")
    ),
    ("repro.serving.warmpool", "WarmPool", ("acquire", "release"), "serving.warmpool"),
    ("repro.serving.quantiles", "QuantileDigest", ("add",), "serving.quantiles"),
    ("repro.serving.quantiles", "WindowedSLOTracker", ("record",), "serving.quantiles"),
    *(
        ("repro.resilience.admission", cls, ("admit",), "resilience.admission")
        for cls in ("UnboundedAdmission", "ConcurrencyLimitAdmission",
                    "TokenBucketAdmission", "AIMDAdmission")
    ),
    ("repro.resilience.breaker", "CircuitBreakerBank", ("pick", "record"),
     "resilience.breakers"),
    ("repro.resilience.brownout", "BrownoutController", ("observe",),
     "resilience.brownout"),
    ("repro.telemetry.bus", "EventBus", ("publish",), "telemetry.publish"),
    ("repro.telemetry.config", "TelemetrySession",
     ("chrome_trace", "prometheus_text", "events_jsonl"), "telemetry.export"),
    ("repro.chaos.auditor", "InvariantAuditor", ("finalize",), "chaos.audit"),
)

#: Counters the wrappers keep beside the spans (per iteration).
FLUID_HITS = "engine.fluid.hits"
FLUID_FALLBACKS = "engine.fluid.fallbacks"
SIM_EVENTS = "sim.events"
SIM_COMPACTIONS = "sim.compactions"

#: Iteration id of the traced set-up pass; timed iterations count from 1.
SETUP_ITERATION = 0


def targets() -> Iterator[tuple[Any, str, str]]:
    """Every (class or module, attribute, span name) the wrappers patch."""
    for module_name, class_name, attrs, span in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for attr in attrs:
            yield owner, attr, span


@dataclass(frozen=True)
class Patch:
    """One attribute replaced by a wrapper: where it lives and what it was."""

    owner: Any
    attr: str
    original: Any


class Tracer:
    """Span store plus the patch set that feeds it.

    Spans are kept as parallel arrays (40 bytes per span) because a traced
    serving iteration records ~10^5 of them.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.iteration = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.iteration_id = SETUP_ITERATION
        self.counters: dict[tuple[int, str], int] = {}
        self._patches: list[Patch] = []

    # ------------------------------------------------------------------ #
    # span recording
    # ------------------------------------------------------------------ #
    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self.iteration_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        slot = (self.iteration_id, key)
        self.counters[slot] = self.counters.get(slot, 0) + n

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block, then restore."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for owner, attr, span in targets():
                self._patch(owner, attr, span)
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    def _patch(self, owner: Any, attr: str, span: str) -> None:
        if isinstance(owner, type):
            definer = next(k for k in owner.__mro__ if attr in k.__dict__)
            if definer is not owner:
                raise TypeError(
                    f"{owner.__name__}.{attr} is inherited from "
                    f"{definer.__name__}; patch the defining class"
                )
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append(Patch(owner, attr, original))
        setattr(owner, attr, self._wrapped(original, span))

    def _wrapped(self, original: Any, span: str) -> Any:
        if isinstance(original, property):
            return property(self._wrap_fn(original.fget, span), original.fset, original.fdel)
        return self._wrap_fn(original, span)

    def _wrap_fn(self, fn: Callable, span: str) -> Callable:
        nid = self.intern(span)
        tracer = self
        if span == "engine.fluid":
            @functools.wraps(fn)
            def traced_fluid(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.count(FLUID_HITS if result is not None else FLUID_FALLBACKS)
                return result
            return traced_fluid
        if span == "sim.run":
            @functools.wraps(fn)
            def traced_sim_run(sim, *args, **kwargs):
                events, compactions = sim.events_processed, sim.compactions
                idx = tracer.open(nid)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer.count(SIM_EVENTS, sim.events_processed - events)
                    tracer.count(SIM_COMPACTIONS, sim.compactions - compactions)
            return traced_sim_run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    @property
    def patches(self) -> tuple[Patch, ...]:
        return tuple(self._patches)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def aggregate(self) -> dict[int, dict[str, tuple[int, float, float]]]:
        """Per iteration, per span name: (calls, self seconds, inclusive seconds)."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[int, dict[str, list]] = {}
        for i, nid in enumerate(self.name_id):
            per = out.setdefault(self.iteration[i], {})
            row = per.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += selfs[i]
            row[2] += self.end[i] - self.start[i]
        return {
            it: {name: tuple(row) for name, row in per.items()}
            for it, per in out.items()
        }

    def counter(self, iteration: int, key: str) -> int:
        return self.counters.get((iteration, key), 0)

    def write(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the columns and span names,
        then one ``[parent, iteration, name index, start, end]`` row per
        span (the span id is the row number, from 0)."""
        header = {"columns": ["parent", "iteration", "name", "start_s", "end_s"],
                  "names": self.names}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(
                f"[{p},{it},{n},{s!r},{e!r}]\n"
                for p, it, n, s, e in zip(
                    self.parent, self.iteration, self.name_id, self.start, self.end
                )
            )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans naming it as ``parent``; overlapping children
    are merged first and clipped to the parent's interval, so the result
    is the length of the parent's interval not covered by any child.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_start = cur_end = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out
