"""The unified dispatch engine: one attempt-chain state machine.

Every dispatch path in the reproduction — one-shot bursts
(:class:`~repro.platform.invoker.BurstInvoker`) and sustained traffic
(:class:`~repro.serving.service.ServingSimulator`) —
executes the same per-instance lifecycle: admission (429 throttling) →
provisioning (cold pipeline or warm reuse) → execution (noise, stragglers,
crash draws) → billing attribution → retry/hedge arbitration. This package
owns that lifecycle *once*:

* :class:`~repro.engine.chain.AttemptChain` — the state of one logical
  work unit (a packed function group or a request batch) across all its
  attempts, retries, and hedges;
* :class:`~repro.engine.kernel.DispatchKernel` — the arbitration core:
  fault/straggler draws, token-bucket admission verdicts, retry-delay
  resolution, and correlated-kill fan-out, all on dedicated RNG streams;
* :class:`~repro.engine.burst.BurstDispatchKernel` — the event-driven
  cold-start pipeline (placement ∥ build → ship → execute) driven by the
  :class:`~repro.sim.engine.Simulator`, with wave-mode warm reuse,
  hedging, and billed-timeout abortion.

Layering: ``repro.engine`` sits *below* its consumers. It may import
``sim``, ``faults``, ``cluster``, ``interference``, ``telemetry`` and
``platform`` building blocks, but never ``serving``, ``extensions`` or
``resilience`` (enforced by ``tests/test_engine_layering.py`` and the CI
layering gate).
"""

from repro.engine.burst import BurstDispatchKernel
from repro.engine.chain import AttemptChain
from repro.engine.kernel import (
    DispatchCosts,
    DispatchKernel,
    SyncAttemptEnv,
    ThrottleVerdict,
    resolve_retry_policy,
)

__all__ = [
    "AttemptChain",
    "BurstDispatchKernel",
    "DispatchCosts",
    "DispatchKernel",
    "SyncAttemptEnv",
    "ThrottleVerdict",
    "resolve_retry_policy",
]
