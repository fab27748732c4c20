"""Burst invoker (the Step-Functions role).

As of the ``repro.engine`` extraction the entire per-instance lifecycle —
placement scheduling → container build → shipping → execution, plus wave
reuse, retries, hedging, throttling, billed timeouts, and fault draws —
lives in :class:`~repro.engine.burst.BurstDispatchKernel`, whose fault,
throttle and retry arbitration (:class:`~repro.engine.kernel.DispatchKernel`)
the serving loop shares. This module keeps the platform
layer's public API: :class:`BurstSpec`, :class:`FunctionTimeoutError`, and
:class:`BurstInvoker` (the kernel under its historical name, constructed
by :class:`~repro.platform.base.ServerlessPlatform` and
:class:`~repro.platform.multitenant.SharedFleet`).
"""

from __future__ import annotations

from repro.engine.burst import (
    BurstDispatchKernel,
    BurstSpec,
    FunctionTimeoutError,
)


class BurstInvoker(BurstDispatchKernel):
    """Executes one :class:`BurstSpec` on a fresh simulation.

    A thin platform-layer name for the engine's burst kernel; all behavior
    (including the ``begin`` / ``collect`` split used by multi-tenant
    callers) is inherited unchanged.
    """


__all__ = ["BurstInvoker", "BurstSpec", "FunctionTimeoutError"]
