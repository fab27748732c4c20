"""The attempt chain: one logical work unit across all its attempts.

An :class:`AttemptChain` is the unit of retry/hedge arbitration shared by
every dispatch path: a packed function group in a burst, a request batch in
serving or streaming. The chain accumulates the feedback state the retry
and throttle policies need (attempt number, decorrelated-jitter delay,
consecutive-429 count) and the terminal flags (``satisfied`` / ``lost``)
that make duplicate deliveries and double-retries impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(slots=True)
class AttemptChain:
    """One packed group / batch across all its attempts (retries, hedges).

    ``payload`` is consumer-defined: a burst chain's
    :class:`~repro.engine.burst.ChainWork`, which the burst kernel reads,
    or the list of queued requests a serving batch carries, which no
    kernel inspects. The retry policy is the run's, not the chain's: the
    kernel holds one copy per run and reads it with the chain's
    :attr:`attempt` and :attr:`prev_delay` in
    :meth:`~repro.engine.kernel.DispatchKernel.next_retry_delay`.
    """

    chain_id: int
    n_packed: int
    payload: Any = None

    attempt: int = 1            # 1-based index of the next/current attempt
    prev_delay: float = 0.0     # decorrelated-jitter feedback state
    throttle_tries: int = 0     # consecutive 429s for the pending admission
    deferrals: int = 0          # circuit-breaker deferrals (serving)
    poisoned: bool = False      # a persistent fault dooms every attempt
    satisfied: bool = False     # some attempt completed successfully
    lost: bool = False          # retries exhausted; work counted lost
    hedges_launched: int = 0
    #: Record ids in flight. Lazily allocated: most chains never hedge, so
    #: at million-chain scale an eager per-chain set is pure GC pressure.
    #: ``None`` means empty; use :meth:`track`/:meth:`untrack` rather than
    #: mutating.
    active: Optional[set] = None

    def track(self, record_id: int) -> None:
        """Mark an instance record as in flight for this chain."""
        if self.active is None:
            self.active = {record_id}
        else:
            self.active.add(record_id)

    def untrack(self, record_id: int) -> None:
        """Drop an in-flight record (no-op if never tracked)."""
        if self.active is not None:
            self.active.discard(record_id)
