"""The dispatch kernel: fault, throttle, and retry arbitration in one place.

Every consumer loop used to wire :class:`~repro.faults.injector.FaultInjector`,
:class:`~repro.faults.throttle.TokenBucket`, and
:class:`~repro.faults.retry.RetryPolicy` by hand. The kernel owns those
decisions now:

* :meth:`DispatchKernel.throttle_gate` — one admission verdict per attempt,
  with the scenario's linear-backoff schedule and final-rejection cutoff;
* :meth:`DispatchKernel.chain_crash_decision` — crash draws that poison the
  chain on persistent faults;
* :meth:`DispatchKernel.next_retry_delay` — retry arbitration that advances
  the chain's attempt counter and decorrelated-jitter feedback state;
* :meth:`DispatchKernel.run_synchronous_chain` — the full attempt walk on
  an arithmetic clock (throttle → warm check → execute → crash → retry),
  for walks that need no discrete-event interleaving. No production
  dispatch path calls it; the kernel identity tests and the
  ``chains_per_s`` micro-benchmark do.

All randomness flows through the dedicated ``RandomStreams`` labels the
consumers already used (``exec``, ``retry``, ``fault.*``), in the same draw
order — a seeded run produces bit-identical output through the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol

from repro.engine.chain import AttemptChain
from repro.faults.injector import CrashDecision, FaultInjector
from repro.faults.retry import ImmediateRetry, RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.faults.throttle import TokenBucket
from repro.sim.randomness import RandomStreams


def resolve_retry_policy(
    policy: Optional[RetryPolicy],
    scenario: Optional[FaultScenario],
    platform_default: Optional[RetryPolicy] = None,
) -> Optional[RetryPolicy]:
    """The one retry-resolution rule every consumer previously re-derived.

    Explicit policy wins; otherwise the platform default (bursts pass the
    profile's immediate-retry budget); otherwise retries are enabled only
    when a fault scenario makes them meaningful.
    """
    if policy is not None:
        return policy
    if platform_default is not None:
        return platform_default
    if scenario is not None:
        return ImmediateRetry()
    return None


@dataclass(frozen=True)
class ThrottleVerdict:
    """One admission decision: admit, back off ``wait_s``, or reject."""

    admitted: bool
    rejected: bool = False
    wait_s: float = 0.0


_ADMITTED = ThrottleVerdict(admitted=True)


@dataclass(frozen=True)
class DispatchCosts:
    """The warm/cold latency and billing treatment of one dispatch path.

    Centralizing these constants is what keeps warm-reuse semantics from
    drifting between consumers (the warm-parity property test drives both
    burst wave reuse and serving warm-pool hits through this object).
    """

    cold_start_s: float
    warm_dispatch_s: float
    cold_init_billed_s: float = 0.0

    def start_latency(self, warm: bool) -> float:
        return self.warm_dispatch_s if warm else self.cold_start_s

    def billed_seconds(self, exec_seconds: float, warm: bool) -> float:
        return exec_seconds + (0.0 if warm else self.cold_init_billed_s)


class SyncAttemptEnv(Protocol):
    """Consumer hooks for :meth:`DispatchKernel.run_synchronous_chain`.

    The kernel owns arbitration (throttle, crash, retry); the environment
    owns everything consumer-specific: warm-window bookkeeping, execution
    modeling, and per-outcome accounting.
    """

    def throttle_clock(self, launch_at: float) -> float:
        """Clock value for the token bucket (may clamp to keep it monotone)."""

    def on_throttled(self, chain: AttemptChain) -> None:
        """One 429 bounce was recorded for ``chain``."""

    def on_rejected(self, chain: AttemptChain) -> None:
        """The throttle rejected ``chain`` for good."""

    def is_warm(self, launch_at: float) -> bool:
        """Whether the dispatch at ``launch_at`` reuses a warm sandbox."""

    def attempt_seconds(self, chain: AttemptChain, warm: bool) -> float:
        """Model one attempt's execution time (draws noise/straggler RNG)."""

    def on_success(
        self, chain: AttemptChain, launch_at: float, warm: bool, exec_seconds: float
    ) -> None:
        """The attempt completed; bill it and record sojourns."""

    def on_crash(
        self,
        chain: AttemptChain,
        launch_at: float,
        warm: bool,
        exec_seconds: float,
        crash: CrashDecision,
    ) -> float:
        """The attempt crashed; bill the partial run and return the crash time."""

    def on_retry(self, chain: AttemptChain, delay: float) -> None:
        """A retry was scheduled ``delay`` seconds after the crash."""

    def on_exhausted(self, chain: AttemptChain) -> None:
        """Retries ran out; the chain's work is lost."""


class DispatchKernel:
    """Arbitration core shared by every dispatch path.

    One kernel serves one run (burst / serving horizon / stream): it binds
    the fault scenario to the run's RNG streams once, then hands out
    throttle verdicts, crash decisions, and retry delays to whichever
    driver (event-driven or synchronous) walks the attempt chains.
    """

    def __init__(
        self,
        rng: RandomStreams,
        scenario: Optional[FaultScenario] = None,
        retry_policy: Optional[RetryPolicy] = None,
        profile_failure_rate: float = 0.0,
        metrics: Optional[Any] = None,
    ) -> None:
        self.rng = rng
        # Buffered draws are byte-identical to unbuffered draws per stream
        # (the BufferedGenerator contract), so batching changes a seeded
        # run's speed, never its output.
        rng.enable_batching()
        self.scenario: Optional[FaultScenario] = None
        self.injector: Optional[FaultInjector] = None
        self.bucket: Optional[TokenBucket] = None
        self.retry_policy = retry_policy
        self.profile_failure_rate = profile_failure_rate
        self.chains: dict[int, AttemptChain] = {}
        self._next_chain_id = 0
        self.configure_faults(scenario, profile_failure_rate, metrics)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure_faults(
        self,
        scenario: Optional[FaultScenario],
        profile_failure_rate: float = 0.0,
        metrics: Optional[Any] = None,
    ) -> None:
        """(Re)bind the fault scenario; used by bursts that configure at
        ``begin`` time rather than construction."""
        self.scenario = scenario
        self.profile_failure_rate = profile_failure_rate
        if scenario is not None:
            self.injector = scenario.build_injector(self.rng, profile_failure_rate)
            if metrics is not None:
                self.injector.bind_metrics(metrics)
            self.bucket = scenario.build_throttle()
        else:
            self.injector = None
            self.bucket = None

    def fresh_retry(self) -> Optional[RetryPolicy]:
        """A stateless-fresh copy of the resolved retry policy (per chain)."""
        return None if self.retry_policy is None else self.retry_policy.fresh()

    def fork(self, label: str) -> "DispatchKernel":
        """Clone seam for shadow replay.

        Returns an independent kernel with the same scenario, retry policy,
        and profile failure rate, on a child RNG family derived from
        ``label`` via :meth:`RandomStreams.spawn`. Spawning consumes no
        draws from the parent's streams, so forking mid-run never perturbs
        the live simulation — the same seed with and without forks produces
        bit-identical live output — while the fork itself is fully
        deterministic given (seed, label).
        """
        return DispatchKernel(
            self.rng.spawn(label),
            scenario=self.scenario,
            retry_policy=self.retry_policy,
            profile_failure_rate=self.profile_failure_rate,
        )

    # ------------------------------------------------------------------ #
    # Chain management
    # ------------------------------------------------------------------ #
    def new_chain(
        self,
        n_packed: int,
        payload: Any = None,
        retry: Optional[RetryPolicy] = None,
    ) -> AttemptChain:
        chain = AttemptChain(
            chain_id=self._next_chain_id,
            n_packed=n_packed,
            payload=payload,
            retry=retry,
        )
        self._next_chain_id += 1
        self.chains[chain.chain_id] = chain
        return chain

    # ------------------------------------------------------------------ #
    # Throttling (429 admission control)
    # ------------------------------------------------------------------ #
    def throttle_gate(self, chain: AttemptChain, now: float) -> ThrottleVerdict:
        """Admit one attempt, or bounce it off the token bucket.

        A bounce increments the chain's consecutive-429 counter; past the
        scenario's ``throttle_max_retries`` the verdict is a final
        rejection, otherwise a linear-backoff wait (base backoff times the
        bounce count, plus the bucket's own time-to-next-token).
        """
        if self.bucket is None or self.bucket.try_acquire(now):
            return _ADMITTED
        chain.throttle_tries += 1
        if chain.throttle_tries > self.scenario.throttle_max_retries:
            return ThrottleVerdict(admitted=False, rejected=True)
        wait = (
            self.scenario.throttle_backoff_s * chain.throttle_tries
            + self.bucket.seconds_until_token(now)
        )
        return ThrottleVerdict(admitted=False, wait_s=wait)

    # ------------------------------------------------------------------ #
    # Fault draws
    # ------------------------------------------------------------------ #
    def crash_decision(self, poisoned: bool = False) -> Optional[CrashDecision]:
        """Raw crash draw (no chain side effects); None without an injector."""
        if self.injector is None:
            return None
        return self.injector.crash_decision(poisoned=poisoned)

    def chain_crash_decision(self, chain: AttemptChain) -> Optional[CrashDecision]:
        """Crash draw for one attempt of ``chain``, poisoning it on a
        persistent fault so every later attempt crashes too."""
        decision = self.crash_decision(poisoned=chain.poisoned)
        if decision is not None and decision.persistent:
            chain.poisoned = True
        return decision

    def straggler_factor(self) -> float:
        return 1.0 if self.injector is None else self.injector.straggler_factor()

    def gray_factor(self, domain: Optional[int], now: float) -> float:
        """Gray-failure slowdown for a dispatch at ``domain`` (1.0 = healthy).

        Draw-free (see :meth:`FaultScenario.gray_factor`): consulting it
        never perturbs the RNG schedule of an otherwise-identical run.
        """
        if self.scenario is None:
            return 1.0
        return self.scenario.gray_factor(domain, now)

    def exec_noise_factor(self, sigma: float) -> float:
        return self.rng.lognormal_factor("exec", sigma)

    def correlated_event_times(self) -> list[float]:
        return [] if self.injector is None else self.injector.correlated_event_times()

    def correlated_kills(self, victims: int) -> list[bool]:
        return self.injector.correlated_kills(victims)

    # ------------------------------------------------------------------ #
    # Retry arbitration
    # ------------------------------------------------------------------ #
    def next_retry_delay(
        self,
        chain: AttemptChain,
        failed_attempt: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Optional[float]:
        """Delay before re-invoking ``chain``, or None when retries ran out.

        On success the chain's attempt counter advances past
        ``failed_attempt`` (default: the chain's current attempt) and the
        decorrelated-jitter feedback state is updated.
        """
        policy = chain.retry if retry is None else retry
        if policy is None:
            return None
        if failed_attempt is None:
            failed_attempt = chain.attempt
        delay = policy.next_delay(failed_attempt, chain.prev_delay, self.rng.stream("retry"))
        if delay is None:
            return None
        chain.attempt = failed_attempt + 1
        chain.prev_delay = delay
        return delay

    # ------------------------------------------------------------------ #
    # Synchronous attempt walk (arithmetic clock)
    # ------------------------------------------------------------------ #
    def run_synchronous_chain(
        self, chain: AttemptChain, env: SyncAttemptEnv, launch_at: float
    ) -> None:
        """Walk ``chain`` to a terminal state on an arithmetic clock.

        The full lifecycle — throttle gate, warm check, execution draw,
        crash draw, retry arbitration — without a discrete-event simulator:
        each attempt's timestamps are computed directly and the next
        attempt's launch time is the crash time plus the retry delay, so
        it suits walks whose attempts never interleave.
        """
        while True:
            if self.bucket is not None:
                now = env.throttle_clock(launch_at)
                verdict = self.throttle_gate(chain, now)
                if not verdict.admitted:
                    env.on_throttled(chain)
                    if verdict.rejected:
                        chain.lost = True
                        env.on_rejected(chain)
                        return
                    launch_at = now + verdict.wait_s
                    continue
            warm = env.is_warm(launch_at)
            exec_seconds = env.attempt_seconds(chain, warm)
            crash = self.chain_crash_decision(chain)
            if crash is None:
                chain.satisfied = True
                env.on_success(chain, launch_at, warm, exec_seconds)
                return
            crash_at = env.on_crash(chain, launch_at, warm, exec_seconds, crash)
            delay = self.next_retry_delay(chain)
            if delay is None:
                chain.lost = True
                env.on_exhausted(chain)
                return
            env.on_retry(chain, delay)
            launch_at = crash_at + delay
