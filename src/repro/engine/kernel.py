"""The dispatch kernel: every fault draw, throttle verdict and retry decision
of one run, in one place.

A run binds its fault environment once, with :meth:`DispatchKernel.bind`,
and every path asks the kernel:

* :meth:`DispatchKernel.throttle_gate` — one admission verdict per attempt,
  with the scenario's linear-backoff schedule and final-rejection cutoff;
* :meth:`DispatchKernel.chain_crash_decision` — one crash model for every
  run (the scenario's ``crash_rate``, or else the profile's
  ``failure_rate``), poisoning the chain on a persistent fault;
* :meth:`DispatchKernel.next_retry_delay` — one retry rule (the explicit
  policy, or else ``ImmediateRetry(profile.max_retries)``) that advances
  the chain's attempt counter and decorrelated-jitter feedback state;
* :meth:`DispatchKernel.run_synchronous_chain` — the full attempt walk on
  an arithmetic clock (throttle → warm check → execute → crash → retry),
  for walks that need no discrete-event interleaving. No production
  dispatch path calls it; the kernel identity tests and the
  ``chains_per_s`` micro-benchmark do.

All randomness flows through dedicated ``RandomStreams`` labels, each
independent of the execution-noise streams: ``exec``, ``retry``,
``failure`` (a crash without a scenario) and, under a scenario,
``fault.crash``, ``fault.straggler`` and ``fault.correlated``. The kernel
counts its crash and straggler draws, read once the run has ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Protocol

from repro.engine.chain import AttemptChain
from repro.faults.retry import ImmediateRetry, RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.faults.throttle import TokenBucket
from repro.sim.randomness import RandomStreams, StreamHandle, lognormal_draw

if TYPE_CHECKING:  # annotation-only: the kernel reads two profile fields
    from repro.platform.providers import PlatformProfile


@dataclass(frozen=True)
class CrashDecision:
    """One attempt's crash verdict."""

    at_fraction: float     # crash point as a fraction of the execution
    persistent: bool       # poisons the function group (retries crash too)


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

    The serving loop routes every dispatch through it. A burst's wave
    reuse applies the same treatment on its own (a warm start pays
    ``warm_dispatch_s`` and bills no cold init); the warm-parity property
    test checks those records against this object.
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

    One kernel serves one run (a burst or a serving horizon): :meth:`bind`
    fixes the run's fault environment on its RNG streams once, then the
    kernel hands out throttle verdicts, crash and straggler draws, and
    retry delays to whichever driver (event-driven or synchronous) walks
    the attempt chains. :attr:`retry_policy` is the run's own ``fresh()``
    copy of the bound policy, so a :class:`~repro.faults.retry.RetryBudget`
    caps the retries of the whole run.
    """

    def __init__(self, rng: RandomStreams) -> None:
        self.rng = rng
        # Buffered draws are byte-identical to unbuffered draws per stream
        # (the BufferedGenerator contract), so batching changes a seeded
        # run's speed, never its output.
        rng.enable_batching()
        self._exec_stream: Optional[StreamHandle] = None  # resolved at first draw
        self._next_chain_id = 0
        self.bind(None)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def bind(
        self,
        profile: Optional["PlatformProfile"],
        scenario: Optional[FaultScenario] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        """Bind one run's fault environment, and zero the draw counts.

        The crash rate is the scenario's ``crash_rate``, or else the
        profile's ``failure_rate``; the retry policy is ``retry_policy``,
        or else ``ImmediateRetry(profile.max_retries)``. Without a
        profile, the profile's rate is 0 and only an explicit policy
        retries.
        """
        self.scenario = scenario
        rate = 0.0 if profile is None else profile.failure_rate
        if scenario is not None:
            rate = scenario.effective_crash_rate(rate)
        self.crash_rate = rate
        if retry_policy is None and profile is not None:
            retry_policy = ImmediateRetry(profile.max_retries)
        self.retry_policy = None if retry_policy is None else retry_policy.fresh()
        self.bucket: Optional[TokenBucket] = None
        if scenario is not None and scenario.throttled:
            self.bucket = TokenBucket(
                scenario.throttle_capacity, scenario.throttle_refill_per_s
            )
        # Stream handles, resolved at first draw (as "exec" is): by then
        # batching is on.
        self._crash: Optional[StreamHandle] = None
        self._straggler: Optional[StreamHandle] = None
        #: Crash verdicts drawn, transient and persistent, and stragglers.
        self.transient_crashes = 0
        self.persistent_crashes = 0
        self.stragglers = 0

    # ------------------------------------------------------------------ #
    # Chain management
    # ------------------------------------------------------------------ #
    def new_chain(self, n_packed: int, payload: Any = None) -> AttemptChain:
        chain = AttemptChain(
            chain_id=self._next_chain_id, n_packed=n_packed, payload=payload
        )
        self._next_chain_id += 1
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
        """Whether one attempt crashes, and where (no chain side effects).

        A ``poisoned`` attempt (a persistent fault in its group or domain)
        always crashes. Any other crashes with probability
        :attr:`crash_rate`, at a uniform point of its execution; under a
        scenario, a crash is persistent with the scenario's
        ``persistent_fraction``.
        """
        if not poisoned and self.crash_rate <= 0.0:
            return None
        s = self.scenario
        stream = self._crash
        if stream is None:
            label = "failure" if s is None else "fault.crash"
            stream = self._crash = self.rng.stream(label)
        if poisoned:
            self.persistent_crashes += 1
            return CrashDecision(at_fraction=float(stream.random()), persistent=True)
        if stream.random() >= self.crash_rate:
            return None
        at = float(stream.random())
        persistent = (
            s is not None
            and s.persistent_fraction > 0.0
            and stream.random() < s.persistent_fraction
        )
        if persistent:
            self.persistent_crashes += 1
        else:
            self.transient_crashes += 1
        return CrashDecision(at_fraction=at, persistent=persistent)

    def chain_crash_decision(self, chain: AttemptChain) -> Optional[CrashDecision]:
        """Crash draw for one attempt of ``chain``, poisoning it on a
        persistent fault so every later attempt crashes too."""
        decision = self.crash_decision(poisoned=chain.poisoned)
        if decision is not None and decision.persistent:
            chain.poisoned = True
        return decision

    def straggler_factor(self) -> float:
        """Multiplicative slowdown for one attempt (1.0 = not a straggler)."""
        s = self.scenario
        if s is None or s.straggler_rate <= 0.0:
            return 1.0
        stream = self._straggler
        if stream is None:
            stream = self._straggler = self.rng.stream("fault.straggler")
        if stream.random() >= s.straggler_rate:
            return 1.0
        self.stragglers += 1
        # 1 + lognormal so a straggler is always strictly slower.
        return 1.0 + float(stream.lognormal(s.straggler_mu, s.straggler_sigma))

    def gray_factor(self, domain: Optional[int], now: float) -> float:
        """Gray-failure slowdown for a dispatch at ``domain`` (1.0 = healthy).

        Draw-free (see :meth:`FaultScenario.gray_factor`): consulting it
        never perturbs the RNG schedule of an otherwise-identical run.
        """
        if self.scenario is None:
            return 1.0
        return self.scenario.gray_factor(domain, now)

    def exec_noise_factor(self, sigma: float) -> float:
        """``rng.lognormal_factor("exec", sigma)``, on a stream handle
        resolved once per kernel (after batching is on)."""
        if sigma <= 0.0:
            return 1.0
        stream = self._exec_stream
        if stream is None:
            stream = self._exec_stream = self.rng.stream("exec")
        return lognormal_draw(stream, sigma)

    def correlated_event_times(self) -> list[float]:
        """Relative times of the scenario's correlated crash events, sorted."""
        s = self.scenario
        if s is None or s.correlated_bursts <= 0 or s.correlated_fraction <= 0.0:
            return []
        stream = self.rng.stream("fault.correlated")
        times = stream.uniform(0.0, s.correlated_window_s, s.correlated_bursts)
        return sorted(float(t) for t in times)

    def correlated_kills(self, victims: int) -> list[bool]:
        """Per-victim kill verdicts for one correlated event."""
        draws = self.rng.stream("fault.correlated").random(victims)
        return [bool(d < self.scenario.correlated_fraction) for d in draws]

    # ------------------------------------------------------------------ #
    # Retry arbitration
    # ------------------------------------------------------------------ #
    def next_retry_delay(self, chain: AttemptChain) -> Optional[float]:
        """Delay before re-invoking ``chain``, or None when retries ran out.

        The run's policy decides on the chain's current attempt; on a
        retry the chain's attempt counter advances and the
        decorrelated-jitter feedback state is updated.
        """
        policy = self.retry_policy
        if policy is None:
            return None
        delay = policy.next_delay(chain.attempt, chain.prev_delay, self.rng.stream("retry"))
        if delay is None:
            return None
        chain.attempt += 1
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
