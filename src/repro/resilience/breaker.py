"""Per-fault-domain circuit breakers around instance dispatch.

A crash-looping fault domain (rack, AZ, poisoned runtime image) turns every
dispatch routed at it into billed-but-wasted work: the attempt is charged
up to the crash point, then retried, losing ``P×`` work per packed
instance. The circuit breaker is the classic cure — after
``failure_threshold`` consecutive failures the domain is *open* and
receives no traffic; after a seeded recovery pause it goes *half-open* and
admits a bounded number of probe dispatches; a probe success closes the
breaker, a probe failure re-opens it with exponential backoff. A
persistently poisoned domain therefore quarantines itself: its probes keep
failing and the recovery pause escalates toward ``max_recovery_s``.

Determinism: the recovery pause is jittered from a dedicated numpy
generator (to de-synchronize probes across domains), so one seed fixes
every transition time; :meth:`CircuitBreaker.transitions` records them all
for the regression goldens.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """One domain's closed / open / half-open state machine."""

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_s: float = 30.0,
        half_open_probes: int = 1,
        backoff_factor: float = 2.0,
        max_recovery_s: float = 600.0,
        jitter: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        # NaN passes every comparison below, so finiteness is checked
        # first: a NaN pause would half-open an open breaker at once.
        for name, value in (("recovery_s", recovery_s),
                            ("max_recovery_s", max_recovery_s),
                            ("backoff_factor", backoff_factor), ("jitter", jitter)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_s <= 0.0 or max_recovery_s < recovery_s:
            raise ValueError("need 0 < recovery_s <= max_recovery_s")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        self.failure_threshold = int(failure_threshold)
        self.recovery_s = float(recovery_s)
        self.half_open_probes = int(half_open_probes)
        self.backoff_factor = float(backoff_factor)
        self.max_recovery_s = float(max_recovery_s)
        self.jitter = float(jitter)
        self._rng = rng
        self.state = CLOSED
        self._consecutive_failures = 0
        self._open_until = 0.0
        self._current_recovery_s = self.recovery_s
        self._probes_outstanding = 0
        self.transitions: list[tuple[float, str, str]] = []
        #: Failed probes (half-open → open re-openings). A flapping breaker
        #: keeps admitting probes into a still-broken domain — the signal
        #: remediation detectors watch for.
        self.flaps = 0

    # ------------------------------------------------------------------ #
    def _transition(self, now: float, to: str) -> None:
        self.transitions.append((now, self.state, to))
        if to == OPEN and self.state == HALF_OPEN:
            self.flaps += 1
        self.state = to

    def _pause(self) -> float:
        """The next open pause, jittered from the seeded generator."""
        pause = self._current_recovery_s
        if self.jitter > 0.0 and self._rng is not None:
            pause *= 1.0 + self.jitter * float(self._rng.random())
        return pause

    def _open(self, now: float) -> None:
        self._transition(now, OPEN)
        self._open_until = now + self._pause()
        self._current_recovery_s = min(
            self.max_recovery_s, self._current_recovery_s * self.backoff_factor
        )
        self._probes_outstanding = 0

    # ------------------------------------------------------------------ #
    def allow(self, now: float) -> bool:
        """May a dispatch be routed at this domain right now?

        Half-open admissions count as probes (the call mutates the probe
        budget); while open — strictly before the recovery deadline — the
        answer is always ``False``, the invariant the property suite pins.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now < self._open_until:
                return False
            self._transition(now, HALF_OPEN)
        if self._probes_outstanding < self.half_open_probes:
            self._probes_outstanding += 1
            return True
        return False

    def record_success(self, now: float) -> None:
        self._consecutive_failures = 0
        if self.state == HALF_OPEN:
            self._transition(now, CLOSED)
            self._current_recovery_s = self.recovery_s
            self._probes_outstanding = 0

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._open(now)
            return
        self._consecutive_failures += 1
        if self.state == CLOSED and (
            self._consecutive_failures >= self.failure_threshold
        ):
            self._open(now)

    # ------------------------------------------------------------------ #
    @property
    def open_until(self) -> float:
        """Recovery deadline of the current open period (0 when never opened)."""
        return self._open_until

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)


class CircuitBreakerBank:
    """One breaker per fault domain, with deterministic rotor routing.

    ``pick`` scans domains round-robin from a rotor (so healthy domains
    share load instead of the first one absorbing everything) and returns
    the first domain whose breaker admits the dispatch, or ``None`` when
    every domain refuses. ``earliest_retry`` then tells the caller when an
    open breaker will next consider a probe — the serving loop parks
    blocked batches until that time or until an in-flight completion frees
    a half-open probe slot.
    """

    def __init__(
        self,
        n_domains: int = 4,
        rng: Optional[np.random.Generator] = None,
        **breaker_kwargs,
    ) -> None:
        if n_domains < 1:
            raise ValueError("need at least one fault domain")
        self.breakers = [
            CircuitBreaker(rng=rng, **breaker_kwargs) for _ in range(n_domains)
        ]
        self.quarantined: set[int] = set()
        self._rotor = 0

    def __len__(self) -> int:
        return len(self.breakers)

    def pick(self, now: float) -> Optional[int]:
        n = len(self.breakers)
        for step in range(n):
            domain = (self._rotor + step) % n
            if domain in self.quarantined:
                continue
            if self.breakers[domain].allow(now):
                self._rotor = (domain + 1) % n
                return domain
        return None

    def earliest_retry(self, now: float) -> Optional[float]:
        """Earliest future instant an open breaker reaches half-open."""
        deadlines = [
            b.open_until for d, b in enumerate(self.breakers)
            if d not in self.quarantined and b.state == OPEN and b.open_until > now
        ]
        return min(deadlines) if deadlines else None

    def record(self, domain: int, success: bool, now: float) -> None:
        if success:
            self.breakers[domain].record_success(now)
        else:
            self.breakers[domain].record_failure(now)

    # ------------------------------------------------------------------ #
    # Administrative quarantine (remediation actuation seam)
    # ------------------------------------------------------------------ #
    def quarantine(self, domain: int) -> None:
        """Administratively remove ``domain`` from routing.

        Unlike an open breaker — which probes its way back — a quarantined
        domain receives no traffic at all until :meth:`release`. At least
        one domain must remain routable.
        """
        if not 0 <= domain < len(self.breakers):
            raise ValueError(f"no such fault domain: {domain}")
        if len(self.quarantined | {domain}) >= len(self.breakers):
            raise ValueError("cannot quarantine the last routable domain")
        self.quarantined.add(domain)

    def release(self, domain: int) -> None:
        """Return a quarantined domain to routing (breaker state untouched)."""
        self.quarantined.discard(domain)

    @property
    def n_transitions(self) -> int:
        return sum(b.n_transitions for b in self.breakers)

    @property
    def n_flaps(self) -> int:
        """Total failed half-open probes across domains."""
        return sum(b.flaps for b in self.breakers)

    def flaps_by_domain(self) -> list[int]:
        return [b.flaps for b in self.breakers]

    @property
    def n_open(self) -> int:
        return sum(1 for b in self.breakers if b.state == OPEN)

    def transition_log(self) -> list[tuple[float, int, str, str]]:
        """All transitions across domains, sorted by time (for goldens)."""
        log = [
            (t, d, src, dst)
            for d, b in enumerate(self.breakers)
            for (t, src, dst) in b.transitions
        ]
        return sorted(log)
