"""Composable arrival processes for long-horizon serving simulations.

The paper evaluates one-shot concurrent bursts; a production service sees
*continuous* traffic whose rate drifts over hours. Every process here is a
pure sampler: given a :class:`~repro.sim.randomness.RandomStreams` family it
returns a sorted array of absolute arrival times, so the same seed always
produces the identical request schedule regardless of which policy consumes
it (the property every serving A/B comparison in this repo relies on).

Processes:

* :class:`PoissonProcess` — homogeneous Poisson.
* :class:`InhomogeneousPoissonProcess` — arbitrary vectorized rate function
  via Lewis-Shedler thinning.
* :class:`DiurnalProcess` — sinusoidal day/night rate, the canonical
  user-facing traffic shape.
* :class:`MarkovModulatedProcess` — two-state on/off MMPP for bursty,
  machine-generated traffic.
* :class:`AzureTraceProcess` — a synthetic generator shaped like the Azure
  Functions production trace: many functions with bounded-Pareto
  (heavy-tailed) mean rates, each on its own diurnal phase, superposed.
* :class:`SuperposedProcess` — merge any processes into one stream.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.sim.randomness import RandomStreams

#: Stream label used for the actual arrival draws. Kept stable: renaming it
#: would reshuffle every seeded arrival schedule (and the serving goldens).
ARRIVAL_STREAM = "arrivals"


def check_horizon(horizon_s: float) -> None:
    """Raise ``ValueError`` unless ``horizon_s`` is finite and positive.

    The one horizon check of every sampler, of a serving run and of the
    shadow verifier: a NaN horizon passes ``horizon_s <= 0``, and an
    infinite one cannot be sampled.
    """
    if not (math.isfinite(horizon_s) and horizon_s > 0.0):
        raise ValueError(f"horizon_s must be finite and positive (got {horizon_s})")


def check_param(
    name: str, value: float, low: float = 0.0, high: float = math.inf,
    closed: bool = False,
) -> float:
    """``value`` as a float; ``ValueError`` naming ``name`` unless it is
    finite, above ``low`` (at least ``low`` if ``closed``) and at most
    ``high``.

    The one check of every float parameter of an arrival process: NaN
    passes ``value <= 0.0``, and a NaN or infinite rate, period or sojourn
    fails only inside ``sample``, or samples nothing, or never returns.
    """
    above = low <= value if closed else low < value
    if math.isfinite(value) and above and value <= high:
        return float(value)
    interval = f"{'[' if closed else '('}{low:g}, {high:g}{']' if high < math.inf else ')'}"
    raise ValueError(f"{name} must be finite and in {interval} (got {value})")


class ArrivalProcess(abc.ABC):
    """A reproducible generator of absolute arrival times."""

    @abc.abstractmethod
    def sample(self, streams: RandomStreams, horizon_s: float) -> np.ndarray:
        """Sorted arrival times in ``[0, horizon_s)``."""

    @property
    @abc.abstractmethod
    def mean_rate_per_s(self) -> float:
        """Long-run average arrival rate (used to seed planners)."""


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at a constant rate."""

    def __init__(self, rate_per_s: float) -> None:
        self.rate_per_s = check_param("rate_per_s", rate_per_s)

    @property
    def mean_rate_per_s(self) -> float:
        return self.rate_per_s

    def sample(self, streams: RandomStreams, horizon_s: float) -> np.ndarray:
        check_horizon(horizon_s)
        gen = streams.stream(ARRIVAL_STREAM)
        block = max(64, int(self.rate_per_s * horizon_s * 1.1) + 1)
        chunks: list[np.ndarray] = []
        t = 0.0
        while t < horizon_s:
            times = t + np.cumsum(gen.exponential(1.0 / self.rate_per_s, block))
            chunks.append(times[times < horizon_s])
            t = float(times[-1])
        return np.concatenate(chunks) if chunks else np.empty(0)


class InhomogeneousPoissonProcess(ArrivalProcess):
    """Rate-varying Poisson arrivals via Lewis-Shedler thinning.

    ``rate_fn`` must accept a numpy array of times and return the
    instantaneous rate at each; ``max_rate_per_s`` must dominate it over
    the whole horizon (candidates are drawn at the dominating rate and
    accepted with probability ``rate(t) / max_rate``).
    """

    def __init__(self, rate_fn, max_rate_per_s: float) -> None:
        self.rate_fn = rate_fn
        self.max_rate_per_s = check_param("max_rate_per_s", max_rate_per_s)
        self._mean_rate: float | None = None

    @property
    def mean_rate_per_s(self) -> float:
        if self._mean_rate is not None:
            return self._mean_rate
        return self.max_rate_per_s / 2.0  # subclasses set the exact value

    def sample(self, streams: RandomStreams, horizon_s: float) -> np.ndarray:
        check_horizon(horizon_s)
        gen = streams.stream(ARRIVAL_STREAM)
        block = max(64, int(self.max_rate_per_s * horizon_s * 1.1) + 1)
        accepted: list[np.ndarray] = []
        t = 0.0
        while t < horizon_s:
            candidates = t + np.cumsum(
                gen.exponential(1.0 / self.max_rate_per_s, block)
            )
            u = gen.random(block)
            rates = np.asarray(self.rate_fn(candidates), dtype=float)
            if np.any(rates > self.max_rate_per_s * (1.0 + 1e-9)):
                raise ValueError("rate_fn exceeds the dominating max_rate_per_s")
            keep = (u * self.max_rate_per_s < rates) & (candidates < horizon_s)
            accepted.append(candidates[keep])
            t = float(candidates[-1])
        return np.concatenate(accepted) if accepted else np.empty(0)


class DiurnalProcess(InhomogeneousPoissonProcess):
    """Sinusoidal day/night traffic: ``base · (1 + amp · sin(2πt/period))``.

    ``phase_s`` shifts the peak; the default puts the trough at ``t = 0``
    (service starts at "night") so a one-period run sweeps trough → peak →
    trough.
    """

    def __init__(
        self,
        base_rate_per_s: float,
        amplitude: float = 0.8,
        period_s: float = 86400.0,
        phase_s: float = None,
    ) -> None:
        self.base_rate_per_s = check_param("base_rate_per_s", base_rate_per_s)
        self.amplitude = check_param("amplitude", amplitude, high=1.0, closed=True)
        self.period_s = check_param("period_s", period_s)
        # sin(2π(t+phase)/period) == -1 at t=0  ⇒  phase = -period/4.
        self.phase_s = (
            check_param("phase_s", phase_s, low=-math.inf)
            if phase_s is not None
            else -period_s / 4.0
        )

        def rate(times: np.ndarray) -> np.ndarray:
            angle = 2.0 * np.pi * (np.asarray(times) + self.phase_s) / self.period_s
            return self.base_rate_per_s * (1.0 + self.amplitude * np.sin(angle))

        super().__init__(rate, base_rate_per_s * (1.0 + amplitude))
        self._mean_rate = self.base_rate_per_s


class MarkovModulatedProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty on/off traffic).

    The modulating chain alternates exponentially distributed ON/OFF
    sojourns; within each sojourn arrivals are Poisson at that state's
    rate. ``rate_off_per_s`` may be 0 (pure on/off bursts).
    """

    def __init__(
        self,
        rate_on_per_s: float,
        rate_off_per_s: float,
        mean_on_s: float,
        mean_off_s: float,
        start_on: bool = True,
    ) -> None:
        self.rate_on_per_s = check_param("rate_on_per_s", rate_on_per_s)
        self.rate_off_per_s = check_param("rate_off_per_s", rate_off_per_s, closed=True)
        self.mean_on_s = check_param("mean_on_s", mean_on_s)
        self.mean_off_s = check_param("mean_off_s", mean_off_s)
        self.start_on = start_on

    @property
    def mean_rate_per_s(self) -> float:
        total = self.mean_on_s + self.mean_off_s
        return (
            self.rate_on_per_s * self.mean_on_s
            + self.rate_off_per_s * self.mean_off_s
        ) / total

    def sample(self, streams: RandomStreams, horizon_s: float) -> np.ndarray:
        check_horizon(horizon_s)
        state_gen = streams.stream("mmpp/state")
        arrival_gen = streams.stream(ARRIVAL_STREAM)
        times: list[float] = []
        t = 0.0
        on = self.start_on
        while t < horizon_s:
            mean = self.mean_on_s if on else self.mean_off_s
            rate = self.rate_on_per_s if on else self.rate_off_per_s
            end = min(t + state_gen.exponential(mean), horizon_s)
            if rate > 0.0:
                tick = t
                while True:
                    tick += arrival_gen.exponential(1.0 / rate)
                    if tick >= end:
                        break
                    times.append(tick)
            t = end
            on = not on
        return np.asarray(times)


class AzureTraceProcess(ArrivalProcess):
    """Synthetic traffic shaped like the Azure Functions production trace.

    ``n_functions`` independent functions, each with a bounded-Pareto
    (heavy-tailed) mean rate — a few functions dominate the load, most are
    nearly idle — and each riding its own randomly phased diurnal envelope.
    Per-minute invocation counts are Poisson draws against the summed
    envelope; arrivals land uniformly within their minute bucket, matching
    the trace's per-minute resolution.
    """

    def __init__(
        self,
        rate_per_function_per_s: float,
        n_functions: int = 50,
        tail_alpha: float = 1.5,
        tail_cap: float = 100.0,
        diurnal_amplitude: float = 0.6,
        period_s: float = 86400.0,
        bucket_s: float = 60.0,
    ) -> None:
        if n_functions < 1:
            raise ValueError("need at least one function")
        self.rate_per_function_per_s = check_param(
            "rate_per_function_per_s", rate_per_function_per_s
        )
        self.n_functions = int(n_functions)
        self.tail_alpha = check_param("tail_alpha", tail_alpha)
        # The factors have a unit minimum, so a cap below one is no tail.
        self.tail_cap = check_param("tail_cap", tail_cap, low=1.0, closed=True)
        self.diurnal_amplitude = check_param(
            "diurnal_amplitude", diurnal_amplitude, high=1.0, closed=True
        )
        self.period_s = check_param("period_s", period_s)
        self.bucket_s = check_param("bucket_s", bucket_s)

    @property
    def mean_rate_per_s(self) -> float:
        # Each function's rate factor is min(X, cap) with X ~ Pareto(alpha, 1)
        # (RandomStreams.pareto_factors), whose mean is
        # 1 + (cap**(1 - alpha) - 1) / (1 - alpha), and 1 + ln(cap) at
        # alpha = 1 (expm1 keeps it exact near 1). Report the nominal rate
        # times that mean and the population instead of the seed-dependent
        # realized sum.
        alpha, log_cap = self.tail_alpha, math.log(self.tail_cap)
        excess = (
            log_cap if alpha == 1.0
            else math.expm1((1.0 - alpha) * log_cap) / (1.0 - alpha)
        )
        return self.rate_per_function_per_s * self.n_functions * (1.0 + excess)

    def sample(self, streams: RandomStreams, horizon_s: float) -> np.ndarray:
        check_horizon(horizon_s)
        rates = self.rate_per_function_per_s * streams.pareto_factors(
            "azure/rates", self.tail_alpha, self.n_functions, self.tail_cap
        )
        phases = streams.stream("azure/phases").random(self.n_functions) * self.period_s
        n_buckets = int(math.ceil(horizon_s / self.bucket_s))
        centers = (np.arange(n_buckets) + 0.5) * self.bucket_s
        # (functions × buckets) diurnal envelopes, phase-shifted per function.
        angle = 2.0 * np.pi * (centers[None, :] + phases[:, None]) / self.period_s
        envelope = 1.0 + self.diurnal_amplitude * np.sin(angle)
        lam = (rates[:, None] * envelope).sum(axis=0) * self.bucket_s
        counts = streams.stream("azure/counts").poisson(lam)
        place_gen = streams.stream(ARRIVAL_STREAM)
        chunks: list[np.ndarray] = []
        for b, count in enumerate(counts):
            if count == 0:
                continue
            start = b * self.bucket_s
            chunk = start + place_gen.random(int(count)) * self.bucket_s
            chunks.append(chunk)
        if not chunks:
            return np.empty(0)
        times = np.sort(np.concatenate(chunks))
        return times[times < horizon_s]


class SuperposedProcess(ArrivalProcess):
    """The merge of several independent arrival processes.

    Each component samples from its own spawned child stream family, so
    adding a component never perturbs the others' draws.
    """

    def __init__(self, processes: list[ArrivalProcess]) -> None:
        if not processes:
            raise ValueError("need at least one component process")
        self.processes = list(processes)

    @property
    def mean_rate_per_s(self) -> float:
        return sum(p.mean_rate_per_s for p in self.processes)

    def sample(self, streams: RandomStreams, horizon_s: float) -> np.ndarray:
        check_horizon(horizon_s)
        parts = [
            p.sample(streams.spawn(f"superpose/{i}"), horizon_s)
            for i, p in enumerate(self.processes)
        ]
        return np.sort(np.concatenate(parts))
