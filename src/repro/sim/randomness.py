"""Deterministic per-subsystem random streams.

Every experiment takes one integer seed. Subsystems (scheduler, builder,
network, execution, workload) each draw from an independent stream derived
from that seed and a label, so adding noise draws in one subsystem never
perturbs another — a standard trick for reproducible parallel-systems
simulation.

Batched mode
------------

Scalar ``Generator`` calls dominate the dispatch hot path (~0.65 µs per
``random()`` against ~0.1 µs for a Python list index). ``enable_batching``
wraps every stream in a :class:`BufferedGenerator` that prefetches draws in
blocks of one vectorized call and serves them one at a time — preserving
the *per-stream draw order exactly*, so a batched run is byte-identical to
a scalar run (see ``docs/PERFORMANCE.md`` for the draw-order contract).

The facade relies on numpy ``Generator`` identities that hold because the
vectorized samplers consume the bit stream exactly as their scalar
counterparts do (asserted by ``tests/test_batched_draws.py``):

* ``random(n)`` equals ``n`` successive ``random()`` calls,
* ``uniform(a, b)`` equals ``a + (b - a) * random()``,
* ``normal(loc, s)`` equals ``loc + s * standard_normal()``,
* ``lognormal(m, s)`` equals ``exp(m + s * standard_normal())``,
* ``exponential(s)`` equals ``s * standard_exponential()``.

Distribution switches on one stream (e.g. the straggler stream's rare
uniform→lognormal flip) rewind the underlying generator to its logical
position — saved bit-generator state, replayed consumed draws — before the
next prefetch, so mixed streams stay exact too.
"""

from __future__ import annotations

import math
import zlib
from typing import Optional, Union

import numpy as np

#: Prefetch block size: large enough to amortize the vectorized call,
#: small enough that a distribution switch's rewind-replay stays cheap.
DEFAULT_BATCH_BLOCK = 256

# Buffer kinds (interned; compared with ``is``).
_UNIFORM = "u"   # raw doubles in [0, 1)
_NORMAL = "z"    # standard normal
_EXPON = "e"     # standard exponential


class BufferedGenerator:
    """Draw-order-preserving batched facade over one numpy ``Generator``.

    Scalar draws of the hot distributions (``random``, ``uniform``,
    ``normal``, ``lognormal``, ``exponential``) are served from a
    prefetched block; everything else — array draws, ``integers``,
    ``choice``, ``poisson``, ``bit_generator`` inspection — first
    realigns the underlying generator to the logical stream position
    (:meth:`sync`) and then delegates, so any call sequence produces
    exactly the floats the raw generator would have produced.

    Limitations: the buffered scalar paths assume scalar ``loc`` /
    ``scale`` / ``low`` / ``high`` arguments (every call site in this
    repo). Passing array parameters with ``size=None`` is unsupported.
    """

    __slots__ = ("_gen", "_block", "_buf", "_i", "_n", "_kind", "_anchor")

    def __init__(self, gen: np.random.Generator, block: int = DEFAULT_BATCH_BLOCK) -> None:
        if block < 1:
            raise ValueError("batch block must be >= 1")
        self._gen = gen
        self._block = block
        self._buf: list[float] = []
        self._i = 0
        self._n = 0
        self._kind: Optional[str] = None
        self._anchor: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # Buffer management
    # ------------------------------------------------------------------ #
    def sync(self) -> None:
        """Realign the underlying generator to the logical stream position.

        After a prefetch the raw generator sits at the end of the block;
        the logical position is however many draws were actually served.
        Restoring the pre-prefetch state and replaying the consumed count
        with one vectorized call lands the generator exactly where a pure
        scalar caller would have left it.
        """
        if self._kind is None:
            return
        consumed = self._i
        if consumed < self._n:
            self._gen.bit_generator.state = self._anchor
            if consumed:
                if self._kind is _UNIFORM:
                    self._gen.random(consumed)
                elif self._kind is _NORMAL:
                    self._gen.standard_normal(consumed)
                else:
                    self._gen.standard_exponential(consumed)
        self._buf = []
        self._i = 0
        self._n = 0
        self._kind = None
        self._anchor = None

    def _refill(self, kind: str) -> float:
        self.sync()
        self._anchor = self._gen.bit_generator.state
        if kind is _UNIFORM:
            block = self._gen.random(self._block)
        elif kind is _NORMAL:
            block = self._gen.standard_normal(self._block)
        else:
            block = self._gen.standard_exponential(self._block)
        buf = block.tolist()
        self._buf = buf
        self._n = len(buf)
        self._kind = kind
        self._i = 1
        return buf[0]

    # ------------------------------------------------------------------ #
    # Buffered scalar draws
    # ------------------------------------------------------------------ #
    def random(self, size=None, *args, **kwargs):
        if size is not None or args or kwargs:
            self.sync()
            return self._gen.random(size, *args, **kwargs)
        i = self._i
        if self._kind is _UNIFORM and i < self._n:
            self._i = i + 1
            return self._buf[i]
        return self._refill(_UNIFORM)

    def standard_normal(self, size=None, *args, **kwargs):
        if size is not None or args or kwargs:
            self.sync()
            return self._gen.standard_normal(size, *args, **kwargs)
        i = self._i
        if self._kind is _NORMAL and i < self._n:
            self._i = i + 1
            return self._buf[i]
        return self._refill(_NORMAL)

    def standard_exponential(self, size=None, *args, **kwargs):
        if size is not None or args or kwargs:
            self.sync()
            return self._gen.standard_exponential(size, *args, **kwargs)
        i = self._i
        if self._kind is _EXPON and i < self._n:
            self._i = i + 1
            return self._buf[i]
        return self._refill(_EXPON)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        if size is not None:
            self.sync()
            return self._gen.uniform(low, high, size)
        # Matches numpy's scalar path: off + range * next_double.
        rng_ = high - low
        return low + rng_ * self.standard_uniform()

    # Alias used by the affine paths; same hot body as ``random()``.
    def standard_uniform(self) -> float:
        i = self._i
        if self._kind is _UNIFORM and i < self._n:
            self._i = i + 1
            return self._buf[i]
        return self._refill(_UNIFORM)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        if size is not None:
            self.sync()
            return self._gen.normal(loc, scale, size)
        return loc + scale * self.standard_normal()

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0, size=None):
        if size is not None:
            self.sync()
            return self._gen.lognormal(mean, sigma, size)
        # numpy's scalar lognormal is exp(random_normal(mean, sigma)) with
        # the libm exp — exactly what math.exp wraps.
        return math.exp(mean + sigma * self.standard_normal())

    def exponential(self, scale: float = 1.0, size=None):
        if size is not None:
            self.sync()
            return self._gen.exponential(scale, size)
        return scale * self.standard_exponential()

    # ------------------------------------------------------------------ #
    # Everything else: realign, then behave exactly like the raw generator.
    # ------------------------------------------------------------------ #
    def __getattr__(self, name: str):
        self.sync()
        return getattr(self._gen, name)


#: A stream handle: a raw generator or its batched facade.
StreamHandle = Union[np.random.Generator, BufferedGenerator]


def lognormal_draw(stream: StreamHandle, sigma: float) -> float:
    """One median-1.0 lognormal factor from ``stream`` (``sigma > 0``).

    :meth:`RandomStreams.lognormal_factor` draws through it; a hot loop
    that resolved its stream handle once calls it directly.
    """
    return float(np.exp(stream.normal(0.0, sigma)))


class RandomStreams:
    """A family of independent ``numpy`` generators derived from one seed."""

    def __init__(self, seed: int, batch_block: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, StreamHandle] = {}
        self._batch_block = int(batch_block)

    @property
    def batched(self) -> bool:
        """Whether streams are served through :class:`BufferedGenerator`."""
        return self._batch_block > 0

    def enable_batching(self, block: int = DEFAULT_BATCH_BLOCK) -> None:
        """Serve all present and future streams through prefetch buffers.

        Safe to call mid-run: existing streams are wrapped in place and the
        facade continues from each generator's current state, so the
        per-stream draw sequence is unbroken.
        """
        if block < 1:
            raise ValueError("batch block must be >= 1")
        self._batch_block = int(block)
        for label, gen in self._streams.items():
            if not isinstance(gen, BufferedGenerator):
                self._streams[label] = BufferedGenerator(gen, block)

    def stream(self, label: str) -> StreamHandle:
        """Return (creating on first use) the generator for ``label``."""
        gen = self._streams.get(label)
        if gen is None:
            # crc32 keeps the derivation stable across processes/platforms
            # (unlike hash(), which is salted per interpreter run).
            child = np.random.SeedSequence([self.seed, zlib.crc32(label.encode())])
            gen = np.random.default_rng(child)
            if self._batch_block:
                gen = BufferedGenerator(gen, self._batch_block)
            self._streams[label] = gen
        return gen

    def lognormal_factor(self, label: str, sigma: float) -> float:
        """A multiplicative noise factor with median 1.0.

        ``sigma`` is the log-space standard deviation; ``sigma == 0`` returns
        exactly 1.0 so noiseless simulations stay bit-deterministic.
        """
        if sigma <= 0.0:
            return 1.0
        return lognormal_draw(self.stream(label), sigma)

    def pareto_factors(
        self, label: str, alpha: float, size: int, cap: float = 1e6
    ) -> np.ndarray:
        """Bounded-Pareto multiplicative factors with unit minimum.

        Inverse-CDF draws of a Pareto(``alpha``) variable truncated at
        ``cap`` — the standard model for the heavy-tailed per-function
        invocation rates observed in production serverless traces.
        """
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if size < 1:
            raise ValueError("size must be >= 1")
        u = self.stream(label).random(size)
        return np.minimum((1.0 - u) ** (-1.0 / alpha), cap)

    def spawn(self, label: str) -> "RandomStreams":
        """Derive an independent child family (e.g. per repetition)."""
        return RandomStreams(
            zlib.crc32(label.encode()) ^ self.seed, batch_block=self._batch_block
        )
