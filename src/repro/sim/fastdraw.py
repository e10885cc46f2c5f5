"""Vectorized block pre-drawing of random variates (the fast-RNG mode).

The exact simulation mode draws one variate at a time from
:class:`random.Random` so that results are *bit-identical* to the
reference implementation (see :mod:`repro.sim.distributions`).  That
contract costs a Python-level RNG call per event — the dominant residue
of the hot path once the calendar and samplers are compiled.  This
module provides the statistically-equivalent-but-not-bit-identical
alternative used by ``rng_mode="fast"``:

* :class:`VariateStream` — one pre-drawn block of variates per
  ``(family, params)`` pair, backed by ``numpy.random.Generator`` over
  PCG64 and refilled in configurable blocks (default
  :data:`DEFAULT_BLOCK_SIZE`); ``next()`` is an amortized O(1) list
  index.
* :class:`FastRng` — a drop-in stand-in for the subset of the
  :class:`random.Random` API the simulation layers use
  (``random``/``uniform``/``expovariate``/``lognormvariate``/
  ``paretovariate``/``choice``/``choices``), each method served from
  its own named block stream, plus :meth:`FastRng.stream_for`, the
  hook :meth:`repro.sim.distributions.Distribution.sampler` dispatches
  to.

Determinism contract: every stream is seeded with
:func:`repro.sim.seeding.derive_seed` over ``(master seed, scope,
stream key)``, so a fast-mode run is a pure function of its master
seed — independent of dict iteration order, flush boundaries, or
campaign worker counts.  Fast mode is *not* bit-identical to exact
mode (different generators, different draw order); it carries its own
golden documents.
"""

from __future__ import annotations

import math
from bisect import bisect
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
# numpy loads its random module on first attribute access; importing it
# with this module keeps that cost out of the first fast-mode campaign.
import numpy.random  # noqa: F401

from repro.exceptions import ValidationError
from repro.sim.seeding import derive_seed

__all__ = ["DEFAULT_BLOCK_SIZE", "FastRng", "VariateStream"]

#: Variates drawn per refill of a :class:`VariateStream`.
DEFAULT_BLOCK_SIZE = 4096


class VariateStream:
    """One pre-drawn variate stream with amortized O(1) ``next()``.

    ``draw(generator, n)`` must return an ndarray of ``n`` variates;
    the stream converts each block to a plain Python list once (so the
    values handed out are ``float``, not numpy scalars — downstream
    statistics and the event calendar stay numpy-free) and serves it
    by index until the next refill.
    """

    __slots__ = (
        "_generator", "_draw", "_block_size", "_buffer", "_index",
        "blocks_drawn", "_served_base",
    )

    def __init__(
        self,
        generator: np.random.Generator,
        draw: Callable[[np.random.Generator, int], np.ndarray],
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if block_size < 1:
            raise ValidationError("block_size must be >= 1")
        self._generator = generator
        self._draw = draw
        self._block_size = block_size
        self._buffer: list[float] = []
        self._index = 0
        #: Number of block refills performed so far.
        self.blocks_drawn = 0
        self._served_base = 0

    def next(self) -> float:
        """The next variate (refills one block when the buffer is dry)."""
        index = self._index
        buffer = self._buffer
        if index == len(buffer):
            buffer = self._draw(
                self._generator, self._block_size
            ).tolist()
            self._buffer = buffer
            self._served_base += index
            self.blocks_drawn += 1
            index = 0
        self._index = index + 1
        return buffer[index]

    def take(self, count: int) -> list[float]:
        """``count`` variates at once (bulk variant of :meth:`next`)."""
        if count < 0:
            raise ValidationError("count must be >= 0")
        index = self._index
        end = index + count
        if end <= len(self._buffer):
            # Common case: the request fits the current buffer.
            self._index = end
            return self._buffer[index:end]
        out: list[float] = []
        while len(out) < count:
            index = self._index
            buffer = self._buffer
            if index == len(buffer):
                buffer = self._draw(
                    self._generator, self._block_size
                ).tolist()
                self._buffer = buffer
                self._served_base += index
                self.blocks_drawn += 1
                index = 0
            end = min(len(buffer), index + count - len(out))
            out.extend(buffer[index:end])
            self._index = end
        return out

    @property
    def variates_served(self) -> int:
        """Total variates handed out so far."""
        return self._served_base + self._index


# ----------------------------------------------------------------------
# Per-family block draws
# ----------------------------------------------------------------------
def _hyperexp_draw(
    probabilities: Sequence[float], means: Sequence[float]
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Vectorized hyperexponential: branch pick + scaled exponential.

    The branch index comes from one uniform per variate searched into
    the cumulative branch probabilities (``side="right"`` mirrors how
    ``random.choices`` bisects), then a standard exponential is scaled
    by the selected branch mean — exactly the mixture
    :meth:`repro.sim.distributions.HyperExponential.sample` draws one
    at a time.
    """
    cumulative = np.cumsum(np.asarray(probabilities, dtype=float))
    cumulative[-1] = 1.0  # guard the top edge against rounding
    branch_means = np.asarray(means, dtype=float)
    top = len(means) - 1

    def draw(generator: np.random.Generator, n: int) -> np.ndarray:
        picks = np.searchsorted(
            cumulative, generator.random(n), side="right"
        )
        if top:
            np.clip(picks, 0, top, out=picks)
        return generator.standard_exponential(n) * branch_means[picks]

    return draw


def _family_stream_spec(distribution) -> tuple[tuple, Callable] | None:
    """``(stream key, block draw)`` for a known distribution family.

    Returns ``None`` for unknown families; :meth:`FastRng.stream_for`
    then falls back to scalar ``sample`` calls against the
    :class:`FastRng` facade (still deterministic, just not block-drawn).
    """
    # Local import: distributions must not import numpy, so the
    # dependency points this way only.
    from repro.sim import distributions as dist

    if isinstance(distribution, dist.Exponential):
        mean = distribution.mean_value
        return (
            ("exponential", mean),
            lambda generator, n: generator.exponential(mean, n),
        )
    if isinstance(distribution, dist.Uniform):
        low, high = distribution.low, distribution.high
        return (
            ("uniform", low, high),
            lambda generator, n: generator.uniform(low, high, n),
        )
    if isinstance(distribution, dist.Erlang):
        stages = distribution.stages
        scale = distribution.mean_value / stages
        return (
            ("erlang", stages, distribution.mean_value),
            lambda generator, n: generator.gamma(stages, scale, n),
        )
    if isinstance(distribution, dist.HyperExponential):
        return (
            (
                "hyperexponential",
                distribution.branch_probabilities,
                distribution.branch_means,
            ),
            _hyperexp_draw(
                distribution.branch_probabilities,
                distribution.branch_means,
            ),
        )
    if isinstance(distribution, dist.LogNormal):
        mu, sigma = distribution._parameters()
        return (
            ("lognormal", mu, sigma),
            lambda generator, n: generator.lognormal(mu, sigma, n),
        )
    if isinstance(distribution, dist.Pareto):
        shape, minimum = distribution.shape, distribution.minimum
        return (
            ("pareto", shape, minimum),
            lambda generator, n: (generator.pareto(shape, n) + 1.0)
            * minimum,
        )
    return None


# ----------------------------------------------------------------------
# FastRng
# ----------------------------------------------------------------------
class FastRng:
    """Block-drawing stand-in for one logical ``random.Random`` stream.

    Construct one per logical stream — ``FastRng(seed, "arrival")``,
    ``FastRng(seed, "service", "wf-engine#0")`` — exactly where the
    exact mode would call :func:`repro.sim.seeding.derive_rng`.  Each
    *kind* of draw (standard uniform, standard exponential, one
    ``(family, params)`` distribution…) gets its own
    :class:`VariateStream` seeded from ``derive_seed(seed, "fastdraw",
    *scope, *key)``, so the variates served are independent of the
    order in which streams are first touched.
    """

    def __init__(
        self, seed: int, *scope, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        if block_size < 1:
            raise ValidationError("block_size must be >= 1")
        self._seed = seed
        self._scope = tuple(scope)
        self._block_size = block_size
        self._streams: dict[tuple, VariateStream] = {}
        self._uniform_next: Callable[[], float] | None = None
        self._standard_exp_next: Callable[[], float] | None = None

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------
    def _stream(
        self,
        key: tuple,
        draw: Callable[[np.random.Generator, int], np.ndarray],
    ) -> VariateStream:
        """The (lazily created) stream registered under ``key``."""
        stream = self._streams.get(key)
        if stream is None:
            bits = derive_seed(self._seed, "fastdraw", *self._scope, *key)
            stream = VariateStream(
                np.random.Generator(np.random.PCG64(bits)),
                draw,
                self._block_size,
            )
            self._streams[key] = stream
        return stream

    def _uniform_stream_next(self) -> Callable[[], float]:
        """Bound ``next`` of the shared standard-uniform stream."""
        if self._uniform_next is None:
            self._uniform_next = self._stream(
                ("u01",), lambda generator, n: generator.random(n)
            ).next
        return self._uniform_next

    def _standard_exp_stream_next(self) -> Callable[[], float]:
        """Bound ``next`` of the shared standard-exponential stream."""
        if self._standard_exp_next is None:
            self._standard_exp_next = self._stream(
                ("stdexp",),
                lambda generator, n: generator.standard_exponential(n),
            ).next
        return self._standard_exp_next

    def variate_stream(self, distribution) -> VariateStream | None:
        """The block stream serving ``distribution``, or ``None``.

        ``None`` means the family has no vectorized stream
        (:class:`~repro.sim.distributions.Deterministic` or an unknown
        user-defined family); callers needing bulk draws
        (:meth:`VariateStream.take`) fall back to repeated scalar
        sampling in that case.
        """
        spec = _family_stream_spec(distribution)
        if spec is None:
            return None
        key, draw = spec
        return self._stream(key, draw)

    def stream_for(self, distribution) -> Callable[[], float]:
        """A zero-argument block-drawing sampler for ``distribution``.

        This is the hook
        :meth:`repro.sim.distributions.Distribution.sampler` duck-types
        on: every known family gets a dedicated vectorized stream;
        :class:`~repro.sim.distributions.Deterministic` needs no stream
        at all; unknown (user-defined) families fall back to their own
        scalar ``sample`` against this facade.
        """
        from repro.sim.distributions import Deterministic

        if isinstance(distribution, Deterministic):
            value = distribution.value
            return lambda: value
        spec = _family_stream_spec(distribution)
        if spec is None:
            sample = distribution.sample
            return lambda: sample(self)
        key, draw = spec
        return self._stream(key, draw).next

    # ------------------------------------------------------------------
    # random.Random-compatible subset
    # ------------------------------------------------------------------
    def random(self) -> float:
        """Standard uniform on ``[0, 1)`` from the shared u01 stream."""
        nxt = self._uniform_next
        if nxt is None:
            nxt = self._uniform_stream_next()
        return nxt()

    def random_block(self, count: int) -> list[float]:
        """``count`` standard uniforms at once (bulk :meth:`random`).

        Served from the same u01 stream as :meth:`random` /
        :meth:`uniform`, so mixing scalar and block consumption yields
        the same variate sequence as all-scalar consumption.
        """
        return self.u01_stream().take(count)

    def u01_stream(self) -> VariateStream:
        """The shared standard-uniform stream (for hot-path binding).

        Callers on a per-request hot path bind ``next``/``take`` of the
        returned stream directly, skipping the facade dispatch of
        :meth:`random` / :meth:`random_block`; mixing both access forms
        still consumes one common variate sequence.
        """
        if self._uniform_next is None:
            self._uniform_stream_next()
        return self._streams[("u01",)]

    def uniform(self, a: float, b: float) -> float:
        """Uniform on ``[a, b]`` (scaled standard uniform)."""
        nxt = self._uniform_next
        if nxt is None:
            nxt = self._uniform_stream_next()
        return a + (b - a) * nxt()

    def expovariate(self, lambd: float) -> float:
        """Exponential with rate ``lambd`` (scaled standard exponential)."""
        nxt = self._standard_exp_next
        if nxt is None:
            nxt = self._standard_exp_stream_next()
        return nxt() / lambd

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Log-normal variate from the ``(mu, sigma)`` stream."""
        return self._stream(
            ("lognormal", mu, sigma),
            lambda generator, n: generator.lognormal(mu, sigma, n),
        ).next()

    def normalvariate(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Normal variate from the ``(mu, sigma)`` stream."""
        return self._stream(
            ("normal", mu, sigma),
            lambda generator, n: generator.normal(mu, sigma, n),
        ).next()

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Alias of :meth:`normalvariate` (block streams have no state)."""
        return self.normalvariate(mu, sigma)

    def paretovariate(self, alpha: float) -> float:
        """Pareto variate with minimum 1 (matching ``random.Random``)."""
        return self._stream(
            ("paretovariate", alpha),
            lambda generator, n: generator.pareto(alpha, n) + 1.0,
        ).next()

    def gammavariate(self, alpha: float, beta: float) -> float:
        """Gamma variate with shape ``alpha`` and scale ``beta``."""
        return self._stream(
            ("gamma", alpha, beta),
            lambda generator, n: generator.gamma(alpha, beta, n),
        ).next()

    def choice(self, sequence):
        """Uniformly random element of a non-empty sequence."""
        if not sequence:
            raise IndexError("cannot choose from an empty sequence")
        index = int(self.random() * len(sequence))
        if index == len(sequence):  # pragma: no cover - u < 1 guard
            index -= 1
        return sequence[index]

    def choices(self, population, weights=None, *, cum_weights=None, k=1):
        """Weighted sampling with replacement (``random.choices`` subset)."""
        if cum_weights is None:
            if weights is None:
                return [self.choice(population) for _ in range(k)]
            cum_weights = list(accumulate(weights))
        elif weights is not None:
            raise TypeError(
                "cannot specify both weights and cumulative weights"
            )
        if len(cum_weights) != len(population):
            raise ValueError(
                "the number of weights does not match the population"
            )
        total = cum_weights[-1] + 0.0
        if total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        if not math.isfinite(total):
            raise ValueError("total of weights must be finite")
        hi = len(population) - 1
        rand = self.random
        return [
            population[bisect(cum_weights, rand() * total, 0, hi)]
            for _ in range(k)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def blocks_drawn(self) -> int:
        """Total block refills across every stream of this FastRng."""
        return sum(s.blocks_drawn for s in self._streams.values())

    @property
    def variates_served(self) -> int:
        """Total variates handed out across every stream."""
        return sum(s.variates_served for s in self._streams.values())
