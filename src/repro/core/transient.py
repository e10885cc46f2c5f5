"""Transient (time-dependent) CTMC analysis via uniformization.

The paper's §4 uses the *expected* turnaround time and §5 the
*steady-state* availability.  Both models also support time-dependent
questions once the transient distribution ``pi(t) = pi(0) e^{Qt}`` is
available:

* the **turnaround-time distribution** of a workflow type — the
  first-passage CDF ``P(T <= t)`` is the probability mass in the
  absorbing state at time ``t`` — from which percentile goals
  ("95% of orders complete within 2 hours") can be evaluated;
* **time-dependent availability** — how the system state distribution
  evolves after deployment or after a repair, and the expected downtime
  over a finite horizon.

The implementation uses the standard uniformization/randomization
scheme: with ``Lambda >= max_i |q_ii|`` and
``P = I + Q / Lambda``,

    pi(t) = sum_k  PoissonPMF(Lambda t; k) * pi(0) P^k,

truncating the Poisson sum to cover ``1 - tolerance`` of its mass.  The
weights are built outward from the mode so that large ``Lambda t``
values neither underflow nor need log-space arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.core import linalg
from repro.exceptions import ValidationError

#: Default truncation tolerance of the Poisson sum.
DEFAULT_TOLERANCE = 1e-12

#: Hard cap on Poisson terms, guarding against absurd time horizons.
MAX_POISSON_TERMS = 2_000_000


def poisson_weights(
    mean: float, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[int, np.ndarray]:
    """Truncated Poisson(mean) PMF covering ``1 - tolerance`` mass.

    Returns ``(k_min, weights)`` with ``weights[i]`` the (renormalized)
    probability of ``k_min + i`` events.  Built outward from the mode so
    that even ``mean`` in the tens of thousands stays in ordinary
    floating point.
    """
    if mean < 0.0:
        raise ValidationError("Poisson mean must be >= 0")
    if not 0.0 < tolerance < 1.0:
        raise ValidationError("tolerance must lie strictly in (0, 1)")
    if mean == 0.0:
        return 0, np.array([1.0])

    mode = int(mean)
    # Unnormalized weights, anchored at the mode with weight 1.
    left_weights: list[float] = []
    right_weights: list[float] = [1.0]
    # Expand to the right.
    weight = 1.0
    k = mode
    while weight > tolerance * 1e-3 and k - mode < MAX_POISSON_TERMS:
        k += 1
        weight *= mean / k
        right_weights.append(weight)
    # Expand to the left.
    weight = 1.0
    k = mode
    while k > 0:
        weight *= k / mean
        if weight <= tolerance * 1e-3:
            break
        left_weights.append(weight)
        k -= 1
    k_min = mode - len(left_weights)
    weights = np.array(left_weights[::-1] + right_weights)
    total = weights.sum()
    if total <= 0.0:  # pragma: no cover - defensive
        raise ValidationError("Poisson weight computation degenerated")
    return k_min, weights / total


def transient_distribution(
    generator: np.ndarray,
    initial_distribution: np.ndarray,
    time: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """State distribution ``pi(t)`` of a CTMC by uniformization.

    ``generator`` is a (possibly absorbing) infinitesimal generator Q;
    ``initial_distribution`` the row vector ``pi(0)``.
    """
    q = linalg._as_square_matrix(
        np.asarray(generator, dtype=float), "generator"
    )
    pi0 = np.asarray(initial_distribution, dtype=float)
    n = q.shape[0]
    if pi0.shape != (n,):
        raise ValidationError(
            f"initial distribution must have length {n}"
        )
    if np.any(pi0 < -1e-12) or abs(pi0.sum() - 1.0) > 1e-9:
        raise ValidationError(
            "initial distribution must be a probability vector"
        )
    if time < 0.0:
        raise ValidationError("time must be >= 0")
    if time == 0.0:
        return pi0.copy()

    rate = float(np.max(-np.diag(q)))
    if rate <= 0.0:
        return pi0.copy()  # no transitions at all
    # Mild over-uniformization improves conditioning.
    rate *= 1.02
    p_uniform = np.eye(n) + q / rate

    k_min, weights = poisson_weights(rate * time, tolerance)
    result = np.zeros(n)
    vector = pi0.copy()
    # Walk the power sequence once; accumulate from k = 0 upward.
    for k in range(k_min + len(weights)):
        index = k - k_min
        if index >= 0:
            result += weights[index] * vector
        vector = vector @ p_uniform
    # Round-off guard.
    result = np.clip(result, 0.0, None)
    total = result.sum()
    if total > 0.0:
        result /= total
    return result


def first_passage_cdf(
    generator: np.ndarray,
    initial_state: int,
    absorbing_state: int,
    times: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """``P(T <= t)`` for absorption at each of the given times."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValidationError("times must be >= 0")
    n = np.asarray(generator).shape[0]
    pi0 = np.zeros(n)
    pi0[initial_state] = 1.0
    return np.array(
        [
            transient_distribution(generator, pi0, t, tolerance)[
                absorbing_state
            ]
            for t in times
        ]
    )


def first_passage_quantile(
    generator: np.ndarray,
    initial_state: int,
    absorbing_state: int,
    probability: float,
    upper_bound_hint: float,
    tolerance: float = 1e-6,
) -> float:
    """Smallest ``t`` with ``P(T <= t) >= probability`` (bisection).

    ``upper_bound_hint`` seeds the bracketing (e.g. the mean turnaround
    time); the bracket is grown geometrically until it covers the
    quantile.
    """
    if not 0.0 < probability < 1.0:
        raise ValidationError("probability must lie strictly in (0, 1)")
    if upper_bound_hint <= 0.0:
        raise ValidationError("upper_bound_hint must be positive")

    def cdf(t: float) -> float:
        return float(
            first_passage_cdf(
                generator, initial_state, absorbing_state,
                np.array([t]),
            )[0]
        )

    high = upper_bound_hint
    for _ in range(80):
        if cdf(high) >= probability:
            break
        high *= 2.0
    else:  # pragma: no cover - defensive
        raise ValidationError(
            "could not bracket the requested quantile; is absorption "
            "certain?"
        )
    low = 0.0
    while high - low > tolerance * max(high, 1.0):
        middle = 0.5 * (low + high)
        if cdf(middle) >= probability:
            high = middle
        else:
            low = middle
    return high
