"""Linear-algebra routines used by the Markov-chain analyses.

The paper solves two kinds of linear systems:

* first-passage-time equations of an absorbing CTMC (Section 4.1), and
* global-balance equations ``pi Q = 0`` with the normalization
  ``sum(pi) = 1`` of an ergodic CTMC (Section 5.2),

and remarks that both "can be easily solved using standard methods such as
the Gauss-Seidel algorithm".  This module provides the Gauss-Seidel solver
for paper fidelity plus direct (LU-based) solvers as the numerically robust
default; the test suite cross-checks the two.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from repro import obs
from repro.exceptions import ConvergenceError, ValidationError

SolveMethod = Literal["direct", "gauss_seidel"]

#: Default convergence tolerance for iterative solvers.
DEFAULT_TOLERANCE = 1e-12

#: Default iteration cap for iterative solvers.
DEFAULT_MAX_ITERATIONS = 100_000


def _as_square_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def _validate_max_iterations(max_iterations: int) -> None:
    if max_iterations < 1:
        raise ValidationError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )


def _forward_substitution(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lower @ x = rhs`` for a lower-triangular ``lower``.

    One Gauss-Seidel sweep is exactly this triangular solve with
    ``lower = D + L`` and ``rhs = b - U x_old``; routing it through
    LAPACK turns the pure-Python inner loop into one vectorized kernel.
    scipy is imported here, where it is used, so that importing the
    package does not load it.
    """
    from scipy.linalg import solve_triangular

    return solve_triangular(lower, rhs, lower=True, check_finite=False)


def gauss_seidel(
    a: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """Solve ``a @ x = b`` by Gauss-Seidel iteration.

    Convergence is guaranteed for (irreducibly) diagonally dominant
    matrices, which covers the first-passage-time systems arising from the
    workflow CTMCs.  Raises :class:`ConvergenceError` if the residual does
    not fall below ``tolerance`` within ``max_iterations`` sweeps.

    Each sweep is evaluated in matrix form, ``(D + L) x_new = b - U
    x_old``, so the per-element update loop becomes one matrix-vector
    product plus one LAPACK triangular solve.
    """
    a = _as_square_matrix(a, "coefficient matrix")
    _validate_max_iterations(max_iterations)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValidationError(
            f"right-hand side must have shape ({n},), got {b.shape}"
        )
    diagonal = np.diag(a)
    if np.any(diagonal == 0.0):
        raise ValidationError("Gauss-Seidel requires a zero-free diagonal")

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValidationError(f"x0 must have shape ({n},), got {x.shape}")

    lower = np.tril(a)
    upper = np.triu(a, k=1)
    b_scale = max(float(np.linalg.norm(b, ord=np.inf)), 1.0)
    with obs.span("linalg.gauss_seidel", size=n) as span:
        for iteration in range(1, max_iterations + 1):
            x = _forward_substitution(lower, b - upper @ x)
            residual = float(np.linalg.norm(a @ x - b, ord=np.inf))
            if residual <= tolerance * b_scale:
                span.set("iterations", iteration)
                span.set("residual", residual)
                obs.count("linalg.gauss_seidel.solves")
                obs.count("linalg.gauss_seidel.sweeps", iteration)
                obs.observe("linalg.gauss_seidel.iterations", iteration)
                return x
        obs.count("linalg.gauss_seidel.failures")
        obs.count("linalg.gauss_seidel.sweeps", max_iterations)
    raise ConvergenceError(
        f"Gauss-Seidel did not converge within {max_iterations} iterations "
        f"(residual {residual:.3e})",
        iterations=max_iterations,
        residual=residual,
    )


def solve_linear(
    a: np.ndarray,
    b: np.ndarray,
    method: SolveMethod = "direct",
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """Solve ``a @ x = b`` with the selected method.

    ``direct`` uses LAPACK via :func:`numpy.linalg.solve`;
    ``gauss_seidel`` is the iterative scheme named in the paper.
    """
    if method == "direct":
        a = _as_square_matrix(a, "coefficient matrix")
        try:
            with obs.span("linalg.direct_solve", size=a.shape[0]):
                solution = np.linalg.solve(a, np.asarray(b, dtype=float))
            obs.count("linalg.direct.solves")
            return solution
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"singular linear system: {exc}") from exc
    if method == "gauss_seidel":
        return gauss_seidel(a, b, tolerance=tolerance,
                            max_iterations=max_iterations)
    raise ValidationError(f"unknown solve method: {method!r}")


def validate_generator_matrix(q: np.ndarray) -> np.ndarray:
    """Validate that ``q`` is an infinitesimal generator matrix.

    Requires finite entries, non-negative off-diagonal rates and rows
    summing to zero (within tolerance).  Returns the validated array.
    """
    q = _as_square_matrix(q, "generator matrix")
    largest = float(np.abs(q).max())
    if not largest < math.inf:  # NaN fails too
        raise ValidationError("generator matrix entries must be finite")
    off_diagonal = q - np.diag(np.diag(q))
    if np.any(off_diagonal < -1e-12):
        raise ValidationError("generator matrix has negative off-diagonal rates")
    row_sums = q.sum(axis=1)
    scale = max(largest, 1.0)
    if np.any(np.abs(row_sums) > 1e-9 * scale):
        worst = int(np.argmax(np.abs(row_sums)))
        raise ValidationError(
            f"generator matrix rows must sum to zero; row {worst} sums to "
            f"{row_sums[worst]:.3e}"
        )
    return q


def steady_state_distribution(
    q: np.ndarray,
    method: SolveMethod = "direct",
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """Solve ``pi Q = 0`` with ``sum(pi) = 1`` for an ergodic CTMC.

    ``direct`` replaces one balance equation by the normalization condition
    and solves the resulting non-singular system.  ``gauss_seidel`` performs
    the classic CTMC sweep ``pi_j <- sum_{i != j} pi_i q_ij / (-q_jj)``
    followed by renormalization, which is the scheme the paper refers to.
    """
    q = validate_generator_matrix(q)
    n = q.shape[0]
    if n == 1:
        return np.ones(1)

    if method == "direct":
        # Transpose the balance equations (Q^T pi^T = 0) and replace the
        # last equation with the normalization sum(pi) = 1.
        a = q.T.copy()
        a[-1, :] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        try:
            with obs.span("linalg.steady_state", method="direct", size=n):
                pi = np.linalg.solve(a, rhs)
            obs.count("linalg.direct.solves")
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                f"steady state is not unique (chain not ergodic?): {exc}"
            ) from exc
        return _validated_distribution(pi)

    if method == "gauss_seidel":
        _validate_max_iterations(max_iterations)
        departure_rates = -np.diag(q)
        if np.any(departure_rates <= 0.0):
            raise ValidationError(
                "Gauss-Seidel steady state requires every state to have a "
                "positive departure rate"
            )
        # One sweep of pi_j <- inflow_j / (-q_jj) with immediate reuse of
        # updated entries is Gauss-Seidel on the balance system
        # Q^T pi = 0: (D + L) pi_new = -U pi_old with D + L = tril(Q^T).
        balance = q.T
        lower = np.tril(balance)
        upper = np.triu(balance, k=1)
        pi = np.full(n, 1.0 / n)
        with obs.span(
            "linalg.steady_state", method="gauss_seidel", size=n
        ) as span:
            for sweep in range(1, max_iterations + 1):
                previous = pi
                pi = _forward_substitution(lower, -(upper @ pi))
                total = pi.sum()
                if total <= 0.0:
                    raise ConvergenceError(
                        "Gauss-Seidel steady-state iteration collapsed to "
                        "zero"
                    )
                pi /= total
                if float(np.abs(pi - previous).max()) <= tolerance:
                    span.set("iterations", sweep)
                    obs.count("linalg.gauss_seidel.solves")
                    obs.count("linalg.gauss_seidel.sweeps", sweep)
                    obs.observe("linalg.gauss_seidel.iterations", sweep)
                    return _validated_distribution(pi)
            obs.count("linalg.gauss_seidel.failures")
            obs.count("linalg.gauss_seidel.sweeps", max_iterations)
        raise ConvergenceError(
            f"steady-state Gauss-Seidel did not converge within "
            f"{max_iterations} iterations",
            iterations=max_iterations,
        )

    raise ValidationError(f"unknown solve method: {method!r}")


def steady_state_distribution_sparse(rows, columns, rates, num_states):
    """Steady state of a CTMC given as sparse transition triplets.

    ``rows[i] -> columns[i]`` with rate ``rates[i]`` (off-diagonal
    entries only; diagonals are derived).  Solves the balance equations
    with scipy's sparse LU — the joint availability CTMC of a heavily
    replicated system has ``prod(Y_x + 1)`` states but only
    ``O(k)`` transitions per state, so the sparse path scales where the
    dense solver would exhaust memory.
    """
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    rows = np.asarray(rows, dtype=np.int64)
    columns = np.asarray(columns, dtype=np.int64)
    rates = np.asarray(rates, dtype=float)
    if not (rows.shape == columns.shape == rates.shape):
        raise ValidationError("triplet arrays must have equal length")
    if np.any(rates < 0.0):
        raise ValidationError("transition rates must be >= 0")
    if rows.size and (rows.max() >= num_states or columns.max() >= num_states):
        raise ValidationError("state index out of range")
    if np.any(rows == columns):
        raise ValidationError("triplets must be off-diagonal")

    departure = np.zeros(num_states)
    np.add.at(departure, rows, rates)

    # Build A = Q^T with the last balance equation replaced by the
    # normalization sum(pi) = 1.
    keep = columns != num_states - 1
    a = sparse.coo_matrix(
        (
            np.concatenate(
                [rates[keep], -departure[:-1],
                 np.ones(num_states)]
            ),
            (
                np.concatenate(
                    [columns[keep], np.arange(num_states - 1),
                     np.full(num_states, num_states - 1)]
                ),
                np.concatenate(
                    [rows[keep], np.arange(num_states - 1),
                     np.arange(num_states)]
                ),
            ),
        ),
        shape=(num_states, num_states),
    ).tocsc()
    rhs = np.zeros(num_states)
    rhs[-1] = 1.0
    with obs.span(
        "linalg.steady_state", method="sparse", size=num_states
    ):
        pi = spsolve(a, rhs)
    obs.count("linalg.sparse.solves")
    return _validated_distribution(np.asarray(pi, dtype=float))


def _validated_distribution(pi: np.ndarray) -> np.ndarray:
    """Clip tiny negative round-off and renormalize a probability vector."""
    if np.any(pi < -1e-9):
        raise ValidationError(
            "steady-state solution has significantly negative entries; "
            "the chain is probably not ergodic"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ValidationError("steady-state solution does not normalize")
    return pi / total


def validate_stochastic_matrix(p: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``p`` is a row-stochastic matrix and return it."""
    p = _as_square_matrix(p, name)
    # ``initial=0.0`` keeps an empty matrix valid; it moves neither bound
    # across the tolerances below.
    low = p.min(initial=0.0)
    high = p.max(initial=0.0)
    if not (low >= -1e-12 and high <= 1.0 + 1e-12):  # NaN fails
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    row_sums = p.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        worst = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValidationError(
            f"{name} rows must sum to one; row {worst} sums to "
            f"{row_sums[worst]:.12f}"
        )
    if low < 0.0 or high > 1.0:
        return np.clip(p, 0.0, 1.0)
    return p.copy()
