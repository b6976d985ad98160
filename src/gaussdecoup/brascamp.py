"""Gaussian-weighted Brascamp-Lieb constant E_B and its general upper bound.

The sharp constant in the Gaussian-weighted Hoelder-type inequality is

    E_B = (2 pi)^{(n/2)(1-1/p)} p^{n/(2p)}
          * sup_{b_i > 0} prod b_i^{1/(2p)} / det(B + diag(b))^{1/2},

attained by Gaussian test functions.  The supremum has no closed form, but in
log(b) coordinates the objective is concave: det(B + diag(e^u)) expands over
principal minors into a nonnegative combination of exp(linear) terms, so its
log is convex and the objective is linear minus convex.  Its only stationary
point, b_i = 1/(p [(B+diag(b))^{-1}]_{ii}), is the global optimizer, so a
damped Newton method in log b from a single start finds it.  ``converged``
reports whether the stationarity residual met the tolerance; it is false, not
an error, when rounding stalls the residual on an ill-conditioned B.

The determinant lemmas used alongside E_B (Minkowski log-concavity, the
Hadamard-type bound for diagonally dominant matrices, the factorization
identity det(B) = det(p*I(var) - C) / (p^n det(C) prod var_i) and the
Gaussian extremal ratio) and a random SPD generator are test oracles, in
``tests/oracles.py``; no command or report reads them.

Everything is computed and returned in log space. Every factorization here
is ``scipy.linalg``'s LAPACK Cholesky (``cho_factor``/``cho_solve``), imported
in the functions that factor, so the ``eb`` command is the only one that
loads ``scipy.linalg``.  The ``eb`` command factors each covariance twice:
first with numpy, when ``cli._matrix_and_p`` reads ``C.chol`` to refuse a
matrix that is not positive definite, then with scipy in ``matrix_B``.  The
two factors differ in the last bits (about 2e-15 for inverse_power:r=2 at
n = 192), so ``matrix_B`` cannot reuse ``C.chol`` without moving E_B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.linalg is imported only in the functions that factor, so eb alone loads it.

from .covmodel import CovarianceMatrix
from .errors import NotPositiveDefinite

# Damped Newton for E_B: largest step in log b, Armijo slope fraction,
# backtracking factors, full steps allowed once the line search can no longer
# resolve the gain, the step limit and the stationarity residual tolerance.
_MAX_LOG_STEP = 5.0
_ARMIJO = 1e-4
_DAMPING = 0.5 ** np.arange(31)
_POLISH_STEPS = 4
_MAX_ITER = 100
_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _factor(A: np.ndarray):
    """Cholesky factor and log-det of A, or None when A is not positive definite."""
    # scipy's LAPACK, not covmodel._cholesky_log_det: numpy's build moves E_B in the last bits.
    from scipy.linalg import cho_factor

    try:
        cf = cho_factor(A, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    return (cf, logdet) if math.isfinite(logdet) else None


def _logdet_spd(A: np.ndarray, what: str = "matrix") -> float:
    factor = _factor(A)
    if factor is None:
        raise NotPositiveDefinite(f"{what} is not positive definite")
    return factor[1]


def matrix_B(C: CovarianceMatrix, p: float) -> np.ndarray:
    """B = C^{-1} - (1/p) diag(1/var_i), verified positive definite.

    Positive definiteness is equivalent to p*I(var) - C being positive
    definite and is guaranteed when p >= 2 p(X); failure signals a violated
    or numerically marginal exponent hypothesis.  Raises ValueError unless p
    is finite and > 0.
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"B needs a finite p > 0, got {p}")
    from scipy.linalg import cho_factor, cho_solve

    cf = cho_factor(C.entries, lower=True)
    inv = cho_solve(cf, np.eye(C.n))
    inv = 0.5 * (inv + inv.T)
    B = inv - np.diag(1.0 / C.variances) / p
    _logdet_spd(B, f"B = C^-1 - (1/p) I(var^-1) at p={p} (is p >= 2 p(X)?)")
    return B


def eb_objective(B: np.ndarray, p: float, b) -> float:
    """Log of the full E_B integrand ratio at diagonal perturbation b.

    (n/2)(1-1/p) log(2 pi) + (n/(2p)) log p
        + (1/(2p)) sum log b_i - (1/2) log det(B + diag(b)).

    Raises ValueError unless p is finite and > 0.
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"the E_B objective needs a finite p > 0, got {p}")
    b = np.asarray(b, dtype=float).ravel()
    if np.any(b <= 0):
        raise ValueError("all b_i must be strictly positive")
    n = B.shape[0]
    logdet = _logdet_spd(B + np.diag(b), "B + diag(b)")
    return (
        (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0 * math.pi)
        + (n / (2.0 * p)) * math.log(p)
        + float(np.sum(np.log(b))) / (2.0 * p)
        - 0.5 * logdet
    )


@dataclass(frozen=True)
class EbProblem:
    """Solved E_B supremum for one (B, p) pair, all values in log space.

    ``value_log`` is the bare sup'd ratio log(prod b^{1/(2p)} / det^{1/2});
    ``eb_log`` includes the (2 pi)/p prefactor; ``upper_log`` is the general
    bound, so eb_log <= upper_log always.  ``converged`` means the
    stationarity residual max |1/(2 p b) - diag((B + diag b)^{-1})/2| at
    ``b_opt`` is below the solver tolerance; ``n_iter`` counts Newton steps.
    """

    B: np.ndarray
    p: float
    b_opt: np.ndarray
    value_log: float
    eb_log: float
    upper_log: float
    converged: bool
    residual: float
    n_iter: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": int(self.B.shape[0]),
            "value_log": self.value_log,
            "eb_log": self.eb_log,
            "upper_log": self.upper_log,
            "sandwich_ok": bool(self.eb_log <= self.upper_log + 1e-9),
            "converged": self.converged,
            "residual": self.residual,
            "n_iter": self.n_iter,
            "b_opt": [float(x) for x in self.b_opt],
        }


def _newton_step(b: np.ndarray, M: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ascent direction in u = log b: the negative Hessian solved against g.

    The negative Hessian 0.5 [diag(b m) - (M o M) o b b^T], m = diag(M), is
    positive definite.
    """
    from scipy.linalg import cho_factor, cho_solve

    neg_hess = -0.5 * (M * M) * np.outer(b, b)
    neg_hess[np.diag_indices_from(neg_hess)] += 0.5 * b * np.diag(M)
    return cho_solve(cho_factor(neg_hess, lower=True, check_finite=False), g)


def eb_optimize(B: np.ndarray, p: float) -> EbProblem:
    """Maximize the E_B ratio over b > 0 by damped Newton in u = log b.

    The objective u . 1/(2p) - (1/2) log det(B + diag(e^u)) is concave, so one
    start suffices: b0 = diag(B)/(p-1), exact when B is diagonal.  With
    M = (B + diag b)^{-1} and m = diag(M) the gradient is 1/(2p) - b m / 2.
    Steps are capped in log space and damped by Armijo backtracking; trial
    points that are not positive definite are rejected.  Once the predicted
    gain drops below the rounding of the objective, the line search can no
    longer tell steps apart and at most ``_POLISH_STEPS`` full steps follow.
    The iteration stops when the stationarity residual max |1/(2 p b) - m/2|
    is below ``_TOL`` (1e-10) and the predicted gain is below rounding, after
    ``_MAX_ITER`` (100) steps, or when it can make no more progress.
    ``converged`` means the residual is below ``_TOL``; otherwise the last
    point's value stands as a lower estimate of the sup.  ``upper_log`` reuses
    the log det of the check that B is positive definite.
    """
    if not p > 1:  # NaN too
        raise ValueError(f"E_B optimization needs p > 1, got {p}")
    from scipy.linalg import cho_solve

    n = B.shape[0]
    logdet_B = _logdet_spd(B, "B")
    half_p = 1.0 / (2.0 * p)
    u = np.log(np.diag(B) / (p - 1.0))

    def phi(u, logdet):
        return half_p * float(np.sum(u)) - 0.5 * logdet

    b = np.exp(u)
    A = B + np.diag(b)
    cf, logdet = _factor(A)
    value = phi(u, logdet)
    n_iter = 0
    polish = 0
    while True:
        M = cho_solve(cf, np.eye(n), check_finite=False)
        m = np.diag(M)
        residual = float(np.abs(half_p / b - 0.5 * m).max())
        g = half_p - 0.5 * b * m
        step = _newton_step(b, M, g)
        longest = float(np.abs(step).max())
        if longest > _MAX_LOG_STEP:
            step *= _MAX_LOG_STEP / longest
        gain = float(g @ step)
        # Rounding of phi: a Cholesky log det of A = B + diag(b) is off by up
        # to about n eps sum |M o A| (first order in relative entry errors).
        rounding = _EPS * (half_p * float(np.abs(u).sum()) + n * float(np.sum(np.abs(M * A))))
        # The residual is absolute in 1/b: large b can pass it while a
        # resolvable gain is left, hence both tests.
        if (residual < _TOL and gain <= rounding) or n_iter >= _MAX_ITER or polish >= _POLISH_STEPS:
            break
        if polish or gain <= rounding:
            polish += 1
        for t in _DAMPING:
            trial_u = u + t * step
            trial_A = B + np.diag(np.exp(trial_u))
            trial = _factor(trial_A)
            if trial is not None and (
                polish or phi(trial_u, trial[1]) >= value + _ARMIJO * t * gain
            ):
                break
        else:
            break  # no acceptable point along the step
        u, A, (cf, logdet) = trial_u, trial_A, trial
        value = phi(u, logdet)
        b = np.exp(u)
        n_iter += 1
    log_2pi_power = (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0 * math.pi)
    prefactor = log_2pi_power + (n / (2.0 * p)) * math.log(p)
    # eb_objective(B, p, b), term for term, from the factor of B + diag(b) already held.
    eb_log = prefactor + float(np.sum(np.log(b))) / (2.0 * p) - 0.5 * logdet
    return EbProblem(
        B=B,
        p=p,
        b_opt=b,
        value_log=eb_log - prefactor,
        eb_log=eb_log,
        # The general bound E_B <= (2 pi)^{(n/2)(1-1/p)} / det(B)^{(1/2)(1-1/p)}.
        upper_log=log_2pi_power - 0.5 * (1.0 - 1.0 / p) * logdet_B,
        converged=residual < _TOL,
        residual=residual,
        n_iter=n_iter,
    )

