"""Decoupling coefficient and decoupling-inequality constants.

The decoupling coefficient of a centered Gaussian vector X with covariance C,

    p(X) = max_i sum_j |C[i][j]| / C[i][i]        (sum includes j = i),

equals 1 exactly when the components are independent and governs the
admissible exponents: the product-of-marginals bound holds for p >= 2 p(X).

Two prefactors are computed for that bound, always in log space so that
dimensions in the thousands stay representable:

- the generic constant  2^{(n/2)(1-1/p)} (prod sigma_i)^{1/p} / det(C)^{1/(2p)},
- the refined constant  p^{(n/2)(1-1/p)} (prod sigma_i)
                          / [det(p*I(var) - C)^{(1/2)(1-1/p)} det(C)^{1/(2p)}],

where the refined form keeps the exact determinant of ``p*I(var) - C`` that
the generic form lower-bounds via diagonal dominance.  The refined constant
is never larger than the generic one.

det(p*I(var) - C) takes one of three routes: Durbin's recursion for a
stationary section, a rank-r pivoted Cholesky of the correlation matrix for
a Hilbert-type (Cauchy) C at p >= 2 p(X) (O(n r^2), r about 20-25 for
a_i = i up to n = 2048), and a dense Cholesky otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported only in corollary1_bound (verify's): start-up stays numpy.

from .covmodel import (
    CovarianceMatrix,
    _CauchyMatrix,
    _check_dimension,
    _cholesky_log_det,
    _levinson_durbin,
)
from .errors import ConditionViolated, NonFiniteInput, NotPositiveDefinite

# Largest rank of the low-rank route for a Hilbert-type C; past it (a spread
# over many decades) the dense Cholesky runs.
_MAX_CAUCHY_RANK = 64


def _exp(log_value: float) -> float:
    """exp for display, saturating to inf where math.exp would overflow."""
    return math.exp(log_value) if log_value < 700 else math.inf


def _finite_p(ratios: np.ndarray) -> float:
    """max of the row ratios |row sum| / variance, NonFiniteInput where it overflows."""
    p_x = float(ratios.max())
    if not math.isfinite(p_x):
        raise NonFiniteInput("p(X) overflows: a row sum over its variance is not finite")
    return p_x


def decoupling_coefficient(C: CovarianceMatrix) -> float:
    """p(X): max over rows of the absolute row sum normalized by the variance.

    A stationary section is read from its first row in O(n), a Hilbert-type
    matrix from the row sums its Cauchy pass kept. Raises NonFiniteInput
    when a row sum overflows.
    """
    if C.gamma is not None:
        return stationary_decoupling_coefficient(C.gamma, C.n)
    with np.errstate(over="ignore"):  # an overflow is refused by _finite_p
        rows = C.row_sums if isinstance(C, _CauchyMatrix) else np.abs(C.entries).sum(axis=1)
        return _finite_p(rows / C.variances)


def _autocovariance(gamma) -> np.ndarray:
    """gamma as a flat float array: NonFiniteInput unless finite, ValueError unless gamma[0] > 0."""
    gamma = np.asarray(gamma, dtype=float).ravel()
    if not np.all(np.isfinite(gamma)):
        raise NonFiniteInput("autocovariance contains NaN or infinity")
    if gamma.size == 0 or gamma[0] <= 0:
        raise ValueError("gamma[0] must be strictly positive")
    return gamma


def stationary_decoupling_coefficient(gamma, n: int) -> float:
    """p(X) of the n-section Toeplitz matrix, from gamma alone (no matrix built).

    Row k sums gamma(0) plus both one-sided partial sums of |gamma|, so a
    prefix-sum scan gives the exact coefficient in O(n). Raises
    NonFiniteInput when a row sum overflows, InvalidSpec for n < 1.
    """
    _check_dimension(n)
    gamma = _autocovariance(gamma)
    g = np.zeros(n)
    m = min(n, gamma.size)
    g[:m] = np.abs(gamma[:m])
    k = np.arange(1, n + 1)
    with np.errstate(over="ignore"):  # an overflow is refused by _finite_p
        prefix = np.concatenate([[0.0], np.cumsum(g[1:])])  # prefix[m] = sum_{h=1}^m |gamma(h)|
        rows = g[0] + prefix[k - 1] + prefix[n - k]
        return _finite_p(rows.max() / g[0])


def _lag_sum(gamma: np.ndarray, m: int) -> float:
    """S = sum_{1<=h<m} |gamma(h)|/gamma(0), NonFiniteInput where 2S overflows."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        s = float(np.abs(gamma[1:m]).sum() / gamma[0])
    if not math.isfinite(2.0 * s):
        raise NonFiniteInput("the sum of |gamma(h)|/gamma(0) overflows")
    return s


def _require_condition(C: CovarianceMatrix, p: float) -> float:
    p_x = decoupling_coefficient(C)
    if p < 2.0 * p_x:
        raise ConditionViolated(p, p_x)
    return p_x


def theorem1_log_constant(C: CovarianceMatrix, p: float) -> float:
    """log of 2^{(n/2)(1-1/p)} (prod sigma_i)^{1/p} / det(C)^{1/(2p)}.

    Requires p >= 2 p(X) (strict hypothesis, no tolerance slack).
    """
    _require_condition(C, p)
    n = C.n
    sum_log_sigma = 0.5 * float(np.sum(np.log(C.variances)))
    return (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0) + sum_log_sigma / p - C.log_det / (2.0 * p)


@dataclass(frozen=True)
class RefinedBound:
    """Refined prefactor with its tightness ratio against the generic one."""

    log_value: float
    log_generic: float

    @property
    def value(self) -> float:
        return _exp(self.log_value)

    @property
    def tightness(self) -> float:
        """refined / generic, <= 1 whenever both are defined."""
        return _exp(self.log_value - self.log_generic)


def _cauchy_shifted_log_det(C: CovarianceMatrix, p: float) -> float | None:
    """log det(p*I(var) - C) of a Hilbert-type C at p >= 2 p(X), in O(n r^2).

    None where this route does not apply: C is not Hilbert-type, p < 2 p(X),
    or the rank would pass ``_MAX_CAUCHY_RANK``.

    With D = diag(var) and the correlation matrix R = D^{-1/2} C D^{-1/2},
    R_kl = 2 sqrt(a_k a_l) / (a_k + a_l),

        log det(p*I(var) - C) = sum_k log(p var_k) + log det(I - R/p).

    A greedy pivoted Cholesky gives R = F F^T + E with F of rank r and a
    positive semidefinite residual E whose diagonal it tracks, and
    log det(I - R/p) is taken as log det(I_r - F^T F / p). R is similar to
    D^{-1} C, whose infinity norm is p(X), so ||R|| <= p(X) <= p/2: both
    I - R/p and I - F F^T/p lie between I/2 and I, and the two log dets
    differ by at most 4 tr(E)/p. The pivoting stops once 4 tr(E)/p <= 8 n eps
    (eps the float64 unit roundoff), which sits above the rounding in
    E's diagonal. O(n r) memory.
    """
    if not isinstance(C, _CauchyMatrix) or p < 2.0 * decoupling_coefficient(C):
        return None
    a = C.a
    n = a.size
    root_a = np.sqrt(a)
    factor = np.empty((min(n, _MAX_CAUCHY_RANK), n))  # row k: column k of F
    residual = np.ones(n)  # the diagonal of E; R_kk = 1
    bound = 8.0 * n * np.finfo(float).eps
    rank = 0
    while 4.0 * float(np.maximum(residual, 0.0).sum()) / p > bound:
        if rank == factor.shape[0]:
            return None
        j = int(np.argmax(residual))
        column = (root_a / (a + a[j])) * (2.0 * root_a[j]) - factor[:rank, j] @ factor[:rank]
        factor[rank] = column / math.sqrt(residual[j])
        residual -= factor[rank] ** 2
        rank += 1
    F = factor[:rank]
    small = np.eye(rank) - (F @ F.T) / p
    return float(np.sum(np.log(p * C.variances))) + _cholesky_log_det(small)[1]


def refined_constant(C: CovarianceMatrix, p: float) -> RefinedBound:
    """Proof-intermediate prefactor with the exact determinant of p*I(var) - C.

    ``p*I(var) - C`` is checked positive definite (it is strictly diagonally
    dominant whenever p > 2 p(X)) while its log det is taken. For a
    stationary section that is Durbin's recursion on the Toeplitz row
    ((p-1) gamma(0), -gamma(1), -gamma(2), ...), O(n^2) with no matrix
    formed; for a Hilbert-type C at p >= 2 p(X), the low-rank route of
    ``_cauchy_shifted_log_det``, O(n r^2) with no n x n array; otherwise a
    dense Cholesky. Raises NonFiniteInput where p var_i overflows, and with
    it the diagonal p var_i - var_i.
    """
    n = C.n
    if not math.isfinite(p * float(C.variances.max())):
        raise NonFiniteInput(f"p*I(var) - C overflows at p={p}: p var_i is not finite")
    try:
        if C.gamma is not None:
            g = C.gamma
            log_det_shifted = _levinson_durbin(np.concatenate([[p * g[0] - g[0]], -g[1:]]))[0]
        else:
            log_det_shifted = _cauchy_shifted_log_det(C, p)
            if log_det_shifted is None:
                shifted = p * np.diag(C.variances) - C.entries
                log_det_shifted = _cholesky_log_det(shifted)[1]
    except np.linalg.LinAlgError as exc:
        p_x = decoupling_coefficient(C)
        if p < 2.0 * p_x:
            raise ConditionViolated(
                p, p_x, f"p*I(var) - C not positive definite at p={p} < 2*p(X)={2 * p_x}"
            ) from exc
        raise NotPositiveDefinite(f"p*I(var) - C is not positive definite: {exc}") from exc
    sum_log_sigma = 0.5 * float(np.sum(np.log(C.variances)))
    log_value = (
        (n / 2.0) * (1.0 - 1.0 / p) * math.log(p)
        + sum_log_sigma
        - 0.5 * (1.0 - 1.0 / p) * log_det_shifted
        - C.log_det / (2.0 * p)
    )
    return RefinedBound(log_value=log_value, log_generic=theorem1_log_constant(C, p))


def corollary1_bound(C: CovarianceMatrix, p: float, eps) -> float:
    """2^{n/2}/det(C)^{1/(2p)} * prod (sigma_i/sqrt(2) * P{|X_i|<=eps_i})^{1/p}.

    Computed in log space and exponentiated by ``_exp``, which saturates to inf.

    Central probabilities are exact error-function values,
    P{|X_i| <= eps_i} = erf(eps_i / (sigma_i sqrt(2))).
    """
    if p < 2.0:
        raise ConditionViolated(p, 1.0, f"the sup-bound needs p >= 2, got p={p}")
    _require_condition(C, p)
    eps = np.asarray(eps, dtype=float).ravel()
    if eps.size != C.n or np.any(eps <= 0):
        raise ValueError("eps must be a length-n vector of positive reals")
    from scipy.special import erf

    sigma = C.sigmas
    probs = erf(eps / (sigma * math.sqrt(2.0)))
    n = C.n
    return _exp(
        (n / 2.0) * math.log(2.0)
        - C.log_det / (2.0 * p)
        + float(np.sum(np.log(sigma / math.sqrt(2.0)) + np.log(probs))) / p
    )


@dataclass(frozen=True)
class DecouplingBound:
    """Everything Theorem-1-shaped about (C, p) in one record.

    Constants live in log space; the linear-space properties are inf for
    very large n and are meant for display.
    """

    p_X: float
    p: float
    valid: bool
    n: int
    log_constant_generic: float | None
    log_constant_refined: float | None

    @property
    def constant_generic(self) -> float | None:
        if self.log_constant_generic is None:
            return None
        return _exp(self.log_constant_generic)

    @property
    def constant_refined(self) -> float | None:
        if self.log_constant_refined is None:
            return None
        return _exp(self.log_constant_refined)

    def to_json_dict(self) -> dict:
        return {
            "p_X": self.p_X,
            "p": self.p,
            "valid": self.valid,
            "n": self.n,
            "log_constant_generic": self.log_constant_generic,
            "log_constant_refined": self.log_constant_refined,
            "constant_generic": self.constant_generic,
            "constant_refined": self.constant_refined,
        }


def decoupling_bound(C: CovarianceMatrix, p: float) -> DecouplingBound:
    """Aggregate p(X), validity of the exponent hypothesis, and both constants."""
    p_x = decoupling_coefficient(C)
    valid = p >= 2.0 * p_x
    refined = refined_constant(C, p) if valid else None
    return DecouplingBound(
        p_X=p_x,
        p=p,
        valid=valid,
        n=C.n,
        log_constant_generic=None if refined is None else refined.log_generic,
        log_constant_refined=None if refined is None else refined.log_value,
    )
