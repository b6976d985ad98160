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

Both read C through its row sums, variances and log dets alone: each form in
``covmodel`` gives its own ``row_sums`` and ``shifted_log_det(p)``, the log
det of p*I(var) - C, so nothing here branches on the form.

The module needs numpy and math alone.  The error functions of the sup-bound
and of ``verify`` are ``_erf`` and ``_erfc``, a port of cephes ndtr.c that
is bit for bit scipy.special's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covmodel import CovarianceMatrix, _check_dimension, _toeplitz_row_sums
from .errors import ConditionViolated, NonFiniteInput, NotPositiveDefinite

# The rational approximations of cephes ndtr.c, which scipy.special.erf and erfc run:
# x T(x^2)/U(x^2) is erf for |x| <= 1, exp(-x^2) P(|x|)/Q(|x|) is erfc for 1 <= |x| < 8 and
# exp(-x^2) R(|x|)/S(|x|) from 8 on. Coefficients run from the highest power down; U, Q
# and S are monic, their leading 1 left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# cephes' MAXLOG, log(DBL_MAX): past x^2 = MAXLOG, erfc is taken as underflowed.
_MAXLOG = 7.09782712893383996843e2


def _exp(log_value: float) -> float:
    """exp for display, saturating to inf where math.exp would overflow."""
    return math.exp(log_value) if log_value < 700 else math.inf


def _horner(x: np.ndarray, coeffs, monic: bool = False) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest power first; a leading 1 left out if ``monic``)
    at x, in cephes' polevl/p1evl order of operations."""
    y = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y = y * x + c
    return y


def _erf_central(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _erfc_tail(x: np.ndarray) -> np.ndarray:
    """erfc(x) for |x| >= 1 (and nan): 0, or 2 below 0, once exp(-x^2) underflows."""
    a = np.abs(x)
    z = -x * x
    kept = ~(z < -_MAXLOG)
    a, z = a[kept], z[kept]
    # math.exp, not np.exp: numpy's vectorised exp can differ from libm's in the last bits.
    e = np.array([math.exp(v) for v in z.tolist()])
    mid = a < 8.0
    y = np.zeros_like(x)
    y[kept] = e * np.where(mid, _horner(a, _ERFC_P), _horner(a, _ERFC_R)) / np.where(
        mid, _horner(a, _ERFC_Q, monic=True), _horner(a, _ERFC_S, monic=True)
    )
    return np.where(x < 0, 2.0 - y, y)


def _erf(x) -> np.ndarray:
    """The error function, elementwise, bit for bit scipy.special.erf (cephes ndtr.c).

    For |x| > 1 it is 1 - erfc(|x|) with the sign of x, so erf(-x) = -erf(x), and
    erf(-0.0) = -0.0.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    central = np.abs(flat) <= 1.0
    out[central] = _erf_central(flat[central])
    rest = flat[~central]
    out[~central] = np.copysign(1.0 - _erfc_tail(np.abs(rest)), rest)
    return out.reshape(x.shape)


def _erfc(x) -> np.ndarray:
    """The complementary error function, elementwise, bit for bit scipy.special.erfc.

    For |x| < 1 it is 1 - erf(x); from 1 on, the cephes tails, which keep their relative
    accuracy to the underflow near x = 26.55 (and reach 2 below -6).
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    central = np.abs(flat) < 1.0
    out[central] = 1.0 - _erf_central(flat[central])
    out[~central] = _erfc_tail(flat[~central])
    return out.reshape(x.shape)


def _finite_p(ratios: np.ndarray) -> float:
    """max of the row ratios |row sum| / variance, NonFiniteInput where it overflows."""
    p_x = float(ratios.max())
    if not math.isfinite(p_x):
        raise NonFiniteInput("p(X) overflows: a row sum over its variance is not finite")
    return p_x


def decoupling_coefficient(C: CovarianceMatrix) -> float:
    """p(X): max over rows of the absolute row sum ``C.row_sums`` over the variance.

    Raises NonFiniteInput when a row sum overflows.
    """
    with np.errstate(over="ignore"):  # an overflow is refused by _finite_p
        return _finite_p(C.row_sums / C.variances)


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

    One prefix-sum scan gives the exact coefficient in O(n). Raises
    NonFiniteInput when a row sum overflows, InvalidSpec for n < 1.
    """
    _check_dimension(n)
    gamma = _autocovariance(gamma)
    with np.errstate(over="ignore"):  # an overflow is refused by _finite_p
        return _finite_p(_toeplitz_row_sums(gamma, n).max() / gamma[0])


def _require_condition(C: CovarianceMatrix, p: float) -> float:
    p_x = decoupling_coefficient(C)
    if not (math.isfinite(p) and p >= 2.0 * p_x):  # NaN too
        raise ConditionViolated(p, p_x)
    return p_x


def theorem1_log_constant(C: CovarianceMatrix, p: float) -> float:
    """log of 2^{(n/2)(1-1/p)} (prod sigma_i)^{1/p} / det(C)^{1/(2p)}.

    Requires a finite p >= 2 p(X) (strict hypothesis, no tolerance slack).
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


def refined_constant(C: CovarianceMatrix, p: float) -> RefinedBound:
    """Proof-intermediate prefactor with the exact determinant of p*I(var) - C.

    ``p*I(var) - C`` is checked positive definite (it is strictly diagonally
    dominant whenever p > 2 p(X)) while ``C.shifted_log_det(p)`` takes its
    log det by C's own route. Raises NonFiniteInput where p var_i overflows,
    and with it the diagonal p var_i - var_i.
    """
    n = C.n
    if not math.isfinite(p * float(C.variances.max())):
        raise NonFiniteInput(f"p*I(var) - C overflows at p={p}: p var_i is not finite")
    try:
        log_det_shifted = C.shifted_log_det(p)
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
    Requires a finite p >= 2 and p >= 2 p(X).

    Central probabilities are exact error-function values,
    P{|X_i| <= eps_i} = erf(eps_i / (sigma_i sqrt(2))).
    """
    if not p >= 2.0:  # NaN too
        raise ConditionViolated(p, 1.0, f"the sup-bound needs p >= 2, got p={p}")
    _require_condition(C, p)
    eps = np.asarray(eps, dtype=float).ravel()
    if eps.size != C.n or np.any(eps <= 0):
        raise ValueError("eps must be a length-n vector of positive reals")
    sigma = C.sigmas
    probs = _erf(eps / (sigma * math.sqrt(2.0)))
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
