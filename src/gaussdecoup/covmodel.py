"""Covariance matrices of Gaussian vectors and their generative models.

Builders for the covariance families used throughout the package:

- dense symmetric positive-definite matrices (validated, Cholesky-backed),
- stationary Toeplitz matrices from an autocovariance sequence, kept as that
  sequence and validated by Durbin's recursion in O(n^2),
- finite moving averages ``X_k = sum_m c_m xi_{k-m}`` of i.i.d. standard
  Gaussian innovations, the sparse family (unit c at +-m, m in A) among them,
- the inverse-power family ``c_m = |m|^{-r}``, closed form at ``r = 1``,
- Hilbert-type matrices ``{1/(a_k + a_l)}``, kept as the sequence a: log det
  is the Cauchy determinant and p(X) reads the row sums of the same O(n^2)
  pass, so no n x n array is formed unless entries or chol are read.

Also houses the spectral-symbol representation: a 2*pi-periodic non-negative
function sampled on a uniform grid over ``[-pi, pi)`` together with its
Fourier coefficients ``d_k``, which generate the Toeplitz sections.

``parse_model`` checks a model string ("ma1:a=0.5", "sparse:support=1+4",
...) against the one table of families and returns a ``ModelSpec``, which
yields the family's autocovariance, covariance matrix, p(X) or symbol.

Everything here runs on numpy alone except the inverse-power family at
r != 1: its Hurwitz-zeta tails and its Clausen-series symbol import
``scipy.special`` inside the functions that evaluate them, so no other family
loads scipy.

All returned objects are immutable after construction; every function here is
pure and safe to call concurrently.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

# scipy.special is imported only where inverse_power at r != 1 needs it: start-up stays numpy.

from .errors import (
    InvalidSpec,
    NonConvergent,
    NonFiniteInput,
    NonPositiveDiagonal,
    NonPositiveSymbol,
    NotPositiveDefinite,
    NotSymmetric,
)

# Dense covariance matrices (O(n^2) storage, O(n^3) factorization) and exact
# Toeplitz determinants (Durbin's recursion, O(n^2) time) stop at this dimension.
MATRIX_N_CAP = 2048
# Rows per block of the Cauchy log-determinant pass over a Hilbert-type matrix.
_CAUCHY_BLOCK = 256
# Lags per block of inverse_power_gamma_sequence's one-sided sums.
_LAG_BLOCK = 256
# Default number of grid points (2K) for spectral symbols.
DEFAULT_GRID_SIZE = 4096
# A symbol whose smallest grid value is at or below this has no log-symbol.
_MIN_SYMBOL_VALUE = 1e-300
# log b(f) is refused unless the estimated tail of sum k|c_k|^2 is below this.
_B_TAIL_TOL = 1e-12
# Even terms j = 0..30 of the Clausen series: the j-th is at most about
# 2 (2 pi)^(r-1) (2j)^-r 4^-j for theta <= pi, below 1e-17 of the sum at j = 30.
_CLAUSEN_TERMS = 31
# Chebyshev degree for the pole pair near odd r: interpolation error about
# (4 + sqrt(15))^-18 < 1e-16 (the nearest singularities are at eps = +-2), and
# the node nearest eps = 0 (|eps| = 0.044) keeps the pole rounding near 2e-14.
_POLE_PAIR_DEGREE = 17

PI_SQUARED_OVER_3 = np.pi**2 / 3.0


class CovarianceMatrix:
    """Validated symmetric positive-definite covariance matrix.

    A dense covariance (``build_dense``) is validated and factored by
    Cholesky when built. A stationary section (``from_stationary``) is kept
    as its first row ``gamma`` and validated by Durbin's recursion in O(n^2)
    time and O(n) memory; its ``entries`` and ``chol`` are formed only when
    first read (sampling, E_B), and are then the same arrays, bit for bit,
    that the dense builder gives for that Toeplitz matrix. A Hilbert-type
    covariance (``hilbert_covariance``) is kept as its sequence a, with its
    ``entries`` and ``chol`` formed the same way; the first read of ``chol``
    runs the dense builder's checks and may refuse the matrix.

    Attributes
    ----------
    log_det : float
        log det of the matrix: ``2 * sum(log(diag(chol)))`` for a dense
        covariance, the sum of the logs of Durbin's prediction-error
        variances for a stationary one, the Cauchy determinant for a
        Hilbert-type one.
    gamma : (n,) ndarray or None
        gamma(0..n-1), the first row of a stationary section; None if dense.
    entries : (n, n) ndarray
        The covariance entries (variance units). Symmetric as stored.
    chol : (n, n) ndarray
        Lower-triangular Cholesky factor, ``chol @ chol.T == entries``.
    """

    def __init__(self, log_det: float, *, gamma=None, entries=None, chol=None):
        if (gamma is None) == (entries is None):
            raise ValueError("give either gamma (stationary) or entries (dense)")
        fields = self.__dict__  # frozen: __setattr__ refuses every write
        fields["log_det"] = log_det
        fields["gamma"] = gamma
        if entries is not None:
            fields["entries"], fields["chol"] = entries, chol

    def __setattr__(self, name, value):
        raise AttributeError(f"CovarianceMatrix is immutable; cannot set {name!r}")

    @cached_property
    def entries(self) -> np.ndarray:
        return _freeze(_dense_toeplitz(self.gamma))

    @cached_property
    def chol(self) -> np.ndarray:
        return _freeze(np.linalg.cholesky(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0] if self.gamma is None else self.gamma.size

    @property
    def variances(self) -> np.ndarray:
        if self.gamma is None:
            return np.diag(self.entries)
        return np.full(self.gamma.size, self.gamma[0])

    @property
    def sigmas(self) -> np.ndarray:
        """Marginal standard deviations sqrt(E X_i^2)."""
        return np.sqrt(self.variances)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _dense_toeplitz(gamma: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with entries gamma[|i - j|], copied with no arithmetic.

    Row i is the window vals[n-1-i : 2n-1-i] of vals = gamma[n-1..1], gamma[0..n-1].
    """
    vals = np.concatenate([gamma[:0:-1], gamma])
    return np.lib.stride_tricks.sliding_window_view(vals, gamma.size)[::-1].copy()


def _cholesky_log_det(a: np.ndarray) -> tuple[np.ndarray, float]:
    """numpy's lower Cholesky factor of a and log det a = 2 sum log diag.

    Raises ``numpy.linalg.LinAlgError`` when a is not positive definite; each
    caller turns that into its own error.
    """
    chol = np.linalg.cholesky(a)
    return chol, 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _check_dimension(n: int) -> None:
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidSpec(f"dimension n must be an integer, got {n!r}") from None
    if n < 1:
        raise InvalidSpec(f"dimension n must be >= 1, got {n}")


def _check_pivot_floor(smallest: float, floor: float) -> None:
    """Reject a numerically marginal matrix; each builder computes its floor, 1e-12 * trace/n."""
    if smallest <= floor:
        raise NotPositiveDefinite(
            f"smallest Cholesky pivot {smallest:.3e} at or below threshold "
            f"{floor:.3e} (1e-12 * trace/n)"
        )


def _validate_spd(entries: np.ndarray) -> CovarianceMatrix:
    """Symmetry, diagonal and Cholesky checks shared by all builders (n >= 1)."""
    n = entries.shape[0]
    scale = np.abs(entries).max()
    asym = np.abs(entries - entries.T).max()
    if asym > 1e-12 * max(scale, 1e-300):
        raise NotSymmetric(
            f"max |e[i][j]-e[j][i]| = {asym:.3e} exceeds 1e-12 * max|e| = {1e-12 * scale:.3e}"
        )
    diag = np.diag(entries)
    if np.any(diag <= 0):
        raise NonPositiveDiagonal(
            f"diagonal entries must be strictly positive; min = {diag.min():.3e}"
        )
    try:
        chol, log_det = _cholesky_log_det(entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc
    # trace/n summed as diag/n terms: the trace of a huge diagonal overflows.
    _check_pivot_floor((np.diag(chol) ** 2).min(), 1e-12 * (diag / n).sum())
    return CovarianceMatrix(log_det, entries=_freeze(entries), chol=_freeze(chol))


def build_dense(entries) -> CovarianceMatrix:
    """Validate a dense covariance matrix and attach its Cholesky factor.

    Raises
    ------
    InvalidSpec, NonFiniteInput, NotSymmetric, NonPositiveDiagonal, NotPositiveDefinite
    """
    entries = np.array(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InvalidSpec(f"expected a square array, got shape {entries.shape}")
    _check_dimension(entries.shape[0])
    if not np.all(np.isfinite(entries)):
        raise NonFiniteInput("covariance entries contain NaN or infinity")
    return _validate_spd(entries)


class _Durbin:
    """Durbin's recursion on one Hermitian Toeplitz first row, run as far as asked.

    Durbin 1960; Golub & Van Loan, Matrix Computations, section 4.7: O(n^2)
    time and O(n) memory, no matrix formed. The prediction-error variances
    v_0 = row[0] >= v_1 >= ... are the pivots of the Cholesky factorization
    (v_k = det T_{k+1} / det T_k), so the leading n x n section T_n has
    log det T_n = sum_{k<n} log v_k and smallest pivot v_{n-1}. A complex
    row (a non-even symbol) uses the Hermitian form.

    ``prefix(n)`` extends the recursion from where it stopped to order n and
    reads the running log det and pivot there. Order k reads only row[:k+1],
    so every prefix is bit for bit the recursion on ``row[:n]`` alone, and
    the sections of one row share one O(N^2) run instead of costing
    sum n^2. The state holds the predictor, v, the running log dets and
    pivots, and the first failure (its order and |kappa|); a lock makes it
    safe to share between threads.  The CLI runs one n at a time; the lock
    serves library callers who share one symbol across their own threads.

    Raises ``numpy.linalg.LinAlgError`` when row[0] is not positive (at
    construction), or from ``prefix(n)`` when a reflection coefficient of
    order below n reaches |kappa| >= 1, i.e. T_n is not positive definite.

    Accuracy: the recursion is weakly stable (Cybenko 1980); its error grows
    with cond(T), faster than Cholesky's. For ``sparse:support=1+4``
    at n = 512 (cond(T) about 1e7) log det is within 1e-11 relative of a
    40-digit reference (measured 4.2e-12; Cholesky 1.8e-13). At n = 2048 it
    differs from Cholesky by 8e-10 relative there, and by at most 2e-12 for
    the ma1, equicorr and inverse-power families.
    """

    def __init__(self, row: np.ndarray):
        v = float(row[0].real)
        if not v > 0:
            raise np.linalg.LinAlgError(f"leading entry {v:.3e} is not positive")
        self.row = row
        self._a = np.zeros(row.size, dtype=row.dtype)  # predictor a[1..k-1] of order k-1
        self._v = v
        self._log_dets = [math.log(v)]  # [k - 1]: log det T_k
        self._pivots = [v]  # [k - 1]: smallest pivot of T_k
        self._failure = None  # (order, |kappa|) of the first |kappa| >= 1
        self._lock = threading.Lock()

    def prefix(self, n: int) -> tuple[float, float]:
        """(log det, smallest pivot) of the leading n x n section."""
        with self._lock:
            self._extend(n)
            failure = self._failure
        if failure is not None and failure[0] < n:
            raise np.linalg.LinAlgError(
                f"reflection coefficient |kappa| = {failure[1]:.6g} >= 1 at order {failure[0]}"
            )
        return self._log_dets[n - 1], self._pivots[n - 1]

    def _extend(self, n: int) -> None:
        if self._failure is not None:
            return
        row, a, v = self.row, self._a, self._v
        hermitian = np.iscomplexobj(row)  # a real row needs no conjugated copy
        log_det = self._log_dets[-1]
        for k in range(len(self._log_dets), n):
            kappa = -(row[k] + a[1:k] @ row[k - 1 : 0 : -1]) / v
            shrink = 1.0 - abs(kappa) ** 2
            if not shrink > 0:
                self._failure = (k, abs(kappa))
                break
            reflected = a[k - 1 : 0 : -1]
            a[1:k] += kappa * (np.conj(reflected) if hermitian else reflected)
            a[k] = kappa
            v *= shrink
            log_det += math.log(v)
            self._log_dets.append(log_det)
            self._pivots.append(v)
        self._v = v


def _levinson_durbin(row: np.ndarray) -> tuple[float, float]:
    """(log det T, smallest pivot) of the Hermitian Toeplitz T with first row ``row``.

    The one-shot ``_Durbin``; raises ``numpy.linalg.LinAlgError`` when T is
    not positive definite.
    """
    return _Durbin(row).prefix(row.size)


def from_stationary(gamma, n: int) -> CovarianceMatrix:
    """Toeplitz covariance with entries gamma(|i-j|), validated without forming it.

    ``gamma`` is indexed from lag 0; shorter sequences are zero-padded,
    longer ones truncated to the first ``n`` lags. Durbin's recursion gives
    log det and the Cholesky pivots in O(n^2); the pivot floor is the dense
    builder's, 1e-12 * trace/n = 1e-12 * gamma(0).

    Raises
    ------
    InvalidSpec, NonFiniteInput, NonPositiveDiagonal, NotPositiveDefinite
    """
    _check_dimension(n)
    gamma = np.asarray(gamma, dtype=float).ravel()
    if not np.all(np.isfinite(gamma)):
        raise NonFiniteInput("autocovariance contains NaN or infinity")
    if gamma.size == 0 or gamma[0] <= 0:
        raise NonPositiveDiagonal("gamma[0] (the variance) must be strictly positive")
    row = _freeze(_padded(gamma, n - 1))
    try:
        log_det, smallest = _levinson_durbin(row)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Durbin recursion failed: {exc}") from exc
    _check_pivot_floor(smallest, 1e-12 * row[0])
    return CovarianceMatrix(log_det, gamma=row)


@dataclass(frozen=True)
class MovingAverageSpec:
    """Coefficients c_m of a finite moving average: ``values`` at ``offsets``."""

    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.int64).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        if offsets.size != values.size or offsets.size == 0:
            raise InvalidSpec("offsets and values must be equal-length and nonempty")
        if np.unique(offsets).size != offsets.size:
            raise InvalidSpec("duplicate coefficient offsets")
        if not np.all(np.isfinite(values)):
            raise NonFiniteInput("moving-average coefficients contain NaN or infinity")
        order = np.argsort(offsets)
        object.__setattr__(self, "offsets", _freeze(offsets[order]))
        object.__setattr__(self, "values", _freeze(values[order]))

    @classmethod
    def from_coeffs(cls, coeffs: dict) -> "MovingAverageSpec":
        """Build from a map {offset m: coefficient c_m}."""
        return cls(offsets=list(coeffs), values=list(coeffs.values()))

    def autocovariance(self, max_lag: int) -> np.ndarray:
        """gamma(h) = sum_m c_m c_{m-h} for h = 0..max_lag, over the stored support.

        Each offset adds its products with the offsets at most max_lag below
        it, so gamma is exactly 0 at a lag that is no difference of two
        offsets, and the cost does not grow with the distance between them.
        """
        offsets, values = self.offsets, self.values
        gamma = np.zeros(max_lag + 1)
        for m, c in zip(offsets.tolist(), values.tolist()):
            lo = np.searchsorted(offsets, m - max_lag)
            hi = np.searchsorted(offsets, m, side="right")
            gamma[m - offsets[lo:hi]] += c * values[lo:hi]
        return gamma


def _harmonic_numbers(k: int) -> np.ndarray:
    """H_0..H_k, H_j = sum_{i=1}^j 1/i."""
    return np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, k + 1))])


def _one_sided_sums(lo: int, hi: int, r: float) -> np.ndarray:
    """sum_{k>=1} 1/(k^r (k+mu)^r) for the lags lo <= mu <= hi, all at once.

    One head length K = 1024 * 2^b >= 4 hi for every lag: the heads
    sum_{k<=K} are one product of a sliding-window view (no copy) with a
    vector. The tails expand (k+mu)^-r = sum_j binom(-r,j) mu^j k^{-r-j} into
    Hurwitz zeta values shared across the lags, summed until the term at
    mu = hi falls below 1e-14 of the j = 0 term (mu/(K+1) <= 1/4: it
    converges geometrically).
    """
    from scipy.special import zeta

    K = 1024
    while 4 * hi > K:
        K *= 2
    u = np.arange(1, K + hi + 1, dtype=float) ** -r  # u[i] = (i+1)^-r
    head = np.lib.stride_tricks.sliding_window_view(u, K)[lo : hi + 1] @ u[:K]
    mu = np.arange(lo, hi + 1, dtype=float)
    tail = np.zeros(mu.size)
    coef = 1.0  # binom(-r, j), j = 0
    z0 = float(zeta(2 * r, K + 1))
    for j in range(120):
        z = float(zeta(2 * r + j, K + 1))
        tail += coef * mu**j * z
        if abs(coef) * float(hi) ** j * z <= 1e-14 * z0:
            break
        coef *= (-r - j) / (j + 1)
    return head + tail


def inverse_power_gamma_sequence(max_lag: int, r: float = 1.0) -> np.ndarray:
    """gamma(0..max_lag) for the inverse-power family, all lags in a few passes.

    At r = 1 it is the closed form (2/mu) (H_mu + H_{mu-1}) after
    gamma(0) = pi^2/3. For r > 1 it is the series 2 sum_{k>=1} (k (k+mu))^-r
    + sum_{0<m<mu} (m (mu-m))^-r: the middle sums are one convolution, and
    the one-sided sums come from ``_one_sided_sums`` in whole blocks of 256
    lags. A lag's block does not depend on max_lag, but numpy sums the
    centre term of a short convolution in another order, so gamma(max_lag)
    can differ in the last bit from a longer sequence's value at
    max_lag <= 10 (r = 1.5: 4, 7; r = 2: 6; r = 2.7: 4, 9, 10). About
    3 max_lag^2 flops (a block's head length is at most 8 times its lags);
    matches the per-lag sums of ``inverse_power_gamma`` in ``tests/oracles.py``
    to 1e-13 relative.
    """
    if r == 1.0:
        H = _harmonic_numbers(max_lag)
        mu = np.arange(1, max_lag + 1, dtype=float)
        return np.concatenate([[PI_SQUARED_OVER_3], (2.0 / mu) * (H[1:] + H[:-1])])
    if r < 1:
        raise ValueError(f"inverse-power autocovariance needs r >= 1, got {r}")
    from scipy.special import zeta

    v = np.zeros(max_lag + 1)
    v[1:] = np.arange(1, max_lag + 1, dtype=float) ** -r  # v[m] = m^-r, v[0] = 0
    gamma = np.convolve(v, v)[: max_lag + 1]
    gamma[0] = 2.0 * float(zeta(2.0 * r, 1))
    for lo in range(1, max_lag + 1, _LAG_BLOCK):
        sums = _one_sided_sums(lo, lo + _LAG_BLOCK - 1, r)[: max_lag + 1 - lo]
        gamma[lo : lo + sums.size] += 2.0 * sums
    return gamma


@dataclass(frozen=True)
class HilbertSpec:
    """Strictly increasing positive sequence a_i generating {1/(a_k+a_l)}."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).ravel()
        if a.size == 0:
            raise InvalidSpec("empty sequence")
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput("sequence contains NaN or infinity")
        if a[0] <= 0 or np.any(np.diff(a) <= 0):
            raise InvalidSpec("sequence must be strictly positive and strictly increasing")
        object.__setattr__(self, "a", _freeze(a))


def _hilbert_entries(a: np.ndarray) -> np.ndarray:
    return 1.0 / (a[:, None] + a[None, :])


def _validated_hilbert(entries: np.ndarray) -> CovarianceMatrix:
    """The dense builder's checks on {1/(a_k + a_l)}, with the Hilbert refusal."""
    try:
        return _validate_spd(entries)
    except NotPositiveDefinite as exc:
        # The condition number of these Cauchy matrices grows like e^{3.5 n}
        # for a_i = i, so a float64 estimate of it would only be rounding noise.
        raise NotPositiveDefinite(
            f"{exc}; condition number beyond double precision "
            "(nearly equal a's degrade rank)"
        ) from exc


def _cauchy_log_det(a: np.ndarray) -> tuple[float, np.ndarray]:
    """log det {1/(a_k + a_l)} from the Cauchy determinant, and the row sums.

    det = prod_{k<l} (a_l - a_k)^2 / prod_{k,l} (a_k + a_l), so
    log det = sum_{k,l} log((|a_k - a_l| + delta_kl) / (a_k + a_l)): n^2
    logs of ratios rounded once each, with no factorization. It runs over
    blocks of 256 rows: each block adds its diagonal square and twice the
    part right of it (about n^2/2 logs), and sums its whole rows of
    1/(a_k + a_l) in the order numpy sums a dense row, so the row sums equal
    ``np.abs(entries).sum(axis=1)`` bit for bit. O(n^2) time, O(256 n) memory.
    """
    n = a.size
    log_det = 0.0
    row_sums = np.empty(n)
    for lo in range(0, n, _CAUCHY_BLOCK):
        hi = min(lo + _CAUCHY_BLOCK, n)
        column = a[lo:hi, None]
        sums = column + a
        with np.errstate(over="ignore"):  # decoupling refuses an overflowing row sum
            row_sums[lo:hi] = (1.0 / sums).sum(axis=1)
        gaps = np.abs(column - a[lo:hi])
        np.fill_diagonal(gaps, 1.0)
        log_det += float(np.log(gaps / sums[:, lo:hi]).sum())
        log_det += 2.0 * float(np.log((a[hi:] - column) / sums[:, hi:]).sum())
    return log_det, _freeze(row_sums)


class _CauchyMatrix(CovarianceMatrix):
    """The Hilbert-type covariance {1/(a_k + a_l)}, kept as the sequence a.

    ``log_det`` and ``row_sums`` (the absolute row sums, which give p(X))
    come from one ``_cauchy_log_det`` pass; ``entries`` and ``chol`` are
    formed on first read. The first read of ``chol`` runs the dense
    builder's checks and pivot floor, and raises ``NotPositiveDefinite``
    where the factorization fails in double precision (n >= 12 for
    a_i = i); the exact log det stands either way.
    """

    def __init__(self, a: np.ndarray):
        log_det, row_sums = _cauchy_log_det(a)
        fields = self.__dict__  # frozen: __setattr__ refuses every write
        fields.update(log_det=log_det, gamma=None, a=a, row_sums=row_sums)

    @cached_property
    def entries(self) -> np.ndarray:
        return _freeze(_hilbert_entries(self.a))

    @cached_property
    def chol(self) -> np.ndarray:
        return _validated_hilbert(self.entries).chol

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def variances(self) -> np.ndarray:
        return 1.0 / (self.a + self.a)  # diag(entries), bit for bit


def hilbert_covariance(spec: HilbertSpec, n: int) -> CovarianceMatrix:
    """Hilbert-type covariance entries[k][l] = 1/(a_k + a_l), kept as a[:n].

    log det is the exact Cauchy determinant and p(X) reads its row sums,
    with no n x n array; ``entries`` and ``chol`` are formed on first read,
    and reading ``chol`` raises NotPositiveDefinite where the dense
    Cholesky fails or falls below the pivot floor.

    Raises
    ------
    InvalidSpec, NonPositiveDiagonal
    """
    _check_dimension(n)
    if spec.a.size < n:
        raise InvalidSpec(f"spec has {spec.a.size} terms, need at least n = {n}")
    a = spec.a[:n]
    with np.errstate(over="ignore"):
        variances = 1.0 / (a + a)
    if not (variances[-1] > 0 and math.isfinite(variances[0])):
        # 2 a_n or 1/(2 a_1) overflows: the dense checks refuse it, as they always have.
        with np.errstate(over="ignore", invalid="ignore"):
            return _validated_hilbert(_hilbert_entries(a))
    return _CauchyMatrix(a)


# ---------------------------------------------------------------------------
# Spectral symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralSymbol:
    """A 2*pi-periodic real symbol sampled on a uniform grid over [-pi, pi).

    ``d[k]`` holds the Fourier coefficients (1/2pi) int e^{-ikt} f(t) dt for
    k = 0..K; negative indices follow from d_{-k} = conj(d_k).  For even
    symbols the coefficients are stored as reals.  Bin K holds d_K + d_{-K}
    (aliased), so only |k| < K are exact.  ``c``, the coefficients of log f,
    follows the same convention; it is computed on first read.  Equality and
    hash are by identity: the array fields cannot decide ==.
    """

    grid: np.ndarray
    d: np.ndarray
    K: int
    strictly_positive: bool
    even: bool

    @property
    def grid_size(self) -> int:
        return self.grid.size

    @cached_property
    def c(self) -> np.ndarray:
        """Fourier coefficients of log f; NonPositiveSymbol unless f > 0 on the grid."""
        if not self.strictly_positive or self.grid.min() <= _MIN_SYMBOL_VALUE:
            raise NonPositiveSymbol(
                f"symbol is not strictly positive (min grid value {self.grid.min():.3e}); "
                "log-symbol coefficients undefined"
            )
        return _freeze(_grid_coefficients(np.log(self.grid), self.even))

    @cached_property
    def condition(self):
        """``szego.condition_report`` of the symbol, computed on first read."""
        from . import szego  # szego imports this module

        return szego.condition_report(self)

    @cached_property
    def log_b(self) -> float:
        """log b(f) = sum_{k>=1} k c_k c_{-k}, computed on first read.

        Refused (NonConvergent, on every read) unless ``condition``'s estimate
        of the tail of sum k|c_k|^2 has converged at this resolution.
        """
        tail = self.condition.c2_tail / 2.0  # the one-sided tail
        if not tail < _B_TAIL_TOL:
            raise NonConvergent(
                f"tail of sum k|c_k|^2 estimated at {tail:.3e} > {_B_TAIL_TOL:.0e} at resolution "
                f"K={self.K}; condition sum |k||c_k|^2 < inf effectively fails here"
            )
        k = np.arange(1, self.K + 1, dtype=float)
        return float(np.sum(k * (self.c[1:] * np.conj(self.c[1:])).real))

    @cached_property
    def _durbin(self) -> _Durbin:
        """Durbin's recursion on d_0..d_{K-1}: section n reads its prefix."""
        return _Durbin(self.d[: self.K])


def grid_points(grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """The uniform sample points t_j = -pi + 2*pi*j/grid_size, j = 0..grid_size-1."""
    return -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size


def _grid_coefficients(v: np.ndarray, even: bool) -> np.ndarray:
    """Fourier coefficients k = 0..K = n/2 of n samples v on the grid over [-pi, pi).

    t_j = -pi + j*(2pi/n) puts a (-1)^k phase in front of the plain DFT; an
    even function's coefficients are real.
    """
    n = v.size
    K = n // 2
    F = np.fft.fft(v)[: K + 1] / n
    coeffs = np.where(np.arange(K + 1) % 2 == 0, 1.0, -1.0) * F
    return coeffs.real.copy() if even else coeffs


def symbol_from_grid(values) -> SpectralSymbol:
    """Build a SpectralSymbol from samples on the uniform grid over [-pi, pi).

    Coefficients come from the discrete Fourier transform of the grid, which
    is the trapezoidal rule for the defining integral and exact for
    trigonometric polynomials of degree < K.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 16 or v.size % 2 != 0:
        raise InvalidSpec(f"need an even number >= 16 of grid values, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("grid values contain NaN or infinity")
    n = v.size
    scale = max(np.abs(v).max(), 1e-300)
    even = bool(np.abs(v - v[-np.arange(n) % n]).max() <= 1e-12 * scale)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        d = _grid_coefficients(v, even)
    if not np.all(np.isfinite(d)):
        raise NonFiniteInput("the Fourier coefficients of the grid values overflow")
    return SpectralSymbol(
        grid=_freeze(v.copy()),
        d=_freeze(d),
        K=n // 2,
        strictly_positive=bool(v.min() > 0.0),
        even=even,
    )


def constant_symbol(value: float, grid_size: int = DEFAULT_GRID_SIZE) -> SpectralSymbol:
    return symbol_from_grid(np.full(grid_size, float(value)))


def ma1_symbol(a: float, grid_size: int = DEFAULT_GRID_SIZE) -> SpectralSymbol:
    """Symbol of the MA(1) process with coefficients (1, a): f = |1 + a e^{it}|^2."""
    t = grid_points(grid_size)
    return symbol_from_grid(1.0 + a * a + 2.0 * a * np.cos(t))


def _power_over_factorial(theta: np.ndarray, a: float) -> np.ndarray:
    """theta^a / Gamma(a + 1) for theta > 0, in log space so neither side overflows."""
    from scipy.special import gammaln

    return np.exp(a * np.log(theta) - gammaln(a + 1.0))


def _pole_pair_regular_part(n: int, eps: float) -> float:
    """zeta(1 + eps) - (pi/2) / sin(pi eps/2) * Gamma(n) / Gamma(n + eps) for odd n.

    Both terms have the pole 1/eps, so the direct difference loses about
    1e-16/|eps|. The difference is analytic for |eps| < 2 (it equals
    H_{n-1} at eps = 0), so it is interpolated on [-1/2, 1/2] through an
    even number of Chebyshev nodes, none of them near eps = 0.
    """
    from scipy.special import poch, zeta

    def direct(e):
        return zeta(1.0 + e) - 1.0 / (e * poch(n, e) * np.sinc(e / 2.0))

    fit = np.polynomial.Chebyshev.interpolate(direct, _POLE_PAIR_DEGREE, domain=[-0.5, 0.5])
    return float(fit(eps))


def clausen_cos(r: float, theta) -> np.ndarray:
    """C_r(theta) = sum_{m>=1} cos(m theta)/m^r for r > 1 and theta in [0, pi].

    The real part of the polylogarithm expansion (DLMF 25.12.12)

        C_r(theta) = pi theta^(r-1) / (2 Gamma(r) cos(pi r/2))
                     + sum_{j>=0} (-1)^j zeta(r - 2j) theta^(2j) / (2j)!,

    summed over 31 even terms; C_r(0) = zeta(r). Write r = n + eps with n
    the nearest integer. For even n nothing is singular, and at eps = 0 the
    sum stops at j = n/2 (the Bernoulli polynomial of DLMF 24.8). For odd n
    the first term and the j = (n-1)/2 term have opposite poles at eps = 0;
    their sum is (-1)^j theta^(2j)/(2j)! [D - eps Q (theta^eps - 1)/eps]
    with D from ``_pole_pair_regular_part``, and at eps = 0 it is the limit
    (-1)^j theta^(2j)/(2j)! (H_{n-1} - log theta). Absolute error against
    mpmath.clcos is below 1e-13 zeta(r) for 1 < r <= 8.
    """
    from scipy.special import exprel, gammaln, poch, zeta

    theta = np.asarray(theta, dtype=float)
    n = round(r)
    eps = r - n
    j = np.arange(_CLAUSEN_TERMS)
    coeffs = (-1.0) ** j * zeta(r - 2.0 * j) / np.exp(gammaln(2.0 * j + 1.0))
    out = np.full(theta.shape, float(zeta(r)))
    pos = theta > 0
    t = theta[pos]
    if n % 2 == 0:
        head = np.pi / (2.0 * np.cos(np.pi * r / 2.0)) * _power_over_factorial(t, r - 1.0)
    else:
        m = (n - 1) // 2
        if m < _CLAUSEN_TERMS:
            coeffs[m] = 0.0
        log_t = np.log(t)
        eps_q = 1.0 / (poch(n, eps) * np.sinc(eps / 2.0))
        pair = _pole_pair_regular_part(n, eps) - eps_q * log_t * exprel(eps * log_t)
        head = (-1.0) ** m * _power_over_factorial(t, 2.0 * m) * pair
    out[pos] = head + np.polynomial.polynomial.polyval(t * t, coeffs)
    return out


def inverse_power_symbol(r: float, grid_size: int = DEFAULT_GRID_SIZE) -> SpectralSymbol:
    """Symbol |2 sum_{m>=1} cos(mt)/m^r|^2 of the inverse-power family.

    Needs r > 1: at r <= 1 the symbol is unbounded at t = 0 (the
    autocovariance is not absolutely summable) and cannot be gridded.
    The series is evaluated on the half grid |t| = i pi/K, i = 0..K, by
    ``clausen_cos`` in one vectorised pass (well under a millisecond at the
    default grid), then mirrored onto [-pi, pi).
    """
    if r <= 1:
        raise InvalidSpec(
            f"inverse-power symbol needs r > 1 (unbounded at t = 0 for r = {r}); "
            "use the closed-form autocovariance route instead"
        )
    K = grid_size // 2
    u = 2.0 * clausen_cos(r, np.arange(K + 1) * (np.pi / K))
    j = np.arange(grid_size)
    return symbol_from_grid(u[np.abs(j - K)] ** 2)


# ---------------------------------------------------------------------------
# File ingestion (JSON arrays or CSV columns)
# ---------------------------------------------------------------------------


def load_values(path) -> np.ndarray:
    """Read a 1-D sequence from a JSON array or a one-value-per-line CSV (else InvalidSpec)."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            return np.asarray(json.loads(path.read_text()), dtype=float).ravel()
        with open(path, newline="") as fh:
            return np.array([float(row[0]) for row in csv.reader(fh) if row])
    except (TypeError, ValueError, csv.Error) as exc:
        raise InvalidSpec(f"cannot read values from {path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    """Read a 2-D array from nested JSON arrays or CSV rows (else InvalidSpec)."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            return np.asarray(json.loads(path.read_text()), dtype=float)
        with open(path, newline="") as fh:
            return np.asarray([[float(x) for x in row] for row in csv.reader(fh) if row])
    except (TypeError, ValueError, csv.Error) as exc:
        raise InvalidSpec(f"cannot read a matrix from {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Model strings: "family" or "family:key=value,key=value,..."
# ---------------------------------------------------------------------------

# Each family and the arguments it takes, with their defaults (None: required).
# "file" is a path, read when the model is used; "support" is m1+m2+...;
# every other argument is a finite real.
MODEL_FAMILIES = {
    "identity": {},
    "equicorr": {"rho": None},
    "ma1": {"a": None},
    "inverse_power": {"r": None},
    "sparse": {"support": None},
    "hilbert": {},
    "stationary": {"file": None},
    "dense": {"file": None},
    "constant": {"value": 1.0},
    "grid": {"file": None},
}


def _model_arg(key: str, value: str):
    """A checked argument: a path, a sparse support's MovingAverageSpec or a finite real."""
    if key == "file":
        return value
    try:
        if key == "support":
            return _unit_support([int(tok) for tok in value.split("+")])
        real = float(value)
    except ValueError as exc:
        raise InvalidSpec(f"bad value {value!r} for {key}") from exc
    if not np.isfinite(real):
        raise NonFiniteInput(f"{key} must be finite, got {value!r}")
    return real


def _unit_support(support: list) -> MovingAverageSpec:
    """X_k = sum_{|m| in A} xi_{k-m}: unit coefficients at +-m for m in the support A."""
    if not support:
        raise InvalidSpec("support set A must be nonempty")
    if min(support) <= 0:
        raise InvalidSpec("support must consist of positive integers")
    return MovingAverageSpec.from_coeffs({s * m: 1.0 for m in support for s in (-1, 1)})


def _padded(values, max_lag: int) -> np.ndarray:
    """values[0..max_lag], zero-padded."""
    gamma = np.zeros(max_lag + 1)
    m = min(max_lag + 1, len(values))
    gamma[:m] = values[:m]
    return gamma


@dataclass(frozen=True)
class ModelSpec:
    """A family from MODEL_FAMILIES with its checked arguments; built by ``parse_model``.

    Files named by ``file`` are read only when a method needs them.
    """

    family: str
    args: MappingProxyType

    def gamma(self, max_lag: int) -> np.ndarray | None:
        """Autocovariance gamma(0..max_lag) of a stationary family, else None."""
        family, args = self.family, self.args
        if family == "identity":
            return _padded([1.0], max_lag)
        if family == "equicorr":
            gamma = np.full(max_lag + 1, args["rho"])
            gamma[0] = 1.0
            return gamma
        if family == "ma1":
            a = args["a"]
            return _padded([1.0 + a * a, a], max_lag)
        if family == "inverse_power":
            return inverse_power_gamma_sequence(max_lag, args["r"])
        if family == "sparse":
            return args["support"].autocovariance(max_lag)
        if family == "stationary":
            return _padded(load_values(args["file"]), max_lag)
        return None

    def summable_gamma(self) -> np.ndarray | None:
        """gamma up to the lag past which it vanishes, where it is absolutely summable."""
        family, args = self.family, self.args
        horizon = {"identity": 0, "ma1": 1}.get(family)
        if family == "sparse":
            horizon = int(np.ptp(args["support"].offsets))
        if family == "inverse_power" and args["r"] >= 2.0:
            horizon = 4096  # summable tail, truncated at a fixed horizon
        return None if horizon is None else self.gamma(horizon)

    def covariance(self, n: int) -> CovarianceMatrix:
        """The validated n x n covariance matrix; a ``dense`` file gives its leading block."""
        if self.family == "hilbert":
            return hilbert_covariance(HilbertSpec(np.arange(1, n + 1, dtype=float)), n)
        if self.family == "dense":
            entries = load_matrix(self.args["file"])
            if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
                raise InvalidSpec(f"dense file holds shape {entries.shape}, not a square matrix")
            if n > len(entries):
                raise InvalidSpec(f"n = {n} exceeds the dense file's size m = {len(entries)}")
            return build_dense(entries[:n, :n])
        gamma = self.gamma(n - 1)
        if gamma is None:
            raise InvalidSpec(f"model family {self.family!r} has no covariance matrix")
        return from_stationary(gamma, n)

    def closed_form_p(self, n: int) -> float | None:
        """p(X^n) without materializing the matrix, where the family allows it, else None."""
        # decoupling imports this module, so its row-sum scan is imported here.
        from .decoupling import stationary_decoupling_coefficient

        if self.family == "hilbert":
            # Row sums of {1/(k+l)}: p = max_k 2k (H_{n+k} - H_k).
            H = _harmonic_numbers(2 * n)
            k = np.arange(1, n + 1)
            return float((2.0 * k * (H[n + k] - H[k])).max())
        gamma = self.gamma(n - 1)
        return None if gamma is None else stationary_decoupling_coefficient(gamma, n)

    def symbol(self, grid_size: int = DEFAULT_GRID_SIZE) -> SpectralSymbol:
        """The spectral symbol; a ``grid`` file sets its own grid size."""
        family, args = self.family, self.args
        if family == "constant":
            return constant_symbol(args["value"], grid_size)
        if family == "ma1":
            return ma1_symbol(args["a"], grid_size)
        if family == "inverse_power":
            return inverse_power_symbol(args["r"], grid_size)
        if family == "grid":
            return symbol_from_grid(load_values(args["file"]))
        raise InvalidSpec(f"model family {family!r} has no spectral symbol")


def parse_model(text) -> ModelSpec:
    """Parse "family" or "family:key=value,..." against MODEL_FAMILIES.

    An unknown family, a malformed, unknown or missing argument, or a value
    of the wrong kind raises InvalidSpec; a non-finite real, NonFiniteInput.
    """
    if not isinstance(text, str):
        raise InvalidSpec(f"model must be a string, got {text!r}")
    family, _, argstr = (part.strip() for part in text.partition(":"))
    if family not in MODEL_FAMILIES:
        raise InvalidSpec(f"unknown model family {family!r}; one of {', '.join(MODEL_FAMILIES)}")
    args = dict(MODEL_FAMILIES[family])
    for item in argstr.split(",") if argstr else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if not value or key not in args:
            takes = ", ".join(f"{name}=" for name in args) or "no arguments"
            raise InvalidSpec(f"bad argument {item!r}; {family} takes {takes}")
        args[key] = _model_arg(key, value)
    for key, value in args.items():
        if value is None:
            raise InvalidSpec(f"{family} needs {key}=<value>")
    if family == "inverse_power" and args["r"] < 1.0:
        raise InvalidSpec(f"inverse-power family needs r >= 1, got {args['r']}")
    return ModelSpec(family, MappingProxyType(args))
