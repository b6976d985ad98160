"""Test oracles: the determinant lemmas behind E_B and its objective at one
point, a dense Toeplitz section,
the serial Monte Carlo stream blocks, the whole Monte Carlo sample, a report
re-judged against another right-hand side, the inverse-power autocovariance
summed one lag at a time and the Clopper-Pearson bound and tails of a hit
count.

No command, report or workload reads these; the tests use them to check the
package against independent routes.

- ``minkowski_check``: log-concavity (Minkowski) of the determinant,
  det(lU+(1-l)V) >= det(U)^l det(V)^{1-l}.
- ``ostrowski_bound``: the Hadamard-type lower bound
  det(A) >= prod(|a_ii| - sum_{j!=i} |a_ij|) for strictly diagonally
  dominant A.
- ``detB_identity_check``: the factorization identity
  det(B) = det(p*I(var) - C) / (p^n det(C) prod var_i).
- ``eb_objective``: the log E_B ratio at one diagonal perturbation b, next
  to ``eb_optimize``, which forms it term for term from the factor it holds.
- ``gaussian_extremal_check``: the Gaussian extremal ratio by two routes.
- ``random_spd``: a random SPD matrix with log-uniform eigenvalues.
- ``toeplitz_section``: the dense n x n section of a spectral symbol, next to
  the package's O(n^2) recursion that never forms it.
- ``_Durbin`` and ``_durbin_loop``: Durbin's recursion on a Toeplitz first
  row, resumable and one-shot, next to the package's Schur algorithm, which
  gives the same reflection coefficients and pivots by another rounding.
- ``stream_blocks``: verify's stream blocks drawn and multiplied on one
  thread, each in one unpanelled GEMM, next to the package's generator
  whose normals a helper thread draws while the caller multiplies and
  yields panels; ``joined_panels`` joins those panels into the blocks.
- ``sample_gaussian``: the whole (n_samples, n) sample, the package's
  panels copied into place, for checks on the draws themselves.
- ``cauchy_log_det_progression``: log det {1/(a_k + a_l)} for an arithmetic
  progression a_k = a_1 + (k-1) d in O(n), next to the package's O(n^2)
  Cauchy sum.
- ``with_rhs``: a verification report's estimate against another right-hand
  side, under the 3/6 standard-error rule.
- ``inverse_power_gamma``: one lag of the inverse-power autocovariance, its
  series summed per lag with a Hurwitz-zeta tail (``_one_sided_sum``), next
  to the package's blocked ``inverse_power_gamma_sequence``.
- ``hit_bound``: the one-sided Clopper-Pearson bound on a hit probability,
  by ``scipy.special.betaincinv``, next to the package's verdict, which only
  asks whether a binomial tail reaches the level.
- ``binomial_tail``: a binomial tail summed to 40 digits (mpmath), next to
  the package's double-precision sum from a saddle-point first term.

The four lemma checks return their determinants and ratios in log space.
"""

from __future__ import annotations

import math
import threading

import mpmath
import numpy as np
from scipy.linalg import toeplitz
from scipy.special import betaincinv

from gaussdecoup.brascamp import _logdet_spd, matrix_B
from gaussdecoup.covmodel import CovarianceMatrix, SpectralSymbol, inverse_power_gamma_sequence
from gaussdecoup.errors import InvalidSpec
from gaussdecoup.verify import (
    _STREAM_ROWS,
    VerificationReport,
    _make_report,
    _stream_blocks,
    _stream_rng,
    _stream_sizes,
)


def minkowski_check(U: np.ndarray, V: np.ndarray, lam: float) -> tuple[float, float]:
    """Both sides of det(l U + (1-l) V) >= det(U)^l det(V)^{1-l}, in log space."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if U.shape != V.shape:
        raise ValueError("U and V must have the same shape")
    lhs = _logdet_spd(lam * U + (1.0 - lam) * V, "lam*U + (1-lam)*V")
    rhs = lam * _logdet_spd(U, "U") + (1.0 - lam) * _logdet_spd(V, "V")
    return lhs, rhs


def ostrowski_bound(A) -> float | None:
    """Log of prod(|a_ii| - sum_{j!=i}|a_ij|) for strictly diagonally dominant A.

    Returns None (inapplicable) when some row fails strict dominance.
    """
    A = np.asarray(A, dtype=float)
    diag = np.abs(np.diag(A))
    off = np.abs(A).sum(axis=1) - diag
    margins = diag - off
    if np.any(margins <= 0):
        return None
    return float(np.sum(np.log(margins)))


def detB_identity_check(C: CovarianceMatrix, p: float) -> tuple[float, float]:
    """log det(B) directly vs via det(p*I(var) - C) / (p^n det(C) prod var_i)."""
    direct = _logdet_spd(matrix_B(C, p), "B")
    shifted = p * np.diag(C.variances) - C.entries
    factored = (
        _logdet_spd(shifted, "p*I(var) - C")
        - C.n * math.log(p)
        - C.log_det
        - float(np.sum(np.log(C.variances)))
    )
    return direct, factored


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


def gaussian_extremal_check(B: np.ndarray, p: float, b) -> tuple[float, float]:
    """Gaussian extremal ratio via the two-integral route vs the closed form.

    The first value evaluates numerator and denominator Gaussian integrals
    through their determinant formulas; the second plugs into the displayed
    closed form.  They must agree to wiring precision (~1e-12).
    """
    b = np.asarray(b, dtype=float).ravel()
    if np.any(b <= 0):
        raise ValueError("all b_i must be strictly positive")
    if p <= 1:
        raise ValueError(f"needs p > 1, got {p}")
    n = B.shape[0]
    logdet = _logdet_spd(B + np.diag(b), "B + diag(b)")
    # Route 1: log[(2 pi)^{n/2} det(B+diag(b))^{-1/2}] - log prod (2 pi/(p b_i))^{1/(2p)}
    numerator = (n / 2.0) * math.log(2.0 * math.pi) - 0.5 * logdet
    denominator = float(np.sum(np.log(2.0 * math.pi / (p * b)))) / (2.0 * p)
    via_integrals = numerator - denominator
    # Route 2: closed form (2 pi)^{(n/2)(1-1/p)} p^{n/(2p)} prod b^{1/(2p)} / det^{1/2}
    via_closed = (
        (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0 * math.pi)
        + (n / (2.0 * p)) * math.log(p)
        + float(np.sum(np.log(b))) / (2.0 * p)
        - 0.5 * logdet
    )
    return via_integrals, via_closed


def cauchy_log_det_progression(a1: float, d: float, n: int) -> float:
    """log det {1/(a_k + a_l)} for a_k = a1 + (k-1) d, k = 1..n, in O(n).

    In the Cauchy determinant prod_{k<l} (a_l - a_k)^2 / prod_{k,l} (a_k + a_l)
    the gap m d occurs n - m times and the sum 2 a1 + s d occurs
    min(s + 1, 2n - 1 - s) times, so

        log det = 2 sum_{m<n} (n-m) log(m d) - sum_{s<=2n-2} min(s+1, 2n-1-s) log(2 a1 + s d).
    """
    m = np.arange(1, n, dtype=float)
    s = np.arange(2 * n - 1, dtype=float)
    gaps = 2.0 * float(np.sum((n - m) * np.log(m * d)))
    return gaps - float(np.sum(np.minimum(s + 1, 2 * n - 1 - s) * np.log(2.0 * a1 + s * d)))


def random_spd(n: int, rng: np.random.Generator, log10_eig_range=(-2.0, 2.0)) -> np.ndarray:
    """Random SPD matrix Q diag(lambda) Q^T, eigenvalues log-uniform in the range."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(*log10_eig_range, size=n)
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def toeplitz_section(sym: SpectralSymbol, n: int) -> np.ndarray:
    """The n x n Toeplitz matrix {d_{j-i}} generated by the symbol, for 1 <= n <= K."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    if n > sym.K:
        raise InvalidSpec(f"section n={n} would read the aliased bin K={sym.K}")
    d = sym.d[:n]
    if sym.even:
        return toeplitz(d)
    return toeplitz(np.conj(d), d)


class _Durbin:
    """Durbin's recursion on one Hermitian Toeplitz first row, run as far as asked.

    Durbin 1960; Golub & Van Loan, Matrix Computations, section 4.7: O(n^2)
    time and O(n) memory. The prediction-error variances v_0 = row[0] >= v_1
    >= ... are the Cholesky pivots, so T_n has log det sum_{k<n} log v_k and
    smallest pivot v_{n-1}. ``prefix(n)`` extends the recursion to order n,
    under a lock; order k reads only row[:k+1], so every prefix is bit for
    bit ``_durbin_loop(row[:n])``. The errors are the package's: LinAlgError
    for a non-positive leading entry, and from ``prefix(n)`` for the first
    order below n with |kappa| >= 1. Weakly stable (Cybenko 1980): for
    ``sparse:support=1+4`` at n = 512, log det is 4.2e-12 relative from a
    40-digit reference, and ``ma1:a=0.5`` at n = 2048 is 1.6e-12 from its
    closed form.
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


def _durbin_loop(row):
    """(log det, smallest pivot) of the whole section of ``row``: Durbin's recursion in one loop."""
    n = row.size
    v = float(row[0].real)
    if not v > 0:
        raise np.linalg.LinAlgError(f"leading entry {v:.3e} is not positive")
    a = np.zeros(n, dtype=row.dtype)
    log_det = math.log(v)
    for k in range(1, n):
        kappa = -(row[k] + a[1:k] @ row[k - 1 : 0 : -1]) / v
        shrink = 1.0 - abs(kappa) ** 2
        if not shrink > 0:
            raise np.linalg.LinAlgError(
                f"reflection coefficient |kappa| = {abs(kappa):.6g} >= 1 at order {k}"
            )
        a[1:k] += kappa * np.conj(a[k - 1 : 0 : -1])
        a[k] = kappa
        v *= shrink
        log_det += math.log(v)
    return log_det, v


def stream_blocks(factors, n_samples: int, seed: int):
    """Stream by stream, the block x = L Z^T of each Cholesky factor L, serially.

    Each stream is drawn whole, as standard_normal(size * width) for the
    largest n, before its GEMMs; a factor of size n reads the first size * n
    values as its (size, n) block Z.  Every x is a view of one buffer that
    the next block overwrites.
    """
    width = max(L.shape[0] for L in factors)
    buf = np.empty(width * min(n_samples, _STREAM_ROWS))
    for stream, size in enumerate(_stream_sizes(n_samples)):
        z = _stream_rng(seed, stream).standard_normal(size * width)
        for k, L in enumerate(factors):
            n = L.shape[0]
            x = buf[: n * size].reshape(n, size)
            np.matmul(L, z[: size * n].reshape(size, n).T, out=x)
            yield k, x
        del z  # freed before the next stream is drawn


def sample_gaussian(C: CovarianceMatrix, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, n) matrix of i.i.d. draws of L Z, deterministic given seed.

    It is the transpose of the coordinate-major stream blocks, stacked from
    their panels, so its memory is in Fortran order.
    """
    out = None
    start = 0
    # _stream_blocks checks n_samples on the first next(), before out is sized.
    for _, a, size, x in _stream_blocks([C.chol], n_samples, seed):
        if out is None:
            out = np.empty((C.n, n_samples))
        b = a + x.shape[1]
        out[:, start + a : start + b] = x
        if b == size:
            start += size
    return out.T


def joined_panels(panels):
    """The ``(k, a, size, x)`` panels of verify's generator, joined as ``(k, x)`` blocks.

    Each block is the C-contiguous (n, size) copy of one factor's panels in
    one stream; each factor's panels must cover its columns in order, with no
    gap, but the factors may interleave.  A stream's blocks come in factor
    order once every factor begun in it has ended its block, at the first
    panel of a factor whose block already ended (the next stream) or at the
    end.
    """
    parts, done = {}, {}
    for k, a, size, x in panels:
        if k in done:  # the next stream begins
            assert not parts
            yield from sorted(done.items())
            done = {}
        assert a == sum(part.shape[1] for part in parts.get(k, []))
        parts.setdefault(k, []).append(x.copy())
        if a + x.shape[1] == size:
            done[k] = np.hstack(parts.pop(k))
    assert not parts
    yield from sorted(done.items())


def with_rhs(report: VerificationReport, rhs: float) -> VerificationReport:
    """Same LHS estimate against a different RHS (re-derives slack/z/verdict).

    The verdict follows the 3/6 standard-error rule, also for a hit count.
    """
    return _make_report(report.lhs_mc, report.lhs_stderr, rhs, report.n_samples, report.seed)


def _one_sided_sum(mu: int, r: float) -> float:
    """sum_{k>=1} 1/(k^r (k+mu)^r) for r > 1, accurate to ~1e-14 relative.

    Head summed directly to K >= max(1000, 4*mu); the tail is expanded as
    (k+mu)^{-r} = sum_j binom(-r,j) mu^j k^{-r-j} and summed exactly with
    Hurwitz zeta values.  The binomial series converges geometrically since
    mu/(K+1) <= 1/4.
    """
    from scipy.special import zeta

    K = max(1000, 4 * mu)
    k = np.arange(1, K + 1, dtype=float)
    head = float(np.sum(1.0 / (k**r * (k + mu) ** r)))
    tail = 0.0
    coef = 1.0  # binom(-r, j), j = 0
    for j in range(120):
        term = coef * float(mu) ** j * float(zeta(2 * r + j, K + 1))
        tail += term
        if abs(term) < 1e-14 * max(head, 1e-300):
            break
        coef *= (-r - j) / (j + 1)
    return head + tail


def inverse_power_gamma(mu: int, r: float = 1.0) -> float:
    """Autocovariance E X_k X_{k+mu} of the c_m = |m|^{-r} moving average.

    At ``r = 1`` the full series telescopes to the closed form
    ``(2/mu) (H_mu + H_{mu-1})`` of ``inverse_power_gamma_sequence``; for
    ``r > 1`` the series is summed with a rigorous tail so the truncation
    error stays below 1e-10.  The variance (``mu = 0``) equals ``2 zeta(2r)``,
    i.e. ``pi^2/3`` at ``r = 1``.  One lag at a time: the reference that
    ``inverse_power_gamma_sequence`` is tested against.
    """
    mu = abs(mu)
    if r < 1:
        raise ValueError(f"inverse-power autocovariance needs r >= 1, got {r}")
    if r == 1.0:
        return float(inverse_power_gamma_sequence(mu, 1.0)[mu])
    from scipy.special import zeta

    if mu == 0:
        return 2.0 * float(zeta(2.0 * r, 1))
    middle = 0.0
    if mu >= 2:
        m = np.arange(1, mu, dtype=float)
        middle = float(np.sum((m * (mu - m)) ** (-r)))
    return 2.0 * _one_sided_sum(mu, r) + middle


def hit_bound(hits: int, n_samples: int, alpha: float, upper: bool) -> float:
    """One-sided exact (Clopper-Pearson) bound at level alpha on a hit probability."""
    if upper:
        if hits == n_samples:
            return 1.0
        if hits == 0:
            return -math.expm1(math.log(alpha) / n_samples)  # 1 - alpha^(1/N)
        return float(betaincinv(hits + 1, n_samples - hits, 1.0 - alpha))
    if hits == 0:
        return 0.0
    return float(betaincinv(hits, n_samples - hits + 1, alpha))


def _mp_tail_from(n: int, k: int, p, step: int):
    """sum of P(Bin(n, p) = j) for j = k, k + step, ... while the terms count at 40 digits."""
    total = mpmath.mpf(0)
    if not 0 <= k <= n:
        return total
    term = mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)
    while term > total * mpmath.mpf(10) ** -45:
        total += term
        if step > 0:
            term *= (n - k) * p / ((k + 1) * (1 - p))
        else:
            term *= k * (1 - p) / ((n - k + 1) * p)
        k += step
    return total


def binomial_tail(n: int, k: int, p: float, at_least: bool) -> float:
    """P(Bin(n, p) >= k) if ``at_least``, else P(Bin(n, p) <= k), to 40 digits.

    The terms are summed in mpmath from k away from the mode, where they fall; a tail
    that holds the mode is 1 minus the other.
    """
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        mode = (n + 1) * p
        if at_least:
            tail = 1 - _mp_tail_from(n, k - 1, p, -1) if k <= mode else _mp_tail_from(n, k, p, 1)
        else:
            tail = 1 - _mp_tail_from(n, k + 1, p, 1) if k >= mode - 1 else _mp_tail_from(n, k, p, -1)
        return float(tail)

