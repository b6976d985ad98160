"""Toeplitz determinants: exact sections and their second-order asymptote.

For a strictly positive symbol f with log f(t) = sum_k c_k e^{ikt}, the
determinant of the n-th Toeplitz section {d_{j-i}} behaves like

    det(T_n)  ~  G(f)^n * b(f),
    G(f) = exp(c_0)              (geometric mean of f),
    b(f) = exp(sum_{k>=1} k c_k c_{-k}),

provided sum |c_k| and sum |k| |c_k|^2 both converge.  From the symbol's
``c`` this module computes G(f), b(f), the asymptote, exact determinants for
n <= min(K, MATRIX_N_CAP) by Durbin's recursion on the first row d_0..d_{n-1}
(O(n^2), no matrix formed; the Hermitian form for non-even symbols), and the
resulting bound constant for stationary sections, with the deviation of the
asymptote from the exact determinant measured rather than assumed.

The per-symbol work is done once and kept on the symbol: ``c``, the
condition report (``sym.condition``), log b(f) (``sym.log_b``) and one
Durbin recursion whose prefixes are the exact sections, so the sizes of one
``szego`` call cost O(n_max^2) together and each size's numbers are those
of a call at that size alone.

All quantities that scale with n are kept in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covmodel import MATRIX_N_CAP, SpectralSymbol
from .decoupling import _exp, stationary_decoupling_coefficient
from .errors import (
    ConditionViolated,
    InvalidSpec,
    NonConvergent,
    NonPositiveSymbol,
    NotPositiveDefinite,
)


def geometric_mean(sym: SpectralSymbol) -> float:
    """G(f) = exp of the average of log f over the circle, i.e. exp(c_0)."""
    return math.exp(float(np.real(sym.c[0])))


def _geometric_tail(terms: np.ndarray, noise_floor: float) -> tuple[float, float]:
    """(tail estimate, decay ratio) by geometric extrapolation over the last decade.

    terms[i] is the term at k = i + 1.  Windows whose magnitude sits at the
    transform noise floor contribute no tail.  A non-decaying window returns
    an infinite tail (divergence at this resolution).
    """
    K = terms.size
    lo = max(1, K // 10)
    w = terms[lo - 1 :]
    if w.max() <= noise_floor:
        return 0.0, 0.0
    first = max(float(w[0]), 1e-300)
    last = max(float(w[-1]), 1e-300)
    if last >= first or w.size < 2:
        return math.inf, 1.0
    q = (last / first) ** (1.0 / (w.size - 1))
    return last * q / (1.0 - q), q


def _decay_exponent(terms: np.ndarray, noise_floor: float) -> float | None:
    """Empirical power alpha with terms ~ k^{-alpha} over the last decade."""
    K = terms.size
    lo = max(1, K // 10)
    k = np.arange(lo, K + 1, dtype=float)
    w = terms[lo - 1 :]
    mask = w > noise_floor
    if mask.sum() < 8:
        return None
    slope = np.polyfit(np.log(k[mask]), np.log(w[mask]), 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class ConditionReport:
    """Partial sums and tail diagnostics for the two convergence conditions.

    ``c1_sum`` approximates sum_{|k|<=K} |c_k| and ``c2_sum`` approximates
    sum_{|k|<=K} |k| |c_k|^2; the tails are geometric extrapolations from the
    last decade of coefficients.  ``likely_divergent`` is set when |c_k|
    empirically decays slower than 1/|k| (which sinks both conditions).
    """

    c1_sum: float
    c1_tail: float
    c2_sum: float
    c2_tail: float
    decay_exponent: float | None
    likely_divergent: bool

    @property
    def passes(self) -> bool:
        return (
            not self.likely_divergent
            and math.isfinite(self.c1_tail)
            and math.isfinite(self.c2_tail)
        )

    def to_json_dict(self) -> dict:
        return {
            "c1_sum": self.c1_sum,
            "c1_tail": self.c1_tail,
            "c2_sum": self.c2_sum,
            "c2_tail": self.c2_tail,
            "decay_exponent": self.decay_exponent,
            "likely_divergent": self.likely_divergent,
            "passes": self.passes,
        }


def condition_report(sym: SpectralSymbol) -> ConditionReport:
    """Diagnose the absolute and weighted-square summability of the c_k.

    Computes afresh; the symbol keeps its report as ``sym.condition``, which
    the estimates here read.
    """
    mod = np.abs(sym.c)
    cmax = max(float(mod.max()), 1.0)
    abs_terms = mod[1:]
    sq_terms = np.arange(1, sym.K + 1, dtype=float) * mod[1:] ** 2
    abs_floor = 1e-13 * cmax
    sq_floor = sym.K * abs_floor**2
    c1_tail, _ = _geometric_tail(abs_terms, abs_floor)
    c2_tail, _ = _geometric_tail(sq_terms, sq_floor)
    alpha = _decay_exponent(abs_terms, abs_floor)
    # k = 0 is a single finite term with no bearing on convergence; left out
    # so that constant symbols report (0, 0).
    return ConditionReport(
        c1_sum=float(2.0 * abs_terms.sum()),
        c1_tail=2.0 * c1_tail,
        c2_sum=float(2.0 * sq_terms.sum()),
        c2_tail=2.0 * c2_tail,
        decay_exponent=alpha,
        likely_divergent=alpha is not None and alpha < 1.0,
    )


def b_constant(sym: SpectralSymbol) -> float:
    """b(f) = exp(sum_{k>=1} k c_k c_{-k}); NonConvergent unless the tail has converged."""
    return math.exp(sym.log_b)


def _section_row(sym: SpectralSymbol, n: int) -> np.ndarray:
    """d_0..d_{n-1}, the first row of the n-th section."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    if n > sym.K:
        raise InvalidSpec(
            f"section n={n} needs coefficients up to lag {n - 1} >= K={sym.K}; "
            "use a finer grid"
        )
    return sym.d[:n]


def _section_log_det(sym: SpectralSymbol, n: int) -> float:
    """log det of the n-th section by Durbin's recursion on its first row.

    The symbol keeps one recursion for all its sections, so the sizes of a
    sweep cost O(n_max^2) together and each reads its prefix.
    """
    _section_row(sym, n)  # 1 <= n <= K
    try:
        return sym._durbin.prefix(n)[0]
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"Toeplitz section n={n} of the truncated symbol (K={sym.K}) is not positive "
            f"definite; refine the grid"
        ) from exc


@dataclass(frozen=True)
class SzegoEstimate:
    """Asymptote vs exact determinant for one section size.

    ``asymptote`` is log-space: n log G(f) + log b(f).  ``exact_log_det`` and
    ``ratio`` (= exp(exact_log_det - asymptote)) are present only when the
    exact determinant was computed.
    """

    n: int
    log_G: float
    log_b: float
    asymptote: float
    exact_log_det: float | None
    ratio: float | None
    c1_sum: float
    c2_sum: float

    @property
    def G(self) -> float:
        return math.exp(self.log_G)

    @property
    def b(self) -> float:
        return math.exp(self.log_b)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "G": self.G,
            "b": self.b,
            "asymptote_log": self.asymptote,
            "asymptote": _exp(self.asymptote),
            "exact_log_det": self.exact_log_det,
            "exact_det": None if self.exact_log_det is None else _exp(self.exact_log_det),
            "ratio": self.ratio,
            "c1_sum": self.c1_sum,
            "c2_sum": self.c2_sum,
        }


def szego_asymptote(sym: SpectralSymbol, n: int) -> SzegoEstimate:
    """Asymptote n c_0 + sum k c_k c_{-k}, and the exact determinant where it exists.

    The exact determinant is computed iff n <= min(K, MATRIX_N_CAP). Past
    either limit the estimate keeps G, b and the asymptote, with
    ``exact_log_det`` and ``ratio`` None: a section past K would need the
    aliased bin K, and past the cap the recursion is not run.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    report = sym.condition
    c0 = float(np.real(sym.c[0]))
    log_b = sym.log_b
    asymptote = n * c0 + log_b
    exact = ratio = None
    if n <= min(sym.K, MATRIX_N_CAP):
        exact = _section_log_det(sym, n)
        ratio = math.exp(exact - asymptote)
    return SzegoEstimate(
        n=n,
        log_G=c0,
        log_b=log_b,
        asymptote=asymptote,
        exact_log_det=exact,
        ratio=ratio,
        c1_sum=report.c1_sum,
        c2_sum=report.c2_sum,
    )


@dataclass(frozen=True)
class Theorem2Constant:
    """Stationary-section bound constant built from G(f) and b(f).

    ``delta_hat`` is the measured deviation max(0, asymptote/exact - 1) when
    the exact determinant is available; otherwise the constant is flagged
    ``asymptotic_only`` and delta_hat is 0.  Symbols with d_0 != 1 are
    normalized to unit variance (f -> f/d_0) and flagged.
    """

    log_value: float
    delta_hat: float
    asymptotic_only: bool
    normalized: bool
    d0: float
    p_section: float
    as_stated: bool

    @property
    def value(self) -> float:
        return _exp(self.log_value)

    def to_json_dict(self) -> dict:
        return {
            "log_value": self.log_value,
            "value": self.value,
            "delta_hat": self.delta_hat,
            "asymptotic_only": self.asymptotic_only,
            "normalized": self.normalized,
            "d0": self.d0,
            "p_section": self.p_section,
            "as_stated": self.as_stated,
        }


def theorem2_constant(
    sym: SpectralSymbol, n: int, p: float, as_stated: bool = False
) -> Theorem2Constant:
    """Bound constant for the n-section of a stationary process with symbol f.

    The proof-final form is used by default:

        (1 + delta_n) * b(f)^{-1/(2p)} * 2^{(n/2)(1-1/p)} * G(f)^{-n/(2p)}.

    ``as_stated=True`` instead raises b(f) to n/(2p), matching the theorem
    statement's display (1 + delta_n) 2^{n/2} / (2 b(f) G(f))^{n/(2p)}.
    Requires p >= 2 p(X) of the n-section.
    """
    if not sym.strictly_positive:
        raise NonPositiveSymbol("symbol must be strictly positive")
    report = sym.condition
    if not report.passes:
        raise NonConvergent(
            f"coefficient conditions fail at resolution K={sym.K}: {report.to_json_dict()}"
        )
    if n > sym.K:
        raise InvalidSpec(f"section n={n} exceeds resolution K={sym.K}")
    p_section = stationary_decoupling_coefficient(np.abs(sym.d), n)
    if p < 2.0 * p_section:
        raise ConditionViolated(p, p_section)
    est = szego_asymptote(sym, n)
    d0 = float(np.real(sym.d[0]))
    c0_unit = est.log_G - math.log(d0)
    delta_hat = 0.0
    if est.exact_log_det is not None:
        delta_hat = max(0.0, math.exp(est.asymptote - est.exact_log_det) - 1.0)
    if as_stated:
        log_value = (n / 2.0) * math.log(2.0) - (n / (2.0 * p)) * (
            math.log(2.0) + est.log_b + c0_unit
        )
    else:
        log_value = (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0) - (n * c0_unit + est.log_b) / (
            2.0 * p
        )
    log_value += math.log1p(delta_hat)
    return Theorem2Constant(
        log_value=log_value,
        delta_hat=delta_hat,
        asymptotic_only=est.exact_log_det is None,
        normalized=abs(d0 - 1.0) > 1e-12,
        d0=d0,
        p_section=p_section,
        as_stated=as_stated,
    )
