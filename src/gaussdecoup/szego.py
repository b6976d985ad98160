"""Toeplitz determinants: exact sections and their second-order asymptote.

For a strictly positive symbol f with log f(t) = sum_k c_k e^{ikt}, the
determinant of the n-th Toeplitz section {d_{j-i}} behaves like

    det(T_n)  ~  G(f)^n * b(f),
    G(f) = exp(c_0)              (geometric mean of f),
    b(f) = exp(sum_{k>=1} k c_k c_{-k}),

provided sum |c_k| and sum |k| |c_k|^2 both converge.  From the symbol's
``c`` this module computes G(f), b(f), the asymptote against the exact
determinant for n <= min(K, MATRIX_N_CAP), and the resulting bound constant
for stationary sections, with the deviation of the asymptote from the exact
determinant measured rather than assumed.

The symbol owns the numbers this module reads, each computed once and kept
on it: ``c``, the condition report (``sym.condition``), log b(f)
(``sym.log_b``) and the exact sections (``sym.section_log_det(n)``, the
prefixes of one Durbin recursion), so the sizes of one ``szego`` call cost
O(n_max^2) together and each size's numbers are those of a call at that
size alone.

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
)


def geometric_mean(sym: SpectralSymbol) -> float:
    """G(f) = exp of the average of log f over the circle, i.e. exp(c_0)."""
    return math.exp(float(np.real(sym.c[0])))


def b_constant(sym: SpectralSymbol) -> float:
    """b(f) = exp(sum_{k>=1} k c_k c_{-k}); NonConvergent unless the tail has converged."""
    return math.exp(sym.log_b)


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
        exact = sym.section_log_det(n)
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
