"""Monte Carlo verification of the decoupling inequalities.

Samples centered Gaussian vectors through the Cholesky factor of their
covariance, estimates |E prod f_i(X_i)| with a standard error, and compares
against the product-of-marginals right-hand sides computed by quadrature or
exact error-function arithmetic.  Verdicts separate implementation bugs from
sampling noise: a proven inequality can only fail by bug or bad luck, so the
pass band is 3 standard errors and anything beyond 6 is a hard failure.

Randomness uses the counter-based Philox generator keyed per (seed, stream):
sample generation is partitioned into fixed-size streams whose seeds derive
from the run seed and the stream index, so results are bitwise reproducible
regardless of how work is distributed.  Accumulation is pairwise with the
stream order fixed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf

from .covmodel import CovarianceMatrix, from_stationary
from .decoupling import _exp, corollary1_bound, theorem1_log_constant
from .errors import InvalidSpec

__all__ = [
    "TestFunctionSpec",
    "VerificationReport",
    "KhatriSidakReports",
    "sample_gaussian",
    "marginal_p_norm",
    "verify_theorem1",
    "verify_khatri_sidak",
    "verify_kls",
    "stationary_exponent",
    "with_rhs",
]

# Rows generated per stream; fixes the reduction layout independently of workers.
_STREAM_ROWS = 1 << 16

_GH_POINTS = 201
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(_GH_POINTS)
_SQRT_PI = math.sqrt(math.pi)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _is_real(value) -> bool:
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    )


@dataclass(frozen=True)
class TestFunctionSpec:
    """A bounded real test function of one variable.

    Kinds: ``indicator`` (|x| <= eps), ``shifted_indicator`` (|x - shift| <=
    eps), ``cosine`` (cos(omega x)), ``bounded_poly`` (polynomial of degree
    <= 4 clipped to [-clip, clip]), ``grid`` (piecewise-linear interpolation
    of values on [-half_width, half_width], clamped at the ends).  Every kind
    is bounded, so all Gaussian moments are finite.
    """

    __test__ = False  # not a pytest class, despite the name

    kind: str
    eps: float | None = None
    shift: float | None = None
    omega: float | None = None
    coeffs: tuple | None = None
    clip: float | None = None
    values: tuple | None = None
    half_width: float | None = None

    def __post_init__(self):
        kind = self.kind
        for name in ("eps", "shift", "omega", "clip", "half_width"):
            value = getattr(self, name)
            if value is not None and not _is_real(value):
                raise InvalidSpec(f"{kind} {name} must be a finite real number, got {value!r}")
        for name in ("coeffs", "values"):
            seq = getattr(self, name)
            if seq is not None and not all(_is_real(v) for v in seq):
                raise InvalidSpec(f"{kind} {name} must be finite real numbers, got {seq!r}")
        if kind in ("indicator", "shifted_indicator"):
            if self.eps is None or self.eps <= 0:
                raise InvalidSpec(f"{kind} needs eps > 0")
            if kind == "shifted_indicator" and self.shift is None:
                raise InvalidSpec("shifted_indicator needs a shift")
        elif kind == "cosine":
            if self.omega is None:
                raise InvalidSpec("cosine needs omega")
        elif kind == "bounded_poly":
            if self.coeffs is None or not 1 <= len(self.coeffs) <= 5:
                raise InvalidSpec("bounded_poly needs 1..5 coefficients (degree <= 4)")
            if self.clip is None or self.clip <= 0:
                raise InvalidSpec("bounded_poly needs clip > 0")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        elif kind == "grid":
            if self.values is None or len(self.values) < 2:
                raise InvalidSpec("grid needs at least 2 values")
            if self.half_width is None or self.half_width <= 0:
                raise InvalidSpec("grid needs half_width > 0")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        else:
            raise InvalidSpec(f"unknown test-function kind {kind!r}")

    @classmethod
    def indicator(cls, eps: float) -> "TestFunctionSpec":
        return cls(kind="indicator", eps=eps)

    @classmethod
    def shifted_indicator(cls, shift: float, eps: float) -> "TestFunctionSpec":
        return cls(kind="shifted_indicator", shift=shift, eps=eps)

    @classmethod
    def cosine(cls, omega: float) -> "TestFunctionSpec":
        return cls(kind="cosine", omega=omega)

    @classmethod
    def bounded_poly(cls, coeffs, clip: float) -> "TestFunctionSpec":
        return cls(kind="bounded_poly", coeffs=tuple(coeffs), clip=clip)

    @classmethod
    def from_grid(cls, values, half_width: float) -> "TestFunctionSpec":
        return cls(kind="grid", values=tuple(values), half_width=half_width)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "indicator":
            return (np.abs(x) <= self.eps).astype(float)
        if self.kind == "shifted_indicator":
            return (np.abs(x - self.shift) <= self.eps).astype(float)
        if self.kind == "cosine":
            return np.cos(self.omega * x)
        if self.kind == "bounded_poly":
            y = np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
            return np.clip(y, -self.clip, self.clip)
        xs = np.linspace(-self.half_width, self.half_width, len(self.values))
        return np.interp(x, xs, np.asarray(self.values))

    def sup_abs(self) -> float:
        """sup_x |f(x)|; a non-constant polynomial reaches its clip level."""
        if self.kind == "bounded_poly":
            if any(self.coeffs[1:]):
                return self.clip
            return min(abs(self.coeffs[0]), self.clip)
        if self.kind == "grid":
            return max(abs(v) for v in self.values)
        return 1.0

    def label(self) -> str:
        if self.kind == "indicator":
            return f"indicator({self.eps:g})"
        if self.kind == "shifted_indicator":
            return f"shifted_indicator({self.shift:g},{self.eps:g})"
        if self.kind == "cosine":
            return f"cosine({self.omega:g})"
        if self.kind == "bounded_poly":
            return f"bounded_poly(deg{len(self.coeffs) - 1},clip={self.clip:g})"
        return f"grid({len(self.values)}pts,L={self.half_width:g})"

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        for field in ("eps", "shift", "omega", "clip", "half_width"):
            val = getattr(self, field)
            if val is not None:
                out[field] = val
        if self.coeffs is not None:
            out["coeffs"] = list(self.coeffs)
        if self.values is not None:
            out["values"] = list(self.values)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "TestFunctionSpec":
        if not isinstance(data, dict):
            raise InvalidSpec(f"a test function is a JSON object, got {data!r}")
        data = dict(data)
        kind = data.pop("kind", None)
        if kind is None:
            raise InvalidSpec("test function dict needs a 'kind'")
        try:
            for name in ("coeffs", "values"):
                if name in data:
                    data[name] = tuple(data[name])
            return cls(kind=kind, **data)
        except TypeError as exc:
            raise InvalidSpec(f"bad test-function parameters for kind {kind!r}: {exc}") from exc


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _stream_sizes(n_samples: int):
    full, rem = divmod(n_samples, _STREAM_ROWS)
    sizes = [_STREAM_ROWS] * full
    if rem:
        sizes.append(rem)
    return sizes


def sample_gaussian(C: CovarianceMatrix, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, n) matrix of i.i.d. draws of L Z, deterministic given seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    L = C.chol
    blocks = []
    for stream, size in enumerate(_stream_sizes(n_samples)):
        z = _stream_rng(seed, stream).standard_normal((size, C.n))
        blocks.append(z @ L.T)
    return np.vstack(blocks)


def _ldexp(x: float, exp: int) -> float:
    """x * 2^exp, saturating to +-inf where math.ldexp would overflow."""
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.copysign(math.inf, x)


def _shifted_product(values, shift: int) -> float:
    """prod(values) * 2^-shift, rounded step by step like a plain product.

    The running binary exponent is kept apart, so no step overflows; the
    result saturates to +-inf only if it is itself out of range.
    """
    mantissa, exponent = 1.0, 0
    for v in values:
        mantissa, step = math.frexp(mantissa * v)
        exponent += step
    return _ldexp(mantissa, exponent - shift)


def _product_moments(
    C: CovarianceMatrix, fns, n_samples: int, seed: int
) -> tuple[float, float, int]:
    """Mean and standard error of g 2^-shift, g = prod_i f_i(X_i), and the shift.

    Streams are accumulated chunk-by-chunk (never materializing the full
    sample) and combined by pairwise summation in stream order, so the result
    is bitwise identical to evaluating on sample_gaussian output.

    After each factor that can exceed 1 in size (``sup_abs() > 1``) the
    running product is split by frexp into a mantissa and an integer exponent
    per sample, so it cannot overflow; factors bounded by 1 cost nothing
    extra. The shift is the least one that keeps every |g 2^-shift| below
    2^limit, where n_samples values of size 2^(2 limit) still sum to a
    finite float. It follows from the size each sample's product actually
    has, so it is 0, and the moments are the plain ones, whenever the plain
    sum of g^2 cannot overflow; a power-of-two shift is exact.
    """
    L = C.chol
    grows = [f.sup_abs() > 1.0 for f in fns]
    limit = (1023 - n_samples.bit_length()) // 2
    s1, s2, shifts = [], [], []
    for stream, size in enumerate(_stream_sizes(n_samples)):
        z = _stream_rng(seed, stream).standard_normal((size, C.n))
        x = z @ L.T
        g = np.ones(size)
        exponent = None
        for i, f in enumerate(fns):
            g *= f(x[:, i])
            if grows[i]:
                g, step = np.frexp(g)
                exponent = step.astype(np.int64) if exponent is None else exponent + step
        shift = 0
        if exponent is not None:
            shift = max(0, int(exponent.max()) - limit)
            g = np.ldexp(g, exponent - shift)
        s1.append(np.sum(g))
        s2.append(np.sum(g * g))
        shifts.append(shift)
    shift = max(shifts)
    rel = np.array(shifts) - shift
    total1 = float(np.sum(np.ldexp(np.array(s1), rel)))
    total2 = float(np.sum(np.ldexp(np.array(s2), 2 * rel)))
    mean = total1 / n_samples
    var = max(total2 / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples), shift


def _gl_segment_moment(f, a: float, b: float, sigma: float, p: float) -> float:
    """integral_a^b |f(x)|^p phi_sigma(x) dx by Gauss-Legendre (f smooth on [a,b])."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * _GL_NODES
    dens = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return float(half * np.sum(_GL_WEIGHTS * np.abs(f(x)) ** p * dens))


def _lower_tail(x: float, sigma: float) -> float:
    return 0.5 * (1.0 + float(erf(x / (sigma * math.sqrt(2.0)))))


def _piecewise_moment(f, knots, sigma: float, p: float, left_val: float, right_val: float) -> float:
    """E|f(sigma Z)|^p for f smooth between the knots and constant outside.

    Kinked kinds (the |.|^p of a piecewise-linear or clipped function) would
    defeat a fixed Hermite rule, so each smooth piece is integrated by
    Gauss-Legendre and the constant tails use exact error-function mass.
    """
    knots = sorted(knots)
    total = abs(left_val) ** p * _lower_tail(knots[0], sigma)
    total += abs(right_val) ** p * (1.0 - _lower_tail(knots[-1], sigma))
    for a, b in zip(knots, knots[1:]):
        if b > a:
            total += _gl_segment_moment(f, a, b, sigma, p)
    return total


def _real_roots(coeffs) -> list:
    """Real roots of a polynomial in ascending-coefficient form."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), trim="b")
    if c.size <= 1:
        return []
    roots = np.polynomial.polynomial.polyroots(c)
    return [float(r.real) for r in roots if abs(r.imag) < 1e-9 * max(1.0, abs(r.real))]


def _poly_knots(f: TestFunctionSpec, sigma: float) -> list | None:
    """Kink locations of clip(q)(x): sign changes of q and clip crossings.

    Returns None when the polynomial is constant (moment is exact without
    quadrature).
    """
    coeffs = np.asarray(f.coeffs, dtype=float)
    if np.count_nonzero(coeffs[1:]) == 0:
        return None
    knots = set(_real_roots(coeffs))
    for level in (f.clip, -f.clip):
        shifted = coeffs.copy()
        shifted[0] -= level
        knots.update(_real_roots(shifted))
    # Beyond the outermost clip crossing the value is constant +-clip; a
    # wide guard knot keeps the tail treatment exact even without crossings.
    guard = 12.0 * sigma + (max(map(abs, knots)) if knots else 0.0)
    knots.update((-guard, guard))
    return sorted(knots)


def marginal_p_norm(f: TestFunctionSpec, sigma: float, p: float) -> float:
    """(E |f(sigma Z)|^p)^{1/p} for standard normal Z.

    Indicator kinds use exact error-function arithmetic (quadrature on a
    discontinuity would lose accuracy); the smooth cosine kind uses 201-point
    Gauss-Hermite quadrature; the kinked kinds (clipped polynomial,
    piecewise-linear grid) are integrated exactly piece by piece.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if p < 1:
        raise ValueError("p must be >= 1")
    root2 = math.sqrt(2.0)
    if f.kind == "indicator":
        prob = float(erf(f.eps / (sigma * root2)))
        return prob ** (1.0 / p)
    if f.kind == "shifted_indicator":
        hi = (f.shift + f.eps) / (sigma * root2)
        lo = (f.shift - f.eps) / (sigma * root2)
        prob = 0.5 * float(erf(hi) - erf(lo))
        return max(prob, 0.0) ** (1.0 / p)
    if f.kind == "bounded_poly":
        knots = _poly_knots(f, sigma)
        if knots is None:
            return abs(float(np.clip(f.coeffs[0], -f.clip, f.clip)))
        # Split additionally at zero crossings already included via roots of q.
        left = float(f(np.array([knots[0] - 1.0]))[0])
        right = float(f(np.array([knots[-1] + 1.0]))[0])
        return _piecewise_moment(f, knots, sigma, p, left, right) ** (1.0 / p)
    if f.kind == "grid":
        xs = np.linspace(-f.half_width, f.half_width, len(f.values))
        vs = np.asarray(f.values)
        knots = set(xs.tolist())
        for (x0, x1), (v0, v1) in zip(zip(xs, xs[1:]), zip(vs, vs[1:])):
            if v0 * v1 < 0:  # zero crossing inside the linear piece
                knots.add(float(x0 + (x1 - x0) * v0 / (v0 - v1)))
        return _piecewise_moment(
            f, sorted(knots), sigma, p, float(vs[0]), float(vs[-1])
        ) ** (1.0 / p)
    vals = np.abs(f(sigma * root2 * _GH_NODES)) ** p
    moment = float(np.sum(_GH_WEIGHTS * vals)) / _SQRT_PI
    return moment ** (1.0 / p)


@dataclass(frozen=True)
class VerificationReport:
    """One inequality check: Monte Carlo LHS vs deterministic RHS.

    pass: lhs <= rhs + 3 stderr; hard_fail: lhs > rhs + 6 stderr;
    statistical_fail in between.
    """

    lhs_mc: float
    lhs_stderr: float
    rhs: float
    slack: float
    z_score: float
    n_samples: int
    seed: int
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "lhs_mc": self.lhs_mc,
            "lhs_stderr": self.lhs_stderr,
            "rhs": self.rhs,
            "slack": self.slack,
            "z_score": self.z_score,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "verdict": self.verdict,
        }


def _make_report(lhs: float, stderr: float, rhs: float, n_samples: int, seed: int) -> VerificationReport:
    slack = rhs - lhs
    if stderr > 0:
        z = slack / stderr
    else:
        z = math.copysign(math.inf, slack) if slack != 0 else 0.0
    if lhs <= rhs + 3.0 * stderr:
        verdict = "pass"
    elif lhs > rhs + 6.0 * stderr:
        verdict = "hard_fail"
    else:
        verdict = "statistical_fail"
    return VerificationReport(
        lhs_mc=lhs,
        lhs_stderr=stderr,
        rhs=rhs,
        slack=slack,
        z_score=z,
        n_samples=n_samples,
        seed=seed,
        verdict=verdict,
    )


def _unscaled_report(
    lhs: float, stderr: float, rhs_scaled: float, rhs: float, shift: int, n_samples: int, seed: int
) -> VerificationReport:
    """Report of lhs 2^shift (stderr likewise) against rhs = rhs_scaled 2^shift.

    Slack, z and verdict come from the scaled values, which stay finite
    where the reported lhs, stderr or rhs saturate to inf.
    """
    report = _make_report(lhs, stderr, rhs_scaled, n_samples, seed)
    return replace(
        report,
        lhs_mc=_ldexp(lhs, shift),
        lhs_stderr=_ldexp(stderr, shift),
        rhs=rhs,
        slack=_ldexp(report.slack, shift),
    )


def with_rhs(report: VerificationReport, rhs: float) -> VerificationReport:
    """Same LHS estimate against a different RHS (re-derives slack/z/verdict)."""
    return _make_report(report.lhs_mc, report.lhs_stderr, rhs, report.n_samples, report.seed)


def verify_theorem1(
    C: CovarianceMatrix, p: float, fns, n_samples: int, seed: int
) -> VerificationReport:
    """Check |E prod f_i(X_i)| <= constant * prod (E |f_i(X_i)|^p)^{1/p}."""
    fns = list(fns)
    if len(fns) != C.n:
        raise InvalidSpec(f"need one test function per coordinate: {len(fns)} != {C.n}")
    log_rhs = theorem1_log_constant(C, p)
    for f, sigma in zip(fns, C.sigmas):
        log_rhs += math.log(marginal_p_norm(f, float(sigma), p))
    mean, stderr, shift = _product_moments(C, fns, n_samples, seed)
    rhs = _exp(log_rhs)
    if math.isfinite(rhs):
        rhs_scaled = math.ldexp(rhs, -shift)
    else:
        rhs_scaled = _exp(log_rhs - shift * math.log(2.0))
    return _unscaled_report(abs(mean), stderr, rhs_scaled, rhs, shift, n_samples, seed)


@dataclass(frozen=True)
class KhatriSidakReports:
    """Two-sided sandwich for P{ all |X_i| <= eps_i }.

    ``lower``: product of marginals <= joint probability (Khatri-Sidak).
    ``upper``: joint probability <= sup-bound constant.
    ``kls_upper``: optional product-of-marginals^{1/p(X)} upper bound for
    stationary summable processes.
    """

    lower: VerificationReport
    upper: VerificationReport
    kls_upper: VerificationReport | None = None


def verify_khatri_sidak(
    C: CovarianceMatrix,
    eps,
    p: float,
    n_samples: int,
    seed: int,
    kls_exponent: float | None = None,
) -> KhatriSidakReports:
    """Sandwich check around the Monte Carlo estimate of P{ all |X_i| <= eps_i }."""
    eps = np.asarray(eps, dtype=float).ravel()
    if eps.size != C.n or np.any(eps <= 0):
        raise InvalidSpec("eps must be a length-n vector of positive reals")
    fns = [TestFunctionSpec.indicator(float(e)) for e in eps]
    center, stderr, _ = _product_moments(C, fns, n_samples, seed)
    probs = erf(eps / (C.sigmas * math.sqrt(2.0)))
    prod_probs = float(np.prod(probs))
    # Lower: the exact product must not exceed the MC center (within noise).
    lower = _make_report(prod_probs, stderr, center, n_samples, seed)
    upper = _make_report(center, stderr, corollary1_bound(C, p, eps), n_samples, seed)
    kls_upper = None
    if kls_exponent is not None:
        if kls_exponent < 1:
            raise ValueError("the stationary decoupling exponent is >= 1")
        kls_upper = _make_report(
            center, stderr, float(np.prod(probs ** (1.0 / kls_exponent))), n_samples, seed
        )
    return KhatriSidakReports(lower=lower, upper=upper, kls_upper=kls_upper)


def stationary_exponent(gamma) -> float:
    """Two-sided exponent 1 + 2 sum_{k>=1} |gamma(k)| / gamma(0).

    It bounds the largest eigenvalue of every correlation section of the
    stationary process, which is what the stationary decoupling inequality
    needs; the one-sided sum over k >= 0 does not (1.4 instead of 1.8 for
    ma1:a=0.5).
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    if gamma.size == 0 or gamma[0] <= 0:
        raise ValueError("gamma[0] must be strictly positive")
    return 1.0 + 2.0 * float(np.abs(gamma[1:]).sum()) / gamma[0]


def verify_kls(gamma, n: int, fns, n_samples: int, seed: int) -> VerificationReport:
    """Check the stationary decoupling inequality with the two-sided exponent.

    ``gamma`` is the full autocovariance sequence (as far as available), not
    just the n-section: the exponent ``stationary_exponent(gamma)`` uses every
    lag supplied.  The section is normalized to unit variance, matching the
    marginal norms of f_j(X_0).
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    p_kls = stationary_exponent(gamma)
    fns = list(fns)
    if len(fns) != n:
        raise InvalidSpec(f"need one test function per coordinate: {len(fns)} != {n}")
    unit = gamma / gamma[0]
    C = from_stationary(unit, n)
    mean, stderr, shift = _product_moments(C, fns, n_samples, seed)
    norms = [marginal_p_norm(f, 1.0, p_kls) for f in fns]
    rhs_scaled = _shifted_product(norms, shift)
    rhs = _shifted_product(norms, 0)
    return _unscaled_report(abs(mean), stderr, rhs_scaled, rhs, shift, n_samples, seed)
