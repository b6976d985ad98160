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
for a given seed, BLAS build and BLAS thread count, however the n of a sweep
are grouped.  Accumulation is pairwise with the stream order fixed.

A call makes one sampling pass for all its points (``sweep_moments``): each
stream is drawn once, as the flat standard_normal(rows * n_max) for the
largest dimension n_max.  A stream's normals at every n are prefixes of that
Philox sequence, so point n reads the first rows * n values as its (rows, n)
block Z, bit for bit the block standard_normal((rows, n)) draws.  Each
point's block is coordinate-major: x = L Z^T, of shape (n, rows) and
C-contiguous, written into one buffer reused across points and streams, so a
functional reads coordinate i as the contiguous row x[i].  Each entry is the
same dot product as in Z L^T, though for this operand order BLAS may round
it differently in the last bit.  Each pass draws its normals on a one-worker
executor, stream after stream, into one stream buffer, in chunks of 2^20
values that run in order and are bit for bit the one draw; numpy releases
the GIL while it fills them.  The calling thread waits only for the chunks a
block reads, and makes every GEMM itself, unchunked, so the reproducibility
key does not change; the next stream is drawn while it evaluates the last
block of the current one.

Every functional of a point is evaluated on that block: the theorem1
product, the box indicators and, for a stationary model, the KLS product,
whose draws are the theorem1 draws scaled by 1/sqrt(gamma(0)) (chol(T/gamma0)
= chol(T)/sqrt(gamma0)).  Where no factor can exceed 1, the indicator factors
are applied first, as one mask of the samples they keep, and the other
factors are evaluated on the kept samples only; the rest are 0.  That is
exact: an indicator factor is 1.0 where it keeps a sample, and a product with
a 0 factor is 0 whatever the others are, so only the sign of a zero can
differ, which no report reads (|mean| for theorem1 and KLS, 0/1 values for
the box).  The Khatri-Sidak rows count hits, so their verdicts come from an
exact binomial (Clopper-Pearson) bound at the one-sided levels of the 3 and
6 standard-error bands; zero hits still bound the probability.

The error-function marginals and the binomial bounds take ``erf``, ``erfc``
and ``betaincinv`` from ``scipy.special``, imported by the functions that
evaluate them; the Gauss-Hermite and Gauss-Legendre rules of the smooth
marginals are built on their first use.
"""

from __future__ import annotations

import functools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

# scipy.special is imported only where erf or betaincinv is taken: start-up stays numpy.

from .covmodel import CovarianceMatrix, from_stationary
from .decoupling import _autocovariance, _exp, corollary1_bound, theorem1_log_constant
from .errors import InvalidSpec

# Rows generated per stream; fixes the reduction layout independently of workers.
_STREAM_ROWS = 1 << 16
# Normals per fill of the drawing thread, and its name prefix.
_DRAW_CHUNK = 1 << 20
_DRAW_THREAD = "gaussdecoup-normals"

_GH_POINTS = 201
_SQRT_PI = math.sqrt(math.pi)
_GL_POINTS = 64


@functools.cache
def _quadrature(rule, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of numpy's Gauss ``rule`` at ``points``, built on first use."""
    nodes, weights = rule(points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
        if self.is_indicator:
            return self._hits(x).astype(float)
        if self.kind == "cosine":
            return np.cos(self.omega * x)
        if self.kind == "bounded_poly":
            y = np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
            return np.clip(y, -self.clip, self.clip)
        xs = np.linspace(-self.half_width, self.half_width, len(self.values))
        return np.interp(x, xs, np.asarray(self.values))

    @property
    def is_indicator(self) -> bool:
        return self.kind in ("indicator", "shifted_indicator")

    def _hits(self, x: np.ndarray) -> np.ndarray:
        """Where an indicator kind is 1, as a boolean mask."""
        return np.abs(x if self.kind == "indicator" else x - self.shift) <= self.eps

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


def _stream_blocks(factors, n_samples: int, seed: int):
    """Stream by stream, the block x = L Z^T of each Cholesky factor L.

    Yields ``(k, x)`` for factor k in order within each stream.  Each stream
    is drawn once, as standard_normal(size * width) for the largest n; the
    first size * n values read as (size, n) are bit for bit the block
    standard_normal((size, n)) draws, and are the Z of a factor of size n.
    x has shape (n, size) and is C-contiguous: row i holds the stream's draws
    of X_i, so evaluating f_i reads one contiguous row instead of a column
    with a stride of n floats.  Every x is a view of one buffer that the next
    block overwrites; the caller may scale it in place.

    A one-worker executor draws the normals into one stream buffer z, as
    standard_normal(out=...) fills of _DRAW_CHUNK values run in order, bit
    for bit the one draw.  Each GEMM waits only for the chunks it reads (a
    draw error is raised again here) and runs here, unchunked.  The next
    stream is queued after a stream's last GEMM, so it is drawn while the
    caller evaluates that block.
    """
    width = max(L.shape[0] for L in factors)
    sizes = _stream_sizes(n_samples)
    z = np.empty(width * min(n_samples, _STREAM_ROWS))
    buf = np.empty_like(z)
    pool = ThreadPoolExecutor(1, thread_name_prefix=_DRAW_THREAD)

    def draw(stream: int) -> list:
        gen = _stream_rng(seed, stream)
        total = sizes[stream] * width
        return [
            pool.submit(gen.standard_normal, out=z[a : min(a + _DRAW_CHUNK, total)])
            for a in range(0, total, _DRAW_CHUNK)
        ]

    try:
        chunks = draw(0)
        for stream, size in enumerate(sizes):
            for k, L in enumerate(factors):
                n = L.shape[0]
                for chunk in chunks[: -(-size * n // _DRAW_CHUNK)]:
                    chunk.result()
                x = buf[: n * size].reshape(n, size)
                np.matmul(L, z[: size * n].reshape(size, n).T, out=x)
                if k == len(factors) - 1 and stream + 1 < len(sizes):
                    chunks = draw(stream + 1)
                yield k, x
    finally:
        pool.shutdown(cancel_futures=True)


def sample_gaussian(C: CovarianceMatrix, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, n) matrix of i.i.d. draws of L Z, deterministic given seed.

    It is the transpose of the stacked coordinate-major stream blocks, so its
    memory is in Fortran order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    out = np.empty((C.n, n_samples))
    start = 0
    for _, x in _stream_blocks([C.chol], n_samples, seed):
        out[:, start : start + x.shape[1]] = x
        start += x.shape[1]
    return out.T


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


def _stream_product_sums(x: np.ndarray, fns, grows, limit: int) -> tuple[float, float, int]:
    """Sums of g 2^-shift and its square over one (n, rows) block, and its shift.

    When no factor can exceed 1 and some are indicators, the indicators
    come first: each tests only the samples the ones before it kept, and the
    other factors, in coordinate order, multiply only the samples every
    indicator keeps; the others stay 0.
    The kept products are those of the in-order loop (a kept indicator
    factor is exactly 1.0), and a dropped one was +-0 there, so the sums
    differ at most in the sign of a zero.
    """
    indicators = [i for i, f in enumerate(fns) if f.is_indicator]
    if indicators and not any(grows):
        # take/compress gather the same values as x[i, keep] and keep[mask],
        # 2-4x faster on rows of 65536.
        first, *rest = indicators
        keep = np.flatnonzero(fns[first]._hits(x[first]))
        for i in rest:
            keep = keep.compress(fns[i]._hits(x[i].take(keep)))
        kept = np.ones(keep.size)
        for i, f in enumerate(fns):
            if not f.is_indicator:
                kept *= f(x[i].take(keep))
        g = np.zeros(x.shape[1])
        g[keep] = kept
        return np.sum(g), np.sum(g * g), 0
    g = np.ones(x.shape[1])
    exponent = None
    for i, f in enumerate(fns):
        g *= f(x[i])
        if grows[i]:
            g, step = np.frexp(g)
            exponent = step.astype(np.int64) if exponent is None else exponent + step
    shift = 0
    if exponent is not None:
        shift = max(0, int(exponent.max()) - limit)
        g = np.ldexp(g, exponent - shift)
    return np.sum(g), np.sum(g * g), shift


def _combine_streams(per_stream, n_samples: int) -> tuple[float, float, int]:
    """Mean, standard error and shift from the per-stream sums, in stream order."""
    s1, s2, shifts = zip(*per_stream)
    shift = max(shifts)
    rel = np.array(shifts) - shift
    total1 = float(np.sum(np.ldexp(np.array(s1), rel)))
    total2 = float(np.sum(np.ldexp(np.array(s2), 2 * rel)))
    mean = total1 / n_samples
    var = max(total2 / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples), shift


def sweep_moments(points, n_samples: int, seed: int) -> list:
    """Mean, standard error and shift of each functional of each point, from one pass.

    A point is a pair ``(C, functionals)``; a functional is a pair
    ``(fns, divisor)``: g = prod_i f_i(X_i / divisor), of which the mean and
    standard error of g 2^-shift are returned with the shift, one list per
    point.  Each stream is drawn once for all points, as the prefix of one
    Philox draw for the largest dimension, and every functional of a point
    is evaluated on that point's block; the block is divided in place when
    the divisor changes, so list the undivided functionals (divisor 1.0)
    first.  Streams are accumulated chunk-by-chunk (never materializing the
    full sample) and combined by pairwise summation in stream order, so each
    result is bitwise identical to evaluating on sample_gaussian output, and
    to a pass over that point alone.

    After each factor that can exceed 1 in size (``sup_abs() > 1``) the
    running product is split by frexp into a mantissa and an integer exponent
    per sample, so it cannot overflow; factors bounded by 1 cost nothing
    extra. The shift is the least one that keeps every |g 2^-shift| below
    2^limit, where n_samples values of size 2^(2 limit) still sum to a
    finite float. It follows from the size each sample's product actually
    has, so it is 0, and the moments are the plain ones, whenever the plain
    sum of g^2 cannot overflow; a power-of-two shift is exact.  A functional
    without such a factor applies its indicators first and evaluates its
    other factors only on the samples they keep (``_stream_product_sums``).
    """
    if not points:
        return []
    functionals = [list(fs) for _, fs in points]
    grows = [[[f.sup_abs() > 1.0 for f in fns] for fns, _ in fs] for fs in functionals]
    limit = (1023 - n_samples.bit_length()) // 2
    sums = [[[] for _ in fs] for fs in functionals]
    for k, x in _stream_blocks([C.chol for C, _ in points], n_samples, seed):
        divisor = 1.0
        for (fns, d), grow, per_stream in zip(functionals[k], grows[k], sums[k]):
            if d != divisor:
                x /= d / divisor
                divisor = d
            per_stream.append(_stream_product_sums(x, fns, grow, limit))
    return [[_combine_streams(s, n_samples) for s in point] for point in sums]


def _product_moments(
    C: CovarianceMatrix, functionals, n_samples: int, seed: int
) -> list[tuple[float, float, int]]:
    """Mean, standard error and shift of each functional at one point (``sweep_moments``)."""
    [moments] = sweep_moments([(C, functionals)], n_samples, seed)
    return moments


def _gl_segment_moment(f, a: float, b: float, sigma: float, p: float) -> float:
    """integral_a^b |f(x)|^p phi_sigma(x) dx by Gauss-Legendre (f smooth on [a,b])."""
    nodes, weights = _quadrature(np.polynomial.legendre.leggauss, _GL_POINTS)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * nodes
    dens = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return float(half * np.sum(weights * np.abs(f(x)) ** p * dens))


def _lower_tail(x: float, sigma: float) -> float:
    from scipy.special import erf

    return 0.5 * (1.0 + float(erf(x / (sigma * math.sqrt(2.0)))))


def _piecewise_moment(f, knots, sigma: float, p: float, left_val: float, right_val: float) -> float:
    """E|f(sigma Z)|^p for f smooth between the knots and constant outside.

    Kinked kinds (the |.|^p of a piecewise-linear or clipped function) would
    defeat a fixed Hermite rule, so each smooth piece is integrated by
    Gauss-Legendre and the constant tails use exact error-function mass.
    A piece is cut to |x| <= 40 sigma, past which the density underflows to
    0, and split into spans of at most 4 sigma: one rule over a piece much
    wider than sigma would step over the Gaussian mass.
    """
    knots = sorted(knots)
    total = abs(left_val) ** p * _lower_tail(knots[0], sigma)
    total += abs(right_val) ** p * (1.0 - _lower_tail(knots[-1], sigma))
    reach, step = 40.0 * sigma, 4.0 * sigma
    for a, b in zip(knots, knots[1:]):
        a, b = max(a, -reach), min(b, reach)
        if b > a:
            edges = np.linspace(a, b, math.ceil((b - a) / step) + 1)
            for lo, hi in zip(edges, edges[1:]):
                total += _gl_segment_moment(f, float(lo), float(hi), sigma, p)
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
    from scipy.special import erf, erfc

    root2 = math.sqrt(2.0)
    if f.kind == "indicator":
        prob = float(erf(f.eps / (sigma * root2)))
        return prob ** (1.0 / p)
    if f.kind == "shifted_indicator":
        hi = (f.shift + f.eps) / (sigma * root2)
        lo = (f.shift - f.eps) / (sigma * root2)
        # On one side of 0, erfc of the ends keeps the tail's digits, which
        # the difference of two erf values near +-1 cancels.
        if lo >= 0:
            prob = 0.5 * float(erfc(lo) - erfc(hi))
        elif hi <= 0:
            prob = 0.5 * float(erfc(-hi) - erfc(-lo))
        else:
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
    nodes, weights = _quadrature(np.polynomial.hermite.hermgauss, _GH_POINTS)
    vals = np.abs(f(sigma * root2 * nodes)) ** p
    moment = float(np.sum(weights * vals)) / _SQRT_PI
    return moment ** (1.0 / p)


@dataclass(frozen=True)
class VerificationReport:
    """One inequality check: Monte Carlo LHS vs deterministic RHS.

    pass: lhs <= rhs + 3 stderr; hard_fail: lhs > rhs + 6 stderr;
    statistical_fail in between.  A check of a hit frequency keeps its hit
    count in ``hits`` (not a report field) and takes its verdict from exact
    binomial bounds at the same one-sided levels instead.
    """

    lhs_mc: float
    lhs_stderr: float
    rhs: float
    slack: float
    z_score: float
    n_samples: int
    seed: int
    verdict: str
    hits: int | None = None

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


# One-sided levels of the 3 and 6 standard-error bands: Phi(-3) and Phi(-6).
_ALPHA_PASS = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
_ALPHA_HARD = 0.5 * math.erfc(6.0 / math.sqrt(2.0))


def _hit_bound(hits: int, n_samples: int, alpha: float, upper: bool) -> float:
    """One-sided exact (Clopper-Pearson) bound at level alpha on a hit probability."""
    from scipy.special import betaincinv

    if upper:
        if hits == n_samples:
            return 1.0
        if hits == 0:
            return -math.expm1(math.log(alpha) / n_samples)  # 1 - alpha^(1/N)
        return float(betaincinv(hits + 1, n_samples - hits, 1.0 - alpha))
    if hits == 0:
        return 0.0
    return float(betaincinv(hits, n_samples - hits + 1, alpha))


def _hit_report(
    lhs: float,
    stderr: float,
    rhs: float,
    n_samples: int,
    seed: int,
    *,
    hits: int,
    estimate_is_lhs: bool,
) -> VerificationReport:
    """Report whose Monte Carlo side is the frequency hits / n_samples.

    The numbers are those of ``_make_report``; the verdict holds the exact
    side against the binomial bound on the estimated side, so zero or few
    hits (stderr 0 or tiny) still give a verdict with the 3/6 band levels.
    """

    def holds(alpha: float) -> bool:
        if estimate_is_lhs:
            return _hit_bound(hits, n_samples, alpha, upper=False) <= rhs
        return lhs <= _hit_bound(hits, n_samples, alpha, upper=True)

    if holds(_ALPHA_PASS):
        verdict = "pass"
    elif holds(_ALPHA_HARD):
        verdict = "statistical_fail"
    else:
        verdict = "hard_fail"
    report = _make_report(lhs, stderr, rhs, n_samples, seed)
    return replace(report, verdict=verdict, hits=hits)


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
    """Same LHS estimate against a different RHS (re-derives slack/z/verdict).

    The verdict follows the 3/6 standard-error rule, also for a hit count.
    """
    return _make_report(report.lhs_mc, report.lhs_stderr, rhs, report.n_samples, report.seed)


def verify_theorem1(
    C: CovarianceMatrix, p: float, fns, n_samples: int, seed: int, *, moments=None
) -> VerificationReport:
    """Check |E prod f_i(X_i)| <= constant * prod (E |f_i(X_i)|^p)^{1/p}.

    ``moments`` is this product's (mean, stderr, shift) from a sampling pass
    already made with the same C, n_samples and seed; without it the check
    makes its own pass.
    """
    fns = list(fns)
    if len(fns) != C.n:
        raise InvalidSpec(f"need one test function per coordinate: {len(fns)} != {C.n}")
    log_rhs = theorem1_log_constant(C, p)
    norms = {}  # one quadrature per distinct (f, sigma); the sum keeps coordinate order
    for f, sigma in zip(fns, C.sigmas):
        sigma = float(sigma)
        if (f, sigma) not in norms:
            norms[f, sigma] = marginal_p_norm(f, sigma, p)
        # A zero norm makes the bound exactly 0 (log -inf, _exp gives 0.0).
        log_rhs += math.log(norms[f, sigma]) if norms[f, sigma] > 0 else -math.inf
    if moments is None:
        [moments] = _product_moments(C, [(fns, 1.0)], n_samples, seed)
    mean, stderr, shift = moments
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
    *,
    moments=None,
) -> KhatriSidakReports:
    """Sandwich check around the Monte Carlo estimate of P{ all |X_i| <= eps_i }.

    ``moments`` is the box product's (mean, stderr, shift) from a sampling
    pass already made with the same C, n_samples and seed; without it the
    check makes its own pass.
    """
    eps = np.asarray(eps, dtype=float).ravel()
    if eps.size != C.n or np.any(eps <= 0):
        raise InvalidSpec("eps must be a length-n vector of positive reals")
    if moments is None:
        fns = [TestFunctionSpec.indicator(float(e)) for e in eps]
        [moments] = _product_moments(C, [(fns, 1.0)], n_samples, seed)
    from scipy.special import erf

    center, stderr, _ = moments
    hits = round(center * n_samples)
    probs = erf(eps / (C.sigmas * math.sqrt(2.0)))
    prod_probs = float(np.prod(probs))
    # Lower: the exact product must not exceed the MC center (within noise).
    lower = _hit_report(
        prod_probs, stderr, center, n_samples, seed, hits=hits, estimate_is_lhs=False
    )
    sup_bound = corollary1_bound(C, p, eps)
    upper = _hit_report(center, stderr, sup_bound, n_samples, seed, hits=hits, estimate_is_lhs=True)
    kls_upper = None
    if kls_exponent is not None:
        if kls_exponent < 1:
            raise ValueError("the stationary decoupling exponent is >= 1")
        kls_rhs = float(np.prod(probs ** (1.0 / kls_exponent)))
        kls_upper = _hit_report(
            center, stderr, kls_rhs, n_samples, seed, hits=hits, estimate_is_lhs=True
        )
    return KhatriSidakReports(lower=lower, upper=upper, kls_upper=kls_upper)


def stationary_exponent(gamma) -> float:
    """Two-sided exponent 1 + 2 sum_{k>=1} |gamma(k)| / gamma(0).

    It bounds the largest eigenvalue of every correlation section of the
    stationary process, which is what the stationary decoupling inequality
    needs; the one-sided sum over k >= 0 does not (1.4 instead of 1.8 for
    ma1:a=0.5).
    """
    gamma = _autocovariance(gamma)
    return 1.0 + 2.0 * float(np.abs(gamma[1:]).sum()) / gamma[0]


def verify_kls(
    gamma, n: int, fns, n_samples: int, seed: int, *, moments=None
) -> VerificationReport:
    """Check the stationary decoupling inequality with the two-sided exponent.

    ``gamma`` is the full autocovariance sequence (as far as available), not
    just the n-section: the exponent ``stationary_exponent(gamma)`` uses every
    lag supplied.  The section is normalized to unit variance, matching the
    marginal norms of f_j(X_0): the draws are those of the Toeplitz section
    of ``gamma``, divided by sqrt(gamma[0]).  ``moments`` is this product's
    (mean, stderr, shift) from such a pass already made with the same
    n_samples and seed; without it the check makes its own pass.
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    p_kls = stationary_exponent(gamma)
    fns = list(fns)
    if len(fns) != n:
        raise InvalidSpec(f"need one test function per coordinate: {len(fns)} != {n}")
    if moments is None:
        C = from_stationary(gamma, n)
        [moments] = _product_moments(C, [(fns, math.sqrt(gamma[0]))], n_samples, seed)
    mean, stderr, shift = moments
    distinct = {f: marginal_p_norm(f, 1.0, p_kls) for f in dict.fromkeys(fns)}
    norms = [distinct[f] for f in fns]
    rhs_scaled = _shifted_product(norms, shift)
    rhs = _shifted_product(norms, 0)
    return _unscaled_report(abs(mean), stderr, rhs_scaled, rhs, shift, n_samples, seed)
