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
point's block is coordinate-major: x = L Z^T, of shape (n, rows), so a
functional reads coordinate i as a contiguous row.  Each entry is the same
dot product as in Z L^T, though for this operand order BLAS may round it
differently in the last bit.  Each pass draws its normals on a one-worker
executor, stream after stream, in chunks of 2^18 values that run in order
and are bit for bit the one draw; numpy releases the GIL while it fills
them.  The calling thread makes every GEMM in column panels of 4096
samples, the last panel taking the remainder (4096-8191 columns, or the
whole of a shorter stream), each panel waiting only for the chunks it reads.
The panels depend on the stream size alone, never on timing, so the
reproducibility key is still the seed, the BLAS build and the BLAS thread
count.  The width is fixed, never derived from n or the chunk size: on
OpenBLAS 0.3.31 (Haswell kernel) at 1 and 2 threads, with random dense
factors, 4096- and 8192-column panels round exactly as the unpanelled
product at every n = 1..129 and at 150, 192, 255..257, 300, 511, 512 and
700, with odd remainders too, while 2048-column panels differ at 2 threads
for n = 12..15 with an odd remainder, panels of 2^20 / n columns differ in
tens to hundreds of entries from n = 18, and so does a 1-column tail at
n >= 511, which numpy sends to GEMV.

The panels are made in draw order: the panel of columns a..b of point n
reads the stream's values a n .. b n, and the panels run by that last value
b n, ties by point, so the points' panels interleave and the stream is read
front to back.  The normals therefore live in a ring of one widest panel
span, n_max w for the widest panel w, plus a lead of max(2 chunks, one
span), and a chunk is drawn as soon as no panel still to come reads the
values it overwrites, across stream boundaries too.  A panel whose values
wrap past the ring's end is copied into a staging area first; a copy in the
same layout rounds the same.  No whole block is kept either: each panel is
written into one panel buffer, as a C-contiguous (n, columns) array, and
every functional of the point is evaluated on it before the next panel
overwrites it.  A functional's per-sample products (and their frexp
exponents, where a factor can exceed 1) fill a stream-length vector of its
own point, whose sums are taken after the block's last panel.  Products,
masks and frexp are elementwise and the sums run over the same
stream-length vectors, so the moments are bit for bit those of the whole
block.  The ring, the panel buffer and the staging area are one anonymous
memory mapping, sized in ``_stream_blocks``, that goes back to the system
once the pass has released it, where a heap buffer below glibc's largest
mmap threshold could stay resident.

Every functional of a point is evaluated on each panel: the theorem1
product, the box indicators and, for a stationary model, the KLS product,
whose draws are the theorem1 draws scaled by 1/sqrt(gamma(0)) (chol(T/gamma0)
= chol(T)/sqrt(gamma0)).  Where no factor can exceed 1, the indicator factors
are applied first, as one mask of the samples they keep, and the other
factors are evaluated on the kept samples only, one call per distinct
function, and not at all once none is kept; the rest are 0.  That is exact:
an indicator factor is 1.0 where it keeps a sample, and a product with a 0
factor is 0 whatever the others are, so only the sign of a zero can differ,
which no report reads (|mean| for theorem1 and KLS, 0/1 values for the
box).  The Khatri-Sidak rows count hits, so their verdicts come from an
exact binomial (Clopper-Pearson) bound at the one-sided levels of the 3 and
6 standard-error bands; zero hits still bound the probability.  The bound
itself is never formed: the exact side lies within it iff the binomial tail
at the exact side reaches the level (``_binomial_tail``).

The module needs numpy and math alone.  The error-function marginals take
``erf`` and ``erfc`` from ``decoupling``'s port of cephes, bit for bit
scipy.special's; the Gauss-Hermite and Gauss-Legendre rules of the smooth
marginals are built on their first use.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import mmap
import numbers
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .covmodel import CovarianceMatrix, from_stationary
from .decoupling import (
    _autocovariance,
    _erf,
    _erfc,
    _exp,
    corollary1_bound,
    theorem1_log_constant,
)
from .errors import InvalidSpec, NonFiniteInput

# Rows generated per stream; fixes the reduction layout independently of workers.
_STREAM_ROWS = 1 << 16
# Normals per fill of the drawing thread, and its name prefix.
_DRAW_CHUNK = 1 << 18
# Samples per GEMM panel; the last panel of a stream takes the remainder.
_PANEL_ROWS = 1 << 12
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


# Each test-function kind and the parameters it takes, in label order: a
# kind needs each of its parameters and refuses every other.
TEST_FUNCTION_KINDS = {
    "indicator": ("eps",),
    "shifted_indicator": ("shift", "eps"),
    "cosine": ("omega",),
    "bounded_poly": ("coeffs", "clip"),
    "grid": ("values", "half_width"),
}


@dataclass(frozen=True)
class TestFunctionSpec:
    """A bounded real test function of one variable.

    Kinds: ``indicator`` (|x| <= eps), ``shifted_indicator`` (|x - shift| <=
    eps), ``cosine`` (cos(omega x)), ``bounded_poly`` (polynomial of degree
    <= 4 clipped to [-clip, clip]), ``grid`` (piecewise-linear interpolation
    of values on [-half_width, half_width], clamped at the ends).  Every kind
    is bounded, so all Gaussian moments are finite.  The parameters a kind
    does not take (``TEST_FUNCTION_KINDS``) are None.
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
        takes = TEST_FUNCTION_KINDS.get(kind) if isinstance(kind, str) else None
        if takes is None:
            raise InvalidSpec(f"unknown test-function kind {kind!r}")
        given = [f.name for f in fields(self)[1:] if getattr(self, f.name) is not None]
        if set(given) != set(takes):
            raise InvalidSpec(f"{kind} takes {', '.join(takes)}; got {', '.join(given) or 'none'}")
        for name in takes:
            value = getattr(self, name)
            if name in ("coeffs", "values"):
                if not all(_is_real(v) for v in value):
                    raise InvalidSpec(f"{kind} {name} must be finite real numbers, got {value!r}")
                object.__setattr__(self, name, tuple(float(v) for v in value))
                if kind == "bounded_poly" and not 1 <= len(value) <= 5:
                    raise InvalidSpec("bounded_poly needs 1..5 coefficients (degree <= 4)")
                if kind == "grid" and len(value) < 2:
                    raise InvalidSpec("grid needs at least 2 values")
            elif not _is_real(value):
                raise InvalidSpec(f"{kind} {name} must be a finite real number, got {value!r}")
            elif name in ("eps", "clip", "half_width") and value <= 0:
                raise InvalidSpec(f"{kind} needs {name} > 0")

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
            # A coefficient near the float range is scaled by 2^-5 (exact), so Horner's partial
            # sums stay finite for |x| <= 1. An overflow then needs |x| > 1 and a true |p(x)| past
            # the clip, whose sign Horner keeps: its +-inf clips to the right +-clip. With finite
            # coefficients and samples Horner forms no inf - inf or 0 * inf, so no `invalid`.
            c = np.asarray(self.coeffs)
            scale = 2.0**-5 if np.abs(c).max() >= 2.0**1019 else 1.0
            with np.errstate(over="ignore"):
                y = np.polynomial.polynomial.polyval(x, c * scale)
            return np.clip(y, -self.clip * scale, self.clip * scale) / scale
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
        if self.kind == "bounded_poly":
            return f"bounded_poly(deg{len(self.coeffs) - 1},clip={self.clip:g})"
        if self.kind == "grid":
            return f"grid({len(self.values)}pts,L={self.half_width:g})"
        params = (format(getattr(self, name), "g") for name in TEST_FUNCTION_KINDS[self.kind])
        return f"{self.kind}({','.join(params)})"

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in TEST_FUNCTION_KINDS[self.kind]:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "TestFunctionSpec":
        if not isinstance(data, dict):
            raise InvalidSpec(f"a test function is a JSON object, got {data!r}")
        kind = data.get("kind")
        if kind is None:
            raise InvalidSpec("test function dict needs a 'kind'")
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidSpec(f"bad test-function parameters for kind {kind!r}: {exc}") from exc


def _integer(value, name: str) -> int:
    """``value`` as an int: a Python or numpy integer; a bool or another number is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        # Masking would key two seeds to one stream of draws.
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _stream_sizes(n_samples: int):
    """Samples per stream; raises ValueError for n_samples < 1."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    full, rem = divmod(n_samples, _STREAM_ROWS)
    sizes = [_STREAM_ROWS] * full
    if rem:
        sizes.append(rem)
    return sizes


def _panel_edges(size: int) -> list:
    """Column edges of a stream's GEMM panels: _PANEL_ROWS apart, the last panel taking the rest."""
    return [*range(0, max(size // _PANEL_ROWS, 1) * _PANEL_ROWS, _PANEL_ROWS), size]


def _stream_blocks(factors, n_samples: int, seed: int):
    """Stream by stream, the block x = L Z^T of each Cholesky factor L, panel by panel.

    Yields ``(k, a, size, x)``: x holds columns a .. a + x.shape[1] of
    factor k's block in a stream of ``size`` samples.  Each stream is drawn
    once, as standard_normal(size * width) for the largest n; the first
    size * n values read as (size, n) are bit for bit the block
    standard_normal((size, n)) draws, and are the Z of a factor of size n.
    Its blocks are multiplied in column panels of _PANEL_ROWS samples, the
    last one taking the remainder, so the panel of columns a .. b of a
    factor of size n reads the stream's values a n .. b n.  The panels come
    in draw order: by that last value b n, ties by factor index, so the
    factors interleave, each factor's panels come in column order, and a
    panel with a + x.shape[1] == size ends its block.  x has shape (n, cols)
    and is C-contiguous: row i holds the panel's draws of X_i, so evaluating
    f_i reads one contiguous row instead of a column with a stride of n
    floats.  Every x is a view of one panel buffer that the next panel
    overwrites; the caller may scale it in place.

    A one-worker executor draws the normals, as standard_normal(out=...) fills
    of _DRAW_CHUNK values run in order (split where the ring ends), bit for
    bit the one draw, into a ring that holds the streams one after another:
    one widest panel span, width * (the widest panel), plus a lead of
    max(2 _DRAW_CHUNK, that span) values, or all of the pass's normals if
    fewer.  The ring, the panel buffer and the staging area below are one
    anonymous mapping, unmapped when its last view is released, of
    8 (R + 2 n_max w) bytes for n_max = width, the widest panel w and the
    ring R = min(n_max S, n_max w + max(2^19, n_max w)) for S samples, less
    the staging area's n_max w when R holds all n_max S normals: 23.7 MB at
    n_max = 128 and S = 1e5, where w = 5792, against 67.1 MB for a whole
    stream, and 73.1 MB at n_max = 512 and S = 70000, where w = 4464, against
    268.4 MB.  A fill is queued as soon as no pending panel reads the values
    it overwrites, across stream boundaries too, so the drawer runs ahead by
    the lead while the panels are multiplied.  A panel waits only for the
    fills it reads (a draw error is raised again here); one whose values wrap
    past the ring's end is first copied whole into a staging area.  The
    panels depend on the stream size alone, never on timing, and a panel
    rounds the same whatever the leading dimension of its output.  Raises
    ValueError for n_samples < 1 on the first next().
    """
    sizes = _stream_sizes(n_samples)
    width = max(L.shape[0] for L in factors)
    span = width * max(b - a for s in set(sizes) for a, b in itertools.pairwise(_panel_edges(s)))
    total = width * n_samples
    ring_size = min(total, span + max(2 * _DRAW_CHUNK, span))
    staged = span if ring_size < total else 0
    # One anonymous mapping for the ring, the panel buffer and the staging
    # area, which goes back to the system when its last view is released.
    # From np.empty, a buffer below glibc's largest mmap threshold (32 MB)
    # lands in the heap once an earlier pass's buffer is freed, and stays
    # resident.  It is never closed: a fill may still be writing into it
    # until pool.shutdown has waited.
    buf = np.frombuffer(mmap.mmap(-1, 8 * (ring_size + span + staged)))
    ring, panels, stage = np.split(buf, [ring_size, ring_size + span])
    pool = ThreadPoolExecutor(1, thread_name_prefix=_DRAW_THREAD)

    def fills():
        """Every fill as (start, end, submit), its values' offsets in the pass, in order."""
        base = 0
        for stream, size in enumerate(sizes):
            gen = _stream_rng(seed, stream)
            end = base + size * width
            for start in range(base, end, _DRAW_CHUNK):
                stop = min(start + _DRAW_CHUNK, end)
                while start < stop:
                    lo = start % ring_size
                    cut = min(stop, start + ring_size - lo)
                    out = ring[lo : lo + cut - start]
                    yield start, cut, functools.partial(pool.submit, gen.standard_normal, out=out)
                    start = cut
            base = end

    try:
        unsubmitted = fills()
        next_fill = next(unsubmitted, None)
        drawn = collections.deque()  # (start, future) of the fills not yet waited for

        def release(first_read: int) -> None:
            """Submit each fill that overwrites only values before offset ``first_read``."""
            nonlocal next_fill
            while next_fill is not None and next_fill[1] - ring_size <= first_read:
                start, _, submit = next_fill
                drawn.append((start, submit()))
                next_fill = next(unsubmitted, None)

        release(0)
        base = 0
        for size in sizes:
            end = base + size * width
            order = sorted(
                (b * L.shape[0], k, a, b)
                for k, L in enumerate(factors)
                for a, b in itertools.pairwise(_panel_edges(size))
            )
            # From each panel on, the first offset that a panel still to come reads.
            first_reads = [
                *itertools.accumulate(
                    (base + a * factors[k].shape[0] for _, k, a, _ in reversed(order)),
                    min,
                    initial=end,
                )
            ][::-1]
            for (last, k, a, b), first_read in zip(order, first_reads[1:]):
                while drawn and drawn[0][0] < base + last:
                    drawn.popleft()[1].result()
                L = factors[k]
                n, cols = L.shape[0], b - a
                lo = (base + a * n) % ring_size
                if lo + cols * n <= ring_size:
                    z = ring[lo : lo + cols * n]
                else:
                    z = stage[: cols * n]
                    z[: ring_size - lo] = ring[lo:]
                    z[ring_size - lo :] = ring[: lo + cols * n - ring_size]
                x = panels[: n * cols].reshape(n, cols)
                np.matmul(L, z.reshape(cols, n).T, out=x)
                release(first_read)
                yield k, a, size, x
            base = end
    finally:
        pool.shutdown(cancel_futures=True)


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


def _panel_products(x: np.ndarray, fns, grows, pruning, g: np.ndarray, exponent) -> None:
    """Each sample's product over one (n, cols) panel, written into g.

    ``g`` (and ``exponent``, None unless ``grows`` marks a factor that can
    exceed 1) are the panel's columns of stream-length vectors.  After each
    growing factor the running product is split by frexp into g and an
    exponent that ``exponent`` accumulates.  ``pruning`` is ``_pruning(fns)``
    when no factor can exceed 1, and None otherwise.  Then the indicators
    come first: each tests only the samples the ones before it kept, and
    once none is kept nothing more is evaluated on the panel.  The other
    factors are evaluated on the kept samples only, one call per distinct
    function on all its coordinates, and multiplied in coordinate order, the
    indicator factors as the 1.0 they are on a kept sample; the others stay
    0.  The kept products are those of the in-order loop, and a dropped one
    was +-0 there, so the sums differ at most in the sign of a zero.
    """
    if pruning:
        indicators, groups = pruning
        # take/compress gather the same values as x[i, keep] and keep[mask],
        # 2-4x faster on rows of 65536.
        first, *rest = indicators
        keep = np.flatnonzero(fns[first]._hits(x[first]))
        for i in rest:
            if not keep.size:
                break
            keep = keep.compress(fns[i]._hits(x[i].take(keep)))
        g[:] = 0.0
        if keep.size and groups:
            # All n rows: one take is faster than an (others, keep) gather.
            values = x.take(keep, axis=1)
            for f, rows in groups:
                values[rows] = f(values[rows])
            values[indicators] = 1.0
            g[keep] = np.multiply.reduce(values, axis=0)  # in row order
        elif keep.size:
            g[keep] = 1.0
        return
    g[:] = 1.0
    if exponent is not None:
        exponent[:] = 0
    for i, f in enumerate(fns):
        g *= f(x[i])
        if grows[i]:
            g[:], step = np.frexp(g)
            exponent += step


def _pruning(fns):
    """A functional's indicator-first plan for ``_panel_products``, made once per call.

    None without indicators; else the indicator coordinates, and each
    distinct other function with the coordinates it is evaluated at.
    """
    indicators = [i for i, f in enumerate(fns) if f.is_indicator]
    if not indicators:
        return None
    # By identity: equal specs can still differ in the sign of a zero parameter.
    groups = {}
    for i, f in enumerate(fns):
        if not f.is_indicator:
            groups.setdefault(id(f), (f, []))[1].append(i)
    return indicators, [(f, np.array(rows)) for f, rows in groups.values()]


def _stream_sums(g: np.ndarray, exponent, limit: int) -> tuple[float, float, int]:
    """Sums of g 2^-shift and its square over one stream's products, and the shift."""
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
    is evaluated on each GEMM panel of that point's block as it is made; the
    panel is divided in place when the divisor changes, so list the
    undivided functionals (divisor 1.0) first.  A functional's per-sample
    products fill a stream-length vector of its own, since the points'
    panels interleave in draw order; after its point's last panel in a
    stream the stream's sums are taken over the whole vector.  Streams are
    accumulated stream by stream (never materializing the full sample) and
    combined by pairwise summation in stream order, so each result is
    bitwise identical to evaluating on the stacked stream blocks, and to a
    pass over that point alone.  ``_stream_blocks`` sizes the buffer of normals;
    the product vectors add 8 min(S, 65536) bytes per functional of each
    point for S samples, and as much again per one whose exponents are kept.

    After each factor that can exceed 1 in size (``sup_abs() > 1``) the
    running product is split by frexp into a mantissa and an integer exponent
    per sample, so it cannot overflow; factors bounded by 1 cost nothing
    extra. The shift is the least one that keeps every |g 2^-shift| below
    2^limit, where n_samples values of size 2^(2 limit) still sum to a
    finite float. It follows from the size each sample's product actually
    has, so it is 0, and the moments are the plain ones, whenever the plain
    sum of g^2 cannot overflow; a power-of-two shift is exact.  A functional
    without such a factor applies its indicators first and evaluates its
    other factors only on the samples they keep (``_panel_products``).

    Raises TypeError, before any stream is drawn, unless n_samples and seed
    are integers (numpy's too, but no bool), and InvalidSpec unless each
    functional has one function per coordinate of its point and a finite
    divisor > 0.
    """
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
    if not points:
        return []
    rows = _stream_sizes(n_samples)[0]  # refuses n_samples < 1 before a vector is sized
    limit = (1023 - n_samples.bit_length()) // 2
    functionals = [list(fs) for _, fs in points]
    # The points' panels interleave, so every functional of every point keeps
    # its own product vector, all in one allocation.
    products = iter(np.empty((sum(map(len, functionals)), rows)))
    # Per functional, once per call: its growing factors and the exponent
    # vector they need, or else its indicator-first plan.
    plans = []
    for (C, _), fs in zip(points, functionals):
        plans.append([])
        for fns, d in fs:
            if len(fns) != C.n:
                raise InvalidSpec(f"need one test function per coordinate: {len(fns)} != {C.n}")
            if not (math.isfinite(d) and d > 0):
                raise InvalidSpec(f"divisor must be finite and > 0, got {d}")
            grows = [f.sup_abs() > 1.0 for f in fns]
            if any(grows):
                exponent = np.empty(rows, dtype=np.int64)
                plans[-1].append((fns, d, grows, None, next(products), exponent))
            else:
                plans[-1].append((fns, d, grows, _pruning(fns), next(products), None))
    sums = [[[] for _ in plan] for plan in plans]
    for k, a, size, x in _stream_blocks([C.chol for C, _ in points], n_samples, seed):
        b = a + x.shape[1]
        divisor = 1.0
        for (fns, d, grows, pruning, g, e), per_stream in zip(plans[k], sums[k]):
            if d != divisor:
                x /= d / divisor
                divisor = d
            _panel_products(x, fns, grows, pruning, g[a:b], None if e is None else e[a:b])
            if b == size:
                per_stream.append(_stream_sums(g[:size], None if e is None else e[:size], limit))
    return [[_combine_streams(s, n_samples) for s in point] for point in sums]


def _gl_segment_moment(f, a: float, b: float, sigma: float, p: float) -> float:
    """integral_a^b |f(x)|^p phi_sigma(x) dx by Gauss-Legendre (f smooth on [a,b])."""
    nodes, weights = _quadrature(np.polynomial.legendre.leggauss, _GL_POINTS)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * nodes
    dens = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return float(half * np.sum(weights * np.abs(f(x)) ** p * dens))


def _lower_tail(x: float, sigma: float) -> float:
    """P(sigma Z <= x), as erfc gives it: to full relative accuracy far below the mean too."""
    return 0.5 * float(_erfc(-x / (sigma * math.sqrt(2.0))))


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
    total += abs(right_val) ** p * _lower_tail(-knots[-1], sigma)
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
    piecewise-linear grid) are integrated exactly piece by piece. Raises
    NonFiniteInput where the moment overflows or the norm is not finite
    (a kinked kind with values near the float64 range).
    """
    if not sigma > 0:  # NaN too
        raise ValueError("sigma must be positive")
    if not p >= 1:
        raise ValueError("p must be >= 1")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused below
            norm = _marginal_norm(f, sigma, p)
    except OverflowError:  # a float power in _piecewise_moment
        norm = math.inf
    if not math.isfinite(norm):
        raise NonFiniteInput(f"the L^{p} norm of {f.label()} overflows or is not finite")
    return norm


def _marginal_norm(f: TestFunctionSpec, sigma: float, p: float) -> float:
    """The body of ``marginal_p_norm``, with no finiteness check."""
    root2 = math.sqrt(2.0)
    if f.kind == "indicator":
        prob = float(_erf(f.eps / (sigma * root2)))
        return prob ** (1.0 / p)
    if f.kind == "shifted_indicator":
        hi = (f.shift + f.eps) / (sigma * root2)
        lo = (f.shift - f.eps) / (sigma * root2)
        # On one side of 0, erfc of the ends keeps the tail's digits, which
        # the difference of two erf values near +-1 cancels.
        if lo >= 0:
            prob = 0.5 * float(_erfc(lo) - _erfc(hi))
        elif hi <= 0:
            prob = 0.5 * float(_erfc(-hi) - _erfc(-lo))
        else:
            prob = 0.5 * float(_erf(hi) - _erf(lo))
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


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# The Stirling series log k! - log(sqrt(2 pi k) (k/e)^k) = 1/(12 k) - 1/(360 k^3) + ...,
# alternating; past k = 15 its sixth term is below 2e-16 of the first.
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _stirling_error(k: int) -> float:
    """log k! - log(sqrt(2 pi k) (k/e)^k) for k >= 1."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI
    kk = float(k) * k
    s = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        s = c - s / kk
    return s / k


def _deviance(x: float, m: float) -> float:
    """x log(x/m) + m - x; within 10 % of m by its series in v = (x - m)/(x + m), which
    does not cancel."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) - d
    v = d / (x + m)
    s, term, j = d * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        s, last = s + term / (2 * j + 1), s
        if s == last:
            return s
        j += 1


def _log_binomial_pmf(n: int, k: int, p: float, q: float) -> float:
    """log P(Bin(n, p) = k) for 0 <= k <= n and q = 1 - p.

    Loader's saddle-point form: every term is small near the mean, so the value keeps
    its absolute accuracy where log n! - log k! - log (n-k)! would cancel (about 2e-10
    at n = 1e5, the error scipy.special.bdtr shows there).
    """
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    return (
        _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
        - _deviance(k, n * p) - _deviance(n - k, n * q)
        + 0.5 * math.log(n / (2.0 * math.pi * k * (n - k)))
    )


def _tail_from(n: int, k: int, p: float, at_least: bool) -> float:
    """P(Bin(n, p) >= k) if ``at_least``, else P(Bin(n, p) <= k), where the terms fall from k.

    Each term is the first times a cumsum of log pmf(j+1)/pmf(j) (or pmf(j-1)/pmf(j)); the
    sum stops once the terms are below e^-64 of the first, whose rest is below n e^-64 of it.
    """
    if not 0 <= k <= n:
        return 0.0
    q = 1.0 - p
    log_first = _log_binomial_pmf(n, k, p, q)
    if not at_least:  # the terms of P(Bin(n, p) <= k) are those of P(Bin(n, q) >= n - k)
        k, p, q = n - k, q, p
    width = 64 + int(12.0 * math.sqrt(n * p * q))
    while True:
        j = np.arange(k, min(n, k + width))
        with np.errstate(divide="ignore"):  # a ratio that underflows to 0: the terms are 0
            logs = np.cumsum(np.log((n - j) * p / ((j + 1) * q)))
        if k + width >= n or logs[-1] < -64.0:
            break
        width *= 4
    return math.exp(log_first) * (1.0 + float(np.sum(np.exp(logs))))


def _binomial_tail(n: int, k: int, p: float, at_least: bool) -> float:
    """P(Bin(n, p) >= k) if ``at_least``, else P(Bin(n, p) <= k), for 0 < p < 1.

    The tail away from the mode is summed term by term; the tail that holds the mode is 1
    minus the other, which then holds at most about half the mass. About 0.1 ms at
    n = 1e5, within 1e-12 of a 40-digit sum at n <= 1e5.
    """
    mode = (n + 1) * p
    if at_least and k < mode:
        return 1.0 - _tail_from(n, k - 1, p, at_least=False)
    if not at_least and k >= mode - 1.0:
        return 1.0 - _tail_from(n, k + 1, p, at_least=True)
    return _tail_from(n, k, p, at_least)


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
    The exact side lies within the one-sided Clopper-Pearson bound at level
    alpha iff the binomial tail at the exact side reaches alpha, so the bound
    itself is never formed.
    """

    def holds(alpha: float) -> bool:
        if estimate_is_lhs:  # the lower bound on the hit probability is <= rhs
            if hits == 0:
                return rhs >= 0.0
            if not 0.0 < rhs < 1.0:
                return rhs >= 1.0
            return _binomial_tail(n_samples, hits, rhs, at_least=True) >= alpha
        # lhs is <= the upper bound on the hit probability
        if hits == n_samples:
            return lhs <= 1.0
        if hits == 0:
            return lhs <= -math.expm1(math.log(alpha) / n_samples)  # 1 - alpha^(1/N)
        if not 0.0 < lhs < 1.0:
            return lhs <= 0.0
        return _binomial_tail(n_samples, hits, lhs, at_least=False) >= alpha

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


def verify_theorem1(
    C: CovarianceMatrix, p: float, fns, n_samples: int, seed: int, *, moments=None
) -> VerificationReport:
    """Check |E prod f_i(X_i)| <= constant * prod (E |f_i(X_i)|^p)^{1/p}.

    ``moments`` is this product's (mean, stderr, shift) from a sampling pass
    already made with the same C, n_samples and seed; without it the check
    makes its own pass.  n_samples and seed are integers, as in ``sweep_moments``.
    """
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
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
        [[moments]] = sweep_moments([(C, [(fns, 1.0)])], n_samples, seed)
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
    check makes its own pass.  n_samples and seed are integers, as in
    ``sweep_moments``.
    """
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
    eps = np.asarray(eps, dtype=float).ravel()
    if eps.size != C.n or np.any(eps <= 0):
        raise InvalidSpec("eps must be a length-n vector of positive reals")
    if moments is None:
        fns = [TestFunctionSpec.indicator(float(e)) for e in eps]
        [[moments]] = sweep_moments([(C, [(fns, 1.0)])], n_samples, seed)
    center, stderr, _ = moments
    hits = round(center * n_samples)
    probs = _erf(eps / (C.sigmas * math.sqrt(2.0)))
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
    ma1:a=0.5). Raises NonFiniteInput where the sum overflows.
    """
    gamma = _autocovariance(gamma)
    with np.errstate(over="ignore"):  # an overflow is refused below
        s = float(np.abs(gamma[1:]).sum() / gamma[0])
    if not math.isfinite(2.0 * s):
        raise NonFiniteInput("the sum of |gamma(h)|/gamma(0) overflows")
    return 1.0 + 2.0 * s


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
    n_samples and seed; without it the check makes its own pass.  n_samples
    and seed are integers, as in ``sweep_moments``.
    """
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
    gamma = np.asarray(gamma, dtype=float).ravel()
    p_kls = stationary_exponent(gamma)
    fns = list(fns)
    if len(fns) != n:
        raise InvalidSpec(f"need one test function per coordinate: {len(fns)} != {n}")
    if moments is None:
        C = from_stationary(gamma, n)
        [[moments]] = sweep_moments([(C, [(fns, math.sqrt(gamma[0]))])], n_samples, seed)
    mean, stderr, shift = moments
    distinct = {f: marginal_p_norm(f, 1.0, p_kls) for f in dict.fromkeys(fns)}
    norms = [distinct[f] for f in fns]
    rhs_scaled = _shifted_product(norms, shift)
    rhs = _shifted_product(norms, 0)
    return _unscaled_report(abs(mean), stderr, rhs_scaled, rhs, shift, n_samples, seed)
