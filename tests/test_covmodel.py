"""Covariance builders: examples with independent oracles, invariants, errors."""

import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.special import zeta

from gaussdecoup import (
    HilbertSpec,
    InvalidSpec,
    ModelSpec,
    MovingAverageSpec,
    NonFiniteInput,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    NotSymmetric,
    build_dense,
    decoupling_coefficient,
    from_stationary,
    grid_points,
    hilbert_covariance,
    inverse_power_gamma,
    inverse_power_gamma_sequence,
    inverse_power_symbol,
    ma1_symbol,
    parse_model,
    symbol_from_grid,
)
from gaussdecoup.brascamp import matrix_B
from gaussdecoup.covmodel import (
    DEFAULT_GRID_SIZE,
    _Durbin,
    _levinson_durbin,
    _max_asymmetry,
    _unit_support,
    clausen_cos,
)
from gaussdecoup.verify import sample_gaussian


def tridiag_det(d0: float, d1: float, n: int) -> float:
    """Determinant recurrence for tridiagonal Toeplitz matrices."""
    prev2, prev1 = 1.0, d0
    for _ in range(2, n + 1):
        prev2, prev1 = prev1, d0 * prev1 - d1 * d1 * prev2
    return prev1 if n >= 1 else prev2


def cauchy_det(a) -> float:
    """Closed-form determinant of {1/(a_i + a_j)}."""
    a = np.asarray(a, dtype=float)
    n = a.size
    num = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            num *= (a[j] - a[i]) ** 2
    den = np.prod((a[:, None] + a[None, :]).ravel())
    return num / den


def sparse_gamma_oracle(weights: dict, lags) -> np.ndarray:
    """gamma(h) for each h in lags of X_k = sum_{|m| in A} b_|m| xi_{k-m}, one lag at a time.

    ``weights`` maps each m in A to b_m. A lag that no pair of signed support
    points is apart gets an exact 0.0, without any float summation.
    """
    signed = {}
    for m in sorted(weights):
        signed[m] = weights[m]
        signed[-m] = weights[m]
    out = []
    for h in lags:
        acc = 0.0
        hit = False
        for m, bm in signed.items():
            other = signed.get(m - h)
            if other is not None:
                acc += bm * other
                hit = True
        out.append(acc if hit else 0.0)
    return np.array(out)


def brute_inverse_power_gamma_r1(mu: int, terms: int = 1_000_000) -> float:
    """Direct series summation with a midpoint integral-bracket tail.

    The one-sided tail of sum 1/(nu(nu+mu)) is bracketed by integrals; the
    midpoint leaves an error below 1/(2 N (N+mu)).
    """
    nu = np.arange(1, terms + 1, dtype=float)
    s1 = float(np.sum(1.0 / (nu * (nu + mu))))

    def tail_from(t):
        return (1.0 / mu) * np.log((t + mu) / t)

    s1 += 0.5 * (tail_from(terms) + tail_from(terms + 1))
    s2 = 0.0
    if mu >= 2:
        m = np.arange(1, mu, dtype=float)
        s2 = float(np.sum(1.0 / (m * (mu - m))))
    return 2.0 * s1 + s2


class TestBuildDense:
    def test_identity_log_det_zero(self):
        C = build_dense(np.eye(3))
        assert C.log_det == 0.0

    def test_correlated_2x2(self):
        C = build_dense([[1.0, 0.5], [0.5, 1.0]])
        assert C.log_det == pytest.approx(np.log(0.75), rel=1e-13)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            build_dense([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            build_dense([[1.0, 0.5], [0.2, 1.0]])

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(NonPositiveDiagonal):
            build_dense([[0.0, 0.0], [0.0, 1.0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidSpec):
            build_dense(np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInput):
            build_dense([[np.nan, 0.0], [0.0, 1.0]])

    def test_huge_diagonal_pivot_floor_does_not_overflow(self):
        # The trace of this matrix overflows; its mean diagonal does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C = build_dense([[1e308, 0.0], [0.0, 1e308]])
        assert C.log_det == pytest.approx(2.0 * math.log(1e308), rel=1e-15)

    def test_entries_read_only(self):
        C = build_dense(np.eye(2))
        with pytest.raises(ValueError):
            C.entries[0, 0] = 2.0


class TestFromStationary:
    def test_white_noise_is_identity(self):
        C = from_stationary([1.0, 0.0, 0.0], 3)
        assert np.array_equal(C.entries, np.eye(3))

    def test_tridiagonal_oracle(self):
        C = from_stationary([1.25, 0.5, 0.0], 3)
        expected = tridiag_det(1.25, 0.5, 3)
        assert expected == 1.328125  # recurrence value, frozen
        assert np.exp(C.log_det) == pytest.approx(expected, rel=1e-12)

    def test_rank_one_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            from_stationary([1.0, 1.0, 1.0], 3)

    def test_zero_variance_rejected(self):
        with pytest.raises(NonPositiveDiagonal):
            from_stationary([0.0, 0.1], 2)

    def test_short_gamma_zero_padded(self):
        C = from_stationary([2.0], 4)
        assert np.array_equal(C.entries, 2.0 * np.eye(4))

    def test_non_finite_gamma_rejected(self):
        with pytest.raises(NonFiniteInput):
            from_stationary([1.0, np.nan, 0.2], 3)


class TestMovingAverage:
    def test_white_noise(self):
        spec = MovingAverageSpec.from_coeffs({0: 1.0})
        C = from_stationary(spec.autocovariance(2), 3)
        assert np.array_equal(C.entries, np.eye(3))

    def test_ma1_two_term_convolution(self):
        spec = MovingAverageSpec.from_coeffs({0: 1.0, 1: 0.5})
        gamma = spec.autocovariance(3)
        assert gamma == pytest.approx([1.25, 0.5, 0.0, 0.0], abs=1e-15)
        C = from_stationary(gamma, 4)
        assert C.entries[0, 0] == pytest.approx(1.25)
        assert C.entries[0, 1] == pytest.approx(0.5)
        assert C.entries[0, 2] == 0.0

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(InvalidSpec):
            MovingAverageSpec(offsets=np.array([0, 0]), values=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("support", [8193, 12001])
    def test_matches_direct_correlation(self, support):
        # A long contiguous support, against np.correlate of the coefficients.
        rng = np.random.default_rng(support)
        values = rng.standard_normal(support)
        offsets = np.arange(support) - support // 2
        spec = MovingAverageSpec(offsets=offsets, values=values)
        expected = np.correlate(values, values, mode="full")[support - 1 :]
        gamma = spec.autocovariance(support + 5)
        assert np.abs(gamma[:support] - expected).max() <= 1e-10 * expected[0]
        assert np.all(gamma[support:] == 0.0)


class TestInversePowerGamma:
    def test_mu1_telescopes_to_two(self):
        assert inverse_power_gamma(1, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_mu2_is_two_point_five(self):
        assert inverse_power_gamma(2, 1.0) == pytest.approx(2.5, abs=1e-14)

    def test_mu0_is_pi_squared_over_3(self):
        assert inverse_power_gamma(0, 1.0) == pytest.approx(np.pi**2 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("mu", [1, 2, 3, 7, 50])
    def test_closed_form_vs_brute_series(self, mu):
        assert inverse_power_gamma(mu, 1.0) == pytest.approx(
            brute_inverse_power_gamma_r1(mu), abs=1e-12
        )

    def test_r2_against_brute_partial_sum(self):
        # Direct partial sum to 1e7 bounds the truncation below 1e-10 here.
        mu, r = 3, 2.0
        m = np.arange(1, 10**7, dtype=float)
        brute = 2.0 * float(np.sum(1.0 / (m**r * (m + mu) ** r)))
        brute += float(np.sum(1.0 / ((np.arange(1, mu) * (mu - np.arange(1, mu))) ** r)))
        assert inverse_power_gamma(mu, r) == pytest.approx(brute, abs=1e-9)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            inverse_power_gamma(3, 0.5)

    def test_sequence_matches_scalar(self):
        seq = inverse_power_gamma_sequence(6, 1.0)
        for mu in range(7):
            assert seq[mu] == pytest.approx(inverse_power_gamma(mu, 1.0), rel=1e-13)

    def test_envelope_gamma_mu_times_mu_near_4_log_mu(self):
        # |gamma(mu)*mu - 4 log mu| <= 6 across mu in [2, 1e5]; the scanned
        # maximum is ~2.309 (= 4*euler_gamma in the limit).
        seq = inverse_power_gamma_sequence(10**5, 1.0)
        mu = np.arange(2, 10**5 + 1, dtype=float)
        dev = np.abs(seq[2:] * mu - 4.0 * np.log(mu))
        assert dev.max() <= 6.0


class TestHilbert:
    def test_cauchy_oracle_n3(self):
        C = hilbert_covariance(HilbertSpec(np.array([1.0, 2.0, 3.0])), 3)
        assert cauchy_det([1.0, 2.0, 3.0]) == pytest.approx(1.0 / 43200.0, rel=1e-14)
        assert np.exp(C.log_det) == pytest.approx(1.0 / 43200.0, rel=1e-12)

    def test_single_entry(self):
        C = hilbert_covariance(HilbertSpec(np.array([1.0])), 1)
        assert C.entries[0, 0] == 0.5

    def test_cauchy_oracle_n2(self):
        C = hilbert_covariance(HilbertSpec(np.array([1.0, 2.0])), 2)
        assert np.exp(C.log_det) == pytest.approx(1.0 / 72.0, rel=1e-12)

    def test_not_increasing_rejected(self):
        with pytest.raises(InvalidSpec):
            HilbertSpec(np.array([1.0, 1.0]))

    def test_too_few_terms_rejected(self):
        with pytest.raises(InvalidSpec):
            hilbert_covariance(HilbertSpec(np.array([1.0, 2.0])), 3)

    def test_nearly_equal_entries_degenerate(self):
        a = 1.0 + 1e-14 * np.arange(6)
        with pytest.raises(NotPositiveDefinite) as excinfo:
            hilbert_covariance(HilbertSpec(a), 6)
        assert "condition" in str(excinfo.value)


class TestSparseSupport:
    def test_single_lag_enumeration(self):
        gamma = parse_model("sparse:support=1").gamma(2)
        assert gamma[0] == 2.0
        assert gamma[1] == 0.0
        assert gamma[2] == 1.0

    def test_difference_set_support(self):
        gamma = parse_model("sparse:support=1+4").gamma(9)
        signed = [-4, -1, 1, 4]
        reachable = {abs(x - y) for x in signed for y in signed}
        for h in range(10):
            if h in reachable:
                continue
            assert gamma[h] == 0.0  # exact zero, no float summation happened

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidSpec, match="nonempty"):
            _unit_support([])

    def test_covariance_builds(self):
        C = parse_model("sparse:support=1").covariance(3)
        assert C.entries[0, 0] == 2.0
        assert C.entries[0, 2] == 1.0
        assert C.entries[0, 1] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        support=st.sets(st.integers(1, 10**5), min_size=1, max_size=6),
        max_lag=st.integers(0, 2 * 10**5),
        draws=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_unit_support_matches_per_lag_oracle(self, support, max_lag, draws):
        # Bitwise equal to the per-lag loop at random lags and at every
        # difference of offsets; exactly 0 wherever h is no such difference.
        gamma = parse_model("sparse:support=" + "+".join(map(str, support))).gamma(max_lag)
        signed = [s * m for m in support for s in (-1, 1)]
        diffs = {x - y for x in signed for y in signed if 0 <= x - y <= max_lag}
        lags = sorted(diffs | {round(u * max_lag) for u in draws})
        oracle = sparse_gamma_oracle(dict.fromkeys(support, 1.0), lags)
        assert np.array_equal(gamma[lags], oracle)
        assert set(np.flatnonzero(gamma).tolist()) == diffs

    @pytest.mark.parametrize("weights", [{1: 0.3, 4: -1.7}, {2: 0.1, 7: 2.5, 11: -0.9}])
    def test_weighted_support_matches_per_lag_oracle(self, weights):
        spec = MovingAverageSpec.from_coeffs({s * m: b for m, b in weights.items() for s in (-1, 1)})
        gamma = spec.autocovariance(30)
        oracle = sparse_gamma_oracle(weights, range(31))
        assert np.all((gamma == 0.0) == (oracle == 0.0))
        assert np.abs(gamma - oracle).max() <= 1e-15 * oracle[0]


class TestSymbolFromGrid:
    def test_constant(self):
        sym = symbol_from_grid(np.ones(64))
        assert sym.d[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(sym.d[1:]).max() < 1e-14
        assert sym.strictly_positive and sym.even

    def test_ma1_trig_identity(self):
        # |1 + 0.5 e^{it}|^2 = 1.25 + cos t
        t = grid_points(256)
        sym = symbol_from_grid(np.abs(1.0 + 0.5 * np.exp(1j * t)) ** 2)
        assert sym.d[0] == pytest.approx(1.25, abs=1e-12)
        assert sym.d[1] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(sym.d[2:]).max() < 1e-12

    def test_zero_touching_symbol_flagged(self):
        t = grid_points(64)
        sym = symbol_from_grid(2.0 + 2.0 * np.cos(t))
        assert not sym.strictly_positive
        assert sym.d[0] == pytest.approx(2.0, abs=1e-13)
        assert sym.d[1] == pytest.approx(1.0, abs=1e-13)

    def test_nonfinite_rejected(self):
        values = np.ones(32)
        values[3] = np.inf
        with pytest.raises(NonFiniteInput):
            symbol_from_grid(values)

    @pytest.mark.parametrize("values", [np.full(16, 1e308), np.full(4096, 1e308)])
    def test_overflowing_coefficients_rejected(self, values):
        # Finite grid values whose DFT overflows: refused, with no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="Fourier coefficients"):
                symbol_from_grid(values)

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidSpec):
            symbol_from_grid(np.ones(33))

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
        const=st.floats(0.5, 4.0),
    )
    def test_trig_polynomial_recovery(self, coeffs, const):
        # Degree < K polynomials are recovered exactly by the DFT quadrature.
        t = grid_points(128)
        values = np.full(t.size, const)
        for k, a in enumerate(coeffs, start=1):
            values = values + a * np.cos(k * t)
        sym = symbol_from_grid(values)
        assert sym.d[0] == pytest.approx(const, abs=1e-12)
        for k, a in enumerate(coeffs, start=1):
            assert sym.d[k] == pytest.approx(a / 2.0, abs=1e-12)

    def test_even_symbol_coefficients_real_nonnegative_zeroth(self):
        # Even real symbols store real coefficients (d_{-k} = d_k) and a
        # nonnegative zeroth coefficient.
        t = grid_points(128)
        sym = symbol_from_grid(2.0 + np.cos(3 * t) + 0.2 * np.cos(5 * t))
        assert sym.even
        assert sym.d.dtype.kind == "f"
        assert sym.d[0] >= 0.0
        assert sym.fourier_coefficient(-3) == sym.fourier_coefficient(3)

    def test_uneven_symbol_hermitian_coefficients(self):
        t = grid_points(128)
        sym = symbol_from_grid(2.0 + np.cos(t) + 0.5 * np.sin(2 * t))
        assert not sym.even
        assert sym.fourier_coefficient(-2) == np.conj(sym.fourier_coefficient(2))
        assert abs(sym.fourier_coefficient(2) - (-0.25j)) < 1e-12

    def test_equality_is_identity(self):
        # Array fields cannot decide ==; equal grids still make two symbols.
        a, b = ma1_symbol(0.5, 16), ma1_symbol(0.5, 16)
        assert a == a and a != b
        assert len({a, a, b}) == 2 and hash(a) == hash(a)
        assert a.c is a.c
        assert np.array_equal(a.c, b.c)

    def test_named_builtins(self):
        sym = parse_model("ma1:a=0.5").symbol(grid_size=256)
        assert sym.d[0] == pytest.approx(1.25, abs=1e-12)
        sym = parse_model("constant:value=3").symbol(grid_size=64)
        assert sym.d[0] == pytest.approx(3.0, abs=1e-13)
        with pytest.raises(InvalidSpec):
            parse_model("unknown_family")

    def test_inverse_power_symbol_needs_r_above_one(self):
        with pytest.raises(InvalidSpec):
            parse_model("inverse_power:r=1").symbol()

    def test_inverse_power_symbol_default_grid_r_one_and_a_half(self):
        # The per-point mpmath loop took about 30 s here. The symbol has a
        # |t|^(1/2) cusp at t = 0, so the grid quadrature is good to ~h^1.5.
        sym = inverse_power_symbol(1.5)
        assert sym.grid_size == DEFAULT_GRID_SIZE
        assert sym.d[0] == pytest.approx(inverse_power_gamma(0, 1.5), rel=2e-4)

    def test_inverse_power_symbol_variance(self):
        # d_0 must approach gamma(0) = 2 zeta(2r); the symbol has a kink at
        # t = 0, so the grid quadrature converges at rate 1/grid_size^2.
        sym = parse_model("inverse_power:r=2").symbol(grid_size=2048)
        from gaussdecoup import inverse_power_gamma

        assert sym.d[0] == pytest.approx(inverse_power_gamma(0, 2.0), rel=1e-5)


class TestCovarianceInvariants:
    @pytest.mark.parametrize("n", [2, 7, 23, 50])
    def test_log_det_matches_lu(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        C = build_dense(A @ A.T + n * np.eye(n))
        sign, ref = np.linalg.slogdet(C.entries)
        assert sign == 1.0
        assert C.log_det == pytest.approx(ref, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 12, 30])
    def test_cholesky_reconstructs_entries(self, n):
        rng = np.random.default_rng(100 + n)
        A = rng.standard_normal((n, n))
        C = build_dense(A @ A.T + n * np.eye(n))
        recon = C.chol @ C.chol.T
        scale = np.abs(C.entries).max()
        assert np.abs(recon - C.entries).max() <= 1e-10 * scale


class TestParseModel:
    def test_arguments_are_checked_values(self):
        spec = parse_model(" sparse : support = 1+4 ")
        assert isinstance(spec, ModelSpec) and spec.family == "sparse"
        assert np.array_equal(spec.args["support"].offsets, [-4, -1, 1, 4])
        assert np.array_equal(spec.args["support"].values, [1.0] * 4)
        assert parse_model("ma1:a=0.5").args == {"a": 0.5}
        assert parse_model("constant").args == {"value": 1.0}
        assert parse_model("dense:file=m.csv").args == {"file": "m.csv"}

    @pytest.mark.parametrize(
        "text",
        [
            "unknown_family",
            "sparse",
            "sparse:support=x",
            "sparse:support=1+x",
            "sparse:support=-1",
            "sparse:support=1.5",
            "ma1",
            "ma1:",
            "ma1:a",
            "ma1:a=abc",
            "ma1:a=0.5,",
            "ma1:a=0.5,b=3",
            "hilbert:a=2",
            "identity:rho=0.1",
            "inverse_power:r=0.5",
            "stationary",
            5,
            None,
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(InvalidSpec):
            parse_model(text)

    @pytest.mark.parametrize("text", ["ma1:a=nan", "equicorr:rho=inf", "inverse_power:r=-inf"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(NonFiniteInput):
            parse_model(text)

    def test_files_are_read_when_used(self):
        spec = parse_model("stationary:file=/nonexistent/gamma.csv")
        with pytest.raises(OSError):
            spec.gamma(3)

    def test_unparsable_file_is_invalid_spec(self, tmp_path):
        values = tmp_path / "values.csv"
        values.write_text("x\n")
        matrix = tmp_path / "matrix.json"
        matrix.write_text("[[1, 0], [0]]")
        with pytest.raises(InvalidSpec):
            parse_model(f"stationary:file={values}").covariance(2)
        with pytest.raises(InvalidSpec):
            parse_model(f"grid:file={values}").symbol()
        with pytest.raises(InvalidSpec):
            parse_model(f"dense:file={matrix}").covariance(2)

    def test_stationary_file_gamma(self, tmp_path):
        path = tmp_path / "gamma.json"
        path.write_text("[1.25, 0.5]")
        spec = parse_model(f"stationary:file={path}")
        assert np.array_equal(spec.gamma(3), [1.25, 0.5, 0.0, 0.0])
        assert np.array_equal(spec.gamma(0), [1.25])
        assert spec.summable_gamma() is None

    def test_gamma_matches_covariance_builders(self):
        assert np.array_equal(parse_model("identity").gamma(2), [1.0, 0.0, 0.0])
        assert np.array_equal(parse_model("equicorr:rho=0.3").gamma(2), [1.0, 0.3, 0.3])
        assert np.array_equal(parse_model("ma1:a=0.5").gamma(2), [1.25, 0.5, 0.0])
        assert np.array_equal(parse_model("ma1:a=0.5").gamma(0), [1.25])
        assert np.array_equal(
            parse_model("inverse_power:r=1").gamma(5), inverse_power_gamma_sequence(5, 1.0)
        )
        sparse = sparse_gamma_oracle({1: 1.0, 4: 1.0}, range(10))
        assert np.array_equal(parse_model("sparse:support=1+4").gamma(9), sparse)
        for family in ("hilbert", "dense:file=m.csv", "constant", "grid:file=g.csv"):
            assert parse_model(family).gamma(3) is None

    def test_summable_gamma_horizons(self):
        assert np.array_equal(parse_model("identity").summable_gamma(), [1.0])
        assert np.array_equal(parse_model("ma1:a=0.5").summable_gamma(), [1.25, 0.5])
        sparse = parse_model("sparse:support=1+4").summable_gamma()
        assert np.array_equal(sparse, sparse_gamma_oracle({1: 1.0, 4: 1.0}, range(9)))
        inverse_power = parse_model("inverse_power:r=2").summable_gamma()
        assert np.array_equal(inverse_power, inverse_power_gamma_sequence(4096, 2.0))
        for text in ("inverse_power:r=1.5", "equicorr:rho=0.2", "hilbert"):
            assert parse_model(text).summable_gamma() is None

    @pytest.mark.parametrize("text", ["ma1:a=0.5", "sparse:support=1+4", "inverse_power:r=2"])
    def test_summable_gamma_is_the_covariance_column(self, text):
        # verify's KLS rows reuse the covariance's draws scaled by
        # 1/sqrt(gamma[0]): both must be the Toeplitz matrix of the same gamma.
        spec = parse_model(text)
        gamma = spec.summable_gamma()
        for n in (1, 2, 9, 64, 128):
            column = np.zeros(n)
            column[: min(n, gamma.size)] = gamma[:n]
            assert np.array_equal(spec.covariance(n).entries[0], column)

    def test_dense_file_leading_block(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[2, 0.5, 0.1], [0.5, 2, 0.3], [0.1, 0.3, 2]]")
        spec = parse_model(f"dense:file={path}")
        assert np.array_equal(spec.covariance(2).entries, [[2.0, 0.5], [0.5, 2.0]])
        assert spec.covariance(3).n == 3
        with pytest.raises(InvalidSpec, match="n = 5 exceeds the dense file's size m = 3"):
            spec.covariance(5)

    def test_dense_file_not_square_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[2, 0.5, 0.1], [0.5, 2, 0.3]]")
        with pytest.raises(InvalidSpec, match="not a square matrix"):
            parse_model(f"dense:file={path}").covariance(2)

    def test_covariance_routes(self):
        C = parse_model("ma1:a=0.5").covariance(3)
        assert np.array_equal(C.entries, from_stationary([1.25, 0.5], 3).entries)
        H = parse_model("hilbert").covariance(3)
        assert H.entries[0, 0] == 0.5 and H.entries[0, 2] == 0.25
        with pytest.raises(InvalidSpec):
            parse_model("constant").covariance(3)

    def test_symbol_routes(self):
        assert parse_model("constant:value=2").symbol(64).d[0] == pytest.approx(2.0, abs=1e-14)
        with pytest.raises(InvalidSpec):
            parse_model("hilbert").symbol()


# r in [1.001, 8]: anywhere, at the integers, and within 10^[-10, -2] of them,
# where the two pole terms of the polylogarithm expansion nearly cancel.
CLAUSEN_ORDERS = st.one_of(
    st.floats(1.001, 8.0),
    st.integers(2, 8).map(float),
    st.builds(
        lambda k, sign, log_dist: k + sign * 10.0**log_dist,
        st.integers(2, 8),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-10.0, -2.0),
    ),
)


class TestClausenSeries:
    @settings(max_examples=300, deadline=None)
    @given(r=CLAUSEN_ORDERS, theta=st.floats(0.0, np.pi))
    def test_matches_mpmath_clcos(self, r, theta):
        with mpmath.workdps(30):
            expected = float(mpmath.clcos(r, theta))
        got = float(clausen_cos(r, np.array([theta]))[0])
        # max over theta of |C_r| is C_r(0) = zeta(r).
        assert abs(got - expected) <= 1e-11 * float(zeta(r))

    def test_even_order_is_the_bernoulli_polynomial(self):
        # DLMF 24.8: sum cos(m t)/m^2 = pi^2/6 - pi t/2 + t^2/4 on [0, 2 pi].
        t = np.linspace(0.0, np.pi, 1001)
        expected = np.pi**2 / 6 - np.pi * t / 2 + t**2 / 4
        assert np.abs(clausen_cos(2.0, t) - expected).max() <= 1e-14

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_continuous_across_odd_orders(self, n):
        t = np.linspace(0.0, np.pi, 257)
        at_n = clausen_cos(float(n), t)
        for eps in (-1e-9, 1e-9, 1e-12):
            assert np.abs(clausen_cos(n + eps, t) - at_n).max() <= 1e-8

    def test_symbol_is_twice_the_series_squared(self):
        sym = inverse_power_symbol(3.0, grid_size=64)
        t = grid_points(64)
        with mpmath.workdps(30):
            expected = np.array([(2.0 * float(mpmath.clcos(3.0, abs(x)))) ** 2 for x in t])
        assert np.abs(sym.grid - expected).max() <= 1e-12 * expected.max()


def cholesky_oracle(T: np.ndarray) -> tuple[float, float]:
    """(log det, smallest pivot) of T from numpy's Cholesky factor."""
    pivots = np.real(np.diag(np.linalg.cholesky(T))) ** 2
    return float(np.sum(np.log(pivots))), float(pivots.min())


def mp_levinson_log_det(row, dps: int = 40):
    """log det of the symmetric Toeplitz matrix with first row ``row``, in mpmath at dps digits."""
    with mpmath.workdps(dps):
        r = [mpmath.mpf(float(x)) for x in row]
        a = [mpmath.mpf(0)] * len(r)
        v = r[0]
        log_det = mpmath.log(v)
        for k in range(1, len(r)):
            kappa = -(r[k] + mpmath.fsum(a[i] * r[k - i] for i in range(1, k))) / v
            a = [a[i] + kappa * a[k - i] for i in range(k)] + [kappa] + a[k + 1 :]
            v *= 1 - kappa * kappa
            log_det += mpmath.log(v)
        return log_det


_STATIONARY_MODELS = st.one_of(
    st.just("identity"),
    st.floats(-0.95, 0.95).map(lambda a: f"ma1:a={a!r}"),
    st.floats(0.0, 0.9).map(lambda rho: f"equicorr:rho={rho!r}"),
    st.floats(1.0, 3.0).map(lambda r: f"inverse_power:r={r!r}"),
    st.sets(st.integers(1, 40), min_size=1, max_size=4).map(
        lambda s: "sparse:support=" + "+".join(map(str, sorted(s)))
    ),
)


class TestDurbinRecursion:
    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        n=st.integers(1, 512),
    )
    def test_moving_average_matches_cholesky(self, coeffs, n):
        gamma = MovingAverageSpec(np.arange(len(coeffs)), coeffs).autocovariance(n - 1)
        if gamma[0] < 1e-3:
            return
        T = toeplitz(gamma)
        if np.linalg.cond(T) > 1e8:
            return
        log_det, smallest = _levinson_durbin(gamma)
        ref_log_det, ref_smallest = cholesky_oracle(T)
        assert log_det == pytest.approx(ref_log_det, rel=1e-9, abs=1e-9)
        assert smallest == pytest.approx(ref_smallest, rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(model=_STATIONARY_MODELS, n=st.integers(1, 512))
    def test_stationary_families_match_cholesky(self, model, n):
        gamma = parse_model(model).gamma(n - 1)
        log_det, smallest = _levinson_durbin(gamma)
        ref_log_det, ref_smallest = cholesky_oracle(toeplitz(gamma))
        assert log_det == pytest.approx(ref_log_det, rel=1e-9, abs=1e-9)
        assert smallest == pytest.approx(ref_smallest, rel=1e-7)
        C = parse_model(model).covariance(n)
        assert C.log_det == log_det and C.gamma is not None

    @pytest.mark.parametrize("n", [1, 2, 5, 33, 200])
    def test_hermitian_rows_match_cholesky(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d[1:] /= np.arange(1, n)
        d[0] = np.abs(d[1:]).sum() * 2.0 + 1.0  # strictly diagonally dominant
        log_det, smallest = _levinson_durbin(d)
        ref_log_det, ref_smallest = cholesky_oracle(toeplitz(np.conj(d), d))
        assert log_det == pytest.approx(ref_log_det, rel=1e-12, abs=1e-12)
        assert smallest == pytest.approx(ref_smallest, rel=1e-12)

    def test_rank_one_rejected_by_reflection(self):
        with pytest.raises(np.linalg.LinAlgError, match="reflection coefficient"):
            _levinson_durbin(np.ones(3))
        with pytest.raises(NotPositiveDefinite):
            from_stationary([1.0, 1.0, 1.0], 3)

    def test_indefinite_equicorrelation_rejected(self):
        # 1 + 2 rho < 0: the 3-section has a negative eigenvalue.
        with pytest.raises(NotPositiveDefinite):
            parse_model("equicorr:rho=-0.6").covariance(3)
        parse_model("equicorr:rho=-0.4").covariance(3)

    def test_pivot_below_floor_rejected(self):
        # |kappa| < 1, but the second pivot 1 - (1 - 1e-13)^2 is about 2e-13.
        with pytest.raises(NotPositiveDefinite, match="pivot"):
            from_stationary([1.0, 1.0 - 1e-13], 2)
        from_stationary([1.0, 1.0 - 1e-5], 2)

    def test_sparse_against_40_digit_reference(self):
        # sparse:support=1+4 at n = 512 has cond about 1e7; the error bound
        # stated in _levinson_durbin's docstring is pinned here.
        gamma = parse_model("sparse:support=1+4").gamma(511)
        ref = float(mp_levinson_log_det(gamma))
        log_det, _ = _levinson_durbin(gamma)
        assert abs(log_det - ref) <= 1e-11 * abs(ref)


class TestLazyDenseForms:
    @pytest.mark.parametrize(
        "model",
        ["identity", "ma1:a=0.5", "equicorr:rho=0.3", "sparse:support=2+7+11", "inverse_power:r=1"],
    )
    @pytest.mark.parametrize("n", [1, 4, 64, 300])
    def test_entries_and_chol_are_the_dense_builders(self, model, n):
        C = parse_model(model).covariance(n)
        dense = build_dense(toeplitz(C.gamma))
        assert "entries" not in vars(C) and "chol" not in vars(C)
        assert np.array_equal(C.entries, dense.entries)
        assert np.array_equal(C.chol, dense.chol)
        assert np.array_equal(C.variances, dense.variances)
        assert np.array_equal(C.sigmas, dense.sigmas)
        assert C.n == dense.n == n
        assert C.log_det == pytest.approx(dense.log_det, rel=1e-10, abs=1e-12)
        assert not C.entries.flags.writeable and not C.chol.flags.writeable

    @pytest.mark.parametrize("model", ["ma1:a=0.5", "inverse_power:r=2"])
    def test_sampling_and_eb_inputs_keep_their_bytes(self, model):
        C = parse_model(model).covariance(48)
        dense = build_dense(toeplitz(C.gamma))
        assert np.array_equal(sample_gaussian(C, 500, 7), sample_gaussian(dense, 500, 7))
        p = 2.0 * decoupling_coefficient(dense)
        assert np.array_equal(matrix_B(C, p), matrix_B(dense, p))

    def test_immutable(self):
        C = from_stationary([1.0, 0.2], 3)
        with pytest.raises(AttributeError):
            C.log_det = 0.0
        with pytest.raises(AttributeError):
            C.gamma = None
        with pytest.raises(ValueError):
            C.gamma[0] = 2.0


class TestInversePowerSequence:
    @settings(max_examples=25, deadline=None)
    @given(
        r=st.floats(1.0, 4.0, exclude_min=True),
        max_lag=st.integers(0, 4096),
        draws=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_matches_per_lag_sums(self, r, max_lag, draws):
        seq = inverse_power_gamma_sequence(max_lag, r)
        lags = sorted({0, min(1, max_lag), max_lag} | {round(u * max_lag) for u in draws})
        oracle = np.array([inverse_power_gamma(h, r) for h in lags])
        assert np.all(np.abs(seq[lags] - oracle) <= 1e-12 * oracle)

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_longer_sequence_extends_shorter(self, r):
        long = inverse_power_gamma_sequence(4096, r)
        for max_lag in (0, 1, 255, 256, 257, 1000, 2047, 3000):
            assert np.array_equal(inverse_power_gamma_sequence(max_lag, r), long[: max_lag + 1])


def _durbin_loop(row):
    """The one-shot Durbin loop that _Durbin replaced, kept as its oracle."""
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


def _hermitian_row(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d[1:] /= np.arange(1, n)
    d[0] = np.abs(d[1:]).sum() * 2.0 + 1.0
    return d


class TestResumableDurbin:
    """Every prefix of one resumable recursion is the old loop on that prefix, bit for bit."""

    ROWS = {
        "ma1": lambda: parse_model("ma1:a=0.5").gamma(2047),
        "sparse": lambda: parse_model("sparse:support=1+4").gamma(2047),
        "inverse_power_1.5": lambda: parse_model("inverse_power:r=1.5").gamma(1023),
        "szego_ma1": lambda: ma1_symbol(0.313).d[:2048],
        "hermitian": lambda: _hermitian_row(300, 3),
        "szego_nonsymmetric": lambda: symbol_from_grid(
            2.0 + np.cos(grid_points(1024)) + 0.5 * np.sin(2.0 * grid_points(1024))
        ).d[:512],
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_prefixes_are_the_old_loop(self, name):
        row = self.ROWS[name]()
        durbin = _Durbin(row)
        sizes = sorted({1, 2, 3, 17, 64, 255, 256, 1000, row.size} & set(range(1, row.size + 1)))
        # Largest first, then the rest: a prefix does not depend on how far the run went.
        for n in sizes[::-1] + sizes:
            assert durbin.prefix(n) == _durbin_loop(row[:n])

    @pytest.mark.parametrize("rho", [-0.6, -0.07, -0.03])
    def test_failure_order_and_message(self, rho):
        # The k-section of equicorr has the eigenvalue 1 + (k-1) rho, so the
        # recursion fails at an order that grows as rho goes to 0.
        row = parse_model(f"equicorr:rho={rho}").gamma(59)
        durbin = _Durbin(row)
        failed = []
        for n in list(range(row.size, 0, -1)) + [1, row.size]:
            got, want = _outcome(durbin.prefix, n), _outcome(_durbin_loop, row[:n])
            assert got == want
            failed.append(isinstance(got, str))
        assert any(failed) and not all(failed)

    def test_shared_between_threads(self):
        # More threads than cores, switching often: each reads its prefix
        # while others extend the same recursion.
        row = parse_model("sparse:support=1+4").gamma(767)
        durbin = _Durbin(row)
        sizes = [int(k) for k in np.random.default_rng(5).integers(1, row.size + 1, 48)]
        got = {}

        def work(ns):
            for n in ns:
                got[n] = durbin.prefix(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(sizes[i::8],)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {n: _durbin_loop(row[:n]) for n in sizes}

    def test_leading_entry(self):
        with pytest.raises(np.linalg.LinAlgError, match="leading entry"):
            _Durbin(np.array([-1.0, 0.1]))

    def test_one_shot_call(self):
        row = parse_model("ma1:a=0.5").gamma(99)
        assert _levinson_durbin(row) == _durbin_loop(row)


def _outcome(fn, *args):
    """fn(*args), or the message of the LinAlgError it raises."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"


class TestMaxAsymmetry:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 300).filter(lambda n: n % 128 != 0 or n == 0),
        seed=st.integers(0, 2**32 - 1),
        skew=st.sampled_from([0.0, 1e-17, 1e-9, 1.0]),
    )
    def test_matches_full_temporaries(self, n, seed, skew):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((n, n))
        e = e + e.T + skew * rng.standard_normal((n, n))
        full = np.abs(e - e.T).max() if n else 0.0
        assert _max_asymmetry(e) == full

    def test_tile_edges(self):
        for n in (127, 128, 129, 257):
            e = np.eye(n)
            e[n - 1, 0] = 1e-3
            e[0, n - 1] = -2e-3
            assert _max_asymmetry(e) == np.abs(e - e.T).max() == 3e-3
