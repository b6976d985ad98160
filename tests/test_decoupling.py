"""Decoupling coefficient and bound constants: oracles, sandwich, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.special import erf, erfc

from gaussdecoup import (
    ConditionViolated,
    CovarianceMatrix,
    HilbertSpec,
    MovingAverageSpec,
    NonFiniteInput,
    NotPositiveDefinite,
    build_dense,
    corollary1_bound,
    decoupling_bound,
    decoupling_coefficient,
    from_stationary,
    hilbert_covariance,
    inverse_power_gamma_sequence,
    parse_model,
    refined_constant,
    stationary_decoupling_coefficient,
    theorem1_log_constant,
)
from gaussdecoup.decoupling import _erf, _erfc
from gaussdecoup.verify import marginal_p_norm  # noqa: F401  (cross-module import sanity)
from oracles import random_spd

C_half = build_dense([[1.0, 0.5], [0.5, 1.0]])


def random_summable_gamma(rng, max_support=6):
    """Autocovariance of a random finite moving average (always PSD)."""
    c = rng.standard_normal(rng.integers(1, max_support + 1))
    c[0] += 2.0  # keep gamma(0) well away from zero
    full = np.correlate(c, c, mode="full")
    return full[c.size - 1 :]


class TestCoefficient:
    def test_identity(self):
        assert decoupling_coefficient(build_dense(np.eye(5))) == 1.0

    def test_two_by_two(self):
        assert decoupling_coefficient(C_half) == 1.5

    def test_diagonal_iff_one(self):
        C = build_dense(np.diag([1.0, 4.0, 0.25]))
        assert decoupling_coefficient(C) == 1.0
        C2 = build_dense([[1.0, 0.01], [0.01, 1.0]])
        assert decoupling_coefficient(C2) > 1.0

    def test_inverse_power_model_growth_bound(self):
        # p(X^100) stays below 4 (log n)^2 + C log n; the pre-build scan of
        # the closed form put (p - 4 log^2 n)/log n below -12.8, so C = -12
        # already has margin.
        n = 100
        gamma = inverse_power_gamma_sequence(n - 1, 1.0)
        v = stationary_decoupling_coefficient(gamma, n)
        assert v <= 4.0 * math.log(n) ** 2 - 12.0 * math.log(n)
        # and the prefix-sum route agrees exactly with the dense-matrix route
        dense = decoupling_coefficient(from_stationary(gamma, n))
        assert v == pytest.approx(dense, rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_uniform_rescaling_invariance(self, scale):
        rng = np.random.default_rng(5)
        A = random_spd(4, rng, log10_eig_range=(-0.5, 0.5))
        base = decoupling_coefficient(build_dense(A))
        scaled = decoupling_coefficient(build_dense(scale * scale * A))
        assert scaled == pytest.approx(base, rel=1e-12)


class TestStationaryBounds:
    """S = sum_{1<=h<=n-1} |gamma(h)|/gamma(0) brackets the n-section: S <= p(X) <= 1 + 2S."""

    @pytest.mark.parametrize("gamma", [[1.0, np.inf], [1.0, np.nan], [np.nan, 1.0]])
    def test_nonfinite_gamma_rejected(self, gamma):
        with pytest.raises(NonFiniteInput):
            stationary_decoupling_coefficient(gamma, 2)

    def test_white_noise(self):
        assert stationary_decoupling_coefficient([1.0, 0.0, 0.0], 3) == 1.0

    def test_two_by_two(self):
        gamma = np.array([1.0, 0.5])
        s = np.abs(gamma[1:2]).sum() / gamma[0]
        assert s == 0.5
        assert decoupling_coefficient(from_stationary(gamma, 2)) == 1.5 <= 1.0 + 2.0 * s

    def test_three_by_three_brute_force(self):
        gamma = np.array([1.0, 0.4, 0.2])
        s = np.abs(gamma[1:3]).sum() / gamma[0]
        assert s == pytest.approx(0.6)
        # Brute-force row sums of the Toeplitz section: the middle row gives
        # (0.4 + 1 + 0.4)/1 = 1.8, inside [S, 1 + 2S].
        rows = np.abs(toeplitz(gamma)).sum(axis=1)
        p_true = rows.max()
        assert p_true == pytest.approx(1.8, abs=1e-15)
        assert stationary_decoupling_coefficient(gamma, 3) == pytest.approx(p_true)
        assert s <= p_true <= 1.0 + 2.0 * s

    def test_sandwich_over_random_summable_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            gamma = random_summable_gamma(rng)
            n = int(rng.integers(2, 26))
            s = np.abs(gamma[1:n]).sum() / gamma[0]
            p = stationary_decoupling_coefficient(gamma, n)
            assert s <= p + 1e-12
            assert p <= 1.0 + 2.0 * s + 1e-12
            # the first row alone forces the sharper lower bound 1 + S
            assert p >= 1.0 + s - 1e-12


class TestTheorem1Constant:
    def test_identity_p2(self):
        C = build_dense(np.eye(2))
        assert math.exp(theorem1_log_constant(C, 2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_two_by_two_p3(self):
        # Direct linear-space evaluation of the formula as the second route.
        direct = 2.0 ** ((2 / 2) * (1 - 1 / 3)) * 1.0 / 0.75 ** (1 / 6)
        assert direct == pytest.approx(1.6653663553112088, rel=1e-13)
        assert math.exp(theorem1_log_constant(C_half, 3.0)) == pytest.approx(direct, rel=1e-12)

    def test_condition_violated(self):
        with pytest.raises(ConditionViolated) as excinfo:
            theorem1_log_constant(C_half, 2.5)  # p(X) = 1.5 needs p >= 3
        assert excinfo.value.p_x == 1.5

    def test_continuity_in_p(self):
        # Finite-difference smoothness: derivative estimates at two scales agree.
        p0 = 4.0
        for h in (1e-3,):
            d_coarse = (
                theorem1_log_constant(C_half, p0 + h) - theorem1_log_constant(C_half, p0 - h)
            ) / (2 * h)
            d_fine = (
                theorem1_log_constant(C_half, p0 + h / 10)
                - theorem1_log_constant(C_half, p0 - h / 10)
            ) / (2 * h / 10)
            assert d_coarse == pytest.approx(d_fine, rel=1e-4)

    def test_finite_positive_when_condition_holds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            C = build_dense(random_spd(5, rng, log10_eig_range=(-1, 1)))
            p = 2.0 * decoupling_coefficient(C) + rng.uniform(0.0, 2.0)
            val = math.exp(theorem1_log_constant(C, p))
            assert math.isfinite(val) and val > 0.0

    # NaN used to pass `p < 2 p(X)` and give a nan constant.
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_nonfinite_exponent_refused(self, p):
        with pytest.raises(ConditionViolated):
            theorem1_log_constant(C_half, p)


class TestRefinedConstant:
    def test_identity_attains_generic(self):
        C = build_dense(np.eye(2))
        rb = refined_constant(C, 2.0)
        assert rb.value == pytest.approx(math.sqrt(2.0), rel=1e-13)
        assert rb.tightness == pytest.approx(1.0, rel=1e-13)

    def test_two_by_two_p3(self):
        # det(3I - C) = 3.75; direct evaluation of the intermediate display.
        direct = 3.0 ** (1.0 * (1 - 1 / 3)) / (3.75 ** ((0.5) * (1 - 1 / 3)) * 0.75 ** (1 / 6))
        assert direct == pytest.approx(1.4046243837639927, rel=1e-13)
        rb = refined_constant(C_half, 3.0)
        assert rb.value == pytest.approx(direct, rel=1e-12)
        assert rb.value <= math.exp(theorem1_log_constant(C_half, 3.0))

    def test_refined_never_exceeds_generic_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            C = build_dense(random_spd(n, rng, log10_eig_range=(-1, 1)))
            p = 2.0 * decoupling_coefficient(C) + rng.uniform(0.0, 2.0)
            rb = refined_constant(C, p)
            assert rb.log_value <= rb.log_generic + 1e-9

    def test_refined_at_exact_condition_boundary(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            C = build_dense(random_spd(n, rng, log10_eig_range=(-1, 1)))
            p = 2.0 * decoupling_coefficient(C)
            rb = refined_constant(C, p)
            assert rb.log_value <= rb.log_generic + 1e-9


class TestStationaryRoutes:
    """The O(n) p(X) and the Durbin shifted determinant against dense oracles."""

    MODELS = [
        "ma1:a=0.5",
        "ma1:a=-0.8",
        "equicorr:rho=0.3",
        "sparse:support=1+4",
        "inverse_power:r=1",
        "inverse_power:r=1.5",
    ]

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_p_x_matches_dense_row_sums(self, model, n):
        C = parse_model(model).covariance(n)
        rows = np.abs(C.entries).sum(axis=1) / np.diag(C.entries)
        assert decoupling_coefficient(C) == pytest.approx(rows.max(), rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_refined_constant_at_auto2px_matches_dense_cholesky(self, model, n):
        C = parse_model(model).covariance(n)
        p = 2.0 * decoupling_coefficient(C)
        shifted = p * np.diag(np.diag(C.entries)) - C.entries
        log_det_shifted = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(shifted)))))
        log_det = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(C.entries)))))
        expected = (
            (n / 2.0) * (1.0 - 1.0 / p) * math.log(p)
            + 0.5 * n * math.log(C.entries[0, 0])
            - 0.5 * (1.0 - 1.0 / p) * log_det_shifted
            - log_det / (2.0 * p)
        )
        rb = refined_constant(C, p)
        assert rb.log_value == pytest.approx(expected, rel=1e-10, abs=1e-10)
        assert rb.log_value <= rb.log_generic + 1e-9

    def test_shifted_section_not_positive_definite(self):
        # p(X) = 2 for gamma = (1, 0.5): below p = 2 p(X) the shifted Toeplitz
        # section can fail; it is reported as the violated condition.
        C = from_stationary([1.0, 0.5], 64)
        with pytest.raises(ConditionViolated):
            refined_constant(C, 1.5)


class TestToeplitzForm:
    """p(X) and the Durbin shifted determinant of a stationary section against its dense copy."""

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        n=st.integers(1, 256),
        mult=st.sampled_from([2.0, 3.0]),
    )
    @example(coeffs=[1.0, 0.6, -0.3], n=3, mult=2.0)  # every lag of the section nonzero
    def test_random_moving_average(self, coeffs, n, mult):
        gamma = MovingAverageSpec(np.arange(len(coeffs)), coeffs).autocovariance(n - 1)
        if gamma[0] < 1e-3:
            return
        try:
            C = from_stationary(gamma, n)
        except NotPositiveDefinite:
            return  # a zero of high order in the symbol: the pivot floor refuses the section
        # The same matrix and log det, held dense: row sums and a Cholesky of p*I(var) - C.
        dense = CovarianceMatrix(C.log_det, entries=C.entries)
        p_x = decoupling_coefficient(C)
        p_x_dense = decoupling_coefficient(dense)
        assert p_x == pytest.approx(p_x_dense, rel=1e-12)
        p = mult * max(p_x, p_x_dense)  # above 2 p(X) for both, however they round
        toeplitz_form, dense_form = refined_constant(C, p), refined_constant(dense, p)
        assert toeplitz_form.log_value == pytest.approx(dense_form.log_value, rel=1e-10, abs=1e-10)
        assert toeplitz_form.log_generic == dense_form.log_generic


def _only_small_cholesky(mp: pytest.MonkeyPatch) -> None:
    """Make np.linalg.cholesky refuse every matrix larger than 64 x 64."""
    cholesky = np.linalg.cholesky

    def small(a):
        if a.shape[-1] > 64:
            raise AssertionError(f"O(n^3) Cholesky of a {a.shape} matrix")
        return cholesky(a)

    mp.setattr(np.linalg, "cholesky", small)


class TestCauchyRoute:
    """The low-rank determinant of p*I(var) - C for a Hilbert-type C against a dense Cholesky."""

    @staticmethod
    def _check(a, mult):
        C = hilbert_covariance(HilbertSpec(a), a.size)
        p = mult * decoupling_coefficient(C)
        # The same matrix and log det, held dense: refined_constant takes the Cholesky route.
        dense = refined_constant(CovarianceMatrix(C.log_det, entries=C.entries), p)
        with pytest.MonkeyPatch.context() as mp:
            _only_small_cholesky(mp)
            low_rank = refined_constant(C, p)
        assert low_rank.log_value == pytest.approx(dense.log_value, rel=1e-12)
        assert low_rank.log_generic == dense.log_generic
        assert low_rank.log_value <= low_rank.log_generic + 1e-12 * abs(low_rank.log_generic)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 256),
        a1=st.floats(0.01, 10.0),
        mult=st.sampled_from([2.0, 3.0]),
    )
    def test_random_increasing_sequence(self, seed, n, a1, mult):
        steps = np.random.default_rng(seed).uniform(0.05, 5.0, n - 1)
        self._check(a1 + np.concatenate([[0.0], np.cumsum(steps)]), mult)

    @pytest.mark.parametrize("mult", [2.0, 3.0])
    @pytest.mark.parametrize("n", [256, 2048])
    def test_hilbert_family(self, n, mult):
        self._check(np.arange(1.0, n + 1.0), mult)

    def test_spread_past_the_rank_cap_takes_the_dense_route(self):
        # a_k = 1.2^k spans 20 decades: the correlation has no rank-64 form.
        a = 1.2 ** np.arange(128)
        C = hilbert_covariance(HilbertSpec(a), a.size)
        p = 2.0 * decoupling_coefficient(C)
        dense = refined_constant(CovarianceMatrix(C.log_det, entries=C.entries), p)
        assert refined_constant(C, p).log_value == dense.log_value

    @pytest.mark.parametrize(
        "mult, message",
        [(0.01, "not positive definite"), (1.5, "violates p >= 2\\*p\\(X\\)")],
        ids=["not_pd", "pd"],
    )
    def test_below_twice_p_x_keeps_the_dense_outcomes(self, mult, message):
        # At p = 0.01 p(X) < 1 the diagonal p var - var is negative; at 1.5 p(X)
        # (above ||R|| <= p(X)) the matrix is positive definite and the hypothesis check refuses p.
        C = parse_model("hilbert").covariance(40)
        p = mult * decoupling_coefficient(C)
        dense = CovarianceMatrix(C.log_det, entries=C.entries)
        for matrix in (C, dense):
            with pytest.raises(ConditionViolated, match=message):
                refined_constant(matrix, p)


class TestCorollary1:
    # NaN used to pass `p < 2` and give inf.
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_nonfinite_exponent_refused(self, p):
        with pytest.raises(ConditionViolated):
            corollary1_bound(C_half, p, [1.0, 1.0])

    def test_scalar_case(self):
        C = build_dense([[1.0]])
        assert corollary1_bound(C, 2.0, [1.0]) == pytest.approx(0.982582687955506, rel=1e-12)

    def test_large_eps_diagonal_limit(self):
        C = build_dense(np.diag([1.0, 1.0, 1.0]))
        val = corollary1_bound(C, 2.0, [50.0, 50.0, 50.0])
        limit = 2.0 ** (3 / 2) * (1.0 / math.sqrt(2.0)) ** (3 / 2)
        assert val == pytest.approx(limit, rel=1e-12)
        assert val >= 1.0  # a probability bound that has not collapsed below 1

    def test_equals_theorem1_times_probability_product(self):
        from scipy.special import erf

        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            C = build_dense(random_spd(n, rng, log10_eig_range=(-0.5, 0.5)))
            p = max(2.0, 2.0 * decoupling_coefficient(C)) + 0.5
            eps = rng.uniform(0.2, 3.0, size=n)
            probs = erf(eps / (C.sigmas * math.sqrt(2.0)))
            expected = math.exp(theorem1_log_constant(C, p)) * float(np.prod(probs ** (1.0 / p)))
            assert corollary1_bound(C, p, eps) == pytest.approx(expected, rel=1e-12)

    def test_needs_p_at_least_two(self):
        C = build_dense(np.eye(2))
        with pytest.raises(ConditionViolated):
            corollary1_bound(C, 1.5, [1.0, 1.0])


class TestDecouplingBound:
    def test_valid_aggregate(self):
        bound = decoupling_bound(C_half, 3.0)
        assert bound.p_X == 1.5
        assert bound.valid
        assert bound.constant_generic == pytest.approx(1.6653663553112088, rel=1e-12)
        assert bound.constant_refined == pytest.approx(1.4046243837639927, rel=1e-12)
        assert bound.log_constant_refined <= bound.log_constant_generic

    def test_invalid_aggregate(self):
        bound = decoupling_bound(C_half, 2.0)
        assert not bound.valid
        assert bound.constant_generic is None
        assert bound.constant_refined is None

    def test_p_x_at_least_one_always(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            C = build_dense(random_spd(int(rng.integers(1, 9)), rng))
            assert decoupling_coefficient(C) >= 1.0


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise: identical float64 bits (so the sign of a zero counts), or both nan."""
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


def _erf_edges() -> np.ndarray:
    tiny = np.finfo(float).tiny
    points = [0.0, 1.0, 8.0, tiny, 5e-324, 1e-310, tiny / 3, 1e-300, 0.5, 2.0, 6.0, 27.3]
    points += [np.nextafter(v, d) for v in (1.0, 8.0) for d in (0.0, np.inf)]
    points += np.linspace(26.5, 27.3, 8001).tolist()  # erfc's underflow band, from 26.55
    points = np.array(points)
    return np.concatenate([points, -points, [np.inf, -np.inf, np.nan]])


class TestErfPort:
    """``_erf`` and ``_erfc`` are bit for bit scipy.special's (cephes ndtr.c)."""

    RANGES = {
        "unit": lambda rng, size: rng.uniform(-1.0, 1.0, size),
        "to_8": lambda rng, size: rng.uniform(-8.0, 8.0, size),
        "to_30": lambda rng, size: rng.uniform(-30.0, 30.0, size),
        "log_uniform": lambda rng, size: rng.choice([-1.0, 1.0], size)
        * 10.0 ** rng.uniform(-40.0, math.log10(30.0), size),
    }

    @pytest.mark.parametrize("port, reference", [(_erf, erf), (_erfc, erfc)], ids=["erf", "erfc"])
    @pytest.mark.parametrize("draw", list(RANGES.values()), ids=list(RANGES))
    def test_random_points(self, port, reference, draw):
        x = draw(np.random.default_rng(26), 10**6)
        got, want = port(x), reference(x)
        assert _same_bits(got, want).all(), x[~_same_bits(got, want)][:5]

    @pytest.mark.parametrize("port, reference", [(_erf, erf), (_erfc, erfc)], ids=["erf", "erfc"])
    def test_edges(self, port, reference):
        x = _erf_edges()
        got, want = port(x), reference(x)
        assert _same_bits(got, want).all(), x[~_same_bits(got, want)]

    def test_special_values(self):
        assert math.copysign(1.0, float(_erf(-0.0))) == -1.0
        assert float(_erf(0.0)) == 0.0 and math.copysign(1.0, float(_erf(0.0))) == 1.0
        assert _erf([np.inf, -np.inf]).tolist() == [1.0, -1.0]
        assert _erfc([np.inf, -np.inf, 26.7, -26.7]).tolist() == [0.0, 2.0, 0.0, 2.0]  # 26.7^2 > MAXLOG
        assert np.isnan(_erf(np.nan)) and np.isnan(_erfc(np.nan))

    def test_shapes(self):
        assert _erf(0.5).shape == () and _erfc(0.5).shape == ()
        assert _erf(np.ones((2, 3))).shape == (2, 3)
        assert _erfc(np.array([])).shape == (0,)
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert _same_bits(_erfc(x), erfc(x)).all()

