"""Decoupling coefficient and bound constants: oracles, sandwich, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from gaussdecoup import (
    ConditionViolated,
    NonFiniteInput,
    build_dense,
    corollary1_bound,
    decoupling_bound,
    decoupling_coefficient,
    from_stationary,
    inverse_power_gamma_sequence,
    parse_model,
    refined_constant,
    stationary_decoupling_coefficient,
    stationary_p_bounds,
    theorem1_constant,
    theorem1_log_constant,
)
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
    @pytest.mark.parametrize("gamma", [[1.0, np.inf], [1.0, np.nan], [np.nan, 1.0]])
    def test_nonfinite_gamma_rejected(self, gamma):
        with pytest.raises(NonFiniteInput):
            stationary_p_bounds(gamma, 2)

    def test_white_noise(self):
        assert stationary_p_bounds([1.0, 0.0, 0.0], 3) == (0.0, 0.0)
        p = stationary_decoupling_coefficient([1.0, 0.0, 0.0], 3)
        assert 0.0 <= p <= 1.0 + 0.0
        assert p == 1.0

    def test_two_by_two(self):
        s, two_s = stationary_p_bounds([1.0, 0.5], 2)
        assert (s, two_s) == (0.5, 1.0)
        assert decoupling_coefficient(from_stationary([1.0, 0.5], 2)) == 1.5 <= 1.0 + two_s

    def test_three_by_three_brute_force(self):
        gamma = [1.0, 0.4, 0.2]
        s, two_s = stationary_p_bounds(gamma, 3)
        assert (s, two_s) == pytest.approx((0.6, 1.2))
        # Brute-force row sums of the Toeplitz section: the middle row gives
        # (0.4 + 1 + 0.4)/1 = 1.8, inside [S, 1 + 2S].
        rows = np.abs(toeplitz(gamma)).sum(axis=1)
        p_true = rows.max()
        assert p_true == pytest.approx(1.8, abs=1e-15)
        assert stationary_decoupling_coefficient(gamma, 3) == pytest.approx(p_true)
        assert s <= p_true <= 1.0 + two_s

    def test_sandwich_over_random_summable_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            gamma = random_summable_gamma(rng)
            n = int(rng.integers(2, 26))
            s, two_s = stationary_p_bounds(gamma, n)
            p = stationary_decoupling_coefficient(gamma, n)
            assert s <= p + 1e-12
            assert p <= 1.0 + two_s + 1e-12
            # the first row alone forces the sharper lower bound 1 + S
            assert p >= 1.0 + s - 1e-12


class TestTheorem1Constant:
    def test_identity_p2(self):
        C = build_dense(np.eye(2))
        assert theorem1_constant(C, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_two_by_two_p3(self):
        # Direct linear-space evaluation of the formula as the second route.
        direct = 2.0 ** ((2 / 2) * (1 - 1 / 3)) * 1.0 / 0.75 ** (1 / 6)
        assert direct == pytest.approx(1.6653663553112088, rel=1e-13)
        assert theorem1_constant(C_half, 3.0) == pytest.approx(direct, rel=1e-12)

    def test_condition_violated(self):
        with pytest.raises(ConditionViolated) as excinfo:
            theorem1_constant(C_half, 2.5)  # p(X) = 1.5 needs p >= 3
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
            val = theorem1_constant(C, p)
            assert math.isfinite(val) and val > 0.0


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
        assert rb.value <= theorem1_constant(C_half, 3.0)

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


class TestCorollary1:
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
            expected = theorem1_constant(C, p) * float(np.prod(probs ** (1.0 / p)))
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
