"""Brascamp-Lieb constant optimization and the determinant lemma suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdecoup import (
    NotPositiveDefinite,
    build_dense,
    decoupling_coefficient,
    eb_objective,
    eb_optimize,
    from_stationary,
    matrix_B,
)
from gaussdecoup.covmodel import parse_model
from oracles import (
    detB_identity_check,
    gaussian_extremal_check,
    minkowski_check,
    ostrowski_bound,
    random_spd,
)

C_half = build_dense([[1.0, 0.5], [0.5, 1.0]])


def golden_section_max(f, lo, hi, tol=1e-13):
    """Independent 1-D maximizer over [lo, hi] (golden-section search)."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    while b - a > tol:
        if f(c) > f(d):
            b = d
        else:
            a = c
        c, d = b - gr * (b - a), a + gr * (b - a)
    return 0.5 * (a + b)


def scalar_eb_log(B, p):
    """Scalar-case E_B through golden-section search on log b."""
    phi = lambda u: (1.0 / (2 * p)) * u - 0.5 * math.log(B + math.exp(u))
    u_star = golden_section_max(phi, -25.0, 25.0)
    prefactor = 0.5 * (1 - 1 / p) * math.log(2 * math.pi) + (1 / (2 * p)) * math.log(p)
    return prefactor + phi(u_star), math.exp(u_star)


def fixed_point_eb(B, p, n_starts=8, max_iter=10_000, tol=1e-10, seed=0):
    """Slow oracle for the E_B supremum: best of several damped fixed points.

    Each start is log-uniform in [1e-3, 1e3]^n and iterates
    b <- b/2 + 1/(2 p diag((B + diag b)^{-1})) until the stationarity
    residual drops below ``tol``.  Returns (eb_log, b, residual) of the best.
    """
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_starts):
        b = 10.0 ** rng.uniform(-3.0, 3.0, size=B.shape[0])
        for _ in range(max_iter):
            inv_diag = np.diag(np.linalg.inv(B + np.diag(b)))
            residual = float(np.abs(1.0 / (2.0 * p * b) - 0.5 * inv_diag).max())
            if residual < tol:
                break
            b = 0.5 * b + 0.5 / (p * inv_diag)
        value = eb_objective(B, p, b)
        if best is None or value > best[0]:
            best = (value, b, residual)
    return best


def stationarity_residual(B, p, b):
    inv_diag = np.diag(np.linalg.inv(B + np.diag(b)))
    return float(np.abs(1.0 / (2.0 * p * b) - 0.5 * inv_diag).max())


def random_stationary_cov(rng, n):
    """PD Toeplitz from the autocovariance of a random moving average."""
    c = rng.standard_normal(rng.integers(1, 5))
    c[0] += 2.0
    gamma = np.correlate(c, c, mode="full")[c.size - 1 :]
    return from_stationary(gamma, n)


class TestMatrixB:
    def test_identity_p2(self):
        B = matrix_B(build_dense(np.eye(3)), 2.0)
        assert np.abs(B - 0.5 * np.eye(3)).max() < 1e-14

    def test_detB_two_by_two(self):
        lhs, rhs = detB_identity_check(C_half, 3.0)
        assert lhs == pytest.approx(math.log(5.0 / 9.0), rel=1e-12)
        assert rhs == pytest.approx(math.log(5.0 / 9.0), rel=1e-12)

    def test_low_p_strong_coupling_not_pd(self):
        # Dominance of p*I(var) - C holds for every p > p(X), so positive
        # definiteness can only fail below p(X): rho -> 1 with p = 1.5.
        C = build_dense([[1.0, 0.99], [0.99, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            matrix_B(C, 1.5)

    # Refused before 1/p is formed: p = 0 would divide by zero.
    @pytest.mark.parametrize("p", [0.0, -2.0, math.inf, math.nan])
    def test_needs_finite_positive_p(self, p):
        with pytest.raises(ValueError, match="finite p > 0"):
            matrix_B(build_dense(np.eye(2)), p)

    def test_pd_whenever_condition_holds(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            C = build_dense(random_spd(n, rng, log10_eig_range=(-1, 1)))
            p = 2.0 * decoupling_coefficient(C) + rng.uniform(0.0, 2.0)
            B = matrix_B(C, p)  # must not raise
            assert np.all(np.isfinite(B))

    def test_identity_sweep(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            C = build_dense(random_spd(n, rng, log10_eig_range=(-1, 1)))
            p = 2.0 * decoupling_coefficient(C) + rng.uniform(0.0, 2.0)
            lhs, rhs = detB_identity_check(C, p)
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))


class TestEbObjective:
    def test_scalar_value(self):
        # log[(2 pi)^{1/4} 2^{1/4} / sqrt(2)] = (1/4) log(4 pi) - (1/2) log 2
        expected = 0.25 * math.log(4.0 * math.pi) - 0.5 * math.log(2.0)
        assert eb_objective(np.eye(1), 2.0, [1.0]) == pytest.approx(expected, rel=1e-14)

    def test_vanishing_b_limit(self):
        mid = eb_objective(np.eye(2), 2.0, [1.0, 1.0])
        small = eb_objective(np.eye(2), 2.0, [1e-10, 1e-10])
        assert small < mid - 10.0

    def test_large_b_limit(self):
        mid = eb_objective(np.eye(2), 2.0, [1.0, 1.0])
        large = eb_objective(np.eye(2), 2.0, [1e10, 1e10])
        assert large < mid - 10.0

    def test_nonpositive_b_rejected(self):
        with pytest.raises(ValueError):
            eb_objective(np.eye(2), 2.0, [1.0, 0.0])

    # Refused before 1 - 1/p is formed: p = 0 would divide by zero.
    @pytest.mark.parametrize("p", [0.0, -2.0, math.inf, math.nan])
    def test_needs_finite_positive_p(self, p):
        with pytest.raises(ValueError, match="finite p > 0"):
            eb_objective(np.eye(2), p, [1.0, 1.0])


class TestEbOptimize:
    def test_isotropic_oracle(self):
        # B = beta I: separable, b* = beta/(p-1); at beta = 1/2, p = 2 the
        # optimum has det(B + diag(b)) = 1 and eb_log = (n/4) log(2 pi).
        n = 3
        prob = eb_optimize(0.5 * np.eye(n), 2.0)
        assert np.abs(prob.b_opt - 0.5).max() < 1e-8
        assert prob.eb_log == pytest.approx((n / 4.0) * math.log(2.0 * math.pi), rel=1e-10)
        assert prob.converged

    def test_scalar_golden_section_oracle(self):
        expected, b_star = scalar_eb_log(1.0, 2.0)
        prob = eb_optimize(np.eye(1), 2.0)
        assert prob.eb_log == pytest.approx(expected, abs=1e-8)
        assert prob.b_opt[0] == pytest.approx(b_star, abs=1e-6)
        assert prob.b_opt[0] == pytest.approx(1.0, abs=1e-8)  # analytic b* = B/(p-1)
        # frozen from the golden-section oracle
        assert prob.eb_log == pytest.approx(0.2861824714623500, abs=1e-10)

    @pytest.mark.parametrize("B,p", [(0.3, 2.0), (2.5, 3.0), (0.05, 1.5)])
    def test_scalar_cases_match_search(self, B, p):
        expected, _ = scalar_eb_log(B, p)
        prob = eb_optimize(B * np.eye(1), p)
        assert prob.eb_log == pytest.approx(expected, abs=1e-8)

    def test_upper_bound_sandwich_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            B = random_spd(n, rng, log10_eig_range=(-1.5, 1.5))
            p = 1.0 + rng.uniform(0.2, 3.0)
            prob = eb_optimize(B, p)
            assert prob.eb_log <= prob.upper_log + 1e-9
            assert np.all(prob.b_opt > 0)

    def test_sup_property_random_feasible_points(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            B = random_spd(n, rng, log10_eig_range=(-1, 1))
            p = 1.0 + rng.uniform(0.3, 2.5)
            prob = eb_optimize(B, p)
            for _ in range(10):
                b = 10.0 ** rng.uniform(-3, 3, size=n)
                assert eb_objective(B, p, b) <= prob.eb_log + 1e-9

    def test_stationarity_residual_when_converged(self):
        rng = np.random.default_rng(43)
        B = random_spd(4, rng)
        prob = eb_optimize(B, 2.5)
        if prob.converged:
            inv_diag = np.diag(np.linalg.inv(B + np.diag(prob.b_opt)))
            res = np.abs(1.0 / (2 * 2.5 * prob.b_opt) - 0.5 * inv_diag).max()
            assert res < 1e-9

    # NaN fails `p > 1` although it passes `p <= 1`.
    @pytest.mark.parametrize("p", [1.0, 0.5, math.nan])
    def test_needs_p_above_one(self, p):
        with pytest.raises(ValueError, match="needs p > 1"):
            eb_optimize(np.eye(2), p)

    def test_diagonal_start_is_exact(self):
        prob = eb_optimize(np.diag([0.5, 2.0, 7.0]), 2.5)
        assert prob.n_iter == 0 and prob.converged
        assert np.abs(prob.b_opt - np.array([0.5, 2.0, 7.0]) / 1.5).max() < 1e-14

    def test_near_one_exponent(self):
        # The fixed point crawls as p -> 1; Newton still converges quickly.
        B = random_spd(3, np.random.default_rng(44), log10_eig_range=(-1, 1))
        prob = eb_optimize(B, 1.02)
        assert prob.converged and prob.n_iter <= 15
        assert prob.eb_log >= fixed_point_eb(B, 1.02)[0] - 1e-12

    def test_ma1_n192_few_newton_steps(self):
        C = parse_model("ma1:a=0.5").covariance(192)
        p = 2.0 * decoupling_coefficient(C)
        prob = eb_optimize(matrix_B(C, p), p)
        assert prob.converged and prob.n_iter <= 10
        assert stationarity_residual(prob.B, p, prob.b_opt) < 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        p=st.floats(1.2, 4.0),
    )
    def test_matches_fixed_point_oracle(self, seed, n, p):
        B = random_spd(n, np.random.default_rng(seed), log10_eig_range=(-1.5, 1.5))
        prob = eb_optimize(B, p)
        oracle, _, _ = fixed_point_eb(B, p)
        assert prob.converged and prob.n_iter <= 15
        assert abs(prob.eb_log - oracle) <= 1e-9
        assert stationarity_residual(B, p, prob.b_opt) < 1e-9

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        p=st.floats(1.01, 11.0),
    )
    def test_ill_conditioned_never_below_oracle(self, seed, n, p):
        # Rounding may stall the residual short of tol here; the flag must
        # then say so, and the value must still reach the sup.
        B = random_spd(n, np.random.default_rng(seed), log10_eig_range=(-4.0, 4.0))
        prob = eb_optimize(B, p)
        oracle, _, _ = fixed_point_eb(B, p)
        assert prob.eb_log >= oracle - 1e-9
        assert prob.n_iter < 100
        if prob.converged:
            assert prob.residual < 1e-10


class TestEbUpperBound:
    def test_identity(self):
        for n, p in ((1, 2.0), (4, 3.0)):
            expected = (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0 * math.pi)
            assert eb_optimize(np.eye(n), p).upper_log == pytest.approx(expected, rel=1e-14)

    def test_scalar_exceeds_optimum(self):
        prob = eb_optimize(np.eye(1), 2.0)
        upper = prob.upper_log
        assert upper == pytest.approx(0.25 * math.log(2.0 * math.pi), rel=1e-14)
        assert prob.eb_log < upper

    def test_degenerate_B_blows_up(self):
        values = [eb_optimize(delta * np.eye(2), 2.0).upper_log for delta in (1e-2, 1e-6, 1e-10)]
        assert values[0] < values[1] < values[2]


class TestMinkowski:
    def test_equal_matrices(self):
        rng = np.random.default_rng(51)
        U = random_spd(4, rng)
        lhs, rhs = minkowski_check(U, U, 0.37)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_endpoint_lambdas(self):
        rng = np.random.default_rng(52)
        U, V = random_spd(3, rng), random_spd(3, rng)
        for lam in (0.0, 1.0):
            lhs, rhs = minkowski_check(U, V, lam)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_random_sweep_with_eigendecomposition_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            U, V = random_spd(n, rng), random_spd(n, rng)
            lam = float(rng.uniform(0.0, 1.0))
            lhs, rhs = minkowski_check(U, V, lam)
            assert lhs >= rhs - 1e-10
            # independent evaluation through eigenvalues
            lhs_eig = float(np.sum(np.log(np.linalg.eigvalsh(lam * U + (1 - lam) * V))))
            assert lhs == pytest.approx(lhs_eig, abs=1e-8 * max(1.0, abs(lhs)))

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError):
            minkowski_check(np.eye(2), np.eye(2), 1.5)


class TestOstrowski:
    def test_identity_equality(self):
        assert ostrowski_bound(np.eye(4)) == pytest.approx(0.0, abs=1e-15)

    def test_two_by_two(self):
        bound = ostrowski_bound([[2.0, 1.0], [1.0, 2.0]])
        assert bound == pytest.approx(0.0, abs=1e-15)  # product (2-1)(2-1) = 1
        assert bound <= math.log(3.0)

    def test_inapplicable_returns_none(self):
        assert ostrowski_bound([[1.0, 2.0], [2.0, 1.0]]) is None

    def test_dominant_sweep(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            A = rng.standard_normal((n, n))
            np.fill_diagonal(A, 0.0)
            dom = np.abs(A).sum(axis=1) * (1.0 + rng.uniform(0.05, 1.0, size=n)) + 0.1
            A = A + np.diag(dom)
            bound = ostrowski_bound(A)
            assert bound is not None
            sign, logdet = np.linalg.slogdet(A)
            assert sign == 1.0
            assert logdet >= bound - 1e-10

    def test_key_step_chain_on_stationary_models(self):
        # det(p I(var) - C) >= (p/2)^n prod var_i at p = 2 p(X).
        rng = np.random.default_rng(62)
        for _ in range(300):
            n = int(rng.integers(2, 11))
            C = random_stationary_cov(rng, n)
            p = 2.0 * decoupling_coefficient(C)
            shifted = p * np.diag(C.variances) - C.entries
            target = n * math.log(p / 2.0) + float(np.sum(np.log(C.variances)))
            bound = ostrowski_bound(shifted)
            assert bound is not None and bound >= target - 1e-9
            sign, logdet = np.linalg.slogdet(shifted)
            assert sign == 1.0 and logdet >= target - 1e-9


class TestGaussianExtremal:
    def test_scalar_two_paths(self):
        via_int, via_closed = gaussian_extremal_check(np.eye(1), 2.0, [1.0])
        # hand evaluation of both routes
        route1 = 0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(2.0)
        route1 -= (1.0 / 4.0) * math.log(2.0 * math.pi / 2.0)
        route2 = (
            0.25 * math.log(2.0 * math.pi)
            + 0.25 * math.log(2.0)
            - 0.5 * math.log(2.0)
        )
        assert route1 == pytest.approx(route2, abs=1e-15)
        assert via_int == pytest.approx(route1, abs=1e-13)
        assert via_int == pytest.approx(via_closed, abs=1e-12)

    def test_diagonal_case(self):
        via_int, via_closed = gaussian_extremal_check(np.eye(3), 2.0, np.ones(3))
        assert via_int == pytest.approx(via_closed, abs=1e-12)

    def test_random_sweep(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            B = random_spd(4, rng)
            p = 1.0 + rng.uniform(0.2, 3.0)
            b = 10.0 ** rng.uniform(-2, 2, size=4)
            via_int, via_closed = gaussian_extremal_check(B, p, b)
            assert via_int == pytest.approx(via_closed, abs=1e-12 * max(1.0, abs(via_int)))
