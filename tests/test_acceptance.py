"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances and frozen constants come from independent oracles
(tridiagonal recurrence, brute-force series, Cauchy determinant, golden
section search) and from pre-build scans of the closed forms.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gaussdecoup import (
    HilbertSpec,
    TestFunctionSpec,
    b_constant,
    build_dense,
    decoupling_coefficient,
    eb_optimize,
    from_stationary,
    geometric_mean,
    hilbert_covariance,
    inverse_power_gamma_sequence,
    ma1_symbol,
    stationary_decoupling_coefficient,
    stationary_exponent,
    szego_asymptote,
    verify_khatri_sidak,
    verify_kls,
    verify_theorem1,
)
from gaussdecoup.cli import main as cli_main
from oracles import (
    detB_identity_check,
    gaussian_extremal_check,
    minkowski_check,
    ostrowski_bound,
    random_spd,
    sample_gaussian,
)

ACCEPTANCE_SEED = 20260809


@contextmanager
def criterion(number: int, description: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < time_limit, f"criterion {number} took {elapsed:.1f}s > {time_limit}s"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")


def tridiag_det_sequence(d0, d1, n_max):
    dets = [1.0, d0]
    for _ in range(2, n_max + 1):
        dets.append(d0 * dets[-1] - d1 * d1 * dets[-2])
    return dets


def brute_inverse_power_gamma_r1(mu, terms):
    nu = np.arange(1, terms + 1, dtype=float)
    s1 = float(np.sum(1.0 / (nu * (nu + mu))))
    tail = lambda t: (1.0 / mu) * np.log((t + mu) / t)
    s1 += 0.5 * (tail(terms) + tail(terms + 1))
    s2 = 0.0
    if mu >= 2:
        m = np.arange(1, mu, dtype=float)
        s2 = float(np.sum(1.0 / (m * (mu - m))))
    return 2.0 * s1 + s2


# The verification grid of criterion 5/6: covariance model factories.
def _grid_models():
    models = [("identity", build_dense(np.eye(5)))]
    for rho in (0.3, 0.6, 0.9):
        models.append(
            (f"equicorr:{rho}", build_dense((1 - rho) * np.eye(5) + rho * np.ones((5, 5))))
        )
    for a in (0.3, 0.5, 0.8):
        models.append((f"ma1:{a}", from_stationary([1.0 + a * a, a], 5)))
    models.append(
        ("inverse_power:r=1", from_stationary(inverse_power_gamma_sequence(19, 1.0), 20))
    )
    models.append(("hilbert:8", hilbert_covariance(HilbertSpec(np.arange(1.0, 9.0)), 8)))
    return models


_GRID_FUNCTIONS = [
    ("indicator", TestFunctionSpec.indicator(1.0)),
    ("cosine", TestFunctionSpec.cosine(1.0)),
    ("bounded_poly", TestFunctionSpec.bounded_poly((0.4, 0.25, -0.05), clip=1.5)),
]


def test_criterion_1_szego_limit_ma1():
    with criterion(
        1,
        "MA(1) a=0.5: exact dets match the tridiagonal recurrence to 1e-10 "
        "(n <= 200); |ratio - 1| < 1e-5 at n = 50; b = 4/3, G = 1",
        time_limit=5.0,
    ):
        sym = ma1_symbol(0.5)
        oracle = tridiag_det_sequence(1.25, 0.5, 200)
        for n in range(1, 201):
            est = szego_asymptote(sym, n)
            assert math.exp(est.exact_log_det) == pytest.approx(oracle[n], rel=1e-10)
        est50 = szego_asymptote(sym, 50)
        assert abs(est50.ratio - 1.0) < 1e-5
        assert abs(b_constant(sym) - 4.0 / 3.0) <= 1e-8
        assert abs(geometric_mean(sym) - 1.0) <= 1e-10


def test_criterion_2_inverse_power_covariance():
    with criterion(
        2,
        "c_m = 1/|m| model: gamma(0) = pi^2/3 (1e-10); gamma(1) = 2, "
        "gamma(2) = 2.5 vs brute series (1e-12); closed form vs brute "
        "to 1e-10 for mu <= 1000",
        time_limit=5.0,
    ):
        closed = inverse_power_gamma_sequence(1000, 1.0)
        assert abs(closed[0] - np.pi**2 / 3.0) < 1e-10
        # midpoint-bracketed brute series, truncation error < 1e-12 at 1e6 terms
        assert abs(closed[1] - 2.0) < 1e-12
        assert abs(closed[2] - 2.5) < 1e-12
        assert abs(closed[1] - brute_inverse_power_gamma_r1(1, 10**6)) < 1e-12
        assert abs(closed[2] - brute_inverse_power_gamma_r1(2, 10**6)) < 1e-12
        for mu in range(1, 1001):
            brute = brute_inverse_power_gamma_r1(mu, 10**5)
            assert abs(closed[mu] - brute) < 1e-10


def test_criterion_3_p_growth_log_squared():
    with criterion(
        3,
        "p(X^n) <= 4 (log n)^2 + C log n for n in {1e2..1e5}, C = -12 frozen "
        "by the pre-build scan (scan max was -12.88; spec expected C <= 40)",
        time_limit=30.0,
    ):
        C_FROZEN = -12.0
        for n in (10**2, 10**3, 10**4, 10**5):
            gamma = inverse_power_gamma_sequence(n - 1, 1.0)
            p_x = stationary_decoupling_coefficient(gamma, n)
            assert p_x <= 4.0 * math.log(n) ** 2 + C_FROZEN * math.log(n)


def test_criterion_4_hilbert_linear_growth():
    with criterion(
        4,
        "Hilbert a = (1..n): p(X^n)/n inside [1.32, 1.40] for n = 10..320 "
        "(scan range [1.3375, 1.3848]); det at n = 3 equals 1/43200 (1e-12)",
        time_limit=10.0,
    ):
        c1_frozen, c2_frozen = 1.32, 1.40
        for n in (10, 20, 40, 80, 160, 320):
            a = np.arange(1.0, n + 1.0)
            entries = 1.0 / (a[:, None] + a[None, :])
            p_x = float((np.abs(entries).sum(axis=1) / np.diag(entries)).max())
            assert c1_frozen <= p_x / n <= c2_frozen
        C3 = hilbert_covariance(HilbertSpec(np.array([1.0, 2.0, 3.0])), 3)
        assert math.exp(C3.log_det) == pytest.approx(1.0 / 43200.0, rel=1e-12)


def test_criterion_5_theorem1_grid_zero_hard_fail():
    with criterion(
        5,
        "Theorem-1 verification grid (9 models x 3 function kinds x 3 "
        "exponents, N = 1e5): zero hard_fail",
        time_limit=180.0,
    ):
        hard_fails = []
        for mi, (mname, C) in enumerate(_grid_models()):
            p_x = decoupling_coefficient(C)
            for fi, (fname, f) in enumerate(_GRID_FUNCTIONS):
                for pi, p in enumerate((2.0 * p_x, 2.0 * p_x + 1.0, 4.0 * p_x)):
                    seed = ACCEPTANCE_SEED + 1000 * mi + 100 * fi + pi
                    report = verify_theorem1(C, p, [f] * C.n, 10**5, seed)
                    if report.verdict == "hard_fail":
                        hard_fails.append((mname, fname, p))
        assert hard_fails == []


def test_criterion_6_khatri_sidak_sandwich():
    with criterion(
        6,
        "Khatri-Sidak sandwich on every grid cell (3-sigma slack) and the "
        "stationary-exponent inequality on the summable models",
        time_limit=180.0,
    ):
        for mi, (mname, C) in enumerate(_grid_models()):
            p = max(2.0, 2.0 * decoupling_coefficient(C))
            ks = verify_khatri_sidak(
                C, np.ones(C.n), p, 10**5, ACCEPTANCE_SEED + mi
            )
            assert ks.lower.verdict == "pass", mname
            assert ks.upper.verdict == "pass", mname
        # summable-gamma models: full-sequence exponent inequality
        summable = [
            ("identity", np.array([1.0]), 5),
            ("ma1:0.3", np.array([1.09, 0.3]), 5),
            ("ma1:0.5", np.array([1.25, 0.5]), 5),
            ("ma1:0.8", np.array([1.64, 0.8]), 5),
            ("inverse_power:r=2", inverse_power_gamma_sequence(500, 2.0), 8),
        ]
        for si, (mname, gamma, n) in enumerate(summable):
            report = verify_kls(
                from_stationary(gamma, n), stationary_exponent(gamma),
                [TestFunctionSpec.indicator(1.0)] * n, 10**5, ACCEPTANCE_SEED + 77 + si,
            )
            assert report.verdict == "pass", mname


def test_criterion_7_brascamp_lieb_constant():
    with criterion(
        7,
        "E_B: optimizer <= upper bound (margin >= -1e-9) on 200 random (B,p); "
        "scalar case matches golden-section search to 1e-8; extremal-ratio "
        "two-path equality to 1e-12 on 100 instances",
        time_limit=60.0,
    ):
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            B = random_spd(n, rng, log10_eig_range=(-1.5, 1.5))
            p = 1.0 + float(rng.uniform(0.2, 3.0))
            prob = eb_optimize(B, p)
            assert prob.upper_log - prob.eb_log >= -1e-9

        def golden_max(f, lo, hi, tol=1e-13):
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

        for _ in range(10):
            B0 = float(10.0 ** rng.uniform(-1.5, 1.5))
            p = 1.0 + float(rng.uniform(0.2, 3.0))
            phi = lambda u: (1.0 / (2 * p)) * u - 0.5 * math.log(B0 + math.exp(u))
            u_star = golden_max(phi, -30.0, 30.0)
            oracle = (
                0.5 * (1 - 1 / p) * math.log(2 * math.pi)
                + (1 / (2 * p)) * math.log(p)
                + phi(u_star)
            )
            prob = eb_optimize(B0 * np.eye(1), p)
            assert prob.eb_log == pytest.approx(oracle, abs=1e-8)

        for _ in range(100):
            n = int(rng.integers(1, 6))
            B = random_spd(n, rng)
            p = 1.0 + float(rng.uniform(0.2, 3.0))
            b = 10.0 ** rng.uniform(-2, 2, size=n)
            lhs, rhs = gaussian_extremal_check(B, p, b)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_criterion_8_determinant_lemma_suite():
    with criterion(
        8,
        "Ostrowski and Minkowski property sweeps (1000 instances, n <= 12) "
        "with zero violations; det(B) factorization identity to 1e-8 on 1000",
        time_limit=60.0,
    ):
        rng = np.random.default_rng(ACCEPTANCE_SEED + 8)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            A = rng.standard_normal((n, n))
            np.fill_diagonal(A, 0.0)
            dom = np.abs(A).sum(axis=1) * (1.0 + rng.uniform(0.05, 1.0, size=n)) + 0.1
            A = A + np.diag(dom)
            bound = ostrowski_bound(A)
            sign, logdet = np.linalg.slogdet(A)
            assert bound is not None and sign == 1.0 and logdet >= bound - 1e-10
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            U, V = random_spd(n, rng), random_spd(n, rng)
            lhs, rhs = minkowski_check(U, V, float(rng.uniform(0.0, 1.0)))
            assert lhs >= rhs - 1e-10
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            C = build_dense(random_spd(n, rng, log10_eig_range=(-1, 1)))
            p = 2.0 * decoupling_coefficient(C) + float(rng.uniform(0.0, 2.0))
            lhs, rhs = detB_identity_check(C, p)
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))


def test_criterion_9_determinism(tmp_path):
    with criterion(
        9,
        "same seed: bitwise-identical lhs_mc and byte-identical report files",
        time_limit=60.0,
    ):
        C = from_stationary([1.25, 0.5], 6)
        fns = [TestFunctionSpec.indicator(1.0)] * 6
        r1 = verify_theorem1(C, 4.0, fns, 10**5, ACCEPTANCE_SEED)
        r2 = verify_theorem1(C, 4.0, fns, 10**5, ACCEPTANCE_SEED)
        assert r1.lhs_mc == r2.lhs_mc  # bitwise
        assert np.array_equal(
            sample_gaussian(C, 10**5, ACCEPTANCE_SEED),
            sample_gaussian(C, 10**5, ACCEPTANCE_SEED),
        )
        args = [
            "verify",
            "--model",
            "ma1:a=0.5",
            "--n",
            "4,6",
            "--samples",
            "20000",
            "--seed",
            str(ACCEPTANCE_SEED),
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
        records = json.loads(out1.with_suffix(".json").read_text())
        assert all(r["verdict"] == "pass" for r in records)
