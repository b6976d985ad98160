"""Monte Carlo verification machinery: sampling, quadrature, reports."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import bdtr, bdtrc, erf

from gaussdecoup import (
    ConditionViolated,
    InvalidSpec,
    NonFiniteInput,
    TestFunctionSpec,
    build_dense,
    from_stationary,
    inverse_power_gamma_sequence,
    marginal_p_norm,
    stationary_exponent,
    verify_khatri_sidak,
    verify_kls,
    verify_theorem1,
)
from gaussdecoup import verify as verify_module
from gaussdecoup.cli import main
from oracles import (
    binomial_tail,
    hit_bound,
    joined_panels,
    sample_gaussian,
    stream_blocks,
    with_rhs,
)

SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

IND1 = TestFunctionSpec.indicator(1.0)
COS = TestFunctionSpec.cosine(0.7)
POLY = TestFunctionSpec.bounded_poly((0.4, 0.25, -0.05), clip=1.5)
GRIDF = TestFunctionSpec.from_grid((0.1, 0.9, 0.4, 0.9, 0.1), half_width=2.5)
ALL_KINDS = [
    IND1,
    TestFunctionSpec.shifted_indicator(0.5, 0.8),
    COS,
    POLY,
    GRIDF,
]


def _product_moments(C, functionals, n_samples, seed):
    """Mean, standard error and shift of each functional at one point, from one pass."""
    [moments] = verify_module.sweep_moments([(C, functionals)], n_samples, seed)
    return moments


class TestFunctionSpecs:
    def test_indicator_evaluates(self):
        f = TestFunctionSpec.indicator(1.0)
        out = f(np.array([-2.0, -1.0, 0.0, 0.5, 1.5]))
        assert np.array_equal(out, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_shifted_indicator_evaluates(self):
        f = TestFunctionSpec.shifted_indicator(1.0, 0.5)
        out = f(np.array([0.4, 0.6, 1.0, 1.6]))
        assert np.array_equal(out, [0.0, 1.0, 1.0, 0.0])

    def test_bounded_poly_clips(self):
        f = TestFunctionSpec.bounded_poly((0.0, 1.0), clip=0.5)  # f(x) = clip(x)
        out = f(np.array([-3.0, 0.2, 3.0]))
        assert np.array_equal(out, [-0.5, 0.2, 0.5])

    def test_bounded_poly_near_float_max(self):
        # Horner overflows on these: at 0.5 in its middle step, where p itself is
        # finite and negative. Under the suite's error::RuntimeWarning filter an
        # overflow warning would raise here.
        big = np.finfo(float).max
        c = (-0.9 * big, 0.7 * big, 0.9 * big)
        f = TestFunctionSpec.bounded_poly(c, clip=1e308)
        exact = [float(sum(mpmath.mpf(ci) * mpmath.mpf(x) ** i for i, ci in enumerate(c)))
                 for x in (0.5, 0.0)]
        assert f(np.array([0.5, 0.0, 2.0, -2.0, 1e200])).tolist() == [
            pytest.approx(exact[0], rel=1e-15), -1e308, 1e308, 1e308, 1e308
        ]
        g = TestFunctionSpec.bounded_poly((1e308, 1e308), clip=1e308)
        out = g(np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 3.0]))
        assert out.tolist() == [-1e308, -1e308, 0.0, 1e308, 1e308, 1e308]

    def test_grid_clamps_outside(self):
        f = TestFunctionSpec.from_grid((0.0, 1.0, 0.0), half_width=1.0)
        assert f(np.array([0.0]))[0] == 1.0
        assert f(np.array([5.0]))[0] == 0.0  # clamped to edge value

    def test_bad_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            TestFunctionSpec.indicator(-1.0)
        with pytest.raises(InvalidSpec):
            TestFunctionSpec(kind="mystery")
        with pytest.raises(InvalidSpec):
            TestFunctionSpec.bounded_poly((1.0,) * 6, clip=1.0)  # degree 5

    def test_json_round_trip(self):
        for f in ALL_KINDS:
            clone = TestFunctionSpec.from_json_dict(f.to_json_dict())
            assert clone == f
        assert [f.label() for f in ALL_KINDS] == [
            "indicator(1)",
            "shifted_indicator(0.5,0.8)",
            "cosine(0.7)",
            "bounded_poly(deg2,clip=1.5)",
            "grid(5pts,L=2.5)",
        ]
        assert [f.to_json_dict() for f in ALL_KINDS] == [
            {"kind": "indicator", "eps": 1.0},
            {"kind": "shifted_indicator", "eps": 0.8, "shift": 0.5},
            {"kind": "cosine", "omega": 0.7},
            {"kind": "bounded_poly", "clip": 1.5, "coeffs": [0.4, 0.25, -0.05]},
            {"kind": "grid", "half_width": 2.5, "values": [0.1, 0.9, 0.4, 0.9, 0.1]},
        ]

    def test_all_kinds_bounded(self):
        x = np.linspace(-50, 50, 10001)
        for f in ALL_KINDS:
            assert np.all(np.isfinite(f(x)))
            assert np.abs(f(x)).max() < 10.0


KINDS = verify_module.TEST_FUNCTION_KINDS
SPECS = {f.kind: f for f in ALL_KINDS}
_POSITIVE = st.one_of(st.integers(1, 50), st.floats(1e-3, 1e3))
# A valid JSON value of each parameter, whichever kind takes it.
PARAMETERS = {
    "eps": _POSITIVE,
    "shift": st.floats(-1e3, 1e3),
    "omega": st.floats(-1e3, 1e3),
    "coeffs": st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
    "clip": _POSITIVE,
    "values": st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
    "half_width": _POSITIVE,
}


@st.composite
def _kind_and_parameters(draw, foreign: bool):
    """A kind and JSON values of its own parameters and, if ``foreign``, one it does not take."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    names = list(KINDS[kind])
    if foreign:
        names.append(draw(st.sampled_from([name for name in PARAMETERS if name not in names])))
    return kind, {name: draw(PARAMETERS[name]) for name in names}


class TestKindTable:
    """TEST_FUNCTION_KINDS is the one declaration of each kind's parameters."""

    def test_table_covers_every_parameter_field(self):
        fields = {f.name for f in dataclasses.fields(TestFunctionSpec)} - {"kind"}
        assert set(PARAMETERS) == fields
        assert {name for names in KINDS.values() for name in names} == fields
        assert set(KINDS) == set(SPECS)

    @given(_kind_and_parameters(foreign=True))
    @settings(max_examples=60, deadline=None)
    def test_foreign_parameter_is_refused(self, tmp_path_factory, case):
        kind, params = case
        refusal = f"^{kind} takes {', '.join(KINDS[kind])}; got "
        args = {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}
        with pytest.raises(InvalidSpec, match=refusal):
            TestFunctionSpec(kind=kind, **args)
        with pytest.raises(InvalidSpec, match=refusal):
            TestFunctionSpec.from_json_dict({"kind": kind, **params})
        path = tmp_path_factory.mktemp("foreign") / "cfg.json"
        path.write_text(json.dumps({"functions": [{"kind": kind, **params}]}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--config", str(path), "--n", "2", "--samples", "1000"])
        assert code == 2 and out.getvalue() == ""
        assert re.match(f"config error: functions: {refusal[1:]}", err.getvalue())

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_missing_or_unknown_parameter_is_refused(self, kind):
        data = SPECS[kind].to_json_dict()
        with pytest.raises(InvalidSpec, match="unexpected keyword argument 'width'"):
            TestFunctionSpec.from_json_dict({**data, "width": 1.0})
        with pytest.raises(InvalidSpec, match=f"^{kind} takes .*; got "):
            TestFunctionSpec.from_json_dict({k: v for k, v in data.items() if k != KINDS[kind][0]})

    @given(_kind_and_parameters(foreign=False))
    @settings(max_examples=100, deadline=None)
    def test_valid_spec_round_trips(self, case):
        kind, params = case
        f = TestFunctionSpec.from_json_dict({"kind": kind, **params})
        data = f.to_json_dict()
        assert list(data) == ["kind", *KINDS[kind]]
        for clone in (
            TestFunctionSpec.from_json_dict(data),
            TestFunctionSpec.from_json_dict(json.loads(json.dumps(data))),
        ):
            assert clone == f and hash(clone) == hash(f)
            assert clone.label() == f.label()


class TestSampleGaussian:
    def test_identity_sample_covariance(self):
        C = build_dense(np.eye(3))
        x = sample_gaussian(C, 10**6, seed=2026)
        cov = x.T @ x / x.shape[0]
        dev = np.abs(cov - np.eye(3))
        off = dev[~np.eye(3, dtype=bool)]
        # CLT: off-diagonal std 1/sqrt(N), diagonal sqrt(2/N)
        assert off.max() < 0.004
        assert np.abs(np.diag(dev)).max() < 0.006

    def test_scalar_variance(self):
        C = build_dense([[4.0]])
        x = sample_gaussian(C, 10**6, seed=7)
        v = float(np.mean(x * x))
        assert abs(v - 4.0) < 0.023  # 4 * sigma^2 sqrt(2/N)

    def test_same_seed_bitwise_identical(self):
        C = build_dense([[1.0, 0.3], [0.3, 1.0]])
        a = sample_gaussian(C, 70_000, seed=99)
        b = sample_gaussian(C, 70_000, seed=99)
        assert np.array_equal(a, b)

    def test_streams_independent_of_total(self):
        # The first stream's rows do not depend on how many more follow.
        C = build_dense(np.eye(2))
        a = sample_gaussian(C, 70_000, seed=5)
        b = sample_gaussian(C, 140_000, seed=5)
        assert np.array_equal(a[:65_536], b[:65_536])

    def test_different_seeds_differ(self):
        C = build_dense(np.eye(2))
        assert not np.array_equal(
            sample_gaussian(C, 1000, seed=1), sample_gaussian(C, 1000, seed=2)
        )

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_refused(self, seed):
        # Masking to 64 bits would give 2**64 + 5 the draws of seed 5.
        with pytest.raises(ValueError, match="0 <= seed < 2\\*\\*64"):
            verify_module._stream_rng(seed, 0)
        C = build_dense(np.eye(2))
        with pytest.raises(ValueError):
            sample_gaussian(C, 1000, seed=seed)

    # Every sampling entry point reaches the one check in _stream_sizes
    # before numpy sees the count.
    @pytest.mark.parametrize("n_samples", [0, -5])
    @pytest.mark.parametrize(
        "call",
        [
            lambda C, m: sample_gaussian(C, m, 3),
            lambda C, m: verify_module.sweep_moments([(C, [([IND1] * 2, 1.0)])], m, 3),
            lambda C, m: verify_theorem1(C, 4.0, [IND1] * 2, m, 3),
            lambda C, m: verify_khatri_sidak(C, [1.0] * 2, 4.0, m, 3),
            lambda C, m: verify_kls([1.25, 0.5], 2, [IND1] * 2, m, 3),
        ],
        ids=["sample_gaussian", "sweep_moments", "theorem1", "khatri_sidak", "kls"],
    )
    def test_sample_count_below_one_refused(self, call, n_samples):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            call(from_stationary([1.25, 0.5], 2), n_samples)


class TestMarginalPNorm:
    def test_indicator_infinite_width(self):
        assert marginal_p_norm(TestFunctionSpec.indicator(1e3), 1.0, 2.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_indicator_one_sigma_p1(self):
        val = marginal_p_norm(TestFunctionSpec.indicator(1.3), 1.3, 1.0)
        assert val == pytest.approx(0.6826894921370859, rel=1e-12)

    def test_cosine_second_moment_identity(self):
        # E cos^2(w X) = (1 + e^{-2 w^2 s^2})/2 for X ~ N(0, s^2).
        w, s = 0.7, 1.3
        expected = math.sqrt(0.5 * (1.0 + math.exp(-2.0 * w * w * s * s)))
        assert marginal_p_norm(TestFunctionSpec.cosine(w), s, 2.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_shifted_indicator_closed_form(self):
        a, e, s = 0.5, 0.8, 1.2
        expected = 0.5 * (
            erf((a + e) / (s * math.sqrt(2))) - erf((a - e) / (s * math.sqrt(2)))
        )
        val = marginal_p_norm(TestFunctionSpec.shifted_indicator(a, e), s, 3.0)
        assert val == pytest.approx(expected ** (1.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("shift", [8.0, 10.0, -10.0, 3.0, -2.5])
    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_shifted_indicator_far_tail(self, shift, p):
        # erf(hi) - erf(lo) cancelled here: 2.2e-6 off at shift 8, and 0
        # instead of 1.1e-19 at shift 10.
        eps, sigma = 1.0, 1.0
        with mpmath.workdps(40):
            lo = mpmath.mpf(shift - eps) / (sigma * mpmath.sqrt(2))
            hi = mpmath.mpf(shift + eps) / (sigma * mpmath.sqrt(2))
            expected = float(((mpmath.erf(hi) - mpmath.erf(lo)) / 2) ** (1 / mpmath.mpf(p)))
        val = marginal_p_norm(TestFunctionSpec.shifted_indicator(shift, eps), sigma, p)
        assert val == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", [-3.0, -6.0, -8.0, -9.0, -10.0])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_constant_tails_far_from_the_mean(self, k, side):
        # The lower tail was 1/2 (1 + erf(x / sigma sqrt 2)) and the upper 1 minus
        # it: 1.3e-10 off at 6 sigma, 1.8 % at 8 and 0 from 9 on.
        sigma = 1.3
        x = k * sigma
        with mpmath.workdps(40):
            want = float(mpmath.ncdf(mpmath.mpf(x), 0, mpmath.mpf(sigma)))
        assert verify_module._lower_tail(x, sigma) == pytest.approx(want, rel=1e-13, abs=0.0)
        # _piecewise_moment's constant tails, with 0 between the knots.
        left, right = (1.0, 0.0) if side == "left" else (0.0, 1.0)
        moment = verify_module._piecewise_moment(np.zeros_like, [x, -x], sigma, 1.5, left, right)
        assert moment == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.kind)
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_quadrature_matches_monte_carlo(self, f, p):
        sigma = 1.1
        C = build_dense([[sigma * sigma]])
        x = sample_gaussian(C, 10**7, seed=314159)[:, 0]
        vals = np.abs(f(x)) ** p
        mc_moment = float(np.mean(vals))
        stderr = float(np.std(vals) / math.sqrt(x.size))
        quad_moment = marginal_p_norm(f, sigma, p) ** p
        assert abs(quad_moment - mc_moment) <= 4.0 * stderr

    @pytest.mark.parametrize("clip", [10.0, 1e3, 1e4, 1e5, 1e6])
    def test_clipped_identity_keeps_gaussian_mass(self, clip):
        # E|Z|^3 = 2 sqrt(2/pi); the clip moves it by far less than 1e-10.
        # One rule over the piece (0, clip) lost the mass from clip = 1e3 on.
        f = TestFunctionSpec.bounded_poly((0.0, 1.0), clip=clip)
        exact = (2.0 * math.sqrt(2.0 / math.pi)) ** (1.0 / 3.0)
        assert marginal_p_norm(f, 1.0, 3.0) == pytest.approx(exact, rel=1e-10)

    def test_invalid_arguments(self):
        # NaN fails every comparison: the checks are written to refuse it.
        for sigma in (-1.0, math.nan):
            with pytest.raises(ValueError, match="sigma must be positive"):
                marginal_p_norm(IND1, sigma, 2.0)
        for p in (0.5, math.nan):
            with pytest.raises(ValueError, match="p must be >= 1"):
                marginal_p_norm(IND1, 1.0, p)

    @pytest.mark.parametrize(
        "f",
        [
            TestFunctionSpec.from_grid((1e200, -1e200), 3.0),  # a tail's float power overflows
            TestFunctionSpec.bounded_poly((0.0, 1e200), clip=1e300),
            TestFunctionSpec.bounded_poly((1e308, 1e308), clip=1e308),  # knots at +-inf: NaN
        ],
        ids=["grid", "poly_clip", "poly_knots_at_inf"],
    )
    def test_non_finite_norm_is_refused(self, f):
        with pytest.raises(NonFiniteInput, match="not finite"):
            marginal_p_norm(f, 1.0, 3.6)


class TestVerifyTheorem1:
    def test_independent_indicators(self):
        C = build_dense(np.eye(3))
        report = verify_theorem1(C, 2.0, [IND1] * 3, 10**5, seed=11)
        assert report.verdict == "pass"
        exact = erf(1.0 / math.sqrt(2.0)) ** 3
        assert abs(report.lhs_mc - exact) <= 4.0 * report.lhs_stderr
        # constant 2^{(n/2)(1-1/p)} >= 1 and marginal^{1/p} >= marginal here
        assert report.rhs >= exact

    def test_ma1_section(self):
        gamma = [1.25, 0.5]
        C = from_stationary(gamma, 5)
        from gaussdecoup import decoupling_coefficient

        p = 2.0 * decoupling_coefficient(C)
        report = verify_theorem1(C, p, [IND1] * 5, 10**5, seed=12)
        assert report.verdict == "pass"

    def test_adversarial_tight_cell(self):
        C = build_dense(0.1 * np.eye(3) + 0.9 * np.ones((3, 3)))
        fns = [TestFunctionSpec.indicator(0.1)] * 3
        p = 2.0 * (1.0 + 2 * 0.9)
        report = verify_theorem1(C, p, fns, 10**5, seed=13)
        assert report.verdict == "pass"
        assert report.slack > 0

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidSpec):
            verify_theorem1(build_dense(np.eye(2)), 2.0, [IND1] * 3, 1000, 1)

    def test_condition_violated(self):
        C = build_dense([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ConditionViolated):
            verify_theorem1(C, 2.0, [IND1] * 2, 1000, 1)

    def test_determinism_bitwise(self):
        C = build_dense([[1.0, 0.4], [0.4, 1.0]])
        r1 = verify_theorem1(C, 3.0, [COS, POLY], 50_000, seed=777)
        r2 = verify_theorem1(C, 3.0, [COS, POLY], 50_000, seed=777)
        assert r1.lhs_mc == r2.lhs_mc and r1.to_json_dict() == r2.to_json_dict()

    def test_independence_sanity(self):
        # For diagonal C the product mean must match the product of marginal
        # means within combined noise.
        C = build_dense(np.diag([1.0, 4.0, 0.25]))
        fns = [IND1, COS, POLY]
        n_samples = 200_000
        [(mean, stderr, _)] = _product_moments(C, [(fns, 1.0)], n_samples, seed=99)
        x = sample_gaussian(C, n_samples, seed=99)
        marg_means = []
        marg_stderr = []
        for i, f in enumerate(fns):
            v = f(x[:, i])
            marg_means.append(float(np.mean(v)))
            marg_stderr.append(float(np.std(v) / math.sqrt(n_samples)))
        prod = float(np.prod(marg_means))
        combined = sum(
            se * abs(prod / m) for se, m in zip(marg_stderr, marg_means)
        ) + stderr
        assert abs(mean - prod) <= 4.0 * combined


class TestVerifyKhatriSidak:
    def test_identity_equality_case(self):
        C = build_dense(np.eye(4))
        ks = verify_khatri_sidak(C, np.ones(4), 2.0, 10**5, seed=21)
        assert ks.lower.verdict == "pass"
        assert ks.upper.verdict == "pass"
        # independence: the joint probability equals the product exactly
        assert abs(ks.lower.lhs_mc - ks.lower.rhs) <= 4.0 * ks.lower.lhs_stderr

    def test_correlated_2x2_with_quadrature_oracle(self):
        rho = 0.5
        C = build_dense([[1.0, rho], [rho, 1.0]])
        ks = verify_khatri_sidak(C, [1.0, 1.0], 2.0 * (1 + rho), 10**6, seed=22)
        assert ks.lower.verdict == "pass" and ks.upper.verdict == "pass"
        norm = 1.0 / (2.0 * math.pi * math.sqrt(1 - rho * rho))

        def density(y, x):
            q = (x * x - 2 * rho * x * y + y * y) / (1 - rho * rho)
            return norm * math.exp(-0.5 * q)

        prob, _ = dblquad(density, -1.0, 1.0, -1.0, 1.0, epsabs=1e-10)
        center = ks.upper.lhs_mc  # the MC estimate of P{sup <= 1}
        assert abs(center - prob) <= 4.0 * ks.upper.lhs_stderr

    def test_kls_form_upper_bound(self):
        gamma = np.array([1.25, 0.5])
        C = from_stationary(gamma / gamma[0], 5)
        p_kls = stationary_exponent(gamma)
        assert p_kls == pytest.approx(1.8)
        ks = verify_khatri_sidak(C, np.ones(5), 4.0, 10**5, seed=23, kls_exponent=p_kls)
        assert ks.kls_upper is not None
        assert ks.kls_upper.verdict == "pass"
        probs = erf(np.ones(5) / (C.sigmas * math.sqrt(2.0)))
        assert ks.kls_upper.rhs == pytest.approx(float(np.prod(probs ** (1 / p_kls))))

    def test_bad_eps_rejected(self):
        with pytest.raises(InvalidSpec):
            verify_khatri_sidak(build_dense(np.eye(2)), [1.0, -1.0], 2.0, 1000, 1)


    def test_zero_hits_pass_by_binomial_bound(self):
        # P(all |X_i| <= 1) is about 4e-12 at n = 64: no sample hits the box,
        # the stderr is 0 and z is -inf, but 1.3e-13 is far inside the exact
        # bound 1 - alpha^(1/N) on the hit probability.
        C = from_stationary([1.25, 0.5], 64)
        ks = verify_khatri_sidak(C, np.ones(64), 3.6, 20_000, seed=8)
        assert ks.lower.hits == 0 and ks.lower.rhs == 0.0 and ks.lower.lhs_stderr == 0.0
        assert ks.lower.z_score == -math.inf
        assert ks.lower.verdict == "pass" and ks.upper.verdict == "pass"
        assert "hits" not in ks.lower.to_json_dict()
        # The self-test path keeps the 3/6 standard-error rule.
        assert with_rhs(ks.lower, ks.lower.rhs).verdict == "hard_fail"

    def test_hit_verdicts_keep_the_bands(self):
        C = build_dense(np.eye(3))
        ks = verify_khatri_sidak(C, np.ones(3), 2.0, 20_000, seed=9)
        lower, upper, n = ks.lower, ks.upper, 20_000
        hit_report = verify_module._hit_report
        assert lower.hits == round(lower.rhs * n) and 0 < lower.hits < n
        assert lower.hits == upper.hits == round(upper.lhs_mc * n)
        # An exact side a few standard errors past the frequency lands in the
        # same band as under the normal rule.
        for k, verdict in ((2.0, "pass"), (4.5, "statistical_fail"), (8.0, "hard_fail")):
            lhs = lower.rhs + k * lower.lhs_stderr
            report = hit_report(
                lhs, lower.lhs_stderr, lower.rhs, n, 9, hits=lower.hits, estimate_is_lhs=False
            )
            assert report.verdict == verdict == with_rhs(report, report.rhs).verdict
            rhs = upper.lhs_mc - k * upper.lhs_stderr
            report = hit_report(
                upper.lhs_mc, upper.lhs_stderr, rhs, n, 9, hits=upper.hits, estimate_is_lhs=True
            )
            assert report.verdict == verdict

    def test_hit_bounds(self):
        alpha = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
        zero_hits = 1.0 - alpha ** (1 / 1000)
        assert hit_bound(0, 1000, alpha, upper=True) == pytest.approx(zero_hits, rel=1e-12)
        assert hit_bound(0, 1000, alpha, upper=False) == 0.0
        assert hit_bound(1000, 1000, alpha, upper=True) == 1.0
        # Clopper-Pearson bounds at k hits: P(Bin(N, hi) <= k) = alpha = P(Bin(N, lo) >= k).
        lo = hit_bound(7, 1000, alpha, upper=False)
        hi = hit_bound(7, 1000, alpha, upper=True)
        assert lo < 7 / 1000 < hi
        assert bdtr(7, 1000, hi) == pytest.approx(alpha, rel=1e-9)
        assert bdtrc(6, 1000, lo) == pytest.approx(alpha, rel=1e-9)


def _oracle_verdict(lhs, rhs, n, hits, estimate_is_lhs):
    """The hit verdict from the Clopper-Pearson bounds themselves (betaincinv)."""
    for alpha, verdict in (
        (verify_module._ALPHA_PASS, "pass"), (verify_module._ALPHA_HARD, "statistical_fail")
    ):
        if estimate_is_lhs:
            holds = hit_bound(hits, n, alpha, upper=False) <= rhs
        else:
            holds = lhs <= hit_bound(hits, n, alpha, upper=True)
        if holds:
            return verdict
    return "hard_fail"


@st.composite
def _binomial_point(draw):
    """(n, k, p) with k within 12 standard deviations of the mean n p."""
    n = draw(st.sampled_from([100, 1000, 10**5]))
    p = 10.0 ** draw(st.floats(-5.0, -1e-4))
    if draw(st.booleans()):
        p = 1.0 - p
    z = draw(st.floats(-12.0, 12.0))
    k = min(n, max(0, round(n * p + z * math.sqrt(n * p * (1.0 - p)))))
    return n, k, p


class TestBinomialVerdict:
    """The hit verdicts read a binomial tail, not the Clopper-Pearson bound."""

    @settings(max_examples=150, deadline=None)
    @given(point=_binomial_point(), at_least=st.booleans())
    @example(point=(100, 0, 0.3), at_least=False)
    @example(point=(100, 100, 0.3), at_least=True)
    @example(point=(10**5, 1, 2e-5), at_least=True)
    @example(point=(10**5, 50_000, 0.5), at_least=True)
    # A ratio of terms, or n p, below the float range.
    @example(point=(100, 3, 5e-324), at_least=False)
    @example(point=(100, 3, 5e-324), at_least=True)
    @example(point=(100, 97, 1.0 - 2.0**-53), at_least=False)
    def test_tail_matches_40_digit_sum(self, point, at_least):
        n, k, p = point
        got = verify_module._binomial_tail(n, k, p, at_least)
        assert got == pytest.approx(binomial_tail(n, k, p, at_least), rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(point=_binomial_point())
    def test_tail_matches_scipy(self, point):
        # bdtr and bdtrc normalise by lgamma(n + 1), so their own error grows
        # like n eps: 1.5e-12 at n = 1e3 and 3e-10 at n = 1e5 against the
        # 40-digit sum, where _binomial_tail stays within 1e-12.
        n, k, p = point
        rel = max(1e-12, 1e-14 * n)
        assert verify_module._binomial_tail(n, k, p, at_least=False) == pytest.approx(
            bdtr(k, n, p), rel=rel, abs=0.0
        )
        if k > 0:
            assert verify_module._binomial_tail(n, k, p, at_least=True) == pytest.approx(
                bdtrc(k - 1, n, p), rel=rel, abs=0.0
            )

    @settings(max_examples=600, deadline=None)
    @given(n=st.sampled_from([100, 1000, 10**5]), data=st.data())
    def test_verdict_is_the_oracle_bounds(self, n, data):
        hits = data.draw(st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(0, n)))
        estimate_is_lhs = data.draw(st.booleans())
        alpha = data.draw(
            st.sampled_from([verify_module._ALPHA_PASS, verify_module._ALPHA_HARD])
        )
        bound = hit_bound(hits, n, alpha, upper=not estimate_is_lhs)
        exact = data.draw(
            st.one_of(
                st.sampled_from([bound * (1 + 1e-6), bound * (1 - 1e-6)]),
                # An exact tie is a rounding coin flip on either route.
                st.floats(0.5, 1.5).filter(lambda f: abs(f - 1.0) >= 1e-6).map(lambda f: bound * f),
                st.sampled_from([0.0, -0.25, 1.0, 1.5, math.inf, math.nan]),
                st.floats(0.0, 1.0),
            )
        )
        lhs, rhs = (hits / n, exact) if estimate_is_lhs else (exact, hits / n)
        report = verify_module._hit_report(
            lhs, 0.01, rhs, n, 1, hits=hits, estimate_is_lhs=estimate_is_lhs
        )
        assert report.verdict == _oracle_verdict(lhs, rhs, n, hits, estimate_is_lhs)


class TestVerifyKls:
    def test_white_noise_equality(self):
        report = verify_kls([1.0], 4, [IND1] * 4, 10**5, seed=31)
        assert report.verdict == "pass"
        # p_KLS = 1 and nonnegative f: equality up to noise
        assert abs(report.lhs_mc - report.rhs) <= 4.0 * report.lhs_stderr

    def test_ma1_exponent(self):
        gamma = [1.25, 0.5]
        report = verify_kls(gamma, 5, [IND1] * 5, 10**5, seed=32)
        assert report.verdict == "pass"
        expected_rhs = marginal_p_norm(IND1, 1.0, 1.8) ** 5
        assert report.rhs == pytest.approx(expected_rhs, rel=1e-12)

    def test_exponent_is_two_sided(self):
        assert stationary_exponent([1.0]) == 1.0
        assert stationary_exponent([1.25, 0.5]) == pytest.approx(1.8, rel=1e-15)
        assert stationary_exponent([2.0, -0.5, 0.25]) == pytest.approx(1.75, rel=1e-15)
        # It bounds the top eigenvalue of every correlation section.
        c = np.array([1.0, 0.5, -0.3, 0.2])
        gamma = np.correlate(c, c, mode="full")[c.size - 1 :]
        for n in (2, 5, 40):
            C = from_stationary(gamma / gamma[0], n)
            assert np.linalg.eigvalsh(C.entries).max() <= stationary_exponent(gamma)
        with pytest.raises(ValueError):
            stationary_exponent([0.0, 1.0])

    @pytest.mark.parametrize("gamma", [[1.0, np.nan], [1.0, -np.inf], [np.inf, 1.0]])
    def test_exponent_refuses_nonfinite_gamma(self, gamma):
        with pytest.raises(NonFiniteInput):
            stationary_exponent(gamma)

    def test_exponent_refuses_overflowing_sum(self):
        # A finite gamma whose |gamma| sum overflows.
        with pytest.raises(NonFiniteInput, match="overflows"):
            stationary_exponent([1.0, 1e308, 1e308])

    def test_ma1_clipped_poly_counterexample(self):
        # The one-sided exponent 1.4 hard-failed here (z about -14).
        f = TestFunctionSpec.bounded_poly((1.0, 0.3), clip=2.0)
        report = verify_kls([1.25, 0.5], 5, [f] * 5, 10**5, seed=20260809)
        assert report.verdict == "pass"
        assert report.rhs == pytest.approx(marginal_p_norm(f, 1.0, 1.8) ** 5, rel=1e-12)
        one_sided = with_rhs(report, marginal_p_norm(f, 1.0, 1.4) ** 5)
        assert one_sided.verdict == "hard_fail"

    def test_inverse_power_r2_truncated(self):
        gamma = inverse_power_gamma_sequence(500, 2.0)
        report = verify_kls(gamma, 8, [IND1] * 8, 10**5, seed=33)
        assert report.verdict == "pass"


BIG = TestFunctionSpec.bounded_poly((1e6,), clip=1e6)


class TestProductOverflow:
    """Factors with sup|f| > 1 are scaled by powers of two inside the moments."""

    def test_sup_abs_per_kind(self):
        assert IND1.sup_abs() == 1.0 and COS.sup_abs() == 1.0
        assert POLY.sup_abs() == 1.5
        assert TestFunctionSpec.bounded_poly((0.25, 0.0), clip=3.0).sup_abs() == 0.25
        assert GRIDF.sup_abs() == 0.9

    def test_in_range_moments_match_plain_product(self):
        # |x_i| clipped at 1e6 over 64 coordinates: the static bound 1e6^64
        # overflows, the sample products (about 1e-15) do not.
        C = from_stationary([1.25, 0.5], 64)
        for clip in (1e6, 1e3):
            fns = [TestFunctionSpec.bounded_poly((0.0, 1.0), clip=clip)] * 64
            [(mean, stderr, shift)] = _product_moments(C, [(fns, 1.0)], 2000, seed=53)
            x = sample_gaussian(C, 2000, seed=53)
            g = np.prod(x, axis=1)
            assert shift == 0 and stderr > 0
            assert mean == pytest.approx(np.mean(g), rel=1e-12)
            assert stderr == pytest.approx(np.std(g) / math.sqrt(2000), rel=1e-9)
        report = verify_theorem1(C, 3.6, fns, 2000, seed=53)
        assert report.lhs_mc == abs(mean) and report.lhs_stderr == stderr

    def test_shift_is_exact(self):
        # f = 2^200 x: g = 2^600 x1 x2 x3, whose square overflows; the shifted
        # moments are those of x1 x2 x3 times an exact power of two.
        C = build_dense([[1.0, 0.4, 0.1], [0.4, 1.0, 0.4], [0.1, 0.4, 1.0]])
        big = [TestFunctionSpec.bounded_poly((0.0, 2.0**200), clip=2.0**210)] * 3
        unit = [TestFunctionSpec.bounded_poly((0.0, 1.0), clip=2.0**10)] * 3
        [(mean, stderr, shift)] = _product_moments(C, [(big, 1.0)], 20_000, seed=51)
        [(ref_mean, ref_stderr, ref_shift)] = _product_moments(C, [(unit, 1.0)], 20_000, seed=51)
        assert shift > 0 and ref_shift == 0 and ref_stderr > 0
        assert math.ldexp(mean, shift) == math.ldexp(ref_mean, 600)
        assert math.ldexp(stderr, shift) == math.ldexp(ref_stderr, 600)
        report = verify_theorem1(C, 4.0, big, 20_000, seed=51)
        assert report.lhs_mc == abs(math.ldexp(ref_mean, 600))
        assert report.lhs_stderr == math.ldexp(ref_stderr, 600)

    def test_rows_in_range_are_unchanged(self):
        C = build_dense([[1.0, 0.4], [0.4, 1.0]])
        report = verify_theorem1(C, 3.0, [POLY, BIG], 20_000, seed=52)
        [(mean, stderr, shift)] = _product_moments(C, [([POLY, BIG], 1.0)], 20_000, seed=52)
        assert shift == 0
        assert report.lhs_mc == abs(mean) and report.lhs_stderr == stderr
        assert report == with_rhs(report, report.rhs)

    def test_theorem1_constant_product_past_float_range(self):
        # prod f_i = 1e384: lhs and rhs saturate, the verdict does not.
        C = from_stationary([1.25, 0.5], 64)
        report = verify_theorem1(C, 3.6, [BIG] * 64, 1000, seed=20260809)
        assert report.lhs_mc == math.inf and report.rhs == math.inf
        assert report.verdict == "pass"
        assert math.isfinite(report.z_score) and report.z_score > 0

    def test_kls_constant_product_past_float_range(self):
        report = verify_kls([1.25, 0.5], 64, [BIG] * 64, 1000, seed=20260809)
        assert report.lhs_mc == math.inf and report.rhs == math.inf
        assert report.verdict == "pass"
        assert math.isfinite(report.z_score)


class TestVerdictMechanics:
    def test_bands(self):
        C = build_dense(np.eye(2))
        base = verify_theorem1(C, 2.0, [IND1] * 2, 20_000, seed=41)
        s = base.lhs_stderr
        assert s > 0
        assert with_rhs(base, base.lhs_mc).verdict == "pass"
        assert with_rhs(base, base.lhs_mc - 2.9 * s).verdict == "pass"
        assert with_rhs(base, base.lhs_mc - 4.0 * s).verdict == "statistical_fail"
        assert with_rhs(base, base.lhs_mc - 7.0 * s).verdict == "hard_fail"

    def test_report_fields_consistent(self):
        C = build_dense(np.eye(2))
        r = verify_theorem1(C, 2.0, [IND1] * 2, 20_000, seed=42)
        assert r.slack == pytest.approx(r.rhs - r.lhs_mc)
        assert r.z_score == pytest.approx(r.slack / r.lhs_stderr)
        assert r.n_samples == 20_000 and r.seed == 42


MIXED = [IND1, COS, POLY, GRIDF, TestFunctionSpec.shifted_indicator(0.5, 0.8)]


class TestOnePass:
    """All functionals of a verify point come from one sampling pass."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        a=st.floats(-0.9, 0.9),
        n=st.integers(1, 12),
        kinds=st.lists(st.sampled_from(MIXED), min_size=1, max_size=3),
        eps=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_separate_passes(self, a, n, kinds, eps, seed):
        gamma = np.array([1.0 + a * a, a])
        C = from_stationary(gamma, n)
        fns = [kinds[i % len(kinds)] for i in range(n)]
        box = [TestFunctionSpec.indicator(eps)] * n
        root = math.sqrt(gamma[0])
        samples = 3000
        functionals = [(fns, 1.0), (box, 1.0), (fns, root)]
        theorem1, ks, kls = _product_moments(C, functionals, samples, seed)
        assert [theorem1] == _product_moments(C, [(fns, 1.0)], samples, seed)
        assert [ks] == _product_moments(C, [(box, 1.0)], samples, seed)
        # The KLS section's own factor draws the same z through chol(T / gamma0).
        [ref] = _product_moments(from_stationary(gamma / gamma[0], n), [(fns, 1.0)], samples, seed)
        assert kls[2] == ref[2]
        assert kls[0] == pytest.approx(ref[0], rel=1e-12, abs=1e-300)
        assert kls[1] == pytest.approx(ref[1], rel=1e-12, abs=1e-300)
        # Standalone checks make one single-functional pass with the same bits.
        report = verify_kls(gamma, n, fns, samples, seed)
        assert report == verify_kls(gamma, n, fns, samples, seed, moments=kls)

    def test_marginal_norms_once_per_distinct_function(self, monkeypatch):
        calls = []
        norm = verify_module.marginal_p_norm

        def counted(f, sigma, p):
            calls.append((f, sigma, p))
            return norm(f, sigma, p)

        monkeypatch.setattr(verify_module, "marginal_p_norm", counted)
        C = from_stationary([1.25, 0.5], 12)
        fns = [MIXED[i % 3] for i in range(12)]
        verify_theorem1(C, 4.0, fns, 1000, seed=1)
        assert len(calls) == len(set(calls)) == 3
        calls.clear()
        verify_kls([1.25, 0.5], 12, fns, 1000, seed=1)
        assert len(calls) == len(set(calls)) == 3


def _row_major_moments(blocks, functionals, n_samples):
    """The row-major slow path: each (rows, n) stream block, f_i read as x[:, i]."""
    grows = [[f.sup_abs() > 1.0 for f in fns] for fns, _ in functionals]
    limit = (1023 - n_samples.bit_length()) // 2
    sums = [[] for _ in functionals]
    for x in blocks:
        x = x.copy()
        divisor = 1.0
        for (fns, d), grow, per_stream in zip(functionals, grows, sums):
            if d != divisor:
                x /= d / divisor
                divisor = d
            g = np.ones(len(x))
            exponent = None
            for i, f in enumerate(fns):
                g *= f(x[:, i])
                if grow[i]:
                    g, step = np.frexp(g)
                    exponent = step.astype(np.int64) if exponent is None else exponent + step
            shift = 0
            if exponent is not None:
                shift = max(0, int(exponent.max()) - limit)
                g = np.ldexp(g, exponent - shift)
            per_stream.append((np.sum(g), np.sum(g * g), shift))
    return [verify_module._combine_streams(per_stream, n_samples) for per_stream in sums]


GROWING = TestFunctionSpec.bounded_poly((0.5, 2.0), clip=3.0)


class TestCoordinateMajorBlocks:
    """Stream blocks are x = L Z^T, shape (n, rows); the row-major path is the oracle."""

    def test_blocks_are_contiguous_coordinate_rows(self):
        # Panels of w = _PANEL_ROWS columns, the last one taking the
        # remainder: a stream of 3 w + 1000 samples is 3 panels, the last one
        # w + 1000 wide, and one of 5 samples is 1.  They come in draw order:
        # the panel of columns a .. b of factor 0 (n = 2) reads the stream's
        # normals up to 2 b, that of factor 1 (n = 1) up to b; ties go to
        # factor 0.
        C = build_dense([[1.0, 0.3], [0.3, 1.0]])
        rows, cols = verify_module._STREAM_ROWS, verify_module._PANEL_ROWS
        factors = [C.chol, np.eye(1)]

        def panels(n_samples):
            return [
                (k, a, size, x.shape, x.flags.c_contiguous)
                for k, a, size, x in verify_module._stream_blocks(factors, n_samples, seed=3)
            ]

        def stream(size, edges):
            """The panels of one stream with these column edges, in draw order."""
            spans = list(itertools.pairwise(edges))
            order = sorted((b * (2 - k), k, a, b) for k in (0, 1) for a, b in spans)
            return [(k, a, size, (2 - k, b - a), True) for _, k, a, b in order]

        tail = 3 * cols + 1000
        full_edges = verify_module._panel_edges(rows)
        assert full_edges == list(range(0, rows + 1, cols))
        assert verify_module._panel_edges(tail) == [0, cols, 2 * cols, tail]
        full = stream(rows, full_edges)
        # Factor 1 starts, and ends its block right after factor 0's panel
        # that ends at column rows / 2, which reads as far.
        last_1 = full.index((1, rows - cols, rows, (1, cols), True))
        assert full[0][:2] == (1, 0) and full[last_1 - 1][:2] == (0, rows // 2 - cols)
        assert full[-1][:2] == (0, rows - cols)
        assert panels(rows + tail) == full + stream(tail, [0, cols, 2 * cols, tail])
        assert panels(5) == stream(5, [0, 5]) == [(1, 0, 5, (1, 5), True), (0, 0, 5, (2, 5), True)]

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        a=st.floats(-0.9, 0.9),
        n=st.integers(1, 40),
        n_samples=st.one_of(st.integers(1, 3000), st.integers(65_537, 70_000)),
        kinds=st.lists(st.sampled_from(MIXED + [GROWING, BIG]), min_size=1, max_size=3),
        divisor=st.floats(0.5, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(a=0.5, n=40, n_samples=70_001, kinds=[GROWING, COS], divisor=1.7, seed=11)
    @example(a=-0.3, n=40, n_samples=3001, kinds=[BIG], divisor=0.8, seed=5)  # shift > 0
    # Kept samples past 2^limit: a factor above 1 keeps the in-order frexp loop.
    @example(a=0.2, n=40, n_samples=3001, kinds=[BIG, BIG, BIG, IND1], divisor=1.0, seed=6)
    def test_matches_row_major_oracle(self, a, n, kinds, n_samples, divisor, seed):
        C = from_stationary([1.0 + a * a, a], n)
        L = C.chol
        fns = [kinds[i % len(kinds)] for i in range(n)]
        functionals = [(fns, 1.0), ([IND1] * n, 1.0), (fns, divisor)]
        x = sample_gaussian(C, n_samples, seed)
        assert x.shape == (n_samples, n)
        # Z L^T per stream, row-major; the GEMM's two operand orders may round
        # each dot product differently, within twice the bound gamma_n |Z||L|^T.
        sizes = verify_module._stream_sizes(n_samples)
        zs = [
            verify_module._stream_rng(seed, stream).standard_normal((size, n))
            for stream, size in enumerate(sizes)
        ]
        ref_x = np.vstack([z @ L.T for z in zs])
        unit = np.finfo(float).eps / 2
        gamma_n = n * unit / (1 - n * unit)
        bound = 2 * gamma_n * np.vstack([np.abs(z) @ np.abs(L).T for z in zs])
        assert np.all(np.abs(x - ref_x) <= bound)
        # On the same draws, the per-column loop gives every moment bit for bit.
        blocks = np.split(x, np.cumsum(sizes)[:-1])
        assert _product_moments(C, functionals, n_samples, seed) == _row_major_moments(
            blocks, functionals, n_samples
        )


class TestOnePassPerCall:
    """One Philox draw per stream serves every n of a call."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 3000),
        n=st.integers(1, 40),
        extra=st.integers(0, 100),
        seed=st.integers(0, 2**32 - 1),
        stream=st.integers(0, 3),
    )
    @example(rows=verify_module._STREAM_ROWS, n=16, extra=112, seed=101, stream=0)
    def test_normals_are_prefixes(self, rows, n, extra, seed, stream):
        # Sharing one draw across n rests on this numpy behaviour.
        flat = verify_module._stream_rng(seed, stream).standard_normal(rows * (n + extra))
        block = verify_module._stream_rng(seed, stream).standard_normal((rows, n))
        assert flat[: rows * n].reshape(rows, n).tobytes() == block.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        total=st.integers(1, 20_000),
        cuts=st.lists(st.integers(0, 20_000), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        stream=st.integers(0, 3),
    )
    @example(total=65_536 * 16, cuts=[12_345, 1 << 19], seed=101, stream=0)
    @example(total=34_464 * 128, cuts=[1 << 20, 2 << 20, 3 << 20, 4 << 20], seed=7, stream=1)
    @example(total=777 * 40, cuts=[777, 777], seed=3, stream=2)
    def test_chunked_draws_are_one_draw(self, total, cuts, seed, stream):
        # The drawing thread fills a stream in out= chunks; that rests on this.
        whole = verify_module._stream_rng(seed, stream).standard_normal(total)
        gen = verify_module._stream_rng(seed, stream)
        z = np.empty(total)
        edges = [0, *sorted(min(c, total) for c in cuts), total]
        for a, b in zip(edges, edges[1:]):
            gen.standard_normal(out=z[a:b])
        assert z.tobytes() == whole.tobytes()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        a=st.floats(-0.9, 0.9),
        ns=st.lists(st.integers(1, 24), min_size=1, max_size=4),
        kinds=st.lists(st.sampled_from(MIXED + [GROWING]), min_size=1, max_size=3),
        n_samples=st.one_of(st.integers(1, 2000), st.integers(65_537, 66_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sweep_matches_one_point_passes(self, a, ns, kinds, n_samples, seed):
        gamma = [1.0 + a * a, a]
        points = []
        for n in ns:
            fns = [kinds[i % len(kinds)] for i in range(n)]
            points.append((from_stationary(gamma, n), [(fns, 1.0), ([IND1] * n, 1.0), (fns, 1.3)]))
        swept = verify_module.sweep_moments(points, n_samples, seed)
        assert swept == [_product_moments(C, fs, n_samples, seed) for C, fs in points]


def _no_draws(seed, stream):
    raise AssertionError(f"stream {stream} drawn")


class TestSweepMomentsRefusals:
    """A functional is checked against its point before any stream is drawn."""

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_one_function_per_coordinate(self, k, monkeypatch):
        monkeypatch.setattr(verify_module, "_stream_rng", _no_draws)
        C = from_stationary([1.25, 0.5], 4)
        good = ([COS] * 4, 1.0)
        with pytest.raises(InvalidSpec, match=f"need one test function per coordinate: {k} != 4"):
            verify_module.sweep_moments([(C, [good]), (C, [good, ([COS] * k, 1.0)])], 2000, 1)

    @pytest.mark.parametrize("divisor", [0.0, -1.0, math.inf, math.nan])
    def test_divisor_finite_and_positive(self, divisor, monkeypatch):
        monkeypatch.setattr(verify_module, "_stream_rng", _no_draws)
        C = from_stationary([1.25, 0.5], 4)
        with pytest.raises(InvalidSpec, match="divisor must be finite and > 0"):
            verify_module.sweep_moments([(C, [([COS] * 4, divisor)])], 2000, 1)


C4 = from_stationary([1.25, 0.5], 4)
# Each library entry point that takes a sample count and a seed.
SAMPLING_CALLS = {
    "sweep_moments": lambda n_samples, seed: verify_module.sweep_moments(
        [(C4, [([COS] * 4, 1.0)])], n_samples, seed
    ),
    "theorem1": lambda n_samples, seed: verify_theorem1(C4, 4.0, [COS] * 4, n_samples, seed),
    "theorem1_moments": lambda n_samples, seed: verify_theorem1(
        C4, 4.0, [COS] * 4, n_samples, seed, moments=(0.5, 0.01, 0)
    ),
    "khatri_sidak": lambda n_samples, seed: verify_khatri_sidak(
        C4, [1.0] * 4, 4.0, n_samples, seed
    ),
    "kls": lambda n_samples, seed: verify_kls([1.25, 0.5], 4, [COS] * 4, n_samples, seed),
}


class TestSampleCountAndSeed:
    """The library takes a sample count and a seed as integers, numpy's too."""

    @pytest.mark.parametrize("call", SAMPLING_CALLS)
    def test_numpy_integers(self, call):
        result = SAMPLING_CALLS[call](np.int64(1000), np.uint64(3))
        assert result == SAMPLING_CALLS[call](1000, 3)
        if isinstance(result, verify_module.KhatriSidakReports):
            reports = [result.lower, result.upper]
        else:
            reports = [result] if isinstance(result, verify_module.VerificationReport) else []
        for report in reports:
            assert (type(report.n_samples), type(report.seed)) == (int, int)
            assert report.to_json_dict()["n_samples"] == 1000

    @pytest.mark.parametrize("call", SAMPLING_CALLS)
    @pytest.mark.parametrize(
        "n_samples, seed, name",
        [
            (1000.0, 3, "n_samples"),
            (True, 3, "n_samples"),
            (np.float64(1000.0), 3, "n_samples"),
            (1000, 3.0, "seed"),
            (1000, 3.7, "seed"),
            (1000, False, "seed"),
            (1000, "3", "seed"),
        ],
    )
    def test_refused_before_any_draw(self, call, n_samples, seed, name, monkeypatch):
        # These used to raise AttributeError or a TypeError from list
        # multiplication, run one sample for True, or echo or truncate a
        # float seed.
        monkeypatch.setattr(verify_module, "_stream_rng", _no_draws)
        value = n_samples if name == "n_samples" else seed
        with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            SAMPLING_CALLS[call](n_samples, seed)


def _drawing_threads():
    return [t for t in threading.enumerate() if t.name.startswith(verify_module._DRAW_THREAD)]


def _factors(ns):
    # Equicorrelation factors are dense: a GEMM split that rounds differently shows.
    return [from_stationary([1.0] + [0.5] * (n - 1), n).chol for n in ns]


class _BrokenDraw(RuntimeError):
    pass


def _second_stream_breaks(seed, stream, *, stream_rng=verify_module._stream_rng):
    """A _stream_rng whose stream 1 raises inside its draw."""
    gen = stream_rng(seed, stream)
    if stream != 1:
        return gen

    class Broken:
        def standard_normal(self, size=None, *, out=None):
            raise _BrokenDraw(f"stream {stream} failed")

    return Broken()


class TestDrawingThread:
    """A helper thread draws the normals; the blocks are the serial loop's."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        ns=st.lists(st.integers(1, 48), min_size=1, max_size=3),
        streams=st.integers(1, 3),
        tail=st.integers(1, 3000),
        chunk=st.sampled_from([997, 4093, 65_537, verify_module._DRAW_CHUNK]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(ns=[40, 5], streams=3, tail=777, chunk=verify_module._DRAW_CHUNK, seed=101)
    @example(ns=[5, 40, 17], streams=2, tail=34_464, chunk=verify_module._DRAW_CHUNK, seed=11)
    # The montecarlo benchmark's shape: sixteen panels per full stream at n = 128.
    @example(ns=[16, 64, 128], streams=2, tail=34_464, chunk=verify_module._DRAW_CHUNK, seed=7)
    # Widths that are no power of two: panels straddle the ring's end, which
    # the pass wraps eight times.
    @example(ns=[5, 40, 100, 257], streams=2, tail=34_464, chunk=verify_module._DRAW_CHUNK, seed=3)
    def test_blocks_match_the_serial_loop(self, ns, streams, tail, chunk, seed):
        n_samples = (streams - 1) * verify_module._STREAM_ROWS + tail
        factors = _factors(ns)
        with mock.patch.object(verify_module, "_DRAW_CHUNK", chunk):
            threaded = joined_panels(verify_module._stream_blocks(factors, n_samples, seed))
            serial = stream_blocks(factors, n_samples, seed)
            count = 0
            for (k, x), (k_ref, x_ref) in zip(threaded, serial, strict=True):
                assert (k, x.tobytes()) == (k_ref, x_ref.tobytes())
                count += 1
        assert count == streams * len(ns)
        assert not _drawing_threads()

    def test_no_one_column_tail_panel(self):
        # _PANEL_ROWS + 1 samples are one panel: numpy would send a 1-column
        # tail to GEMV, which rounds differently from GEMM at n >= 511.
        factors, n_samples = _factors([512]), verify_module._PANEL_ROWS + 1
        panels = list(verify_module._stream_blocks(factors, n_samples, 3))
        assert [(k, a, size, x.shape) for k, a, size, x in panels] == [
            (0, 0, n_samples, (512, n_samples))
        ]
        serial = stream_blocks(factors, n_samples, 3)
        for (k, x), (k_ref, x_ref) in zip(joined_panels(panels), serial, strict=True):
            assert (k, x.tobytes()) == (k_ref, x_ref.tobytes())

    def test_next_stream_is_drawn_during_the_last_gemms(self):
        # Every fill submitted and every GEMM panel made, in one list, on the
        # calling thread, with each panel's yield.
        events, streams = [], {}
        real_stream_rng = verify_module._stream_rng

        def stream_rng(seed, stream):
            gen = real_stream_rng(seed, stream)
            streams[gen] = stream
            return gen

        class RecordingExecutor(verify_module.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                out = kwargs["out"]
                events.append(("fill", streams[fn.__self__], out.ctypes.data, out.size))
                return super().submit(fn, *args, **kwargs)

        matmul = np.matmul

        def recording_matmul(*args, **kwargs):
            events.append(("gemm",))
            return matmul(*args, **kwargs)

        ns, rows = [16, 128], verify_module._STREAM_ROWS
        width = max(ns)
        with (
            mock.patch.object(verify_module, "_stream_rng", stream_rng),
            mock.patch.object(verify_module, "ThreadPoolExecutor", RecordingExecutor),
            mock.patch.object(np, "matmul", recording_matmul),
        ):
            for k, a, size, x in verify_module._stream_blocks(_factors(ns), 2 * rows, 7):
                events.append(("panel", k, a, x.shape[1]))
        # The ring: one panel span plus a lead of two chunks, in normals.
        span = width * verify_module._PANEL_ROWS
        ring = span + max(2 * verify_module._DRAW_CHUNK, span)
        assert 2 * rows * width > 2 * ring  # the pass wraps the ring twice
        # The fills come in offset order, each where the one before ended,
        # modulo the ring: offset t of the pass is at ring position t % ring.
        fills = [(i, e[1:]) for i, e in enumerate(events) if e[0] == "fill"]
        offset, base = 0, fills[0][1][1]
        for _, (stream, address, size) in fills:
            assert stream == offset // (rows * width)
            assert address == base + 8 * (offset % ring) and offset % ring + size <= ring
            offset += size
        assert offset == 2 * rows * width
        # Each panel reads offsets stream * rows * width + a n .. (a + cols) n.
        gemms = [i for i, e in enumerate(events) if e[0] == "gemm"]
        panels = [e[1:] for e in events if e[0] == "panel"]
        assert len(gemms) == len(panels) == 2 * 2 * rows // verify_module._PANEL_ROWS
        reads, stream_of = [], {}
        for gemm, (k, a, cols) in zip(gemms, panels):
            stream = stream_of[k] = stream_of.get(k, -1) + (a == 0)
            start = stream * rows * width + a * ns[k]
            reads.append((gemm, stream, start, start + cols * ns[k]))
        # No fill is submitted while a panel still to come reads the values
        # it overwrites, those one ring before its own.
        offset = 0
        for i, (_, _, size) in fills:
            for _, _, start, end in (r for r in reads if r[0] > i):
                assert end <= offset - ring or offset + size - ring <= start
            offset += size
        # Stream 1's first fill precedes stream 0's last GEMM.
        first_fill_1 = next(i for i, (stream, _, _) in fills if stream == 1)
        assert first_fill_1 < max(gemm for gemm, stream, _, _ in reads if stream == 0)

    def test_concurrent_passes_under_fast_switching(self):
        # More passes than cores, each with its own drawing thread, switching
        # every microsecond: a lost update between a pass's two threads would
        # show as a block read before its normals were drawn.
        factors, n_samples = _factors([40, 5]), verify_module._STREAM_ROWS + 500
        expected = [(k, hashlib.sha256(x).digest()) for k, x in stream_blocks(factors, n_samples, 5)]
        results = {}

        def one_pass(i):
            blocks = joined_panels(verify_module._stream_blocks(factors, n_samples, 5))
            results[i] = [(k, hashlib.sha256(x).digest()) for k, x in blocks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(verify_module, "_DRAW_CHUNK", 997):
                workers = [threading.Thread(target=one_pass, args=(i,)) for i in range(4)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert results == {i: expected for i in range(4)}
        assert not _drawing_threads()

    def test_a_draw_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(verify_module, "_stream_rng", _second_stream_breaks)
        rows = verify_module._STREAM_ROWS
        cols = verify_module._PANEL_ROWS
        blocks = verify_module._stream_blocks(_factors([3]), rows + 10, 7)
        first = [(k, a, size, x.shape) for k, a, size, x in itertools.islice(blocks, rows // cols)]
        assert first == [(0, a, rows, (3, cols)) for a in range(0, rows, cols)]  # stream 0 draws
        with pytest.raises(_BrokenDraw, match="stream 1 failed"):
            next(blocks)
        assert not _drawing_threads()
        C = from_stationary([1.25, 0.5], 3)
        with pytest.raises(_BrokenDraw):
            sample_gaussian(C, rows + 10, 7)
        assert not _drawing_threads()

    def test_closing_after_the_first_block_joins_the_thread(self):
        blocks = verify_module._stream_blocks(_factors([3, 2]), 2 * verify_module._STREAM_ROWS, 7)
        next(blocks)
        # The drawing thread stays up, idle or drawing, until the pass is closed.
        [thread] = _drawing_threads()
        assert thread.is_alive()
        blocks.close()
        assert not thread.is_alive()
        assert not _drawing_threads()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sample_gaussian(from_stationary([1.25, 0.5], 4), 70_000, 3),
            lambda: verify_theorem1(from_stationary([1.25, 0.5], 4), 4.0, [COS] * 4, 70_000, 3),
            lambda: verify_khatri_sidak(from_stationary([1.25, 0.5], 4), [1.0] * 4, 4.0, 5000, 3),
            lambda: verify_kls([1.25, 0.5], 4, [IND1] * 4, 5000, 3),
            lambda: main(["verify", "--model", "ma1:a=0.5", "--n", "3,5", "--samples", "70000"]),
        ],
        ids=["sample_gaussian", "theorem1", "khatri_sidak", "kls", "cli"],
    )
    def test_no_thread_outlives_a_call(self, call, capsys):
        result = call()
        assert not isinstance(result, int) or result == 0  # the CLI's exit code
        assert not _drawing_threads()

    def test_no_thread_outlives_a_failed_evaluation(self, monkeypatch):
        # The functional raises on the first panel, with the next stream's
        # draw already queued.
        def broken(*args):
            raise ValueError("evaluation failed")

        monkeypatch.setattr(verify_module, "_panel_products", broken)
        C = from_stationary([1.25, 0.5], 3)
        with pytest.raises(ValueError, match="evaluation failed"):
            verify_theorem1(C, 4.0, [COS] * 3, 70_000, 3)
        assert not _drawing_threads()


def _in_order_sums(x, fns, limit=None):
    """The reference loop: every factor on every sample, in coordinate order.

    With a ``limit``, the running product is split by frexp after each factor
    that can exceed 1, and the sums are those of g 2^-shift, as in
    ``sweep_moments``.
    """
    g = np.ones(x.shape[1])
    exponent = None
    for i, f in enumerate(fns):
        g *= f(x[i])
        if limit is not None and f.sup_abs() > 1.0:
            g, step = np.frexp(g)
            exponent = step.astype(np.int64) if exponent is None else exponent + step
    shift = 0
    if exponent is not None:
        shift = max(0, int(exponent.max()) - limit)
        g = np.ldexp(g, exponent - shift)
    return np.sum(g), np.sum(g * g), shift


def _pruned_sums(x, fns):
    """The package's indicator-first products over the block x as one panel, and their sums."""
    g = np.empty(x.shape[1])
    verify_module._panel_products(x, fns, [False] * len(fns), verify_module._pruning(fns), g, None)
    return verify_module._stream_sums(g, None, 500)


FAR = TestFunctionSpec.shifted_indicator(9.0, 0.5)  # hits no sample of the blocks below
WIDE = TestFunctionSpec.indicator(50.0)  # hits every one
NEGATIVE = TestFunctionSpec.from_grid((-0.9, -0.3, -0.7), half_width=2.0)
SHIFTED_LEFT = TestFunctionSpec.shifted_indicator(-1.0, 1.2)


class TestPrunedProducts:
    """Indicator-first products equal the in-order loop on the same block."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 12),
        rows=st.integers(1, 5000),
        kinds=st.lists(
            st.sampled_from(MIXED + [FAR, WIDE, NEGATIVE, SHIFTED_LEFT]),
            min_size=1,
            max_size=4,
        ),
        scale=st.sampled_from([0.3, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_in_order_loop(self, n, rows, kinds, scale, seed):
        fns = [kinds[i % len(kinds)] for i in range(n)]
        x = scale * np.random.default_rng(seed).standard_normal((n, rows))
        pruned = _pruned_sums(x, fns)
        assert pruned == _in_order_sums(x, fns)

    def test_block_cases(self):
        x = np.random.default_rng(7).standard_normal((4, 3000))
        # Every sample zeroed (the in-order loop's products are -0 here).
        assert _pruned_sums(x, [NEGATIVE, FAR] * 2) == (0.0, 0.0, 0)
        # No sample zeroed, some but not all, and indicators alone.
        for fns in (
            [WIDE, NEGATIVE, COS, GRIDF],
            [IND1, NEGATIVE, COS, SHIFTED_LEFT],
            [IND1, WIDE, SHIFTED_LEFT, IND1],
        ):
            pruned = _pruned_sums(x, fns)
            assert pruned == _in_order_sums(x, fns) and pruned[0] != 0.0

    def test_later_indicators_see_only_survivors(self, monkeypatch):
        x = np.random.default_rng(11).standard_normal((5, 4000))
        fns = [IND1, COS, SHIFTED_LEFT, IND1, FAR]
        seen = []
        real = TestFunctionSpec._hits
        monkeypatch.setattr(
            TestFunctionSpec, "_hits", lambda f, v: seen.append(v.size) or real(f, v)
        )
        pruned = _pruned_sums(x, fns)
        masks = [real(fns[i], x[i]) for i in (0, 2, 3)]  # the indicators before FAR
        survivors = [int(np.count_nonzero(np.all(masks[:k], axis=0))) for k in (1, 2, 3)]
        # Each indicator after the first tests the samples all earlier ones kept.
        assert seen == [4000] + survivors
        assert 4000 > survivors[0] > survivors[1] > 0 and pruned == (0.0, 0.0, 0)
        # FAR keeps none, so no later indicator is tested and no other factor
        # evaluated: the panel's products are all 0.
        fns = [IND1, FAR, COS, IND1]
        seen.clear()
        evaluated = []
        call = TestFunctionSpec.__call__
        monkeypatch.setattr(
            TestFunctionSpec, "__call__", lambda f, v: evaluated.append(f) or call(f, v)
        )
        assert _pruned_sums(x, fns) == (0.0, 0.0, 0)
        assert seen == [4000, int(np.count_nonzero(real(IND1, x[0])))] and not evaluated


# Bounded by 1 with indicators: each panel takes the indicator-first path.
UNIT_MIXED = [IND1, COS, SHIFTED_LEFT, GRIDF, NEGATIVE]


class TestPanelSplit:
    """Products made panel by panel sum as the in-order loop over whole serial blocks."""

    W = verify_module._PANEL_ROWS
    COUNTS = [1, W - 1, W, 2 * W - 1, 65_536 + 1, 65_536 + W + 1]

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        ns=st.lists(st.integers(1, 30), min_size=1, max_size=3),
        n_samples=st.sampled_from(COUNTS),
        kinds=st.lists(st.sampled_from(MIXED + [GROWING, BIG, FAR, WIDE]), min_size=1, max_size=3),
        divisor=st.floats(0.5, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # The last functional is divided in place, as verify's KLS product is; BIG
    # on 30 of its 60 coordinates forces a shift > 0.
    @example(ns=[60, 7], n_samples=COUNTS[0], kinds=[IND1, COS], divisor=1.7, seed=1)
    @example(ns=[60, 7], n_samples=COUNTS[1], kinds=[GROWING, IND1], divisor=1.7, seed=2)
    @example(ns=[7, 60], n_samples=COUNTS[2], kinds=[WIDE, GROWING], divisor=0.6, seed=3)
    @example(ns=[60], n_samples=COUNTS[3], kinds=[POLY, FAR], divisor=2.5, seed=4)
    @example(ns=[60, 3, 16], n_samples=COUNTS[4], kinds=[IND1, BIG], divisor=1.3, seed=5)
    @example(ns=[16, 60], n_samples=COUNTS[5], kinds=[GROWING, GRIDF], divisor=1.7, seed=6)
    # Panels that straddle the ring's end, at widths that are no power of two.
    @example(ns=[5, 40, 100, 257], n_samples=COUNTS[5], kinds=[POLY, IND1], divisor=1.3, seed=7)
    def test_sweep_matches_whole_stream_loop(self, ns, n_samples, kinds, divisor, seed):
        points = []
        for n in ns:
            fns = [kinds[i % len(kinds)] for i in range(n)]
            unit = [UNIT_MIXED[i % len(UNIT_MIXED)] for i in range(n)]
            big = [[BIG, COS][i % 2] for i in range(n)]
            functionals = [(fns, 1.0), ([IND1] * n, 1.0), (unit, 1.0), (big, divisor)]
            points.append((from_stationary([1.0] + [0.5] * (n - 1), n), functionals))
        limit = (1023 - n_samples.bit_length()) // 2
        sums = [[[] for _ in fs] for _, fs in points]
        for k, x in stream_blocks([C.chol for C, _ in points], n_samples, seed):
            scale = 1.0
            for (fns, d), per_stream in zip(points[k][1], sums[k]):
                if d != scale:
                    x /= d / scale
                    scale = d
                per_stream.append(_in_order_sums(x, fns, limit))
        expected = [[verify_module._combine_streams(s, n_samples) for s in fs] for fs in sums]
        assert verify_module.sweep_moments(points, n_samples, seed) == expected
        assert all(moments[3][2] > 0 for n, moments in zip(ns, expected) if n == 60)

    def test_sample_gaussian_is_the_serial_blocks(self):
        # Each panel is copied into its columns of the result, stream after stream.
        C = from_stationary([1.0] + [0.5] * 39, 40)
        n_samples = verify_module._STREAM_ROWS + 3 * verify_module._PANEL_ROWS + 5000
        x = sample_gaussian(C, n_samples, 9)
        blocks = [block.copy() for _, block in stream_blocks([C.chol], n_samples, 9)]
        assert x.T.tobytes() == np.hstack(blocks).tobytes()

    @staticmethod
    def _passes(ns, n_samples, passes=1):
        """Identical passes in a fresh process: the resident set before them and
        (peak, resident) after each, in bytes, and the bytes one pass may add.

        That bound is the ring, panel and staging buffers, one product vector
        per functional, and 4 MB for the temporaries.  The ring holds one
        widest panel span plus a lead of max(2 chunks, one span); the panel
        buffer and the staging area for a panel that wraps past the ring's end
        are one span each.  The buffers are an anonymous mapping, which
        tracemalloc does not see, so the resident set is read instead.
        """
        proc = subprocess.run(
            [sys.executable, "-c", _PASS_PEAKS, json.dumps([list(ns), n_samples, passes])],
            env=SRC_ENV, capture_output=True, text=True, check=True, timeout=300,
        )
        before, *after = json.loads(proc.stdout)
        widest = max(
            b - a
            for size in verify_module._stream_sizes(n_samples)
            for a, b in itertools.pairwise(verify_module._panel_edges(size))
        )
        span = 8 * max(ns) * widest
        ring = span + max(16 * verify_module._DRAW_CHUNK, span)
        return before, after, ring + 2 * span + _product_bytes(ns) + 4e6

    def test_pass_holds_one_panel(self):
        # The montecarlo benchmark's shape: its second stream of 34464 samples
        # ends in its widest panel, of 5792 columns.  The buffers are 23.7 MB
        # at n = 128, where the stream's normals alone would be 67.1 MB.
        before, [(peak, _)], bound = self._passes((16, 64, 128), 100_000)
        assert peak - before < bound < 33e6

    def test_pass_at_n_512_holds_one_panel_span(self):
        # One panel span, 2.3 Mi values, outgrows the 2-chunk lead.  The
        # buffers are 73.1 MB, where the stream's normals alone would be
        # 268.4 MB.
        before, [(peak, _)], bound = self._passes((512,), 70_000)
        assert peak - before < bound < 80e6

    def test_buffers_go_back_to_the_system(self):
        # From the heap, a freed 23.7 MB buffer raises glibc's mmap threshold,
        # so the next pass's buffer stays resident in the heap after the pass.
        # Only the product vectors may stay, and no later pass peaks higher.
        ns = (16, 64, 128)
        before, after, _ = self._passes(ns, 100_000, passes=3)
        first_peak = after[0][0]
        for peak, resident in after:
            assert peak - first_peak <= 2e6
            assert resident - before <= _product_bytes(ns) + 2e6


def _product_bytes(ns):
    """The product vectors of ``_PASS_PEAKS``' three functionals per point, bounded by 1."""
    return 8 * verify_module._STREAM_ROWS * 3 * len(ns)


# Runs identical sweep_moments passes in a fresh process and prints the
# resident set before them, then the peak and the resident set after each, in
# bytes.  A suite bounded by 1, with the ma1:a=0.5 KLS divisor; a small pass
# first loads the code and the quadrature rules.
_PASS_PEAKS = """
import json, math, sys
from gaussdecoup import TestFunctionSpec, from_stationary, verify

def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ":"))

ns, n_samples, passes = json.loads(sys.argv[1])
gamma = [1.25, 0.5]
suite = [
    TestFunctionSpec.indicator(1.0),
    TestFunctionSpec.cosine(0.7),
    TestFunctionSpec.bounded_poly((1.0, 0.2, -0.1), clip=1.0),
    TestFunctionSpec.from_grid((0.1, 0.9, 0.4, 0.9, 0.1), half_width=2.5),
]
points = []
for n in ns:
    fns = [suite[i % len(suite)] for i in range(n)]
    functionals = [(fns, 1.0), ([suite[0]] * n, 1.0), (fns, math.sqrt(gamma[0]))]
    points.append((from_stationary(gamma, n), functionals))
verify.sweep_moments(points, 1000, 7)
readings = [status("VmRSS")]
for _ in range(passes):
    verify.sweep_moments(points, n_samples, 7)
    readings.append([status("VmHWM"), status("VmRSS")])
print(json.dumps(readings))
"""
