"""Log-symbol coefficients, G(f), b(f), determinant asymptotics, bound constant."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdecoup import (
    ConditionViolated,
    InvalidSpec,
    NonConvergent,
    NonPositiveSymbol,
    NotPositiveDefinite,
    b_constant,
    constant_symbol,
    from_stationary,
    geometric_mean,
    grid_points,
    ma1_symbol,
    parse_model,
    symbol_from_grid,
    szego_asymptote,
    theorem1_log_constant,
    theorem2_constant,
)
from gaussdecoup.covmodel import _Durbin
from oracles import toeplitz_section

DATA = Path(__file__).parent / "data"


def tridiag_det(d0, d1, n):
    prev2, prev1 = 1.0, d0
    for _ in range(2, n + 1):
        prev2, prev1 = prev1, d0 * prev1 - d1 * d1 * prev2
    return prev1 if n >= 1 else prev2


def synthetic_slow_symbol(grid_size=4096):
    """Symbol with log-coefficients c_k = 1/(k log^2 k), k >= 2: both
    conditions hold but the decay is too slow for a 1e-12 tail at this K."""
    t = grid_points(grid_size)
    k = np.arange(2, grid_size // 2 + 1)
    c = 1.0 / (k * np.log(k) ** 2)
    logf = np.zeros_like(t)
    for kk, ck in zip(k, c):
        logf += 2.0 * ck * np.cos(kk * t)
    return symbol_from_grid(np.exp(logf))


class TestLogSymbolCoefficients:
    def test_constant_e(self):
        sym = constant_symbol(math.e, 64)
        assert sym.c[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(sym.c[1:]).max() < 1e-14

    def test_ma1_power_series(self):
        # log|1 + a e^{it}|^2 has c_k = (-1)^{k+1} a^k / k, k >= 1.
        sym = ma1_symbol(0.5)
        a = 0.5
        for k in (1, 2, 3, 4, 8):
            expected = (-1) ** (k + 1) * a**k / k
            assert sym.c[k] == pytest.approx(expected, abs=1e-10)
        assert sym.c[1] == pytest.approx(0.5, abs=1e-10)
        assert sym.c[2] == pytest.approx(-0.125, abs=1e-10)
        assert sym.c[3] == pytest.approx(1.0 / 24.0, abs=1e-10)
        assert sym.c[0] == pytest.approx(0.0, abs=1e-12)
        # Coefficients in the top half of the resolved band have decayed.
        assert np.abs(sym.c[sym.K // 2 :]).max() < 1e-14

    def test_zero_touching_symbol_rejected(self):
        t = grid_points(64)
        sym = symbol_from_grid(2.0 + 2.0 * np.cos(t))
        with pytest.raises(NonPositiveSymbol):
            sym.c


class TestGeometricMean:
    def test_constant(self):
        assert geometric_mean(constant_symbol(3.0, 64)) == pytest.approx(3.0, rel=1e-13)

    def test_ma1_is_one(self):
        assert geometric_mean(ma1_symbol(0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_exp_cosine_is_one(self):
        t = grid_points(256)
        sym = symbol_from_grid(np.exp(np.cos(t)))
        assert geometric_mean(sym) == pytest.approx(1.0, rel=1e-12)


class TestBConstant:
    def test_constant_symbol(self):
        assert b_constant(constant_symbol(2.0, 64)) == pytest.approx(1.0, rel=1e-13)

    def test_ma1_closed_form(self):
        # sum k (a^k/k)^2 = -log(1 - a^2), so b = 1/(1 - a^2) = 4/3 at a = 0.5.
        assert b_constant(ma1_symbol(0.5)) == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_exp_two_cosine(self):
        t = grid_points(256)
        sym = symbol_from_grid(np.exp(2.0 * np.cos(t)))
        assert b_constant(sym) == pytest.approx(math.e, rel=1e-10)

    def test_slow_tail_nonconvergent(self):
        with pytest.raises(NonConvergent):
            b_constant(synthetic_slow_symbol())


class TestSzegoAsymptote:
    def test_constant_one(self):
        est = szego_asymptote(constant_symbol(1.0, 64), 17)
        assert est.asymptote == pytest.approx(0.0, abs=1e-12)
        assert est.exact_log_det == pytest.approx(0.0, abs=1e-12)
        assert est.ratio == pytest.approx(1.0, abs=1e-12)

    def test_ma1_n10_tridiagonal_oracle(self):
        est = szego_asymptote(ma1_symbol(0.5), 10)
        oracle = tridiag_det(1.25, 0.5, 10)
        assert oracle == pytest.approx((1 - 0.25**11) / 0.75, rel=1e-15)
        assert math.exp(est.exact_log_det) == pytest.approx(oracle, rel=1e-12)
        assert est.ratio == pytest.approx(1.0 - 0.25**11, abs=1e-12)

    def test_ma1_n50_ratio_at_one(self):
        est = szego_asymptote(ma1_symbol(0.5), 50)
        assert abs(est.ratio - 1.0) < 1e-12

    def test_asymptote_only_beyond_limit(self):
        est = szego_asymptote(ma1_symbol(0.5), 2049)
        assert est.exact_log_det is None and est.ratio is None
        assert est.asymptote == pytest.approx(math.log(4.0 / 3.0), rel=1e-10)

    def test_section_larger_than_resolution_rejected(self):
        with pytest.raises(InvalidSpec):
            toeplitz_section(ma1_symbol(0.5, grid_size=64), 40)

    def test_asymptote_only_beyond_resolution(self):
        # n > K = 32: the same asymptote-only estimate as past the cap.
        sym = ma1_symbol(0.5, grid_size=64)
        est = szego_asymptote(sym, 40)
        assert est.exact_log_det is None and est.ratio is None
        assert szego_asymptote(sym, 32).exact_log_det is not None
        assert est.asymptote == pytest.approx(math.log(4.0 / 3.0), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 128])
    def test_non_even_symbol_matches_hermitian_cholesky(self, n):
        # Complex coefficients: the section is Hermitian, not symmetric.
        t = grid_points(256)
        sym = symbol_from_grid(2.0 + 0.6 * np.sin(t) + 0.3 * np.cos(2 * t) + 0.2 * np.sin(3 * t))
        assert not sym.even and np.iscomplexobj(sym.d)
        section = toeplitz_section(sym, n)
        assert np.array_equal(section, section.conj().T)
        chol = np.linalg.cholesky(section)
        oracle = 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
        est = szego_asymptote(sym, n)
        assert est.exact_log_det == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_indefinite_section_rejected(self):
        # f = 1 + 2 cos t dips below 0: the n = 3 section is indefinite.
        sym = symbol_from_grid(1.0 + 2.0 * np.cos(grid_points(64)))
        with pytest.raises(NotPositiveDefinite, match="refine the grid"):
            sym.section_log_det(3)

    @pytest.mark.parametrize("a", [0.3, -0.5, 0.8, 0.9])
    def test_cross_module_determinant(self, a):
        # Same Toeplitz matrix through the symbol route and the gamma route.
        sym = ma1_symbol(a)
        for n in (16, 512):
            est = szego_asymptote(sym, n)
            C = from_stationary(sym.d[:n], n)
            assert est.exact_log_det == pytest.approx(C.log_det, abs=1e-8)

    @pytest.mark.parametrize("a", [0.3, -0.5, 0.8, 0.9])
    def test_convergence_profile(self, a):
        sym = ma1_symbol(a)
        devs = []
        for n in range(10, 51):
            devs.append(abs(szego_asymptote(sym, n).ratio - 1.0))
        # |ratio - 1| = |a|^{2(n+1)}: monotone decrease until the float floor.
        for prev, cur in zip(devs, devs[1:]):
            if prev < 1e-13:
                break
            assert cur < prev
        assert devs[-1] < 10.0 * abs(a) ** 100 + 1e-10

    @pytest.mark.parametrize("a", [0.3, -0.5, 0.8, 0.9])
    def test_b_and_g_closed_forms(self, a):
        sym = ma1_symbol(a)
        assert geometric_mean(sym) == pytest.approx(1.0, abs=1e-8)
        assert b_constant(sym) == pytest.approx(1.0 / (1.0 - a * a), rel=1e-8)


class TestConditionReport:
    def test_constant(self):
        rep = constant_symbol(5.0, 64).condition
        assert rep.c1_sum == pytest.approx(0.0, abs=1e-12)
        assert rep.c2_sum == pytest.approx(0.0, abs=1e-12)
        assert rep.passes and not rep.likely_divergent

    def test_ma1_sums(self):
        rep = ma1_symbol(0.5).condition
        assert rep.c1_sum == pytest.approx(2.0 * math.log(2.0), rel=1e-10)
        assert rep.c2_sum == pytest.approx(-2.0 * math.log(1.0 - 0.25), rel=1e-10)
        assert rep.passes
        assert rep.c1_tail < 1e-12 and rep.c2_tail < 1e-12

    def test_synthetic_slow_symbol_passes_conditions(self):
        # c_k = 1/(k log^2 k): both series converge; decay exponent ~ 1.3.
        rep = synthetic_slow_symbol().condition
        assert rep.passes and not rep.likely_divergent
        assert rep.decay_exponent is not None and rep.decay_exponent > 1.0


class TestTheorem2Constant:
    def test_constant_symbol_n4_p2(self):
        t2 = theorem2_constant(constant_symbol(1.0, 64), 4, 2.0)
        assert t2.value == pytest.approx(2.0, rel=1e-12)
        assert t2.delta_hat == pytest.approx(0.0, abs=1e-12)
        assert not t2.normalized and not t2.asymptotic_only

    def test_constant_symbol_equals_theorem1(self):
        # delta = 0 and the asymptote is exact here, so the two constants match.
        n, p = 6, 2.0
        t2 = theorem2_constant(constant_symbol(1.0, 64), n, p)
        t1 = math.exp(theorem1_log_constant(from_stationary([1.0], n), p))
        assert t2.value == pytest.approx(t1, rel=1e-10)

    def test_ma1_matches_theorem1_of_normalized_section(self):
        sym = ma1_symbol(0.5)
        n = 10
        t2 = theorem2_constant(sym, n, 3.6)
        assert t2.p_section == pytest.approx(1.8, rel=1e-12)
        assert t2.normalized and t2.d0 == pytest.approx(1.25, abs=1e-12)
        assert 0.0 < t2.delta_hat < 1e-6
        gamma_unit = sym.d[:n] / sym.d[0]
        t1 = math.exp(theorem1_log_constant(from_stationary(gamma_unit, n), 3.6))
        assert t1 <= t2.value * (1.0 + 1e-12)
        assert t2.value <= t1 * (1.0 + t2.delta_hat) * (1.0 + 1e-12)

    def test_condition_violated(self):
        with pytest.raises(ConditionViolated):
            theorem2_constant(ma1_symbol(0.5), 10, 2.0)  # needs p >= 3.6

    def test_as_stated_form_relation(self):
        # The statement's display raises b(f) to n/(2p) instead of 1/(2p).
        sym = ma1_symbol(0.5)
        n, p = 10, 4.0
        proof = theorem2_constant(sym, n, p)
        stated = theorem2_constant(sym, n, p, as_stated=True)
        log_b = math.log(4.0 / 3.0)
        assert stated.log_value - proof.log_value == pytest.approx(
            -(n - 1) / (2.0 * p) * log_b, rel=1e-8
        )

    def test_nonpositive_symbol_rejected(self):
        t = grid_points(64)
        sym = symbol_from_grid(2.0 + 2.0 * np.cos(t))
        with pytest.raises(NonPositiveSymbol):
            theorem2_constant(sym, 4, 2.0)

    def test_asymptotic_only_flag(self):
        t2 = theorem2_constant(ma1_symbol(0.5, grid_size=8192), 2049, 4.0)
        assert t2.asymptotic_only and t2.delta_hat == 0.0

    def test_value_saturates_past_float_range(self):
        # log_value is about 710 here; math.exp raised OverflowError.
        t2 = theorem2_constant(ma1_symbol(0.5, grid_size=8192), 2049, 1e6)
        assert 709.8 < t2.log_value < math.inf
        assert t2.value == math.inf and t2.to_json_dict()["value"] == math.inf

    def test_theorem2_at_least_theorem1_when_delta_positive(self):
        for a in (0.3, 0.6):
            sym = ma1_symbol(a)
            for n in (8, 24):
                p_sec = theorem2_constant(sym, n, 100.0).p_section
                p = 2.0 * p_sec + 0.5
                t2 = theorem2_constant(sym, n, p)
                gamma_unit = sym.d[:n] / sym.d[0]
                t1 = math.exp(theorem1_log_constant(from_stationary(gamma_unit, n), p))
                assert t2.value >= t1 * (1.0 - 1e-12)


class TestSectionResolution:
    """Bin K of a 2K-point grid holds d_K + d_{-K}: sections stop at n = K."""

    def test_nyquist_bin_is_aliased(self):
        # 3 + cos(8t) on 16 points (K = 8): the true d_8 is 1/2.
        sym = symbol_from_grid(3.0 + np.cos(8.0 * grid_points(16)))
        assert sym.d[8] == pytest.approx(1.0, abs=1e-15)
        assert sym.d[7] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(toeplitz_section(sym, 8), 3.0 * np.eye(8), atol=1e-15)
        with pytest.raises(InvalidSpec):
            toeplitz_section(sym, 9)
        with pytest.raises(InvalidSpec):
            sym.section_log_det(9)

    def test_theorem2_stops_at_k(self):
        sym = ma1_symbol(0.5, 128)
        assert not theorem2_constant(sym, 64, 4.0).asymptotic_only
        with pytest.raises(InvalidSpec):
            theorem2_constant(sym, 65, 4.0)


class TestSectionLogDet:
    """``sym.section_log_det(n)`` is the log det of the dense section, for 1 <= n <= K."""

    @pytest.mark.parametrize("even", [True, False])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        grid_size=st.integers(32, 128).map(lambda half: 2 * half),
        cos_coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
        sin_coeffs=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=6),
        margin=st.floats(0.25, 2.0),
        data=st.data(),
    )
    def test_matches_the_dense_cholesky(
        self, even, grid_size, cos_coeffs, sin_coeffs, margin, data
    ):
        # A trigonometric polynomial of degree < K, bounded below by margin.
        t = grid_points(grid_size)
        f = np.full(grid_size, margin + sum(map(abs, cos_coeffs)))
        for k, a in enumerate(cos_coeffs, 1):
            f += a * np.cos(k * t)
        if not even:
            f += sum(sin_coeffs)
            for k, b in enumerate(sin_coeffs, 1):
                f += b * np.sin(k * t)
        sym = symbol_from_grid(f)
        assert sym.even == even
        n = data.draw(st.integers(1, sym.K), label="n")
        chol = np.linalg.cholesky(toeplitz_section(sym, n))
        oracle = 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
        assert sym.section_log_det(n) == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_refusals(self):
        sym = symbol_from_grid(3.0 + np.cos(grid_points(16)))  # K = 8
        for n in (0, -1):
            with pytest.raises(ValueError, match="section size must be >= 1"):
                sym.section_log_det(n)
            with pytest.raises(ValueError, match="section size must be >= 1"):
                toeplitz_section(sym, n)
        with pytest.raises(InvalidSpec, match="lag 8 >= K=8; use a finer grid"):
            sym.section_log_det(9)
        with pytest.raises(InvalidSpec, match="aliased bin K=8"):
            toeplitz_section(sym, 9)
        # f = 1 + 2 cos t dips below 0: the n = 3 section is indefinite.
        indefinite = symbol_from_grid(1.0 + 2.0 * np.cos(grid_points(64)))
        with pytest.raises(
            NotPositiveDefinite,
            match=r"section n=3 of the truncated symbol \(K=32\) is not positive definite; "
            "refine the grid",
        ):
            indefinite.section_log_det(3)


def test_theorem2_values_frozen(monkeypatch):
    # Both forms, several n and p, ma1 of both signs, a constant and a
    # non-even symbol, and an asymptotic-only section (n = 2049 past the cap).
    monkeypatch.chdir(DATA)
    records = json.loads((DATA / "golden_theorem2.json").read_text())
    symbols = {}
    for rec in records:
        key = (rec["symbol"], rec["grid_size"])
        if key not in symbols:
            symbols[key] = parse_model(rec["symbol"]).symbol(rec["grid_size"])
        t2 = theorem2_constant(symbols[key], rec["n"], rec["p"], as_stated=rec["as_stated"])
        assert t2.to_json_dict() == rec["constant"], rec


class TestPerSymbolWork:
    """A symbol's report, log b(f) and section recursion are computed once."""

    def test_report_computed_once(self, monkeypatch):
        import gaussdecoup.covmodel as covmodel_module

        calls = []
        real = covmodel_module._summability_report
        monkeypatch.setattr(
            covmodel_module, "_summability_report", lambda sym: calls.append(sym) or real(sym)
        )
        sym = ma1_symbol(0.5)
        estimates = [szego_asymptote(sym, n) for n in (4, 16, 64)]
        theorem2_constant(sym, 16, 8.0)
        b_constant(sym)
        assert calls == [sym]
        fresh = real(ma1_symbol(0.5))
        assert sym.condition == fresh
        assert [e.c2_sum for e in estimates] == [fresh.c2_sum] * 3

    def test_refusal_on_every_read(self):
        sym = parse_model("inverse_power:r=2").symbol()
        for n in (64, 1024):
            with pytest.raises(NonConvergent, match="tail of sum k"):
                szego_asymptote(sym, n)
        with pytest.raises(NonConvergent, match="tail of sum k"):
            b_constant(sym)

    @pytest.mark.parametrize("even", [True, False])
    def test_sections_are_one_shot_recursions(self, even):
        t = grid_points(1024)
        f = 2.0 + np.cos(t) + (0.0 if even else 0.4 * np.sin(3.0 * t))
        sym = symbol_from_grid(f)
        for n in (512, 3, 100, 1, 511):
            fresh = symbol_from_grid(f)
            assert sym.section_log_det(n) == _Durbin(fresh.d[:n]).prefix(n)[0]
            assert szego_asymptote(sym, n) == szego_asymptote(fresh, n)
