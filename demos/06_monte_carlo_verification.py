"""Checking the proven inequalities against simulation.

Every bound in this package is a theorem, so a Monte Carlo check can only
fail through an implementation bug or sampling noise; the verdict bands (3
standard errors to pass, 6 to hard-fail) separate the two.  Sampling uses a
counter-based generator keyed by (seed, stream), so every number below is
reproducible bit for bit.
"""

import numpy as np

from gaussdecoup import (
    TestFunctionSpec,
    build_dense,
    decoupling_coefficient,
    from_stationary,
    stationary_exponent,
    verify_khatri_sidak,
    verify_kls,
    verify_theorem1,
)

SEED = 20260809
N = 200_000

print("=" * 72)
print("product bound on an equicorrelated vector (rho = 0.6, n = 4)")
print("=" * 72)
C = build_dense(0.4 * np.eye(4) + 0.6 * np.ones((4, 4)))
p = 2.0 * decoupling_coefficient(C)
for f, name in (
    (TestFunctionSpec.indicator(1.0), "indicator(|x|<=1)"),
    (TestFunctionSpec.cosine(1.0), "cos(x)"),
    (TestFunctionSpec.bounded_poly((0.4, 0.25, -0.05), 1.5), "clipped quadratic"),
):
    rep = verify_theorem1(C, p, [f] * 4, N, SEED)
    print(
        f"{name:22} lhs = {rep.lhs_mc:.5f} (+-{rep.lhs_stderr:.5f})  "
        f"rhs = {rep.rhs:.5f}  slack z = {rep.z_score:8.1f}  -> {rep.verdict}"
    )

print()
print("=" * 72)
print("two-sided probability sandwich, MA(1) a = 0.5, n = 5, eps = 1")
print("=" * 72)
gamma = [1.25, 0.5]
p_kls = stationary_exponent(gamma)  # 1 + 2 sum_{k>=1} |gamma(k)| / gamma(0)
C = from_stationary(np.array(gamma) / gamma[0], 5)
ks = verify_khatri_sidak(C, np.ones(5), 4.0, N, SEED, kls_exponent=p_kls)
print(f"product of marginals  = {ks.lower.lhs_mc:.5f}  <=")
print(f"P(all |X_i| <= 1)     = {ks.lower.rhs:.5f} (MC)  <=")
print(f"sup-bound constant    = {ks.upper.rhs:.5f}")
print(f"stationary-exponent   = {ks.kls_upper.rhs:.5f} (marginals^(1/{p_kls:g}))")
print(f"verdicts: lower {ks.lower.verdict}, upper {ks.upper.verdict}, "
      f"exponent-form {ks.kls_upper.verdict}")

print()
print("=" * 72)
print("stationary decoupling inequality with the full-sequence exponent")
print("=" * 72)
rep = verify_kls(from_stationary(gamma, 5), p_kls, [TestFunctionSpec.indicator(1.0)] * 5, N, SEED)
print(
    f"p_KLS = {p_kls:g}: lhs = {rep.lhs_mc:.5f} (+-{rep.lhs_stderr:.5f})  "
    f"rhs = {rep.rhs:.5f}  -> {rep.verdict}"
)
