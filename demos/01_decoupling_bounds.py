"""How coupled is a Gaussian vector, and what does that cost in the bound?

The decoupling coefficient p(X) is the largest absolute covariance row sum
normalized by the variance: 1 for independent coordinates, growing with
coupling.  Whenever the exponent satisfies p >= 2 p(X), the expectation of a
product of coordinate functions is bounded by a product of marginal L^p
norms times an explicit constant.  This script prints p(X) and the two
constants (generic and refined) across covariance families.
"""

import numpy as np

from gaussdecoup import (
    build_dense,
    decoupling_bound,
    decoupling_coefficient,
    from_stationary,
)

print("=" * 72)
print("decoupling coefficient and bound constants")
print("=" * 72)

families = {
    "identity n=4": np.eye(4),
    "equicorrelated rho=0.5, n=4": 0.5 * np.eye(4) + 0.5 * np.ones((4, 4)),
    "MA(1) a=0.5, n=4": None,  # filled below
    "tridiagonal strong, n=4": np.diag([2.0] * 4)
    + np.diag([0.9] * 3, 1)
    + np.diag([0.9] * 3, -1),
}

ma1 = from_stationary([1.25, 0.5], 4)
print(f"\n{'family':32} {'p(X)':>7} {'p=2p(X)':>8} {'generic':>10} {'refined':>10}")
for name, entries in families.items():
    C = ma1 if entries is None else build_dense(entries)
    p_x = decoupling_coefficient(C)
    bound = decoupling_bound(C, 2.0 * p_x)
    print(
        f"{name:32} {p_x:7.3f} {2 * p_x:8.3f} "
        f"{bound.constant_generic:10.4f} {bound.constant_refined:10.4f}"
    )

print("\nThe refined constant keeps the exact determinant of p*I(var) - C and")
print("is never larger than the generic constant.")

# Stationary sandwich: S <= p(X) <= 1 + 2S from the lag sums alone.
gamma = [1.0, 0.4, 0.2, 0.1]
s = np.abs(gamma[1:4]).sum() / gamma[0]  # S = sum_{1<=h<=n-1} |gamma(h)|/gamma(0), n = 4
p_x = decoupling_coefficient(from_stationary(gamma, 4))
print(f"\nstationary gamma = {gamma}:")
print(f"  lag-sum sandwich: {s:.3f} <= p(X) = {p_x:.3f} <= 1 + {2.0 * s:.3f}")
