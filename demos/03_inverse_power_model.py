"""A process whose decoupling coefficient grows like 4 (log n)^2.

The moving average with coefficients c_m = 1/|m| has autocovariance
gamma(mu) = (2/mu)(H_mu + H_{mu-1}) ~ 4 log(mu)/mu: not absolutely summable,
so the classical stationary decoupling result does not apply.  The general
bound still does, because p(X^n) grows only poly-logarithmically -- the
row sums integrate to (log n)^2 while the variance pi^2/3 divides them.
"""

import math

import numpy as np

from gaussdecoup import inverse_power_gamma_sequence
from gaussdecoup.decoupling import stationary_decoupling_coefficient

print("=" * 68)
print("inverse-power moving average: c_m = 1/|m|")
print("=" * 68)

gamma1 = inverse_power_gamma_sequence(100, 1.0)
print(f"gamma(0) = {gamma1[0]:.10f}  (= pi^2/3)")
for mu in (1, 2, 5, 100):
    g = gamma1[mu]
    print(f"gamma({mu:>3}) = {g:.10f}   mu*gamma = {mu * g:8.4f}  4 log mu = "
          f"{4 * math.log(mu) if mu > 1 else 0:8.4f}")

print(f"\n{'n':>8} {'p(X^n)':>10} {'4(log n)^2':>12} {'ratio':>7}")
for n in (100, 1000, 10_000, 100_000):
    gamma = inverse_power_gamma_sequence(n - 1, 1.0)
    p_x = stationary_decoupling_coefficient(gamma, n)
    ref = 4.0 * math.log(n) ** 2
    print(f"{n:>8} {p_x:>10.3f} {ref:>12.3f} {p_x / ref:>7.3f}")

print("\np(X^n) << n, so choosing p = 2 p(X^n) keeps the product bound")
print("effective even though the covariance decays only like log(h)/h.")

# With a faster decay c_m = 1/|m|^r, r >= 2, the lag sums converge and the
# classical stationary route applies directly.
gamma2 = inverse_power_gamma_sequence(2000, 2.0)
p_kls = float(np.abs(gamma2).sum() / gamma2[0])
print(f"\nr = 2 variant: sum_h |gamma(h)|/gamma(0) = {p_kls:.4f}  (finite)")
