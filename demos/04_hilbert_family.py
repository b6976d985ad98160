"""Hilbert-type covariances: maximal coupling, p(X^n) proportional to n.

The matrices {1/(a_k + a_l)} are Gram matrices (integrals of decaying
exponentials), hence covariances of Gaussian vectors.  With a = (1..n) the
normalized row sums grow linearly: 2k(H_{n+k} - H_k) -> 2n log 2 at k = n.
Their determinants are Cauchy determinants, exactly computable and falling
below double precision already near n = 12 (condition number ~ e^{3.5 n}).
"""

import math

import numpy as np

from gaussdecoup import HilbertSpec, NotPositiveDefinite, hilbert_covariance, parse_model

print("=" * 64)
print("Hilbert family a = (1..n)")
print("=" * 64)

print(f"{'n':>5} {'p(X^n)':>12} {'p(X^n)/n':>10}")
hilbert = parse_model("hilbert")
for n in (10, 20, 40, 80, 160, 320):
    p_x = hilbert.closed_form_p(n)
    print(f"{n:>5} {p_x:>12.4f} {p_x / n:>10.6f}")
print(f"{'inf':>5} {'':>12} {2 * math.log(2):>10.6f}   (limit 2 log 2)")

# The n = 3 determinant against the Cauchy closed form.
C3 = hilbert_covariance(HilbertSpec(np.array([1.0, 2.0, 3.0])), 3)
print(f"\ndet(C_3) = {math.exp(C3.log_det):.12e}  (Cauchy formula: 1/43200 = "
      f"{1 / 43200:.12e})")

# Factorization exhausts double precision quickly; the failure is explicit.
try:
    hilbert_covariance(HilbertSpec(np.arange(1.0, 17.0)), 16)
except NotPositiveDefinite as exc:
    print(f"\nn = 16 factorization: {exc}")
print("\np(X^n) needs only row sums, so the linear-growth table above keeps")
print("going long after the determinant leaves float range.")
