"""Hilbert-type covariances: maximal coupling, p(X^n) proportional to n.

The matrices {1/(a_k + a_l)} are Gram matrices (integrals of decaying
exponentials), hence covariances of Gaussian vectors.  With a = (1..n) the
normalized row sums grow linearly: 2k(H_{n+k} - H_k) -> 2n log 2 at k = n.
Their determinants are Cauchy determinants, which the package sums exactly;
a Cholesky factorization of the matrix fails in double precision from about
n = 12 (condition number ~ e^{3.5 n}), and is refused where it is read.
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

# At n = 16 the determinant is still exact; the factorization is not.
C16 = hilbert_covariance(HilbertSpec(np.arange(1.0, 17.0)), 16)
print(f"\nn = 16 Cauchy log det: {C16.log_det:.13f}")
try:
    C16.chol
except NotPositiveDefinite as exc:
    print(f"n = 16 factorization: {exc}")
print("\np(X^n), log det and both bound constants need no Cholesky of C, so")
print("`analyze --model hilbert` gives them up to n = 2048; sampling and E_B")
print("need the Cholesky factor and stop where it fails.")
