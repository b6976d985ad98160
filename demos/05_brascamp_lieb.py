"""The sharp constant behind the bound: a supremum over diagonal Gaussians.

E_B is the best constant in the Gaussian-weighted Hoelder inequality; it is
attained by Gaussian test functions and reduces to maximizing
prod b_i^{1/(2p)} / det(B + diag(b))^{1/2} over positive diagonal loadings.
In log(b) coordinates the objective is concave (log det of a sum of
exponentials of linear maps), so damped Newton in log(b) from a single start
finds the global optimum; a general determinant bound caps it from above.
"""

import numpy as np

from gaussdecoup import (
    build_dense,
    decoupling_coefficient,
    eb_optimize,
    matrix_B,
)

print("=" * 68)
print("isotropic case: B = beta I, optimizer b* = beta/(p-1) exactly")
print("=" * 68)
for beta, p in ((0.5, 2.0), (2.0, 3.0)):
    prob = eb_optimize(beta * np.eye(3), p)
    print(
        f"beta={beta}, p={p}: b_opt = {np.round(prob.b_opt, 10)} "
        f"(analytic {beta / (p - 1):.6f}), eb_log = {prob.eb_log:.8f}, "
        f"upper = {prob.upper_log:.8f}"
    )

print()
print("=" * 68)
print("random SPD sweep: the optimum never crosses the general bound")
print("=" * 68)
rng = np.random.default_rng(7)
print(f"{'n':>3} {'p':>6} {'eb_log':>12} {'upper_log':>12} {'gap':>10} {'conv':>5}")
for _ in range(8):
    n = int(rng.integers(2, 7))
    # Random SPD B = Q diag(lambda) Q^T, eigenvalues log-uniform in [1e-2, 1e2].
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * 10.0 ** rng.uniform(-2.0, 2.0, size=n)) @ Q.T
    B = 0.5 * (A + A.T)
    p = 1.0 + float(rng.uniform(0.3, 2.5))
    prob = eb_optimize(B, p)
    print(
        f"{n:>3} {p:>6.3f} {prob.eb_log:>12.6f} {prob.upper_log:>12.6f} "
        f"{prob.upper_log - prob.eb_log:>10.6f} {str(prob.converged):>5}"
    )

print()
print("B built from a covariance: B = C^{-1} - (1/p) diag(1/var) is positive")
print("definite whenever p >= 2 p(X), which is what makes the chain work.")
C = build_dense([[1.0, 0.5], [0.5, 1.0]])
p = 2.0 * decoupling_coefficient(C)
B = matrix_B(C, p)
print(f"C 2x2 rho=0.5, p = 2 p(X) = {p}: det(B) = {np.linalg.det(B):.6f}")
