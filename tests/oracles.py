"""Test oracles: the determinant lemmas behind E_B, a dense Toeplitz section
and the serial Monte Carlo stream blocks.

No command, report or workload reads these; the tests use them to check the
package against independent routes.

- ``minkowski_check``: log-concavity (Minkowski) of the determinant,
  det(lU+(1-l)V) >= det(U)^l det(V)^{1-l}.
- ``ostrowski_bound``: the Hadamard-type lower bound
  det(A) >= prod(|a_ii| - sum_{j!=i} |a_ij|) for strictly diagonally
  dominant A.
- ``detB_identity_check``: the factorization identity
  det(B) = det(p*I(var) - C) / (p^n det(C) prod var_i).
- ``gaussian_extremal_check``: the Gaussian extremal ratio by two routes.
- ``random_spd``: a random SPD matrix with log-uniform eigenvalues.
- ``toeplitz_section``: the dense n x n section of a spectral symbol, next to
  the package's O(n^2) recursion that never forms it.
- ``stream_blocks``: verify's stream blocks drawn and multiplied on one
  thread, next to the package's generator whose normals a helper thread
  draws while the caller evaluates.

The four lemma checks return their determinants and ratios in log space.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import toeplitz

from gaussdecoup.brascamp import _logdet_spd, matrix_B
from gaussdecoup.covmodel import CovarianceMatrix, SpectralSymbol
from gaussdecoup.szego import _section_row
from gaussdecoup.verify import _STREAM_ROWS, _stream_rng, _stream_sizes


def minkowski_check(U: np.ndarray, V: np.ndarray, lam: float) -> tuple[float, float]:
    """Both sides of det(l U + (1-l) V) >= det(U)^l det(V)^{1-l}, in log space."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if U.shape != V.shape:
        raise ValueError("U and V must have the same shape")
    lhs = _logdet_spd(lam * U + (1.0 - lam) * V, "lam*U + (1-lam)*V")
    rhs = lam * _logdet_spd(U, "U") + (1.0 - lam) * _logdet_spd(V, "V")
    return lhs, rhs


def ostrowski_bound(A) -> float | None:
    """Log of prod(|a_ii| - sum_{j!=i}|a_ij|) for strictly diagonally dominant A.

    Returns None (inapplicable) when some row fails strict dominance.
    """
    A = np.asarray(A, dtype=float)
    diag = np.abs(np.diag(A))
    off = np.abs(A).sum(axis=1) - diag
    margins = diag - off
    if np.any(margins <= 0):
        return None
    return float(np.sum(np.log(margins)))


def detB_identity_check(C: CovarianceMatrix, p: float) -> tuple[float, float]:
    """log det(B) directly vs via det(p*I(var) - C) / (p^n det(C) prod var_i)."""
    direct = _logdet_spd(matrix_B(C, p), "B")
    shifted = p * np.diag(C.variances) - C.entries
    factored = (
        _logdet_spd(shifted, "p*I(var) - C")
        - C.n * math.log(p)
        - C.log_det
        - float(np.sum(np.log(C.variances)))
    )
    return direct, factored


def gaussian_extremal_check(B: np.ndarray, p: float, b) -> tuple[float, float]:
    """Gaussian extremal ratio via the two-integral route vs the closed form.

    The first value evaluates numerator and denominator Gaussian integrals
    through their determinant formulas; the second plugs into the displayed
    closed form.  They must agree to wiring precision (~1e-12).
    """
    b = np.asarray(b, dtype=float).ravel()
    if np.any(b <= 0):
        raise ValueError("all b_i must be strictly positive")
    if p <= 1:
        raise ValueError(f"needs p > 1, got {p}")
    n = B.shape[0]
    logdet = _logdet_spd(B + np.diag(b), "B + diag(b)")
    # Route 1: log[(2 pi)^{n/2} det(B+diag(b))^{-1/2}] - log prod (2 pi/(p b_i))^{1/(2p)}
    numerator = (n / 2.0) * math.log(2.0 * math.pi) - 0.5 * logdet
    denominator = float(np.sum(np.log(2.0 * math.pi / (p * b)))) / (2.0 * p)
    via_integrals = numerator - denominator
    # Route 2: closed form (2 pi)^{(n/2)(1-1/p)} p^{n/(2p)} prod b^{1/(2p)} / det^{1/2}
    via_closed = (
        (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0 * math.pi)
        + (n / (2.0 * p)) * math.log(p)
        + float(np.sum(np.log(b))) / (2.0 * p)
        - 0.5 * logdet
    )
    return via_integrals, via_closed


def random_spd(n: int, rng: np.random.Generator, log10_eig_range=(-2.0, 2.0)) -> np.ndarray:
    """Random SPD matrix Q diag(lambda) Q^T, eigenvalues log-uniform in the range."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(*log10_eig_range, size=n)
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def toeplitz_section(sym: SpectralSymbol, n: int) -> np.ndarray:
    """The n x n Toeplitz matrix {d_{j-i}} generated by the symbol."""
    d = _section_row(sym, n)
    if sym.even:
        return toeplitz(d)
    return toeplitz(np.conj(d), d)


def stream_blocks(factors, n_samples: int, seed: int):
    """Stream by stream, the block x = L Z^T of each Cholesky factor L, serially.

    Each stream is drawn whole, as standard_normal(size * width) for the
    largest n, before its GEMMs; a factor of size n reads the first size * n
    values as its (size, n) block Z.  Every x is a view of one buffer that
    the next block overwrites.
    """
    width = max(L.shape[0] for L in factors)
    buf = np.empty(width * min(n_samples, _STREAM_ROWS))
    for stream, size in enumerate(_stream_sizes(n_samples)):
        z = _stream_rng(seed, stream).standard_normal(size * width)
        for k, L in enumerate(factors):
            n = L.shape[0]
            x = buf[: n * size].reshape(n, size)
            np.matmul(L, z[: size * n].reshape(size, n).T, out=x)
            yield k, x
        del z  # freed before the next stream is drawn
