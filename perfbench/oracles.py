"""Oracle checks on each call's report, computed without the package.

Every check rebuilds what it needs from the call's own facts (family,
parameters, dimensions) with numpy and scipy alone: covariance matrices and
their row sums, log-determinants by ``numpy.linalg.slogdet``, the MA(1)
tridiagonal determinant recurrence, Monte Carlo estimates from an
independent generator. ``check`` returns ``None`` for a right outcome and
otherwise ``(kind, reason)``: kind ``crash`` when the call raised or left the
0/2/3 exit-code contract, ``wrong`` when it reported numbers the oracle
rejects or a different outcome than expected (numbers where a refusal is
correct, or the reverse).
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import digamma, erf, zeta

MATRIX_N_MAX = 2048  # largest n for which the oracle builds the dense matrix
FFT_HALF_WIDTH = 1 << 18  # moving-average coefficients kept per side
SE_BAND = 6.0  # Monte Carlo agreement band, in combined standard errors
ORACLE_BLOCK = 1 << 14  # rows per block of the independent sampler


def _close(value, expected, rel: float, abs_tol: float = 0.0) -> bool:
    if value is None or not math.isfinite(value):
        return False
    return abs(value - expected) <= abs_tol + rel * abs(expected)


# ---------------------------------------------------------------------------
# Covariance families, rebuilt independently
# ---------------------------------------------------------------------------


def _harmonic(k: np.ndarray) -> np.ndarray:
    return digamma(np.asarray(k, dtype=float) + 1.0) + np.euler_gamma


def _inverse_power_gamma(r: float, max_lag: int) -> np.ndarray:
    """Autocovariance of X_k = sum_{m != 0} |m|^-r xi_{k-m} at lags 0..max_lag."""
    h = np.arange(max_lag + 1, dtype=float)
    if r == 1.0:
        # Partial fractions: sum_{m != 0, h} 1/(|m| |m-h|) = (2/h)(H_h + H_{h-1}).
        g = np.empty(max_lag + 1)
        g[0] = math.pi**2 / 3.0
        g[1:] = (2.0 / h[1:]) * (_harmonic(h[1:]) + _harmonic(h[1:] - 1.0))
        return g
    # Autocorrelation of the coefficients truncated at |m| <= M, by FFT, plus
    # the omitted pairs to first order in h/M: 2 zeta(2r, M+1) + 2 r h zeta(2r+1, M+1).
    M = FFT_HALF_WIDTH
    c = np.arange(1, M + 1, dtype=float) ** (-r)
    seq = np.concatenate([c[::-1], [0.0], c])
    size = 1 << int(math.ceil(math.log2(seq.size + max_lag + 1)))
    spec = np.fft.rfft(seq, size)
    ac = np.fft.irfft(spec * np.conj(spec), size)[: max_lag + 1]
    return ac + 2.0 * zeta(2.0 * r, M + 1) + 2.0 * r * h * zeta(2.0 * r + 1.0, M + 1)


def gamma(family: str, params: dict, max_lag: int) -> np.ndarray:
    g = np.zeros(max_lag + 1)
    if family == "ma1":
        a = params["a"]
        g[0] = 1.0 + a * a
        if max_lag >= 1:
            g[1] = a
        return g
    if family == "equicorr":
        g[:] = params["rho"]
        g[0] = 1.0
        return g
    if family == "sparse":
        # Unit weights on +-support: gamma(h) counts the pairs (m, m') with m - m' = h.
        signed = np.array([s * m for m in params["support"] for s in (1, -1)])
        diffs = (signed[:, None] - signed[None, :]).ravel()
        diffs = diffs[(diffs >= 0) & (diffs <= max_lag)]
        return np.bincount(diffs, minlength=max_lag + 1).astype(float)
    if family == "inverse_power":
        return _inverse_power_gamma(params["r"], max_lag)
    raise ValueError(f"no autocovariance for family {family!r}")


def covariance(family: str, params: dict, n: int) -> np.ndarray:
    if family == "hilbert":
        a = np.arange(1, n + 1, dtype=float)
        return 1.0 / (a[:, None] + a[None, :])
    g = gamma(family, params, n - 1)
    idx = np.arange(n)
    return g[np.abs(idx[:, None] - idx[None, :])]


def decoupling_coefficient(family: str, params: dict, n: int) -> float:
    """max_i sum_j |C_ij| / C_ii, by explicit row sums (prefix sums past the dense size)."""
    if n <= MATRIX_N_MAX:
        C = covariance(family, params, n)
        return float((np.abs(C).sum(axis=1) / np.diag(C)).max())
    if family == "hilbert":
        # Row k of {1/(k+l)} normalized by 1/(2k): 2k (H_{n+k} - H_k).
        k = np.arange(1, n + 1, dtype=float)
        return float((2.0 * k * (_harmonic(n + k) - _harmonic(k))).max())
    g = np.abs(gamma(family, params, n - 1))
    prefix = np.concatenate([[0.0], np.cumsum(g[1:])])
    k = np.arange(1, n + 1)
    return float((g[0] + prefix[k - 1] + prefix[n - k]).max() / g[0])


def _hilbert_log_det(n: int) -> float:
    """Cauchy determinant of {1/(i+j)}: prod_{i<j} (j-i)^2 / prod_{i,j} (i+j)."""
    i = np.arange(1, n + 1, dtype=float)
    diff = np.abs(i[:, None] - i[None, :])
    upper = np.log(diff[np.triu_indices(n, 1)]).sum()
    return float(2.0 * upper - np.log(i[:, None] + i[None, :]).sum())


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _check_analyze(call: dict, rows: list) -> list:
    family, params = call["family"], call["params"]
    problems = []
    for row in rows:
        n = row["n"]
        if row.get("error"):
            problems.append(f"n={n}: refused ({row['error']}) where p(X) exists")
            continue
        p_own = decoupling_coefficient(family, params, n)
        if not _close(row.get("p_X"), p_own, 1e-9):
            problems.append(f"n={n}: p_X {row.get('p_X')} != row sums {p_own}")
        if not _close(row.get("p"), 2.0 * p_own, 1e-9) or row.get("valid") is not True:
            problems.append(f"n={n}: p {row.get('p')} / valid {row.get('valid')} not 2 p(X) / true")
        log_det = row.get("log_det")
        if n > MATRIX_N_MAX:
            continue
        if family == "hilbert":
            # Numerically singular in double precision: a refusal with a note
            # is right, and so is the exact Cauchy value.
            if log_det is None:
                if not row.get("note"):
                    problems.append(f"n={n}: determinant missing without a note")
            elif not _close(log_det, _hilbert_log_det(n), 1e-9):
                problems.append(f"n={n}: log_det {log_det} != Cauchy {_hilbert_log_det(n)}")
            continue
        if log_det is None:
            problems.append(f"n={n}: no log_det where the matrix is positive definite")
            continue
        sign, ref = np.linalg.slogdet(covariance(family, params, n))
        if sign <= 0 or not _close(log_det, ref, 1e-7, 1e-7):
            problems.append(f"n={n}: log_det {log_det} != slogdet {ref}")
    return problems


# ---------------------------------------------------------------------------
# szego
# ---------------------------------------------------------------------------


def _ma1_log_det(a: float, n: int) -> float:
    """log det of the tridiagonal section (1+a^2, a) by the ratio recurrence."""
    d = 1.0 + a * a
    total = math.log(d)
    for _ in range(n - 1):
        d = (1.0 + a * a) - a * a / d
        total += math.log(d)
    return total


def _check_szego(call: dict, rows: list) -> list:
    family, params = call["family"], call["params"]
    problems = []
    for row in rows:
        n = row["n"]
        if family == "inverse_power":
            # (2 Cl_r)^2 vanishes inside (0, pi): Cl_r(0) = zeta(r) > 0 and
            # Cl_r(pi) = -(1 - 2^(1-r)) zeta(r) < 0 for every r > 1, so log f
            # has a log singularity and every row must be refused.
            if not row.get("error"):
                problems.append(f"n={n}: numbers where the symbol has a zero")
            continue
        if row.get("error"):
            problems.append(f"n={n}: refused ({row['error']}) for a positive symbol")
            continue
        if family == "ma1":
            a = params["a"]
            exact, asym, G, b = _ma1_log_det(a, n), -math.log(1 - a * a), 1.0, 1 / (1 - a * a)
        else:
            v = params["value"]
            exact, asym, G, b = n * math.log(v), n * math.log(v), v, 1.0
        if row.get("exact_log_det") is not None and not _close(row["exact_log_det"], exact, 1e-9, 1e-9):
            problems.append(f"n={n}: exact_log_det {row['exact_log_det']} != {exact}")
        if not _close(row.get("asymptote_log"), asym, 1e-9, 1e-9):
            problems.append(f"n={n}: asymptote_log {row.get('asymptote_log')} != {asym}")
        if not (_close(row.get("G"), G, 1e-9) and _close(row.get("b"), b, 1e-9)):
            problems.append(f"n={n}: G, b = {row.get('G')}, {row.get('b')} != {G}, {b}")
    return problems


# ---------------------------------------------------------------------------
# eb
# ---------------------------------------------------------------------------


def _check_eb(call: dict, rows: list) -> list:
    family, params = call["family"], call["params"]
    problems = []
    for row in rows:
        n = row["n"]
        if row.get("error"):
            problems.append(f"n={n}: refused ({row['error']})")
            continue
        C = covariance(family, params, n)
        p = row["p"]
        p_own = decoupling_coefficient(family, params, n)
        if not _close(p, 2.0 * p_own, 1e-9):
            problems.append(f"n={n}: p {p} != 2 p(X) = {2 * p_own}")
        if not row["eb_log"] <= row["upper_log"] + 1e-9:
            problems.append(f"n={n}: eb_log {row['eb_log']} > upper_log {row['upper_log']}")
        inv = np.linalg.inv(C)
        B = 0.5 * (inv + inv.T) - np.diag(1.0 / np.diag(C)) / p
        b = np.asarray(row["b_opt"], dtype=float)
        sign, logdet = np.linalg.slogdet(B + np.diag(b))
        const = (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0 * math.pi)
        objective = const + (n / (2.0 * p)) * math.log(p) + np.log(b).sum() / (2.0 * p) - 0.5 * logdet
        if sign <= 0 or not _close(row["eb_log"], objective, 1e-9, 1e-8):
            problems.append(f"n={n}: eb_log {row['eb_log']} != objective at b_opt {objective}")
        residual = np.abs(1.0 / (2.0 * p * b) - 0.5 * np.diag(np.linalg.inv(B + np.diag(b)))).max()
        if row.get("converged") and not residual <= 1e-8:
            problems.append(f"n={n}: reported converged, stationarity residual {residual:.3e}")
        sign_b, logdet_b = np.linalg.slogdet(B)
        upper = const - 0.5 * (1.0 - 1.0 / p) * logdet_b
        if sign_b <= 0 or not _close(row["upper_log"], upper, 1e-9, 1e-8):
            problems.append(f"n={n}: upper_log {row['upper_log']} != {upper}")
    return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _apply(spec: dict, x: np.ndarray) -> np.ndarray:
    kind = spec["kind"]
    if kind == "indicator":
        return (np.abs(x) <= spec["eps"]).astype(float)
    if kind == "cosine":
        return np.cos(spec["omega"] * x)
    if kind == "bounded_poly":
        y = np.zeros_like(x)
        for c in reversed(spec["coeffs"]):
            y = y * x + c
        return np.clip(y, -spec["clip"], spec["clip"])
    if kind == "grid":
        knots = np.linspace(-spec["half_width"], spec["half_width"], len(spec["values"]))
        return np.interp(x, knots, spec["values"])
    raise ValueError(f"unknown test function kind {kind!r}")


def _product(suite: list, x: np.ndarray) -> np.ndarray:
    """prod_i f_{i mod len(suite)}(x_i) for each row of x."""
    g = np.ones(x.shape[0])
    for k, spec in enumerate(suite):
        g *= _apply(spec, x[:, k :: len(suite)]).prod(axis=1)
    return g


def _independent_moments(C: np.ndarray, call: dict, n: int) -> dict:
    """Mean and standard error of each verify functional from PCG64 draws."""
    lam, V = np.linalg.eigh(C)
    root = V * np.sqrt(np.clip(lam, 0.0, None))
    sigma0 = math.sqrt(C[0, 0])
    rng = np.random.default_rng([call["seed"], n, 0x0AC1E])
    sums = {k: [0.0, 0.0] for k in ("theorem1", "box", "kls")}
    N = left = call["samples"]
    while left:
        rows = min(left, ORACLE_BLOCK)
        x = rng.standard_normal((rows, n)) @ root.T
        for key, g in (
            ("theorem1", _product(call["functions"], x)),
            ("box", (np.abs(x) <= call["eps"]).all(axis=1).astype(float)),
            ("kls", _product(call["functions"], x / sigma0)),
        ):
            sums[key][0] += g.sum()
            sums[key][1] += (g * g).sum()
        left -= rows
    out = {}
    for key, (s1, s2) in sums.items():
        mean = s1 / N
        out[key] = (mean, math.sqrt(max(s2 / N - mean * mean, 0.0) / N))
    return out


def _row_key(suite: str) -> str:
    """"theorem1:<suite>" -> "theorem1"; the khatri_sidak rows keep their side."""
    return suite if suite.startswith("khatri_sidak:") else suite.split(":", 1)[0]


# Row key -> (report field holding the Monte Carlo estimate, functional). The
# lower sandwich row puts the exact product of marginals in lhs and the
# estimate in rhs; theorem1 and kls report |E prod f|.
MC_FIELDS = {
    "theorem1": ("lhs", "theorem1"),
    "kls": ("lhs", "kls"),
    "khatri_sidak:lower": ("rhs", "box"),
    "khatri_sidak:upper": ("lhs", "box"),
    "khatri_sidak:kls_upper": ("lhs", "box"),
}


def _check_verify(call: dict, rows: list) -> list:
    family, params = call["family"], call["params"]
    expected = {"theorem1", "khatri_sidak:lower", "khatri_sidak:upper"}
    if family in ("ma1", "inverse_power"):  # absolutely summable: the KLS checks apply
        expected |= {"kls", "khatri_sidak:kls_upper"}
    problems = []
    for n in call["n"]:
        mine = {_row_key(r["function_suite"]): r for r in rows if r.get("n") == n}
        if set(mine) != expected:
            problems.append(f"n={n}: rows {sorted(mine)}, expected {sorted(expected)}")
            continue
        C = covariance(family, params, n)
        own = _independent_moments(C, call, n)
        for key in sorted(expected):
            field, functional = MC_FIELDS[key]
            mean, se = own[functional]
            if functional != "box":
                mean = abs(mean)
            value, stderr = mine[key][field], mine[key]["stderr"]
            if value is None or abs(value - mean) > SE_BAND * math.hypot(stderr, se) + 1e-300:
                problems.append(
                    f"n={n} {key}: {value} vs independent {mean:.6g} (stderr {stderr:.3g}, {se:.3g})"
                )
        marginals = float(np.prod(erf(call["eps"] / np.sqrt(2.0 * np.diag(C)))))
        reported = mine["khatri_sidak:lower"]["lhs"]
        if not _close(reported, marginals, 1e-9, 1e-300):
            problems.append(f"n={n}: product of marginals {reported} != {marginals}")
    return problems


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def _check_examples(stdout: str) -> list:
    table = []
    for line in stdout.splitlines():
        try:
            table.append([float(tok) for tok in line.split()])
        except ValueError:
            continue
    inverse = [row for row in table if len(row) == 4]
    hilbert = [row for row in table if len(row) == 3]
    if not inverse or not hilbert:
        return ["scenario tables missing"]
    problems = []
    for family, rows in (("inverse_power", inverse), ("hilbert", hilbert)):
        for row in rows:
            n, p = int(row[0]), row[1]
            own = decoupling_coefficient(family, {"r": 1.0}, n)
            if abs(p - own) > 5e-5 + 1e-9 * own:  # the table prints 4 decimals
                problems.append(f"{family} n={n}: p(X) {p} != {own:.4f}")
    return problems


# ---------------------------------------------------------------------------


_CHECKS = {"analyze": _check_analyze, "szego": _check_szego, "eb": _check_eb, "verify": _check_verify}


def check(call: dict, outcome: dict):
    """None if the call's outcome is right, else (kind, reason)."""
    if outcome["raised"]:
        return "crash", f"raised {outcome['raised']} at {outcome.get('where', '?')}"
    if outcome["exit"] not in (0, 2, 3):
        return "crash", f"exit code {outcome['exit']}"
    try:
        if call["check"] == "examples":
            problems = _check_examples(outcome["stdout"])
        else:
            rows = json.loads(outcome["stdout"])
            ns = [r.get("n") for r in rows]
            if call["check"] != "verify" and ns != call["n"]:  # one row per n, in order
                problems = [f"rows for n={ns}, expected {call['n']}"]
            else:
                problems = _CHECKS[call["check"]](call, rows)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"report unreadable: {type(exc).__name__}: {exc}"]
    return ("wrong", "; ".join(problems)) if problems else None
