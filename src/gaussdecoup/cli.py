"""Command-line front end: scenario sweeps over the bound machinery.

Subcommands
-----------
analyze   p(X), generic/refined bound constants and log-determinants per n.
szego     geometric mean, b(f), asymptote vs exact Toeplitz determinant per n.
verify    Monte Carlo checks of the product bound, the two-sided probability
          sandwich, and the stationary-exponent inequality; exit code 3 if
          any check hard-fails.
eb        Brascamp-Lieb constant optimization with the general upper bound.
examples  canned scenario tables: the inverse-power growth of p(X^n) against
          4 (log n)^2 and the linear growth p(X^n)/n of the Hilbert family.

analyze, szego, verify and eb share one per-n runner (``_run_per_n``): each
supplies the body for one dimension n, and the runner makes the rows, turns an
error in one n into that n's error row and picks the exit code: 0 clean, 2
if any n failed, 3 if any check hard-fails.  The n run one after another, in
ascending order, and their rows follow in that order.  verify first makes one
sampling pass for all its n; an error in that pass is the error row of every n
it covered.  A malformed config (flag or file value) exits 2 with
``config error:`` before any row, and so does a report that cannot be written.

szego keeps its per-symbol work on the symbol: the condition report, log
b(f) and one Schur recursion, whose prefix at n is the exact n-th section
bit for bit, so each row is that n run alone and the sizes of a call cost
O(n_max K) together.  The parser is built once per process.

Each setting is a field of ``ScenarioConfig``, whose name is its key in the
JSON config file (--config) and its flag's ``dest``.  File values are checked
when the file loads; flags override them.  Without --out the rows go to
stdout as JSON (examples prints its tables instead); ``--out <base>`` writes
``<base>.json`` and, for every command but examples, ``<base>.csv``.  Runs
are deterministic given the seed, the BLAS build and the BLAS thread count:
repeating a run reproduces the report files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import brascamp, covmodel, decoupling, szego, verify
from .errors import ConfigError, GaussDecoupError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HARD_FAIL = 3

# Dense determinants and sampling stop at covmodel.MATRIX_N_CAP; closed-form
# rows go up to here.
ANALYZE_N_CAP = 100_000

_VERIFY_COLUMNS = [
    "model",
    "n",
    "p",
    "function_suite",
    "lhs",
    "stderr",
    "rhs",
    "slack",
    "z",
    "verdict",
    "seed",
]

_ANALYZE_COLUMNS = [
    "model",
    "n",
    "p_X",
    "p",
    "valid",
    "log_det",
    "log_constant_generic",
    "log_constant_refined",
    "constant_generic",
    "constant_refined",
    "note",
    "error",
]

_SZEGO_COLUMNS = [
    "model",
    "n",
    "G",
    "b",
    "asymptote_log",
    "exact_log_det",
    "ratio",
    "c1_sum",
    "c2_sum",
    "error",
]

_EB_COLUMNS = [
    "model",
    "n",
    "p",
    "eb_log",
    "upper_log",
    "sandwich_ok",
    "converged",
    "residual",
    "error",
]


def _parse_p_policy(policy) -> float | None:
    """None for "auto2pX", else the exponent of "fixed:4", "fixed(4)", "fixed=4" or a number."""
    if policy == "auto2pX":
        return None
    text = policy.removeprefix("fixed").strip(":()= ") if isinstance(policy, str) else policy
    try:
        p = math.nan if isinstance(text, bool) else float(text)  # JSON true is not 1.0
    except (TypeError, ValueError):
        p = math.nan
    if not (math.isfinite(p) and p > 0):
        raise ConfigError(f"p_policy must be auto2pX, fixed:<p> or a number > 0, got {policy!r}")
    return p


@dataclass
class ScenarioConfig:
    """One scenario: a covariance (or symbol) family swept over dimensions."""

    model: str = "ma1:a=0.5"
    n_list: list = field(default_factory=lambda: [8])
    p_policy: object = "auto2pX"  # "auto2pX", "fixed:<p>" or a number
    functions: list = field(default_factory=lambda: [verify.TestFunctionSpec.indicator(1.0)])
    mc_samples: int = 100_000
    seed: int = 20260809
    output: str | None = None  # report base path; None writes JSON to stdout
    eps: float = 1.0
    jobs: int = 1  # 1 only; the key and flag stay while perfbench's call lists pass --jobs 1
    # Parsed from ``model`` and ``p_policy`` by ``validate``.
    spec: covmodel.ModelSpec | None = field(default=None, init=False, repr=False)
    p_fixed: float | None = field(default=None, init=False, repr=False)

    def validate(self, command: str) -> None:
        if not self.n_list:
            raise ConfigError("n_list must be nonempty")
        if any(n < 1 for n in self.n_list):
            raise ConfigError("n_list entries must be positive integers")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be strictly ascending: no n may repeat")
        if command == "verify" and self.mc_samples < 1000:
            raise ConfigError("mc_samples must be >= 1000 for verify runs")
        try:
            self.spec = covmodel.parse_model(self.model)
        except GaussDecoupError as exc:
            raise ConfigError(f"model {self.model!r}: {exc}") from exc
        self.p_fixed = _parse_p_policy(self.p_policy)
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be a positive finite number, got {self.eps!r}")
        if self.jobs != 1:
            raise ConfigError(f"jobs must be 1, got {self.jobs}: a run computes its n in order")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must satisfy 0 <= seed < 2**64, got {self.seed}")

    def resolve_p(self, p_x: float) -> float:
        return 2.0 * p_x if self.p_fixed is None else self.p_fixed


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# What one n can end in; each becomes that n's error row instead of a traceback.
_ROW_ERRORS = (GaussDecoupError, np.linalg.LinAlgError, OSError, ValueError)


def _error_field(row: dict, exc: Exception) -> list:
    row["error"] = str(exc)
    return [row]


def _run_per_n(cfg: ScenarioConfig, fill, error_rows=_error_field) -> tuple[list, int]:
    """Report rows for every n of the sweep, and the exit code.

    ``fill(n, row)`` completes the ``{model, n, error}`` row in place, or
    returns the rows to report in its stead.  An error it raises is caught and
    ``error_rows(row, exc)`` gives that n's rows (by default the row as far as
    it was filled, with ``error`` set).  Exit 3 on any hard_fail row, else 2
    if any n failed, else 0.
    """
    rows, failed = [], False
    for n in cfg.n_list:
        row = {"model": cfg.model, "n": n, "error": None}
        try:
            rows += fill(n, row) or [row]
        except _ROW_ERRORS as exc:
            rows += error_rows(row, exc)
            failed = True
    if any(r.get("verdict") == "hard_fail" for r in rows):
        return rows, EXIT_HARD_FAIL
    return rows, (EXIT_CONFIG if failed else EXIT_OK)


def _matrix_and_p(cfg: ScenarioConfig, n: int, cap_name: str):
    """The factored covariance of dimension n and the exponent p the run uses for it.

    eb and verify both need the Cholesky factor, so a matrix whose
    factorization fails (a Hilbert section from n = 12) is refused here.
    """
    if n > covmodel.MATRIX_N_CAP:
        raise ConfigError(f"n={n} exceeds the {cap_name} cap {covmodel.MATRIX_N_CAP}")
    C = cfg.spec.covariance(n)
    C.chol  # formed (or refused) before p is read
    return C, cfg.resolve_p(decoupling.decoupling_coefficient(C))


def cmd_analyze(cfg: ScenarioConfig) -> tuple[list, int]:
    def fill(n: int, row: dict) -> None:
        row.update(dict.fromkeys(_ANALYZE_COLUMNS[5:11]))  # log_det .. note: null until set
        if n > ANALYZE_N_CAP:
            raise ConfigError(f"n={n} exceeds the analyze cap {ANALYZE_N_CAP}")
        C = None
        det_note = None
        if n <= covmodel.MATRIX_N_CAP:
            try:
                C = cfg.spec.covariance(n)
            except (GaussDecoupError, np.linalg.LinAlgError) as exc:
                det_note = str(exc)
        if C is not None:
            # Resolving p from the same value the validity check uses keeps
            # the strict p >= 2 p(X) hypothesis exact at auto2pX.
            p_x = decoupling.decoupling_coefficient(C)
        else:
            # p(X) is a row-sum statistic: the closed-form route needs neither
            # the dense matrix nor its (possibly failing) factorization.
            p_x = cfg.spec.closed_form_p(n)
            if p_x is None:
                raise ConfigError(
                    f"no closed-form p(X) for model {cfg.model!r} and the matrix "
                    f"route failed: {det_note or f'n={n} exceeds cap {covmodel.MATRIX_N_CAP}'}"
                )
        p = cfg.resolve_p(p_x)
        row.update({"p_X": p_x, "p": p, "valid": p >= 2.0 * p_x})
        if C is not None:
            row.update(decoupling.decoupling_bound(C, p).to_json_dict())
            row["log_det"] = C.log_det
        elif det_note is not None:
            # p(X) stands; the determinant-bearing fields stay null.
            row["note"] = f"determinant-bearing fields unavailable: {det_note}"

    return _run_per_n(cfg, fill)


def cmd_szego(cfg: ScenarioConfig) -> tuple[list, int]:
    try:
        symbol = cfg.spec.symbol()  # its log-symbol is computed by the first n and kept
    except _ROW_ERRORS as exc:
        symbol = exc  # every n reports it

    def fill(n: int, row: dict) -> None:
        if isinstance(symbol, Exception):
            raise symbol
        row.update(szego.szego_asymptote(symbol, n).to_json_dict())

    return _run_per_n(cfg, fill)


def _report_row(cfg, n, p, suite, report) -> dict:
    return {
        "model": cfg.model,
        "n": n,
        "p": p,
        "function_suite": suite,
        "lhs": report.lhs_mc,
        "stderr": report.lhs_stderr,
        "rhs": report.rhs,
        "slack": report.slack,
        "z": report.z_score,
        "verdict": report.verdict,
        "seed": cfg.seed,
    }


def cmd_verify(cfg: ScenarioConfig) -> tuple[list, int]:
    """theorem1 and Khatri-Sidak rows per n, and KLS rows where the model has a KLS exponent.

    Every n's functionals come from one sampling pass. The KLS rows check the
    stationary inequality at ``ModelSpec.kls_exponent()``, the exact exponent
    of the whole process, on the theorem1 section's draws divided by
    sqrt(gamma(0)), so no gamma past lag n - 1 is formed.
    """
    kls_exp = cfg.spec.kls_exponent()

    def resolve(n: int) -> tuple:
        C, p = _matrix_and_p(cfg, n, "sampling")
        fns = [cfg.functions[i % len(cfg.functions)] for i in range(n)]
        decoupling.theorem1_log_constant(C, p)  # a p below 2 p(X) fails before sampling
        # The KLS section is C / gamma(0), so its draws are these divided by
        # sqrt(gamma(0)), evaluated last.
        functionals = [(fns, 1.0), ([verify.TestFunctionSpec.indicator(cfg.eps)] * n, 1.0)]
        if kls_exp is not None:
            functionals.append((fns, math.sqrt(C.gamma[0])))
        return C, p, fns, functionals

    points = {}
    for n in cfg.n_list:
        try:
            points[n] = resolve(n)
        except _ROW_ERRORS as exc:
            points[n] = exc  # that n's error row, as in cmd_szego
    resolved = {n: point for n, point in points.items() if not isinstance(point, Exception)}
    # One sampling pass for every n that resolved: each stream is drawn once.
    try:
        sampled = verify.sweep_moments(
            [(C, functionals) for C, *_, functionals in resolved.values()], cfg.mc_samples, cfg.seed
        )
    except _ROW_ERRORS as exc:
        sampled = []
        points.update(dict.fromkeys(resolved, exc))  # the error row of every n the pass covered
    moments = dict(zip(resolved, sampled))

    def fill(n: int, row: dict) -> list:
        if isinstance(points[n], Exception):
            raise points[n]
        C, p, fns, _ = points[n]
        suite = "+".join(sorted({f.label() for f in fns}))
        report = verify.verify_theorem1(C, p, fns, cfg.mc_samples, cfg.seed, moments=moments[n][0])
        rows = [_report_row(cfg, n, p, f"theorem1:{suite}", report)]
        p_ks = max(p, 2.0)
        ks = verify.verify_khatri_sidak(
            C, np.full(n, cfg.eps), p_ks, cfg.mc_samples, cfg.seed,
            kls_exponent=kls_exp, moments=moments[n][1],
        )
        rows.append(_report_row(cfg, n, p_ks, "khatri_sidak:lower", ks.lower))
        rows.append(_report_row(cfg, n, p_ks, "khatri_sidak:upper", ks.upper))
        if ks.kls_upper is not None:
            rows.append(_report_row(cfg, n, kls_exp, "khatri_sidak:kls_upper", ks.kls_upper))
        if kls_exp is not None:
            report = verify.verify_kls(
                C, kls_exp, fns, cfg.mc_samples, cfg.seed, moments=moments[n][2]
            )
            rows.append(_report_row(cfg, n, kls_exp, f"kls:{suite}", report))
        return sorted(rows, key=lambda r: r["function_suite"])

    def error_rows(row: dict, exc: Exception) -> list:
        return [
            {
                **dict.fromkeys(_VERIFY_COLUMNS),
                "model": cfg.model,
                "n": row["n"],
                "function_suite": "error",
                "verdict": f"error: {exc}",
                "seed": cfg.seed,
            }
        ]

    return _run_per_n(cfg, fill, error_rows)


def cmd_eb(cfg: ScenarioConfig) -> tuple[list, int]:
    def fill(n: int, row: dict) -> None:
        C, p = _matrix_and_p(cfg, n, "matrix")
        row.update(brascamp.eb_optimize(brascamp.matrix_B(C, p), p).to_json_dict())

    return _run_per_n(cfg, fill)


def cmd_examples(cfg: ScenarioConfig) -> tuple[list, int]:
    records = []
    print("inverse-power moving average (c_m = 1/|m|): growth of p(X^n)")
    print(f"{'n':>8} {'p(X^n)':>12} {'4(log n)^2':>12} {'ratio':>8}")
    inverse_power = covmodel.parse_model("inverse_power:r=1")
    for n in (100, 1000, 10_000, 100_000):
        p_x = inverse_power.closed_form_p(n)
        ref = 4.0 * math.log(n) ** 2
        print(f"{n:>8} {p_x:>12.4f} {ref:>12.4f} {p_x / ref:>8.4f}")
        records.append(
            {"model": "inverse_power:r=1", "n": n, "p_X": p_x, "four_log_sq": ref}
        )
    print()
    print("Hilbert-type family a = (1..n): p(X^n) grows linearly")
    print(f"{'n':>8} {'p(X^n)':>12} {'p(X^n)/n':>10}")
    hilbert = covmodel.parse_model("hilbert")
    for n in (10, 20, 40, 80, 160, 320):
        p_x = hilbert.closed_form_p(n)
        print(f"{n:>8} {p_x:>12.4f} {p_x / n:>10.6f}")
        records.append({"model": "hilbert", "n": n, "p_X": p_x, "p_over_n": p_x / n})
    return records, EXIT_OK


class _Command(NamedTuple):
    run: Callable[[ScenarioConfig], tuple[list, int]]
    help: str
    columns: list | None  # CSV columns; None writes JSON only


# The one table of subcommands: the parser, the dispatch and _emit read it.
_COMMANDS = {
    "analyze": _Command(cmd_analyze, "p(X) and bound constants per dimension", _ANALYZE_COLUMNS),
    "szego": _Command(cmd_szego, "Toeplitz determinant asymptotics per dimension", _SZEGO_COLUMNS),
    "verify": _Command(
        cmd_verify, "Monte Carlo inequality checks (exit 3 on hard failure)", _VERIFY_COLUMNS
    ),
    "eb": _Command(cmd_eb, "Brascamp-Lieb constant optimization", _EB_COLUMNS),
    "examples": _Command(cmd_examples, "canned scenario tables", None),
}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _json_bytes(records: list) -> bytes:
    return (json.dumps(records, indent=2, sort_keys=True) + "\n").encode()


def _csv_bytes(records: list, columns: list) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow(["" if rec.get(c) is None else rec.get(c) for c in columns])
    return buf.getvalue().encode()


def _emit(command: str, cfg: ScenarioConfig, records: list) -> None:
    """The rows as JSON on stdout, or as <base>.json plus <base>.csv if the command has columns."""
    if cfg.output is None:
        if command != "examples":  # examples has printed its tables
            sys.stdout.write(_json_bytes(records).decode())
        return
    base = Path(cfg.output)
    if base.suffix in (".json", ".csv"):
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    # Any other suffix is kept: "run.v2" writes run.v2.json.
    Path(f"{base}.json").write_bytes(_json_bytes(records))
    columns = _COMMANDS[command].columns
    if columns is not None:
        Path(f"{base}.csv").write_bytes(_csv_bytes(records, columns))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    parse_args does not change it, and help reads the terminal width when it
    is formatted.
    """
    parser = argparse.ArgumentParser(
        prog="gaussdecoup",
        description="decoupling coefficients, bound constants and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # A flag not given is absent from the namespace, so it overrides nothing.
        cmd = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", type=str, help="JSON scenario file; flags override it")
        cmd.add_argument("--model", type=str)
        cmd.add_argument("--n", dest="n_list", type=_flag_n_list, help="comma-separated dimensions")
        cmd.add_argument("--p", dest="p_policy", type=str, help="auto2pX (default) or a number")
        cmd.add_argument("--samples", dest="mc_samples", type=int, help="Monte Carlo sample count")
        cmd.add_argument("--eps", type=float, help="probability box half-width")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", dest="output", type=str, help="output base path")
        cmd.add_argument("--jobs", type=int, help="1 only: the n run in order")
    return parser


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; ConfigError where a key repeats (json keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config key {key!r} is given twice")
        data[key] = value
    return data


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _file_number(value, name: str, kind=int):
    """A config-file value as an int (whole numbers only) or a float (not NaN)."""
    try:
        number = kind(value)
        # A JSON integer is exact; float() would round one past 2**53.
        if not isinstance(value, bool) and (isinstance(value, int) or number == float(value)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def _file_n_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    return [_file_number(n, f"{name} entries") for n in value]


def _file_functions(value, name: str) -> list:
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
    try:
        return [verify.TestFunctionSpec.from_json_dict(item) for item in value]
    except GaussDecoupError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _file_output(value, name: str):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return value


# The config-file keys, each a ScenarioConfig field, with the reader that
# checks its value when the file loads.
_FILE_READERS = {
    "model": lambda value, name: value,  # validate parses model and p_policy
    "n_list": _file_n_list,
    "p_policy": lambda value, name: value,
    "functions": _file_functions,
    "mc_samples": _file_number,
    "seed": _file_number,
    "output": _file_output,
    "eps": functools.partial(_file_number, kind=float),
    "jobs": _file_number,
}


def _flag_n_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--n must be comma-separated integers: {exc}") from exc


def make_config(args: argparse.Namespace) -> ScenarioConfig:
    settings = vars(args).copy()
    del settings["command"]
    path = settings.pop("config", None)
    if path:
        data = _load_config_file(path)
        unknown = set(data) - set(_FILE_READERS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        file_settings = {key: _FILE_READERS[key](value, key) for key, value in data.items()}
        settings = {**file_settings, **settings}  # flags override the file
    return ScenarioConfig(**settings)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # a malformed --n raises ConfigError here
        cfg = make_config(args)
        cfg.validate(args.command)
        records, code = _COMMANDS[args.command].run(cfg)
        try:
            _emit(args.command, cfg, records)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
