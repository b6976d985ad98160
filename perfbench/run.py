"""Benchmark of the gaussdecoup CLI: end-to-end metrics, or per-layer metrics.

    python3 perfbench/run.py --workload {sweep,montecarlo,eb,spectral} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
``src/``. Each workload is a fixed list of ``gaussdecoup.cli.main`` calls run
in one fresh process as a closed loop (one caller, each call starting when
the previous one returns), with ``--jobs 1`` and one BLAS thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of import + parser + input generation), ``wall_s``
(median over passes of the wall time of the whole call list) and
``peak_rss_mb``. ``--trace 1`` runs the list once with every layer function
wrapped in a span, between two untraced passes, checks that all three give
the same report bytes, and reports the per-layer metrics. Either way every
call's report goes through the oracle checks in ``oracles.py`` after the
timed region; the failures are listed by call and counted in ``fail_frac``.

Results, spans and a run manifest are written under
``.perfbench_out/<workload>-seed<N>[-trace]/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread for the children and for the oracle work here, set before
# numpy loads: two threads on two shared cores made pass times erratic.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(args: list, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], text=True, **kwargs)


def _communicate(proc: subprocess.Popen):
    """Wait for a child within the time limit; a child never outlives this call."""
    try:
        return proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _setup_probe(workload: str, seed: int, inputs: Path, importtime: bool = False):
    """Seconds from spawning a fresh interpreter to its "ready" line, and its stderr."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [*flags, str(CHILD), "setup", "--workload", workload, "--seed", str(seed),
           "--inputs", str(inputs)]
    inputs.mkdir(parents=True)
    log = inputs / "stderr.txt"
    # stderr goes to a file: -X importtime output would fill a pipe and block
    # the child before it prints "ready".
    with open(log, "w") as err_fh:
        t0 = time.perf_counter()
        proc = _spawn(cmd, stdout=subprocess.PIPE, stderr=err_fh)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _communicate(proc)
    err = log.read_text()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err[-2000:]}")
    return elapsed, err


def _covmodel_import_s(stderr: str) -> float:
    """Cumulative import time of gaussdecoup.covmodel from -X importtime output."""
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+gaussdecoup\.covmodel$", line.strip())
        if m:
            return int(m.group(1)) / 1e6
    raise BenchError("gaussdecoup.covmodel missing from -X importtime output")


def _run_child(out: Path, tag: str, seconds: float, traced: bool) -> dict:
    result = out / f"{tag}.json"
    cmd = [str(CHILD), "run", "--calls", str(out / "calls.json"), "--seconds", str(seconds),
           "--result", str(result)]
    if traced:
        cmd += ["--trace", str(out / "spans.jsonl")]
    proc = _spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = _communicate(proc)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode}): {err[-2000:]}")
    return json.loads(result.read_text())


def _manifest(root: Path, args, calls: list) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             None)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version,
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "calls": [c["argv"] for c in calls],
    }


def _report_rows(outcomes: list) -> list:
    rows = []
    for o in outcomes:
        try:
            parsed = json.loads(o["stdout"])
        except ValueError:
            continue
        rows.extend(r for r in parsed if isinstance(r, dict))
    return rows


def _row_counts(outcomes: list) -> dict:
    rows = _report_rows(outcomes)
    return {
        "verify.hard_fail_rows": sum(r.get("verdict") == "hard_fail" for r in rows),
        "cli.error_rows": sum(
            bool(r.get("error")) or str(r.get("verdict", "")).startswith("error") for r in rows
        ),
    }


def _requested_draws(calls: list) -> int:
    return sum(c["samples"] * n for c in calls if c["check"] == "verify" for n in c["n"])


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "covmodel.import_s": "s",
    "covmodel.build_s": "s",
    "covmodel.builds": "count",
    "covmodel.build_ok_ratio": "ratio",
    "covmodel.matrix_mb": "MB",
    "covmodel.gamma_s": "s",
    "covmodel.symbol_s": "s",
    "covmodel.symbol_points": "count",
    "covmodel.self_s": "s",
    "decoupling.bound_s": "s",
    "decoupling.refined_s": "s",
    "decoupling.coef_calls": "count",
    "decoupling.self_s": "s",
    "szego.asymptote_s": "s",
    "szego.exact_dets": "count",
    "szego.logsym_s": "s",
    "szego.self_s": "s",
    "brascamp.matrix_B_s": "s",
    "brascamp.eb_s": "s",
    "brascamp.starts_per_solve": "ratio",
    "brascamp.iters": "count",
    "brascamp.converged_ratio": "ratio",
    "brascamp.self_s": "s",
    "verify.theorem1_s": "s",
    "verify.khatri_sidak_s": "s",
    "verify.kls_s": "s",
    "verify.marginal_s": "s",
    "verify.draws_per_requested": "ratio",
    "verify.gemm_gflop": "GFLOP",
    "verify.hard_fail_rows": "count",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.emit_bytes": "bytes",
    "cli.error_rows": "count",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
    "fail_frac": "ratio",
}


def _end_to_end(args, out: Path, calls: list):
    probes = [_setup_probe(args.workload, args.seed, out / f"probe{i}")[0] for i in range(SETUP_PROBES)]
    res = _run_child(out, "timed", args.seconds, traced=False)
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(res["pass_wall_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"setup_probes_s": probes, "pass_wall_s": res["pass_wall_s"]}
    mismatched = set(res["mismatched_across_passes"])
    return metrics, res["outcomes"], len(res["pass_wall_s"]), mismatched, notes


def _per_layer(args, out: Path, calls: list):
    imports = [
        _covmodel_import_s(_setup_probe(args.workload, args.seed, out / f"probe{i}", True)[1])
        for i in range(SETUP_PROBES)
    ]
    # Untraced passes before and after the traced one, so that a drift in
    # machine speed during the run does not read as tracing overhead.
    before = _run_child(out, "untraced-before", 0, traced=False)
    traced = _run_child(out, "traced", 0, traced=True)
    after = _run_child(out, "untraced-after", 0, traced=False)
    untraced_wall = statistics.mean([before["pass_wall_s"][0], after["pass_wall_s"][0]])
    spans = tracing.read_spans(out / "spans.jsonl")
    wall = traced["pass_wall_s"][0]
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    metrics = {"covmodel.import_s": statistics.median(imports)}
    metrics.update(tracing.layer_metrics(spans, _requested_draws(calls)))
    metrics.update(_row_counts(traced["outcomes"]))
    metrics["cli.emit_bytes"] = sum(len(o["stdout"].encode()) for o in traced["outcomes"])
    metrics["trace.overhead_s"] = wall - untraced_wall
    metrics["trace.accounted_frac"] = roots / wall
    mismatched = {
        i for base in (before, after)
        for i, (a, b) in enumerate(zip(base["outcomes"], traced["outcomes"])) if a != b
    }
    notes = {"untraced_wall_s": [before["pass_wall_s"][0], after["pass_wall_s"][0]],
             "traced_wall_s": wall, "wrapped": traced["wrapped"]}
    return metrics, traced["outcomes"], 1, mismatched, notes


def run(args):
    """Measure one workload; returns the summary, the failed calls and the output dir."""
    root = Path.cwd()
    if not (root / "src" / "gaussdecoup" / "cli.py").is_file():
        raise BenchError(f"no src/gaussdecoup/cli.py under {root}: run from a source checkout")
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    if out.exists():
        shutil.rmtree(out)
    calls = workloads.make_calls(args.workload, args.seed, out / "inputs")
    (out / "calls.json").write_text(json.dumps(calls, indent=1))
    (out / "manifest.json").write_text(json.dumps(_manifest(root, args, calls), indent=1))

    measure = _per_layer if args.trace else _end_to_end
    metrics, outcomes, passes, mismatched, notes = measure(args, out, calls)

    verdicts = [oracles.check(call, o) for call, o in zip(calls, outcomes)]
    reason = ("report bytes differ between traced and untraced runs" if args.trace
              else "report bytes differ between passes")
    for i in mismatched:
        verdicts[i] = ("wrong", reason)
    failures = [(c, v) for c, v in zip(calls, verdicts) if v is not None]
    attempted, failed = len(calls) * passes, len(failures) * passes
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if args.trace:
        metrics["fail_frac"] = failed / attempted
    summary = {
        "correct": not any(kind == "wrong" for _, (kind, _) in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail = dict(summary, notes=notes,
                  failures=[{"argv": c["argv"], "kind": k, "reason": r} for c, (k, r) in failures])
    (out / "results.json").write_text(json.dumps(detail, indent=1))
    return summary, failures, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussdecoup CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, failures, out = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in summary["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    if "fail_frac" not in summary["metrics"]:
        print(f"  {'fail_frac':<28} {summary['failed'] / summary['attempted']:>14.6g} ratio")
    print(f"  {summary['failed']} of {summary['attempted']} calls failed")
    for call, (kind, reason) in failures:
        print(f"  FAIL[{kind}] {' '.join(call['argv'])}: {reason}")
    print(f"  oracle checks: {'all reports correct' if summary['correct'] else 'WRONG OUTPUT'}")
    print(f"  results in {out.relative_to(Path.cwd())}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
