"""One fresh benchmark process: set-up probe, or a closed loop over a call list.

    python3 perfbench/child.py setup --workload W --seed N --inputs DIR
    python3 perfbench/child.py run --calls CALLS.json --seconds S --result OUT.json [--trace SPANS.jsonl]

``setup`` imports ``gaussdecoup.cli``, builds its parser, generates the
workload's inputs and prints ``ready``; the parent times it from spawn to
that line. ``run`` calls ``gaussdecoup.cli.main`` for every entry of the
call list, one call after another, and repeats the list while another
pass fits in ``S`` seconds (at least once). It writes each call's exit code and report
bytes, the wall time of every pass and the peak resident memory. With
``--trace`` it runs the list once with every layer function wrapped in a
span and writes the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _setup(args) -> int:
    from gaussdecoup import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["analyze", "--help"])
        except SystemExit:
            pass
    import workloads

    workloads.make_calls(args.workload, args.seed, Path(args.inputs))
    print("ready", flush=True)
    return 0


def _one_call(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    outcome = {"exit": None, "raised": None}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome["exit"] = cli.main(list(argv))
        except SystemExit as exc:
            outcome["exit"] = exc.code
        except Exception as exc:  # a crash is an outcome to record, not to stop on
            outcome["raised"] = f"{type(exc).__name__}: {exc}"
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            outcome["where"] = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
    outcome["stdout"] = out.getvalue()
    outcome["stderr"] = err.getvalue()
    return outcome


def _run(args) -> int:
    from gaussdecoup import cli

    calls = json.loads(Path(args.calls).read_text())
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        wrapped = tracer.install()
    passes, outcomes, mismatched = [], None, set()
    start = time.perf_counter()
    while True:
        pass_outcomes = []
        t0 = time.perf_counter()
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.call_id = i
            pass_outcomes.append(_one_call(cli, call["argv"]))
        passes.append(time.perf_counter() - t0)
        if outcomes is None:
            outcomes = pass_outcomes
        else:
            mismatched.update(i for i, (a, b) in enumerate(zip(outcomes, pass_outcomes)) if a != b)
        # Start another pass only if it should end within the time budget.
        if tracer is not None or time.perf_counter() - start + passes[-1] > args.seconds:
            break
    result = {
        "pass_wall_s": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "mismatched_across_passes": sorted(mismatched),
    }
    if tracer is not None:
        tracer.write(Path(args.trace))
        result["wrapped"] = wrapped
    Path(args.result).write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--inputs", required=True)
    run = sub.add_parser("run")
    run.add_argument("--calls", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--result", required=True)
    run.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    return _setup(args) if args.mode == "setup" else _run(args)


if __name__ == "__main__":
    sys.exit(main())
