"""Workload call lists for the benchmark, generated from a seed.

A workload is a fixed list of ``gaussdecoup.cli.main`` argument vectors. The
seed chooses the Monte Carlo and E_B seeds and the family parameters within
the ranges stated below; the sizes never change, so every seed does the same
amount of work. Each call carries the facts its oracle needs (family,
parameters, dimensions), so the oracle never parses the program's own model
strings.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("sweep", "montecarlo", "eb", "spectral")

SWEEP_N = (256, 512, 1024, 2048)
CLOSED_FORM_N = (10_000, 100_000)
VERIFY_N = (16, 64, 128)
VERIFY_SAMPLES = 100_000
EB_N = (32, 64, 128, 192)
SPECTRAL_N = (64, 256, 1024)
# Integer r only: the non-integer Clausen path (r = 1.5) takes 27-38 s per
# call on a 2 GHz Xeon, several times a whole pass of any other workload.
SPECTRAL_R = (2.0, 3.0)


def model_string(family: str, params: dict) -> str:
    if family == "ma1":
        return f"ma1:a={params['a']}"
    if family == "equicorr":
        return f"equicorr:rho={params['rho']}"
    if family == "sparse":
        return "sparse:support=" + "+".join(str(m) for m in params["support"])
    if family == "inverse_power":
        return f"inverse_power:r={params['r']:g}"
    if family == "hilbert":
        return "hilbert"
    if family == "constant":
        return f"constant:value={params['value']}"
    raise ValueError(f"unknown family {family!r}")


def _call(argv: list, check: str, **facts) -> dict:
    return {"argv": [str(a) for a in argv], "check": check, **facts}


def _families(rng: random.Random) -> dict:
    # equicorr stays at rho <= 0.4: from rho ~ 0.5 the generic constant at
    # n = 2048 also overflows math.exp, and the failing set would then depend
    # on the seed instead of staying the three calls below.
    return {
        "ma1": ("ma1", {"a": round(rng.uniform(0.3, 0.7), 3)}),
        "equicorr": ("equicorr", {"rho": round(rng.uniform(0.1, 0.4), 3)}),
        "sparse": ("sparse", {"support": [1, 4]}),
        "ip1": ("inverse_power", {"r": 1.0}),
        "ip1.5": ("inverse_power", {"r": 1.5}),
        "ip2": ("inverse_power", {"r": 2.0}),
        "hilbert": ("hilbert", {}),
    }


def _sweep(fam: dict, rng: random.Random) -> list:
    calls = []
    # One call per (model, n): the n = 2048 calls of sparse and of both
    # inverse-power models end in an uncaught OverflowError, and a per-n call
    # keeps the smaller sizes of those models checked.
    for key in ("ma1", "equicorr", "sparse", "ip1", "ip1.5", "hilbert"):
        family, params = fam[key]
        for n in SWEEP_N:
            argv = ["analyze", "--model", model_string(family, params), "--n", n, "--jobs", 1]
            calls.append(_call(argv, "analyze", family=family, params=params, n=[n]))
    # Past the dense cap only p(X) is computed. inverse_power:r=1.5 is left
    # out: its per-lag series makes the closed form take minutes at n = 1e5.
    for key in ("ma1", "equicorr", "sparse", "ip1", "hilbert"):
        family, params = fam[key]
        n_arg = ",".join(str(n) for n in CLOSED_FORM_N)
        argv = ["analyze", "--model", model_string(family, params), "--n", n_arg, "--jobs", 1]
        calls.append(_call(argv, "analyze", family=family, params=params, n=list(CLOSED_FORM_N)))
    symbols = (fam["ma1"], ("constant", {"value": round(rng.uniform(0.5, 2.0), 3)}))
    for family, params in symbols:
        n_arg = ",".join(str(n) for n in SWEEP_N)
        argv = ["szego", "--model", model_string(family, params), "--n", n_arg, "--jobs", 1]
        calls.append(_call(argv, "szego", family=family, params=params, n=list(SWEEP_N)))
    calls.append(_call(["examples"], "examples"))
    return calls


def _function_suite(rng: random.Random) -> list:
    # Every function is bounded by 1 in absolute value, so the product over
    # up to 128 coordinates stays bounded and its sample variance is usable.
    return [
        {"kind": "indicator", "eps": round(rng.uniform(0.8, 1.5), 3)},
        {"kind": "cosine", "omega": round(rng.uniform(0.3, 1.0), 3)},
        {
            "kind": "bounded_poly",
            "coeffs": [1.0, round(rng.uniform(-0.3, 0.3), 3), round(rng.uniform(-0.2, 0.0), 3)],
            "clip": 1.0,
        },
        {
            "kind": "grid",
            "values": [round(rng.uniform(-1.0, 1.0), 3) for _ in range(5)],
            "half_width": 3.0,
        },
    ]


def _montecarlo(fam: dict, rng: random.Random, inputs: Path) -> list:
    suite = _function_suite(rng)
    config = inputs / "functions.json"
    config.write_text(json.dumps({"functions": suite}, indent=2) + "\n")
    mc_seed = rng.randrange(1, 2**31)
    calls = []
    for key in ("ma1", "equicorr", "ip2"):
        family, params = fam[key]
        argv = [
            "verify", "--config", config, "--model", model_string(family, params),
            "--n", ",".join(str(n) for n in VERIFY_N), "--samples", VERIFY_SAMPLES,
            "--seed", mc_seed, "--jobs", 1,
        ]
        calls.append(
            _call(
                argv, "verify", family=family, params=params, n=list(VERIFY_N),
                samples=VERIFY_SAMPLES, seed=mc_seed, eps=1.0, functions=suite,
            )
        )
    return calls


def _eb(fam: dict, rng: random.Random) -> list:
    eb_seed = rng.randrange(1, 2**31)
    calls = []
    for key in ("ma1", "equicorr", "ip2"):
        family, params = fam[key]
        argv = [
            "eb", "--model", model_string(family, params),
            "--n", ",".join(str(n) for n in EB_N), "--seed", eb_seed, "--jobs", 1,
        ]
        calls.append(_call(argv, "eb", family=family, params=params, n=list(EB_N)))
    return calls


def _spectral() -> list:
    calls = []
    for r in SPECTRAL_R:
        params = {"r": r}
        argv = [
            "szego", "--model", model_string("inverse_power", params),
            "--n", ",".join(str(n) for n in SPECTRAL_N), "--jobs", 1,
        ]
        calls.append(_call(argv, "szego", family="inverse_power", params=params, n=list(SPECTRAL_N)))
    return calls


def make_calls(workload: str, seed: int, inputs: Path) -> list:
    """The workload's call list for ``seed``; input files are written under ``inputs``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    fam = _families(rng)
    if workload == "sweep":
        return _sweep(fam, rng)
    if workload == "montecarlo":
        return _montecarlo(fam, rng, inputs)
    if workload == "eb":
        return _eb(fam, rng)
    return _spectral()
