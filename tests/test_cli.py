"""Command-line front end: exit codes, schemas, determinism, scenario tables."""

import argparse
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaussdecoup import ma1_symbol, theorem2_constant
from gaussdecoup import cli as cli_module
from gaussdecoup import covmodel as covmodel_module
from gaussdecoup import verify as verify_module
from gaussdecoup.cli import main
from oracles import cauchy_log_det_progression

DATA = Path(__file__).parent / "data"
# Subprocesses import the package from this checkout's src/.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def run(args):
    return main(list(args))


def load_json(path):
    return json.loads(Path(path).read_text())


def _verify_with_seed(seed: int, source: str, tmp_path) -> list:
    """A small verify argument vector taking ``seed`` from the flag or a config file."""
    argv = ["verify", "--model", "identity", "--n", "2", "--samples", "1000"]
    if source == "flag":
        return [*argv, "--seed", str(seed)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    return [*argv, "--config", str(cfg)]


class TestConfigHandling:
    def test_bad_json_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["analyze", "--config", str(cfg)]) == 2

    # "format" was a key until the one output rule replaced it.
    @pytest.mark.parametrize("config", [{"model": "identity", "n_lst": [3]}, {"format": "json"}])
    def test_unknown_field_exit_2(self, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: unknown config fields")
        assert captured.out == ""

    def test_descending_n_list_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "identity", "n_list": [8, 4]}))
        assert run(["analyze", "--config", str(cfg)]) == 2

    def test_verify_needs_samples_exit_2(self):
        assert run(["verify", "--model", "identity", "--n", "3", "--samples", "10"]) == 2

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("seed", [-1, 2**64 + 5])
    def test_seed_out_of_range_exit_2(self, seed, source, tmp_path, capsys):
        # Philox takes a 64-bit key: 2**64 + 5 would draw the samples of seed 5.
        assert run(_verify_with_seed(seed, source, tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: seed must satisfy 0 <= seed < 2**64, got {seed}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_still_run(self, seed, source, tmp_path, capsys):
        assert run(_verify_with_seed(seed, source, tmp_path)) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["seed"] == seed for row in rows)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": "identity", "n_list": [2], "p_policy": "fixed:4"})
        )
        assert run(["analyze", "--config", str(cfg), "--n", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [3]
        assert rows[0]["p"] == 4.0

    def test_functions_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "rep"
        cfg.write_text(
            json.dumps(
                {
                    "model": "identity",
                    "n_list": [2],
                    "mc_samples": 2000,
                    "functions": [{"kind": "cosine", "omega": 1.0}],
                    "seed": 5,
                    "output": str(out),
                }
            )
        )
        assert run(["verify", "--config", str(cfg)]) == 0
        rows = load_json(out.with_suffix(".json"))
        assert any("cosine" in r["function_suite"] for r in rows)


class TestOneDeclarationPerSetting:
    """ScenarioConfig's fields are the config keys and the flags' dests."""

    FIELDS = {f.name for f in dataclasses.fields(cli_module.ScenarioConfig) if f.init}

    def test_every_field_is_a_config_key_with_a_reader(self):
        assert set(cli_module._FILE_READERS) == self.FIELDS

    def test_every_flag_dest_is_a_field(self):
        [subparsers] = [
            action
            for action in cli_module._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for name, parser in subparsers.choices.items():
            dests = {action.dest for action in parser._actions} - {"help", "config"}
            assert dests <= self.FIELDS, name

    def test_format_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--model", "identity", "--n", "3", "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestOneOutputRule:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--model", "ma1:a=0.5", "--n", "3,4"],
            ["szego", "--model", "ma1:a=0.5", "--n", "3,4"],
            ["eb", "--model", "ma1:a=0.5", "--n", "2,3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_writes_stdout_json_and_csv(self, argv, tmp_path, capsys):
        assert run(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "r"
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
        assert out.with_suffix(".json").read_bytes() == printed.encode()
        columns = cli_module._COMMANDS[argv[0]].columns
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0].split(",") == columns
        assert len(lines) == 1 + len(json.loads(printed))
        # Every CSV column is a key of the JSON rows: the CSV loses nothing.
        assert all(set(columns) <= set(row) for row in json.loads(printed))

    @pytest.mark.parametrize(
        "out, names",
        [
            ("run.v2", ["run.v2.csv", "run.v2.json"]),
            ("run.json", ["run.csv", "run.json"]),
            ("run.csv", ["run.csv", "run.json"]),
        ],
    )
    def test_out_keeps_other_suffixes(self, out, names, tmp_path):
        # Only a trailing .json or .csv is stripped; any other suffix is kept.
        assert run(["analyze", "--model", "identity", "--n", "2", "--out", str(tmp_path / out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_examples_out_writes_json_only(self, tmp_path, capsys):
        assert run(["examples", "--out", str(tmp_path / "r")]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
        rows = load_json(tmp_path / "r.json")
        assert {row["model"] for row in rows} == {"inverse_power:r=1", "hilbert"}


class TestAnalyze:
    def test_inverse_power_growth_table(self, capsys):
        assert run(["analyze", "--model", "inverse_power:r=1", "--n", "100,1000,10000"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            assert row["error"] is None
            bound = 4.0 * math.log(row["n"]) ** 2 - 12.0 * math.log(row["n"])
            assert row["p_X"] <= bound
        # n = 10000 exceeds the dense cap: closed-form route, no determinant
        big = [r for r in rows if r["n"] == 10000][0]
        assert big["log_det"] is None and big["p_X"] > 0

    def test_closed_form_matches_matrix_route(self, capsys):
        assert run(["analyze", "--model", "hilbert", "--n", "10,20,40,80,160,320"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            assert 1.32 <= row["p_X"] / row["n"] <= 1.40

    def test_ma1_constant_matches_szego_route(self, capsys):
        # The Theorem-1 constant is invariant under uniform rescaling, so the
        # analyze value must match the symbol-route constant within (1+delta).
        assert run(["analyze", "--model", "ma1:a=0.5", "--n", "10"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        t2 = theorem2_constant(ma1_symbol(0.5), 10, row["p"])
        assert row["log_constant_generic"] <= t2.log_value + 1e-12
        assert t2.log_value <= row["log_constant_generic"] + math.log1p(t2.delta_hat) + 1e-12

    def test_csv_output(self, tmp_path):
        out = tmp_path / "a"
        assert run(["analyze", "--model", "identity", "--n", "3", "--out", str(out)]) == 0
        text = out.with_suffix(".csv").read_text()
        header = text.splitlines()[0]
        assert header.startswith("model,n,p_X,p,valid,log_det")

    def test_error_row_surfaced_without_aborting_sweep(self, capsys):
        # Per-n failures produce rows (the sweep completes) and a non-zero
        # exit signals that errors occurred.
        assert run(["analyze", "--model", "dense:file=/nonexistent.json", "--n", "2,3"]) == 2
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(r["error"] is not None for r in rows)

    def test_hilbert_rows_exact_past_the_cholesky(self, capsys):
        # From n = 12 the dense Cholesky fails; the Cauchy determinant and
        # the low-rank shifted determinant give every field.
        assert run(["analyze", "--model", "hilbert", "--n", "10,40,256,512,1024,2048"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            assert row["error"] is None and row["note"] is None and row["valid"] is True
            expected = cauchy_log_det_progression(1.0, 1.0, row["n"])
            assert row["log_det"] == pytest.approx(expected, rel=1e-12)
            assert math.isfinite(row["log_constant_generic"])
            assert row["log_constant_refined"] <= row["log_constant_generic"]
        assert rows[0]["log_det"] == pytest.approx(-133.3917600639062, rel=1e-13)

    def test_overflowing_constant_is_inf_not_a_crash(self, capsys):
        # The generic constant exceeds the float range here; the log-space
        # value stands and the linear one saturates to inf.
        assert run(["analyze", "--model", "sparse:support=1+4", "--n", "2048"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["error"] is None
        assert math.isfinite(row["log_constant_generic"]) and row["log_constant_generic"] > 700
        assert math.isfinite(row["log_constant_refined"])
        assert row["constant_generic"] == math.inf


class TestSzegoCommand:
    def test_ma1_ratio_converges(self, capsys):
        assert run(["szego", "--model", "ma1:a=0.5", "--n", "10,20,50,100,200"]) == 0
        rows = json.loads(capsys.readouterr().out)
        devs = [abs(r["ratio"] - 1.0) for r in rows]
        assert devs[0] < 1e-6
        for prev, cur in zip(devs, devs[1:]):
            assert cur <= prev + 1e-13
        assert all(r["G"] == pytest.approx(1.0, abs=1e-10) for r in rows)
        assert all(r["b"] == pytest.approx(4.0 / 3.0, rel=1e-8) for r in rows)

    def test_constant_symbol_ratio_one(self, capsys):
        assert run(["szego", "--model", "constant", "--n", "4,16,64"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["ratio"] == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_grid_file_symbol(self, tmp_path, capsys):
        # Symbols are also ingestible as grid-value CSV (one value per line).
        import numpy as np

        from gaussdecoup import grid_points

        t = grid_points(256)
        path = tmp_path / "symbol.csv"
        path.write_text("\n".join(str(v) for v in 1.25 + np.cos(t)) + "\n")
        assert run(["szego", "--model", f"grid:file={path}", "--n", "10"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["b"] == pytest.approx(4.0 / 3.0, rel=1e-8)

    def test_one_size_rule_past_resolution(self, monkeypatch, capsys):
        # K = 128: n = 200 (past K) and n = 3000 (past K and the cap) both keep
        # G, b and the asymptote, with a null exact part.
        monkeypatch.chdir(DATA)
        argv = ["szego", "--model", "grid:file=grid_nonsymmetric.json", "--n", "200,3000"]
        assert run(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [200, 3000]
        for row in rows:
            assert row["error"] is None
            assert all(row[key] is not None for key in ("G", "b", "asymptote_log"))
            assert row["exact_log_det"] is None and row["ratio"] is None

    @pytest.mark.parametrize("model", ["constant:value=1e308", "grid:file={path}"])
    def test_overflowing_symbol_clean_error(self, model, tmp_path, capsys):
        # A grid whose Fourier coefficients overflow is refused as such, with
        # no numpy warning, not reported as a section that is not positive definite.
        path = tmp_path / "symbol.csv"
        path.write_text("1e308\n" * 16)
        assert run(["szego", "--model", model.format(path=path), "--n", "4"]) == 2
        captured = capsys.readouterr()
        [row] = json.loads(captured.out)
        assert "Fourier coefficients" in row["error"]
        assert captured.err == ""

    def test_nonpositive_symbol_clean_error(self, capsys):
        assert run(["szego", "--model", "ma1:a=1.0", "--n", "4"]) == 2
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["error"] is not None and "positive" in rows[0]["error"]


class TestVerifyCommand:
    def test_clean_run_exit_0(self, tmp_path):
        out = tmp_path / "rep"
        code = run(
            [
                "verify",
                "--model",
                "ma1:a=0.5",
                "--n",
                "3,5",
                "--samples",
                "5000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = load_json(out.with_suffix(".json"))
        assert all(r["verdict"] == "pass" for r in rows)
        suites = {r["function_suite"] for r in rows}
        assert any(s.startswith("theorem1:") for s in suites)
        assert "khatri_sidak:lower" in suites and "khatri_sidak:upper" in suites
        assert "khatri_sidak:kls_upper" in suites
        assert any(s.startswith("kls:") for s in suites)

    def test_collapsed_theorem1_rhs_hard_fails(self, monkeypatch, tmp_path):
        # A bug that zeroes every marginal norm makes the theorem1 RHS 0,
        # far below the box probability of a strongly coupled model: the
        # harness must report it as a hard_fail and exit 3.
        monkeypatch.setattr(verify_module, "marginal_p_norm", lambda f, sigma, p: 0.0)
        out = tmp_path / "bug"
        argv = ["--model", "equicorr:rho=0.9", "--n", "8", "--samples", "5000", "--seed", "3"]
        assert run(["verify", *argv, "--out", str(out)]) == 3
        rows = {r["function_suite"]: r for r in load_json(out.with_suffix(".json"))}
        [theorem1] = [r for suite, r in rows.items() if suite.startswith("theorem1:")]
        assert theorem1["rhs"] == 0.0 and theorem1["verdict"] == "hard_fail"
        # The box rows take no marginal norm, so they still pass.
        assert rows["khatri_sidak:lower"]["verdict"] == "pass"

    def test_self_test_negate_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--n", "4", "--samples", "1000", "--self-test-negate"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --self-test-negate" in capsys.readouterr().err

    def test_zero_hit_box_is_not_a_hard_fail(self, capsys):
        # No sample lands in the 64-dimensional box (P about 4e-12), so the
        # lower sandwich row has stderr 0 and z = -inf; it exited 3.
        assert run(["verify", "--model", "ma1:a=0.5", "--n", "64"]) == 0
        rows = {r["function_suite"]: r for r in json.loads(capsys.readouterr().out)}
        lower = rows["khatri_sidak:lower"]
        assert lower["rhs"] == 0.0 and lower["z"] == -math.inf and lower["verdict"] == "pass"

    def test_wide_clipped_polynomial_rows_are_numeric(self, tmp_path, capsys):
        # The marginal norm of clip(x, 1e6) used to be 0: math domain error.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"functions": [{"kind": "bounded_poly", "coeffs": [0, 1], "clip": 1e6}]})
        )
        argv = ["verify", "--config", str(cfg), "--model", "ma1:a=0.3", "--n", "64"]
        assert run(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 5
        for row in rows:
            assert row["verdict"] == "pass"
            assert all(math.isfinite(row[k]) for k in ("lhs", "stderr", "rhs"))

    @pytest.mark.parametrize(
        "function",
        [
            {"kind": "shifted_indicator", "shift": 50, "eps": 1},
            {"kind": "bounded_poly", "coeffs": [0], "clip": 1},
        ],
    )
    def test_zero_marginal_norm_gets_a_verdict(self, function, tmp_path, capsys):
        # A zero p-norm made log(norm) a math domain error, and every row of
        # that n, the Khatri-Sidak ones included, an error row with exit 2.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"functions": [function]}))
        argv = ["verify", "--config", str(cfg), "--model", "ma1:a=0.5", "--n", "2"]
        assert run(argv + ["--samples", "1000", "--seed", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 5  # theorem1, three khatri_sidak, kls
        assert all(row["verdict"] == "pass" for row in rows)
        products = [r for r in rows if r["function_suite"].startswith(("theorem1:", "kls:"))]
        assert len(products) == 2
        for row in products:
            assert (row["lhs"], row["stderr"], row["rhs"]) == (0.0, 0.0, 0.0)

    def test_one_sampling_pass_per_n(self, monkeypatch, capsys):
        opened, drawn = [], []
        stream_rng = verify_module._stream_rng

        class Counted:
            # The drawing thread fills each stream in out= chunks; drawn sums
            # them per stream.
            def __init__(self, seed, stream):
                opened.append((seed, stream))
                drawn.append(0)
                self.index = len(drawn) - 1
                self.rng = stream_rng(seed, stream)

            def standard_normal(self, size=None, *, out=None):
                drawn[self.index] += out.size if size is None else size
                return self.rng.standard_normal(size, out=out)

        monkeypatch.setattr(verify_module, "_stream_rng", Counted)
        argv = ["verify", "--model", "ma1:a=0.5", "--samples", "70000", "--seed", "11"]
        rows = verify_module._STREAM_ROWS
        # 70000 rows are two streams, each drawn once for both n, at the larger.
        assert run(argv + ["--n", "3,5"]) == 0
        assert opened == [(11, 0), (11, 1)]
        assert drawn == [rows * 5, (70000 - rows) * 5]
        assert len(json.loads(capsys.readouterr().out)) == 10
        # A p below 2 p(X) = 3.6 fails every n before sampling: no stream opens.
        opened.clear()
        assert run(argv + ["--n", "3,5", "--p", "1"]) == 2
        assert opened == [] and "violates" in capsys.readouterr().out
        # n = 4096 fails the sampling cap, so the pass draws for n = 5.
        opened.clear()
        drawn.clear()
        assert run(argv + ["--n", "3,5,4096"]) == 2
        assert opened == [(11, 0), (11, 1)]
        assert drawn == [rows * 5, (70000 - rows) * 5]
        out = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in out if r["function_suite"] == "error"] == [4096]

    @pytest.mark.parametrize(
        "functions",
        [
            str(DATA / "verify_mixed_functions.json"),
            # A factor that can exceed 1 keeps the in-order frexp loop.
            [{"kind": "bounded_poly", "coeffs": [0.5, 2.0], "clip": 3.0},
             {"kind": "indicator", "eps": 1.5}, {"kind": "cosine", "omega": 0.4}],
        ],
        ids=["mixed", "clip_above_1"],
    )
    def test_each_n_matches_its_own_run(self, functions, tmp_path, capsys):
        if isinstance(functions, list):
            config = tmp_path / "functions.json"
            config.write_text(json.dumps({"functions": functions}))
            functions = str(config)
        argv = ["verify", "--config", functions, "--model", "ma1:a=0.5", "--samples", "3000"]

        def rows(n_arg):
            run(argv + ["--n", n_arg])
            return [json.dumps(r, sort_keys=True) for r in json.loads(capsys.readouterr().out)]

        swept = rows("4,16,40")
        alone = [row for n in ("4", "16", "40") for row in rows(n)]
        assert swept == alone and len(swept) == 15

    def test_kls_two_sided_exponent_counterexample(self, tmp_path):
        # With the one-sided exponent 1.4 this run exited 3 with a kls
        # hard_fail; the two-sided exponent 1 + 2|a|/(1+a^2) = 1.8 holds.
        cfg = tmp_path / "kls.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "ma1:a=0.5",
                    "n_list": [5],
                    "functions": [{"kind": "bounded_poly", "coeffs": [1.0, 0.3], "clip": 2.0}],
                }
            )
        )
        out = tmp_path / "kls"
        assert run(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = load_json(out.with_suffix(".json"))
        kls_rows = [r for r in rows if "kls" in r["function_suite"]]
        assert len(kls_rows) == 2
        for row in kls_rows:
            assert row["p"] == pytest.approx(1.8)
            assert row["verdict"] == "pass"

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "rep"
        run(
            [
                "verify",
                "--model",
                "identity",
                "--n",
                "2",
                "--samples",
                "2000",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        header = out.with_suffix(".csv").read_text().splitlines()[0]
        assert header == "model,n,p,function_suite,lhs,stderr,rhs,slack,z,verdict,seed"

    def test_seed_repetition_byte_identical(self, tmp_path):
        args = [
            "verify",
            "--model",
            "equicorr:rho=0.5",
            "--n",
            "3,5",
            "--samples",
            "4000",
            "--seed",
            "1234",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()

    def test_golden_file_schema_stability(self, tmp_path):
        out = tmp_path / "golden"
        code = run(
            [
                "verify",
                "--model",
                "ma1:a=0.5",
                "--n",
                "4",
                "--samples",
                "2000",
                "--seed",
                "20260809",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.with_suffix(".json").read_bytes() == (DATA / "golden_verify.json").read_bytes()
        assert out.with_suffix(".csv").read_bytes() == (DATA / "golden_verify.csv").read_bytes()

    def test_jobs_flag_accepts_only_1(self, tmp_path, capsys):
        # The n of a run are computed in order: --jobs 1 is the run without
        # the flag, and any other value, from the flag or a file, is refused.
        args = ["verify", "--model", "ma1:a=0.3", "--n", "2,4", "--samples", "2000", "--seed", "5"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 3}))
        for extra in (["--jobs", "2"], ["--jobs", "0"], ["--config", str(cfg)]):
            assert run(args + extra) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: jobs must be 1")
            assert captured.out == ""
        out1, out2 = tmp_path / "s1", tmp_path / "j1"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2), "--jobs", "1"]) == 0
        for suffix in (".json", ".csv"):
            assert out1.with_suffix(suffix).read_bytes() == out2.with_suffix(suffix).read_bytes()


# Report bytes on stdout, frozen: small normal runs of each per-n command and
# error rows (over-cap n, a family without a symbol) that name no file path.
GOLDEN_REPORTS = [
    ("analyze_ma1", ["analyze", "--model", "ma1:a=0.5", "--n", "2,5,16"], 0),
    ("analyze_identity", ["analyze", "--model", "identity", "--n", "1,4"], 0),
    ("analyze_hilbert", ["analyze", "--model", "hilbert", "--n", "5,10,40"], 0),
    ("analyze_cap", ["analyze", "--n", "3,200000"], 2),
    ("analyze_sparse", ["analyze", "--model", "sparse:support=1+4", "--n", "3,9,40,3000"], 0),
    ("analyze_inverse_power", ["analyze", "--model", "inverse_power:r=1", "--n", "4,40,3000"], 0),
    ("szego_ma1", ["szego", "--model", "ma1:a=0.5", "--n", "4,16,64"], 0),
    ("szego_constant", ["szego", "--model", "constant:value=2", "--n", "3,8"], 0),
    ("szego_no_symbol", ["szego", "--model", "equicorr:rho=0.3"], 2),
    # Every row a b(f) tail refusal, as in the benchmark's spectral workload.
    ("szego_inverse_power", ["szego", "--model", "inverse_power:r=2", "--n", "64,1024"], 2),
    # The symbol's NonPositiveSymbol, reported on each n.
    ("szego_nonpositive", ["szego", "--model", "constant:value=-1", "--n", "3,8"], 2),
    # A non-even symbol: complex Fourier coefficients, a Hermitian section.
    (
        "szego_grid_nonsymmetric",
        ["szego", "--model", "grid:file=grid_nonsymmetric.json", "--n", "4,16,64,128"],
        0,
    ),
    ("eb_ma1", ["eb", "--model", "ma1:a=0.5", "--n", "2,4,8"], 0),
    ("eb_hilbert", ["eb", "--model", "hilbert", "--n", "3,6"], 0),
    ("eb_cap", ["eb", "--n", "3,4096"], 2),
    ("verify_cap", ["verify", "--n", "3,4096", "--samples", "1000"], 2),
    (
        "verify_sparse",
        ["verify", "--model", "sparse:support=2+7+11", "--n", "4,9", "--samples", "2000"],
        0,
    ),
    (
        "verify_mixed",
        [
            "verify", "--config", str(DATA / "verify_mixed_functions.json"),
            "--model", "ma1:a=0.5", "--n", "4,16", "--samples", "2000",
        ],
        0,
    ),
    # Many panels per stream: a stream ends in an odd remainder, panels wrap
    # past the end of the ring of normals, and n = 129 is past 128.
    (
        "verify_ma1_multipanel",
        ["verify", "--model", "ma1:a=0.5", "--n", "13,64,129", "--samples", "70001"],
        0,
    ),
    # KLS rows at the exact exponent 2 zeta(2)^2 / zeta(4) = 5.
    (
        "verify_inverse_power",
        ["verify", "--model", "inverse_power:r=2", "--n", "5,12", "--samples", "2000"],
        0,
    ),
]


NON_FINITE_NORMS = pytest.mark.parametrize(
    "function",
    [
        {"kind": "grid", "values": [1e200, -1e200], "half_width": 3.0},
        {"kind": "bounded_poly", "coeffs": [0, 1e200], "clip": 1e300},
        {"kind": "bounded_poly", "coeffs": [1e308, 1e308], "clip": 1e308},
    ],
    ids=["grid_power_overflows", "poly_power_overflows", "poly_knots_at_inf"],
)


class TestNonFiniteMarginalNorm:
    """A marginal norm that overflows is that n's error row (exit 2).

    These configs used to end in an OverflowError traceback (the first two)
    or in a hard_fail against a NaN norm read as a zero bound (the third).
    The third one's sampling pass also printed numpy overflow warnings from
    the polynomial's Horner steps, and raised under this suite's
    error::RuntimeWarning filter.
    """

    @staticmethod
    def _assert_error_row(rows):
        [row] = rows
        assert row["function_suite"] == "error" and "hard_fail" not in row["verdict"]
        assert row["verdict"].endswith("overflows or is not finite")

    @NON_FINITE_NORMS
    def test_error_row(self, function, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"functions": [function]}))
        argv = ["verify", "--model", "ma1:a=0.5", "--n", "4", "--samples", "1000"]
        proc = subprocess.run(
            [sys.executable, "-m", "gaussdecoup", *argv, "--config", str(path)],
            capture_output=True, text=True, env=SRC_ENV, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ""
        self._assert_error_row(json.loads(proc.stdout))

    @NON_FINITE_NORMS
    def test_error_row_in_process(self, function, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"functions": [function]}))
        argv = ["verify", "--model", "ma1:a=0.5", "--n", "4", "--samples", "1000"]
        assert run([*argv, "--config", str(path)]) == 2
        self._assert_error_row(json.loads(capsys.readouterr().out))


class TestGoldenReports:
    @pytest.mark.parametrize(
        "name, argv, code", GOLDEN_REPORTS, ids=[name for name, _, _ in GOLDEN_REPORTS]
    )
    def test_report_bytes(self, name, argv, code, capsys, monkeypatch):
        # Model files are named relative to the data directory, so the
        # reports do not depend on where the checkout lives.
        monkeypatch.chdir(DATA)
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out.encode() == (DATA / f"golden_{name}.json").read_bytes()


# Runs verify argument vectors in one process and prints [exit code, stdout] per run.
_RUN_VERIFY = """
import contextlib, io, json, sys
from gaussdecoup.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps(results))
"""

# Hashes the stream blocks joined from the package's panels and the serial
# oracle's at the montecarlo benchmark's shape (n = 16, 64, 128; 100000
# samples, two streams), with the dense factors of an equicorrelated model.
_RUN_BENCHMARK_SHAPE = """
import hashlib, json
from gaussdecoup import from_stationary, verify
from oracles import joined_panels, stream_blocks
factors = [from_stationary([1.0] + [0.5] * (n - 1), n).chol for n in (16, 64, 128)]
n_samples = verify._STREAM_ROWS + 34_464
print(json.dumps([
    [[k, hashlib.sha256(x).hexdigest()] for k, x in blocks]
    for blocks in (
        joined_panels(verify._stream_blocks(factors, n_samples, 7)),
        stream_blocks(factors, n_samples, 7),
    )
]))
"""


# Hashes the stream blocks joined from the package's panels and the serial
# oracle's, for n = 1..20, 64, 129 and 257 at sample counts around the panel
# width w: one panel of w + 1 columns, three panels with an odd remainder, and
# a full stream followed by either one panel of w + 1 or one of 2 w - 1.
_RUN_PANEL_GRID = """
import hashlib, json
from gaussdecoup import from_stationary, verify
from oracles import joined_panels, stream_blocks
w = verify._PANEL_ROWS
factors = [
    from_stationary([1.0] + [0.5] * (n - 1), n).chol for n in [*range(1, 21), 64, 129, 257]
]
print(json.dumps([
    [
        [[k, hashlib.sha256(x).hexdigest()] for k, x in blocks]
        for blocks in (
            joined_panels(verify._stream_blocks(factors, count, 7)),
            stream_blocks(factors, count, 7),
        )
    ]
    for count in (w + 1, 3 * w + 5, 65_536 + w + 1, 65_536 + 2 * w - 1)
]))
"""


class TestBlasThreadKey:
    """The verify goldens hold at 1 and at 2 BLAS threads.

    A report is reproducible for a given seed, BLAS build and BLAS thread
    count; a golden whose bytes come to depend on the thread count fails here.
    """

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_verify_goldens(self, threads, tmp_path):
        goldens = [golden for golden in GOLDEN_REPORTS if golden[0].startswith("verify")]
        out = tmp_path / "golden"
        file_argv = [
            "verify", "--model", "ma1:a=0.5", "--n", "4", "--samples", "2000",
            "--seed", "20260809", "--out", str(out),
        ]
        argvs = [argv for _, argv, _ in goldens] + [file_argv]
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_VERIFY, json.dumps(argvs)],
            env=dict(SRC_ENV, OPENBLAS_NUM_THREADS=threads),
            cwd=DATA, capture_output=True, text=True, check=True, timeout=300,
        )
        results = json.loads(proc.stdout)
        for (name, _, code), (got_code, got_out) in zip(goldens, results):
            golden = (DATA / f"golden_{name}.json").read_bytes()
            assert (got_code, got_out.encode()) == (code, golden)
        assert results[-1] == [0, ""]
        for suffix in (".json", ".csv"):
            golden = (DATA / f"golden_verify{suffix}").read_bytes()
            assert out.with_suffix(suffix).read_bytes() == golden

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_panelled_blocks_at_the_benchmark_shape(self, threads):
        tests = str(Path(__file__).resolve().parent)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_BENCHMARK_SHAPE],
            env=dict(SRC_ENV, PYTHONPATH=SRC_ENV["PYTHONPATH"] + os.pathsep + tests,
                     OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, check=True, timeout=300,
        )
        panelled, serial = json.loads(proc.stdout)
        assert len(panelled) == 6 and panelled == serial

    def test_panelled_blocks_on_a_grid_at_two_threads(self):
        # A panel width that rounds differently from the unpanelled product at
        # 2 threads (2048 columns does, at n = 12..15 with an odd remainder)
        # fails here.
        tests = str(Path(__file__).resolve().parent)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_PANEL_GRID],
            env=dict(SRC_ENV, PYTHONPATH=SRC_ENV["PYTHONPATH"] + os.pathsep + tests,
                     OPENBLAS_NUM_THREADS="2"),
            capture_output=True, text=True, check=True, timeout=300,
        )
        grid = json.loads(proc.stdout)
        assert [len(panelled) for panelled, _ in grid] == [23, 23, 46, 46]
        for panelled, serial in grid:
            assert panelled == serial


class TestKlsRows:
    """verify's KLS rows read the model's exact exponent and the theorem1 section alone."""

    def test_far_offsets_form_no_gamma_past_the_section(self, monkeypatch, capsys):
        # gamma used to be formed to the support's span, 2e9 lags (14.9 GiB).
        autocovariance = covmodel_module.MovingAverageSpec.autocovariance

        def within_section(self, max_lag):
            assert max_lag < 8, f"gamma formed to lag {max_lag}, past the largest section"
            return autocovariance(self, max_lag)

        monkeypatch.setattr(covmodel_module.MovingAverageSpec, "autocovariance", within_section)
        model = "sparse:support=1+1000000000"
        assert run(["verify", "--model", model, "--n", "4,8", "--samples", "1000"]) == 0
        rows = [row for row in json.loads(capsys.readouterr().out) if "kls" in row["function_suite"]]
        assert len(rows) == 4 and all(row["p"] == 4.0 for row in rows)


class TestHilbertRowsStayVectors:
    """A Hilbert analyze row runs no O(n^3) factorization and forms no n x n array."""

    def test_no_dense_form(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense n x n form was computed")

        cholesky = np.linalg.cholesky

        def small_cholesky(a):
            if a.shape[-1] > 64:
                raise AssertionError(f"O(n^3) Cholesky of a {a.shape} matrix")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", small_cholesky)
        monkeypatch.setattr(covmodel_module._CauchyMatrix, "entries", property(refuse))
        monkeypatch.setattr(covmodel_module._CauchyMatrix, "chol", property(refuse))
        tracemalloc.start()
        try:
            code = run(["analyze", "--model", "hilbert", "--n", "2048"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = json.loads(capsys.readouterr().out)[0]
        assert code == 0 and row["error"] is None and row["note"] is None
        fields = ("log_det", "log_constant_generic", "log_constant_refined")
        assert all(math.isfinite(row[field]) for field in fields)
        # One 2048 x 2048 float array is 33.5 MB; the Cauchy pass keeps 256-row blocks.
        assert peak < 16e6


class TestHilbertRefusalPoint:
    """eb and verify refuse a Hilbert section whose Cholesky fails where they read the factor."""

    # The dense builder's refusal at n = 12, from the Cholesky factor.
    N12 = (
        "smallest Cholesky pivot 2.538e-14 at or below threshold 1.293e-13 (1e-12 * trace/n); "
        "condition number beyond double precision (nearly equal a's degrade rank)"
    )

    def test_eb_report_unchanged(self, capsys):
        assert run(["eb", "--model", "hilbert", "--n", "3,6,11,12,40"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.encode() == (DATA / "golden_eb_hilbert_refused.json").read_bytes()

    def test_verify_refuses_n12_in_place(self, capsys):
        assert run(["verify", "--model", "hilbert", "--n", "8,12", "--samples", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)
        assert [(row["n"], row["function_suite"]) for row in rows] == [
            (8, "khatri_sidak:lower"),
            (8, "khatri_sidak:upper"),
            (8, "theorem1:indicator(1)"),
            (12, "error"),
        ]
        assert rows[-1]["verdict"] == f"error: {self.N12}"
        assert all(row["verdict"] == "pass" for row in rows[:3])
        # The n = 8 rows are sampled from the Cholesky factor; their bounds read
        # the Cauchy log det.
        assert rows[0]["lhs"] == 0.787293567553984 and rows[0]["rhs"] == 0.842
        assert rows[1]["rhs"] == pytest.approx(69.43183312961217, rel=1e-12)
        assert rows[2]["rhs"] == pytest.approx(69.43183312961204, rel=1e-12)


class TestStationaryRowsStayVectors:
    """Stationary analyze and szego rows never form an n x n array."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--model", "ma1:a=0.5", "--n", "2048"],
            ["analyze", "--model", "sparse:support=1+4", "--n", "2048"],
            ["analyze", "--model", "inverse_power:r=1.5", "--n", "2048"],
            ["szego", "--model", "ma1:a=0.5", "--n", "2048"],
            ["szego", "--model", "grid:file=grid_nonsymmetric.json", "--n", "128"],
        ],
    )
    def test_no_dense_form(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense n x n form was computed")

        monkeypatch.chdir(DATA)
        # Patched on the stationary form itself: its own cached properties
        # would bypass a patch on the base class.
        monkeypatch.setattr(covmodel_module._ToeplitzMatrix, "entries", property(refuse))
        monkeypatch.setattr(covmodel_module._ToeplitzMatrix, "chol", property(refuse))
        # szego forms no section; the package's one dense Toeplitz builder is here.
        monkeypatch.setattr("gaussdecoup.covmodel._dense_toeplitz", refuse)
        tracemalloc.start()
        try:
            code = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = json.loads(capsys.readouterr().out)
        assert code == 0 and all(row["error"] is None for row in rows)
        assert rows[0].get("log_det", rows[0].get("exact_log_det")) is not None
        # One 2048 x 2048 float array is 33.5 MB.
        assert peak < 4e6


class TestPerNErrors:
    @pytest.mark.parametrize(
        "command, module, name",
        [
            ("analyze", "decoupling", "decoupling_bound"),
            ("szego", "szego", "szego_asymptote"),
            ("verify", "verify", "verify_theorem1"),
            ("eb", "brascamp", "matrix_B"),
        ],
    )
    def test_value_error_in_one_n_is_an_error_row(
        self, command, module, name, monkeypatch, capsys
    ):
        # A ValueError inside one n's computation ends that n only: the other
        # n keeps its rows, the failing n gets an error row, and the exit is 2.
        target = getattr(importlib.import_module(f"gaussdecoup.{module}"), name)

        def fail_at_3(*args, **kwargs):
            # The dimension is the covariance's n, or szego's int argument.
            if 3 in [a if isinstance(a, int) else getattr(a, "n", None) for a in args]:
                raise ValueError("injected")
            return target(*args, **kwargs)

        monkeypatch.setattr(f"gaussdecoup.{module}.{name}", fail_at_3)
        argv = [command, "--model", "ma1:a=0.5", "--n", "2,3", "--samples", "1000"]
        assert run(argv) == 2
        rows = json.loads(capsys.readouterr().out)
        failed = [r for r in rows if r.get("error") or str(r.get("verdict")).startswith("error")]
        assert [r["n"] for r in failed] == [3]
        assert "injected" in json.dumps(failed)
        assert any(r["n"] == 2 for r in rows) and rows == sorted(rows, key=lambda r: r["n"])

    def test_value_error_in_the_sampling_pass_is_an_error_row_per_n(self, monkeypatch, capsys):
        # verify samples all its n in one pass before the per-n bodies: an
        # error inside it is the error row of every n the pass covered, and
        # the pass leaves no drawing thread behind.  70000 samples make two
        # streams; the first panel of n = 5, the last factor, queues the
        # second stream's draw, so the error comes while that one is drawn.
        panel_products = verify_module._panel_products

        def broken(x, *args):
            if x.shape[0] == 5:
                raise ValueError("injected")
            return panel_products(x, *args)

        monkeypatch.setattr(verify_module, "_panel_products", broken)
        argv = ["verify", "--model", "ma1:a=0.5", "--n", "3,5", "--samples", "70000"]
        assert run(argv) == 2
        rows = json.loads(capsys.readouterr().out)
        assert [(r["n"], r["function_suite"], r["verdict"]) for r in rows] == [
            (3, "error", "error: injected"),
            (5, "error", "error: injected"),
        ]
        prefix = verify_module._DRAW_THREAD
        assert not [t for t in threading.enumerate() if t.name.startswith(prefix)]


class TestEbCommand:
    def test_sandwich_rows(self, capsys):
        assert run(["eb", "--model", "ma1:a=0.5", "--n", "2,4", "--seed", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            assert row["error"] is None
            assert row["sandwich_ok"] is True
            assert row["eb_log"] <= row["upper_log"] + 1e-9
            assert row["converged"] is True and row["residual"] < 1e-10
            assert "start_values" not in row


class TestExamplesCommand:
    def test_tables_print(self, capsys):
        assert run(["examples"]) == 0
        out = capsys.readouterr().out
        assert "p(X^n)" in out and "Hilbert" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaussdecoup", "analyze", "--model", "identity", "--n", "2"],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["p_X"] == 1.0

    def test_runtime_never_imports_mpmath(self):
        # mpmath is only the test oracle for the Clausen series.
        code = (
            "import sys\n"
            "from gaussdecoup.cli import main\n"
            "main(['szego', '--model', 'inverse_power:r=2.5', '--n', '64'])\n"
            "assert 'mpmath' not in sys.modules, 'mpmath imported'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "argvs, scipy_modules",
        [
            (
                [
                    (["analyze", "--model", "ma1:a=0.5", "--n", "64"], 0),
                    (["analyze", "--model", "hilbert", "--n", "10"], 0),
                    (["analyze", "--model", "hilbert", "--n", "40"], 0),
                    (["szego", "--model", "ma1:a=0.5", "--n", "64"], 0),
                    (["analyze", "--model", "inverse_power:r=1.5", "--n", "64"], 0),
                    # Exit 2 is the b(f) tail refusal, read off the gridded symbol.
                    (["szego", "--model", "inverse_power:r=2", "--n", "64"], 2),
                    # Odd r: the Clausen series' pole pair.
                    (["szego", "--model", "inverse_power:r=3", "--n", "64"], 2),
                    (["szego", "--model", "inverse_power:r=2.5", "--n", "64"], 2),
                    (["--help"], 0),
                ],
                [],
            ),
            (
                [
                    (["eb", "--model", "ma1:a=0.5", "--n", "8"], 0),
                    (["verify", "--model", "ma1:a=0.5", "--n", "8", "--samples", "1000"], 0),
                ],
                ["scipy.linalg"],
            ),
            (
                [
                    (["verify", "--model", "ma1:a=0.5", "--n", "8", "--samples", "1000"], 0),
                    # Zero hits: the Khatri-Sidak rows take the binomial verdict's closed form.
                    (["verify", "--model", "ma1:a=0.5", "--n", "64", "--samples", "1000"], 0),
                ],
                [],
            ),
        ],
        ids=["numpy_only", "eb_and_verify", "verify_only"],
    )
    def test_startup_imports_no_scipy(self, argvs, scipy_modules):
        # p(X), the Theorem-1 constants, the inverse-power zeta values, the
        # szego asymptote and verify's error functions and binomial verdicts
        # need numpy only; eb's Cholesky factorizations import scipy.linalg.
        code = (
            "import contextlib, io, sys\n"
            "from gaussdecoup.cli import main\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')], 'scipy at import'\n"
            f"for argv, want in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            code = main(argv)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    assert code == want, (argv, code)\n"
            "print(sorted(m for m in sys.modules if m in ('scipy.special', 'scipy.linalg')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.strip()
        assert loaded == repr(scipy_modules)


# Each of these used to end in a traceback (exit 1), in a report holding NaN,
# in error rows or in silently ignored arguments.
CONFIG_ERRORS = [
    (["verify", "--model", "sparse"], None),
    (["verify", "--model", "sparse:support=x"], None),
    (["eb", "--model", "sparse:support=1+x"], None),
    (["verify", "--model", "sparse:support=-1"], None),
    (["szego", "--model", "ma1:a=abc"], None),
    (["analyze", "--model", "ma1:a=nan"], None),
    (["analyze", "--model", "ma1:a=0.5,b=3"], None),
    (["analyze", "--model", "hilbert:a=2"], None),
    (["analyze", "--model", "no_such_family"], None),
    (["analyze"], {"model": 5}),
    (["analyze", "--p", "abc"], None),
    (["analyze", "--p", "nan"], None),
    (["analyze", "--p", "fixed:abc"], None),
    (["analyze", "--p", "-2"], None),
    (["analyze", "--p", "inf"], None),
    (["analyze", "--p", "0"], None),
    (["analyze"], {"p_policy": "fixed"}),
    (["analyze"], {"p_policy": None}),
    (["analyze"], {"p_policy": True}),
    (["analyze"], {"model": "identity", "n_list": ["a"]}),
    (["analyze"], {"model": "identity", "n_list": 5}),
    (["analyze"], {"mc_samples": "x"}),
    (["analyze"], {"eps": "abc"}),
    (["analyze", "--eps", "nan"], None),
    (["verify", "--eps", "inf"], None),
    (["verify"], {"eps": math.inf}),
    (["analyze"], {"model": "identity", "n_list": "12"}),
    (["analyze"], {"model": "identity", "n_list": [2.7]}),
    (["analyze"], {"model": "identity", "n_list": [True]}),
    (["verify", "--model", "ma1:a=0.5", "--samples", "1000"], {"output": 5}),
    (["verify", "--model", "ma1:a=0.5", "--samples", "1000"], {"functions": 5}),
    (["verify", "--model", "ma1:a=0.5", "--samples", "1000"], {"functions": [5]}),
    (["verify", "--model", "ma1:a=0.5", "--samples", "1000"], {"functions": []}),
    (
        ["verify", "--model", "ma1:a=0.5", "--samples", "1000"],
        {"functions": [{"kind": "cosine", "omega": "abc"}]},
    ),
    (
        ["verify", "--model", "ma1:a=0.5", "--samples", "1000"],
        {"functions": [{"kind": "cosine", "omega": 1.0, "eps": 0.5}]},
    ),
    (["analyze", "--model", "ma1:a=0.5,a=0.7"], None),
]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, config",
        CONFIG_ERRORS,
        ids=[" ".join(argv) + (f" {cfg}" if cfg else "") for argv, cfg in CONFIG_ERRORS],
    )
    def test_config_error_before_any_row(self, argv, config, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert run(argv + ["--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text",
        [
            '{"seed": 1, "seed": 2}',
            '{"model": "ma1:a=0.5", "n_list": [4], "model": "identity"}',
            '{"functions": [{"kind": "cosine", "omega": 0.5, "omega": 0.7}]}',
        ],
    )
    def test_repeated_config_key_is_a_config_error(self, text, tmp_path, capsys):
        # Left to itself, json.loads keeps a repeated key's last value.
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run(["verify", "--config", str(path), "--n", "4", "--samples", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: config key '")
        assert captured.err.endswith("' is given twice\n")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--n", "4,4"],
            ["verify", "--n", "4,4", "--samples", "1000"],
            ["szego", "--n", "2,8,8"],
            ["eb", "--n", "3,3"],
            ["analyze", "--n", "8,4"],
        ],
    )
    def test_n_not_strictly_ascending_is_a_config_error(self, argv, capsys):
        # A repeated n used to report its rows twice (verify's interleaved by
        # the sort); one n is one row, or one set of verify rows.
        assert run(argv + ["--model", "ma1:a=0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: n_list must be strictly ascending")
        assert captured.out == ""

    def test_repeated_n_in_a_config_file_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "ma1:a=0.5", "n_list": [2, 4, 4]}))
        assert run(["analyze", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: n_list must be strictly ascending")
        assert captured.out == ""

    def test_malformed_n_flag_is_a_config_error(self, capsys):
        assert run(["analyze", "--model", "identity", "--n", "4,x"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --n must be comma-separated integers")
        assert captured.out == ""

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" / "r"
        assert run(["analyze", "--model", "ma1:a=0.5", "--n", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot write report")
        assert captured.out == ""

    @pytest.mark.parametrize("policy", ["fixed:4", "fixed(4)", "fixed=4", "4", 4, 4.0])
    def test_p_policy_spellings(self, policy, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "identity", "n_list": [3], "p_policy": policy}))
        assert run(["analyze", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)[0]["p"] == 4.0

    def test_p_flag_number(self, capsys):
        assert run(["analyze", "--model", "identity", "--n", "3", "--p", "4"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["p"] == 4.0

    @pytest.mark.parametrize(
        "command, family, content",
        [
            ("verify", "stationary", "x\n"),
            ("eb", "dense", "x\n"),
            ("szego", "grid", "x\n"),
            ("analyze", "stationary", "1\nnan\n0.2\n"),
            ("verify", "stationary", "1\nnan\n0.2\n"),
        ],
    )
    def test_bad_file_content_is_an_error_row(self, command, family, content, tmp_path, capsys):
        path = tmp_path / "values.csv"
        path.write_text(content)
        argv = [command, "--model", f"{family}:file={path}", "--n", "3", "--samples", "1000"]
        assert run(argv) == 2
        out = capsys.readouterr().out
        assert ": NaN" not in out
        for row in json.loads(out):
            assert row.get("error") or str(row.get("verdict")).startswith("error")

    @pytest.mark.parametrize("command", ["analyze", "verify", "eb"])
    def test_dense_file_follows_n(self, command, tmp_path, capsys):
        # n <= m reports the leading n x n block; n > m is that n's error row.
        path = tmp_path / "m.json"
        path.write_text("[[2, 0.5, 0.1], [0.5, 2, 0.3], [0.1, 0.3, 2]]")
        argv = [command, "--model", f"dense:file={path}", "--n", "2,5", "--samples", "1000"]
        assert run(argv) == 2
        rows = json.loads(capsys.readouterr().out)
        assert sorted({r["n"] for r in rows}) == [2, 5]
        for row in rows:
            failed = row.get("error") or str(row.get("verdict")).startswith("error")
            assert bool(failed) == (row["n"] == 5)
        assert "n = 5 exceeds the dense file's size m = 3" in json.dumps(rows)
        if command == "analyze":
            assert rows[0]["log_det"] == pytest.approx(np.log(3.75), rel=1e-14)

    @pytest.mark.parametrize(
        "family, values, n",
        [
            ("stationary", "[1e308, 1e308]", 1),
            ("stationary", "[1e308, 1e308]", 2),
            ("dense", "[[1e308]]", 1),
        ],
    )
    def test_overflowing_covariance_is_an_error_row(self, family, values, n, tmp_path, capsys):
        # At n = 1 p*gamma(0) overflows in the shifted diagonal (the refined
        # constant read -Infinity); at n = 2 the row sum gamma(0) + gamma(1)
        # does (p_X read Infinity with valid true).
        path = tmp_path / "big.json"
        path.write_text(values)
        argv = ["analyze", "--model", f"{family}:file={path}", "--n", str(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert run(argv) == 2
        captured = capsys.readouterr()
        [row] = json.loads(captured.out)
        assert "overflows" in row["error"] and "Infinity" not in captured.out
        assert row["log_constant_refined"] is None and row["constant_refined"] is None

    def test_theorem1_rhs_overflow_saturates(self, tmp_path):
        # The log right-hand side passes 709; exp() used to raise OverflowError.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"functions": [{"kind": "bounded_poly", "coeffs": [1e6], "clip": 1e6}]})
        )
        out = tmp_path / "big"
        argv = ["verify", "--config", str(cfg), "--model", "ma1:a=0.5", "--n", "64"]
        assert run(argv + ["--samples", "1000", "--out", str(out)]) in (0, 3)
        rows = load_json(out.with_suffix(".json"))
        theorem1 = [r for r in rows if r["function_suite"].startswith("theorem1:")]
        assert len(theorem1) == 1 and theorem1[0]["rhs"] == math.inf


class TestNoWorkerThreads:
    """The n of a run are computed on the calling thread: analyze, szego and
    eb start no thread, and verify only its normals' draw workers."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--model", "hilbert", "--n", "256,512"],
            ["analyze", "--model", "ma1:a=0.5", "--n", "2,5,16"],
            ["szego", "--model", "ma1:a=0.5", "--n", "4,64"],
            ["eb", "--model", "equicorr:rho=0.3", "--n", "4,8"],
            ["verify", "--model", "ma1:a=0.5", "--n", "3,5", "--samples", "70000"],
        ],
    )
    def test_threads_started_by_a_call(self, argv, monkeypatch, capsys):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        assert run(argv) == 0
        if argv[0] == "verify":
            assert started
            assert all(name.startswith(verify_module._DRAW_THREAD) for name in started)
        else:
            assert started == []


class TestCallLevelReuse:
    """What is computed once (the parser; a symbol's report and recursion)
    leaves every row as that n run alone, and every call as a fresh
    process's."""

    @pytest.mark.parametrize(
        "argv, n_list",
        [
            (["szego", "--model", "ma1:a=0.313"], "1,7,256,1024,2048,3000"),
            (["szego", "--model", "grid:file=grid_nonsymmetric.json"], "1,4,64,127,128,200"),
            (["analyze", "--model", "inverse_power:r=1.5"], "1,5,8,64,300,3000"),
            (["analyze", "--model", "inverse_power:r=1.5", "--p", "4"], "1,5,8,64,300,3000"),
            (["analyze", "--model", "sparse:support=1+4", "--p", "4"], "1,5,9,40,300"),
            # Sections from n = 5 on are indefinite.
            (["analyze", "--model", "equicorr:rho=-0.3"], "1,3,4,5,40"),
        ],
    )
    def test_rows_equal_each_n_alone(self, argv, n_list, monkeypatch, capsys):
        monkeypatch.chdir(DATA)

        def rows(n_arg):
            run(argv + ["--n", n_arg])
            return [json.dumps(r, sort_keys=True) for r in json.loads(capsys.readouterr().out)]

        swept = rows(n_list)
        assert swept == [row for n in n_list.split(",") for row in rows(n)]

    def test_second_call_gives_a_fresh_process_bytes(self, monkeypatch, capsys):
        argv = [
            "verify", "--model", "equicorr:rho=0.9", "--n", "4,8", "--samples", "5000",
            "--seed", "3",
        ]
        with monkeypatch.context() as patch:  # a first call that hard-fails
            patch.setattr(verify_module, "marginal_p_norm", lambda f, sigma, p: 0.0)
            assert run(argv) == 3
        capsys.readouterr()
        assert run(argv) == 0
        second = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "gaussdecoup", *argv],
            capture_output=True, text=True, env=SRC_ENV, check=True,
        )
        assert (second.out, second.err) == (fresh.stdout, fresh.stderr)

    def test_one_parser_per_process(self):
        assert cli_module._build_parser() is cli_module._build_parser()
