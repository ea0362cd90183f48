import argparse
import contextlib
import copy
import dataclasses
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mixedfp
from mixedfp import apply_A, sup_metric
from mixedfp import cli
from mixedfp import hammerstein as hs
from mixedfp.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_OPERATOR_ERROR,
    EXIT_OUTPUT_ERROR,
    ConfigError,
    _random_ordered_pairs,
    build_problem,
    load_config,
    main,
)
from mixedfp.engine import IterationConfig, iterate_step, solve
from mixedfp.funcspace import LinearPlan, load_csv, pointwise_leq
from mixedfp.order import cyclic_shift_upsilon
from worked_example import as_grid_functions, monotone_samples, random_ordered_pairs

DATA = Path(__file__).parent / "data"
SRC = Path(mixedfp.__file__).resolve().parents[1]


def reject_constant(name):
    """A ``parse_constant`` hook: strict JSON has no Infinity or NaN."""
    raise ValueError(f"{name} is not strict JSON")


def write_config(tmp_path, **overrides):
    cfg = dict(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, {})
        assert cfg["problem"] == "paper-example"
        assert cfg["quadrature"] == {"panels": 32, "points": 8}

    def test_iteration_defaults_are_the_engine_defaults(self):
        cfg = load_config(None, {})
        engine = IterationConfig()
        assert cfg["tolerances"] == {"step": engine.tol_step, "residual": engine.tol_residual}
        assert cfg["max_iters"] == engine.max_iters
        assert cfg["grid"] == {"n": 200}

    def test_file_overrides_defaults(self, tmp_path):
        path = write_config(tmp_path, alpha=3.0, tolerances={"residual": 1e-6})
        cfg = load_config(path, {})
        assert cfg["alpha"] == 3.0
        assert cfg["tolerances"]["residual"] == 1e-6
        assert cfg["tolerances"]["step"] == 1e-10  # nested merge keeps defaults

    def test_flag_wins_over_file(self, tmp_path):
        path = write_config(tmp_path, alpha=3.0)
        cfg = load_config(path, {"alpha": 5.0, "T": None})
        assert cfg["alpha"] == 5.0

    def test_registries_are_the_problem_modules(self):
        assert cli.KERNELS is hs.KERNELS
        assert cli.NONLINEARITIES is hs.NONLINEARITIES
        assert cli.FORCINGS is hs.FORCINGS

    def test_custom_problem(self):
        cfg = load_config(None, {})
        cfg.update(
            problem="custom", kernel="constant",
            nonlinearities=["zero", "zero"], forcing="linear",
            domain_floor=0.0,
        )
        problem = build_problem(cfg)
        x = problem.grid.sample(lambda t: 2.0 * t)
        assert sup_metric(apply_A(problem, (x, x)), x) < 1e-12


class TestExitCodes:
    def test_check_eta_overridden_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, eta=[5.0, 1.0])
        assert main(["check", "--config", path]) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert not report["eta_ok"]

    def test_check_assumption_d_violation_fails(self, tmp_path, capsys):
        # eta 0.5 narrows the first band below log(s + y) - log(s + x)
        path = write_config(tmp_path, eta=[0.5, 1.0])
        assert main(["check", "--config", path]) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["eta_ok"]
        assert {v[0] for v in report["assumption_d_violations"]} == {1}

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("content, message", [
        (b"[1, 2]", "config error: config root must be a JSON object"),
        (b'{"alpha": ' + b"1" * 5000 + b"}", "config error: cannot read config "),
        (b"\xff\xfe{}", "config error: cannot read config "),
        (b"[" * 990 + b"]" * 990, "config error: cannot read config "),
        (b"[" * 100000 + b"]" * 100000, "config error: cannot read config "),
        (b'{"eta": ' + b"[" * 2000 + b"]" * 2000 + b"}", "config error: cannot read config "),
    ], ids=["root_list", "integer_of_5000_digits", "not_utf8", "nested_990", "nested_100000",
            "nested_eta"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(message)

    def test_loose_tolerance_converges_fast(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"step": 1e-2, "residual": 1e-2},
                           grid={"n": 50})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        tight = json.loads((out / "report.json").read_text())
        assert tight["iterations"] < 10

    def test_max_iters_one_fails(self, tmp_path):
        cfg = write_config(tmp_path, max_iters=1)
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        assert (out / "trace.csv").read_text().count("\n") == 2  # header + 1 row

    @pytest.mark.parametrize("config, flags, message", [
        ({"max_iters": 0}, [], "max_iters must be >= 1"),
        ({"tolerances": {"step": -1}}, [], "tolerances must be positive"),
        ({}, ["--alpha", "inf"], "alpha and T must be finite"),
        ({"problem": "nope"}, [], "unknown problem kind 'nope'"),
    ], ids=["max_iters_0", "negative_step", "alpha_inf", "unknown_kind"])
    def test_invalid_solve_config_exits_2(self, tmp_path, capsys, config, flags, message):
        cfg = write_config(tmp_path, **config)
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg, "--out", str(out), *flags])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()  # rejected before any output is written

    @pytest.mark.parametrize("config", [
        {"tolerances": {"step": math.nan}},
        {"max_iters": 0},
    ], ids=["nan_step", "max_iters_0"])
    def test_check_refuses_what_solve_refuses(self, tmp_path, capsys, config):
        # and verify too: every subcommand reads its config through one check
        cfg = write_config(tmp_path, **config)  # json writes NaN
        lines = []
        for argv in (["check", "--config", cfg],
                     ["solve", "--config", cfg, "--out", str(tmp_path / "out")],
                     ["verify", "--config", cfg]):
            assert main(argv) == EXIT_CONFIG_ERROR
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            lines.append(captured.err)
        assert len(set(lines)) == 1 and lines[0].startswith("config error: bad config: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", [
        '"max_iters": 1e400', '"grid": {"n": 1e400}', '"quadrature": {"panels": 1e400}',
        '"quadrature": {"points": 1e400}',
        '"m": 1e400, "problem": "custom", "kernel": "constant", '
        '"nonlinearities": ["zero", "zero"], "forcing": "linear"',
    ], ids=["max_iters", "grid.n", "quadrature.panels", "quadrature.points", "m"])
    def test_infinite_integer_field_exits_2(self, tmp_path, capsys, field):
        # JSON reads 1e400 as infinity, which int() cannot convert
        cfg = tmp_path / "config.json"
        cfg.write_text("{" + field + "}")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "infinity" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_a_file"])
    def test_out_on_a_file_exits_2_before_the_checks(self, tmp_path, capsys, below):
        existing = tmp_path / "report.txt"
        existing.write_text("kept")
        out = existing / "run" if below else existing
        assert main(["solve", "--out", str(out)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot create --out")
        assert "Traceback" not in captured.err
        assert captured.out == "" and existing.read_text() == "kept"

    @pytest.mark.parametrize("argv, name", [
        ([], "report.json"), ([], "solution.csv"), ([], "trace.csv"),
        (["--config", str(DATA / "negative_floor.json")], "report.json"),
        (["--alpha", "1.01", "--force"], "report.json"),
    ], ids=["report", "solution", "trace", "check_failed", "operator_error"])
    def test_an_unwritable_output_exits_2(self, tmp_path, capsys, argv, name):
        # a directory where solve writes a file
        (tmp_path / name).mkdir()
        assert main(["solve", *argv, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        # the operator-error path first says so, on its own line
        assert err.splitlines()[-1].startswith(f"config error: cannot write {tmp_path / name}: ")
        assert err.count("config error") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, method, code, what", [
        ([], "write_text", errno.ENOSPC, "write {out}/trace.csv"),
        (["--config", str(DATA / "negative_floor.json")], "unlink", errno.EIO,
         "remove {out}/trace.csv"),
        ([], "mkdir", errno.EDQUOT, "create --out {out}"),
    ], ids=["full_disk_at_a_write", "io_error_at_a_removal", "quota_at_the_directory"])
    def test_a_device_fault_is_an_output_error(self, tmp_path, monkeypatch, capsys, argv,
                                               method, code, what):
        # solve creates --out, then writes or removes trace.csv first; the
        # device fails one of them, which is exit 5 and one line, not a
        # config error
        def fault(path, *args, **kwargs):
            raise OSError(code, os.strerror(code), str(path))

        monkeypatch.setattr(Path, method, fault)
        out = tmp_path / "out"
        assert main(["solve", *argv, "--out", str(out)]) == EXIT_OUTPUT_ERROR
        path = out if method == "mkdir" else out / "trace.csv"
        assert capsys.readouterr().err == (f"output error: cannot {what.format(out=out)}: "
                                           f"[Errno {code}] {os.strerror(code)}: '{path}'\n")

    def test_forced_solve_below_floor_reports_operator_error(self, tmp_path, capsys):
        # at alpha = 1.01 the first sweep takes component 1 below the floor
        out = tmp_path / "out"
        code = main(["solve", "--alpha", "1.01", "--force", "--out", str(out)])
        assert code == EXIT_OPERATOR_ERROR
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        error = report["operator_error"]
        assert error["component"] == 1 and error["node"] == 1.0
        assert "below the domain floor" in error["message"]
        err = capsys.readouterr().err
        assert err.startswith("operator error:") and "Traceback" not in err

    def test_verify_unevaluable_operator_exits_4(self, tmp_path):
        # a floor of 0 lets the first pair's lower tuple reach x = 0, where
        # neg-log-product is infinite
        cfg = write_config(
            tmp_path, problem="custom", m=1, kernel="log-product",
            nonlinearities=["log-shift", "neg-log-product"],
            forcing="linear-minus-log", domain_floor=0.0,
        )
        result = subprocess.run(
            [sys.executable, "-m", "mixedfp.cli", "verify", "--config", cfg, "--seed", "5"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_OPERATOR_ERROR
        assert json.loads(result.stdout, parse_constant=reject_constant) == {"operator_error": {
            "component": None, "node": None,
            "message": "operator failed: non-finite integrand encountered"}}
        assert result.stderr.startswith("operator error:")
        assert "non-finite integrand" in result.stderr
        assert "Traceback" not in result.stderr

    def test_verify_makes_one_integrals_call_per_block(self, monkeypatch, capsys):
        calls = recorded_integrals(monkeypatch)

        def no_apply(*args):
            raise AssertionError("per-tuple apply called")

        monkeypatch.setattr(cli.hs, "apply_A", no_apply)
        assert main(["verify", "--seed", "5"]) == EXIT_OK
        # the default config: k = 2, n = 201, nq = 256; a block is as many
        # samples as make _BLOCK_ELEMENTS // nq arguments, 2k a sample
        size = hs._BLOCK_ELEMENTS // (4 * 256)
        assert size == 12

        def blocks(count):
            return [min(size, count - start) for start in range(0, count, size)]

        # 200 contraction pairs, none rejected, rows x then z; then 50
        # monotonicity samples, rows low then high; the k = 2 columns of a
        # sampled check's rows are distinct, so each call reads 2 argument rows
        assert calls == ([(2 * b, 2) for b in blocks(200)]
                         + [(2 * b, 2) for b in blocks(50)])

    @pytest.mark.parametrize("config", [
        {},
        {"grid": {"n": 8}, "quadrature": {"panels": 2000, "points": 8}},
        {"problem": "custom", "m": 2, "kernel": "constant", "forcing": "linear",
         "nonlinearities": ["log-shift", "neg-log-product"] * 2, "eta": [0.25] * 4},
    ], ids=["default", "wide_quadrature", "k4"])
    def test_sampled_checks_transfer_one_block_at_a_time(
            self, tmp_path, monkeypatch, capsys, config):
        # the argument rows of an _integrals call are (k, R*nq): a sampled
        # check hands it one block, R rows of k arguments that make at most
        # _BLOCK_ELEMENTS // max(n, nq) arguments, or one sample's 2k when a
        # single sample is larger
        path = write_config(tmp_path, **config)
        problem = build_problem(load_config(path, {}))
        k, size = problem.k, max(problem.grid.n, problem.quadrature.nodes.size)
        calls = recorded_integrals(monkeypatch)
        for argv in (["check"], ["verify", "--seed", "5"]):
            assert main([*argv, "--config", path]) in (EXIT_OK, EXIT_CHECK_FAILED)
        assert calls
        assert max(r * c for r, c in calls) <= max(hs._BLOCK_ELEMENTS // size, 2 * k)

    @pytest.mark.parametrize("config", [
        {},
        {"problem": "custom", "m": 2, "kernel": "constant", "forcing": "linear",
         "nonlinearities": ["log-shift", "neg-log-product"] * 2, "eta": [0.25] * 4},
    ], ids=["default", "k4"])
    def test_each_nonlinearity_is_called_once_per_integrals_call(
            self, tmp_path, monkeypatch, capsys, config):
        # every _integrals call is one kernel call: each f_j once, in order,
        # on the R argument rows laid end to end
        calls, active, integrals = [], [], hs._integrals

        def counting(factory):
            def make(alpha, T):
                f = factory(alpha, T)

                def g(s, x):
                    if active:
                        active[-1].append((g, x.size))
                    return f(s, x)
                return g
            return make

        def recorded(problem, args, *layout, **kwargs):
            active.append([])
            try:
                return integrals(problem, args, *layout, **kwargs)
            finally:
                calls.append((problem, argument_rows(problem, args), active.pop()))

        monkeypatch.setattr(hs, "NONLINEARITIES",
                            {name: counting(f) for name, f in hs.NONLINEARITIES.items()})
        monkeypatch.setattr(hs, "_integrals", recorded)
        path = write_config(tmp_path, **config)
        for argv in (["check"], ["verify", "--seed", "5"]):
            assert main([*argv, "--config", path]) in (EXIT_OK, EXIT_CHECK_FAILED)
        assert calls
        for problem, n_rows, called in calls:
            size = n_rows * problem.quadrature.nodes.size
            assert called == [(g, size) for g in problem.nonlinearities]

    def test_kernel_guard_counts_the_config_integers(self, monkeypatch):
        # the default config has 201 grid nodes and 32 x 8 quadrature nodes
        kernel_bytes = 201 * 256 * 8
        cfg = load_config(None, {})
        monkeypatch.setattr(cli, "KERNEL_BYTES_GUARD", kernel_bytes)
        build_problem(cfg)
        monkeypatch.setattr(cli, "KERNEL_BYTES_GUARD", kernel_bytes - 1)
        with pytest.raises(ConfigError, match=f"{kernel_bytes} byte kernel"):
            build_problem(cfg)

    @pytest.mark.parametrize("grid, quadrature", [
        ({"n": 10 ** 6}, {"panels": 1024, "points": 8}),
        ({"n": 10 ** 12}, {"panels": 0, "points": 8}),
    ], ids=["kernel", "grid"])
    @pytest.mark.parametrize("problem", ["paper-example", "custom"])
    def test_kernel_guard_exits_2_before_allocating(
            self, tmp_path, monkeypatch, capsys, grid, quadrature, problem):
        def no_build(*args, **kwargs):
            raise AssertionError("problem data built despite the guard")

        for name in ("uniform_grid", "make_quadrature", "named_problem"):
            monkeypatch.setattr(cli.hs, name, no_build)
        cfg = write_config(
            tmp_path, problem=problem, grid=grid, quadrature=quadrature,
            kernel="log-product", nonlinearities=["log-shift", "neg-log-product"],
            forcing="linear-minus-log",
        )
        assert main(["check", "--config", cfg]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "above the guard" in err

    @pytest.mark.parametrize("argv", [
        ["check", "--out", "x"], ["check", "--seed", "1"], ["check", "--force"],
        ["solve", "--seed", "1"], ["verify", "--out", "x"], ["verify", "--force"],
    ], ids=lambda argv: "_".join(argv[:2]))
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", [
        ({"tolerances": {"step": math.nan}}, "tolerances"),
        ({"tolerances": {"residual": math.inf}}, "tolerances"),
        ({"eta": [math.nan, 1.0]}, "eta"),
        ({"problem": "custom", "kernel": "constant", "forcing": "linear",
          "nonlinearities": ["log-shift", "neg-log-product"], "domain_floor": math.nan},
         "domain_floor"),
    ], ids=["nan_step", "inf_residual", "nan_eta", "nan_floor"])
    def test_non_finite_value_exits_2_without_a_sweep(
            self, tmp_path, monkeypatch, capsys, config, field):
        def no_operator(problem):
            raise AssertionError("operator built despite the config error")

        monkeypatch.setattr(cli.hs, "product_operator", no_operator)
        cfg = write_config(tmp_path, **config)  # json writes NaN and Infinity
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("alpha, T, message", [
        (0.0, 2.0, "float division by zero"),
        (-0.5, 2.0, "linear-minus-log takes ln((1+alpha)/(alpha*sqrt(T))), "
                    "undefined at alpha = -0.5 and T = 2.0"),
        (-1.0, 2.0, "linear-minus-log takes ln((1+alpha)/(alpha*sqrt(T))), "
                    "undefined at alpha = -1.0 and T = 2.0"),
        (2.0, -1.0, "T must exceed 1"),
    ], ids=["alpha_0", "alpha_-0.5", "alpha_-1", "T_-1"])
    def test_custom_forcing_constant_out_of_domain_exits_2(self, tmp_path, capsys, alpha, T,
                                                            message):
        # linear-minus-log computes ln((1+alpha)/(alpha*sqrt(T))) when it is built
        cfg = write_config(
            tmp_path, problem="custom", kernel="log-product", alpha=alpha, T=T,
            nonlinearities=["log-shift", "neg-log-product"], forcing="linear-minus-log")
        assert main(["check", "--config", cfg]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error:") and message in captured.err

    @pytest.mark.parametrize("config, message", [
        ({"kernel": "nope"}, "unknown kernel 'nope'; known: constant, log-product"),
        ({"forcing": "nope"}, "unknown forcing 'nope'; known: linear, linear-minus-log, zero"),
        ({"nonlinearities": "log-shift"},
         "nonlinearities must be a list of names, got 'log-shift'"),
        ({"nonlinearities": [1, 2]},
         "unknown nonlinearity 1; known: log-shift, neg-log-product, zero"),
        ({"nonlinearities": None}, "config keys that a custom problem needs: nonlinearities"),
        ({"alpha": -0.5}, "forcing linear-minus-log takes ln((1+alpha)/(alpha*sqrt(T))), "
                          "undefined at alpha = -0.5 and T = 2.0"),
    ], ids=["unknown_kernel", "unknown_forcing", "string_nonlinearities", "non_string_name",
            "missing_key", "forcing_domain"])
    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_bad_custom_piece_exits_2_naming_it(self, tmp_path, capsys, config, message,
                                                command):
        # a custom config naming the paper's pieces, with one of them changed
        # (None drops the key)
        pieces = {"problem": "custom", "kernel": "log-product", "forcing": "linear-minus-log",
                  "nonlinearities": ["log-shift", "neg-log-product"], **config}
        cfg = write_config(tmp_path, **{k: v for k, v in pieces.items() if v is not None})
        argv = [command, "--config", cfg]
        if command == "solve":
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_CONFIG_ERROR
        assert seen == []
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error:") and message in captured.err
        assert not (tmp_path / "out").exists()

    def test_paper_example_with_its_own_eta_assembles_one_kernel(self, monkeypatch):
        calls = []
        log_product = hs.KERNELS["log-product"]

        def counted(alpha, T):
            kernel = log_product(alpha, T)
            return hs.SeparableKernel(lambda t: calls.append(("a", t.shape)) or kernel.a(t),
                                      lambda s: calls.append(("b", s.shape)) or kernel.b(s))

        monkeypatch.setitem(hs.KERNELS, "log-product", counted)
        cfg = load_config(None, {})
        cfg["eta"] = [0.5, 1.0]
        assert build_problem(cfg).etas == (0.5, 1.0)
        # each factor once: a on the 201 grid nodes followed by the 256
        # quadrature nodes, b on the quadrature nodes; no (201, 256) kernel
        assert calls == [("a", (457,)), ("b", (256,))]

    @pytest.mark.parametrize("config, field", [
        ({"grid": {"n": 50.9}}, "grid.n"),
        ({"grid": {"n": True}}, "grid.n"),
        ({"grid": {"n": "50"}}, "grid.n"),
        ({"grid": {"n": math.nan}}, "grid.n"),
        ({"quadrature": {"panels": 32.5}}, "quadrature.panels"),
        ({"quadrature": {"points": True}}, "quadrature.points"),
        ({"m": 1.5}, "m"),
        ({"max_iters": 10.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"),
    ], ids=["n_fraction", "n_bool", "n_string", "n_nan", "panels", "points", "m",
            "max_iters", "max_iters_bool"])
    def test_non_integral_integer_field_exits_2(self, tmp_path, capsys, config, field):
        cfg = write_config(tmp_path, **config)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad config: {field} must be an integer, got ")
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"eta": "11"}, "eta must be a list of numbers, got '11'"),
        ({"eta": 1}, "eta must be a list of numbers, got 1"),
        ({"eta": [True, 1]}, "eta[0] must be a number, got True"),
        ({"eta": [1, "1"]}, "eta[1] must be a number, got '1'"),
        ({"tolerances": {"step": True}}, "tolerances.step must be a number, got True"),
        ({"tolerances": {"residual": "1e-8"}}, "tolerances.residual must be a number, got '1e-8'"),
        ({"alpha": "2"}, "alpha must be a number, got '2'"),
        ({"T": False}, "T must be a number, got False"),
        ({"T": None}, "T must be a number, got None"),
        ({"problem": "custom", "kernel": "constant", "nonlinearities": ["zero", "zero"],
          "forcing": "linear", "domain_floor": "1"}, "domain_floor must be a number, got '1'"),
    ], ids=["eta_string", "eta_number", "eta_bool", "eta_string_entry", "step_bool",
            "residual_string", "alpha_string", "T_bool", "T_null", "floor_string"])
    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_misread_number_exits_2_naming_it(self, tmp_path, capsys, config, message, command):
        # a bool or a string is refused, not read as the number it converts to
        cfg = write_config(tmp_path, **config)
        argv = [command, "--config", cfg]
        if command == "solve":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: bad config: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_read_as_its_integer(self, tmp_path):
        cfg = load_config(write_config(tmp_path, grid={"n": 50.0}), {})
        assert build_problem(cfg).grid.n == 51

    @pytest.mark.parametrize("config, key", [
        ({"grid": {"N": 500}}, "grid.N"),
        ({"tolerance": {"step": 1e-3}}, "tolerance"),
        ({"quadrature": {"kind": "simpson"}}, "quadrature.kind"),
        ({"kernel": "constant"}, "kernel"),
        ({"nonlinearities": ["zero", "zero"]}, "nonlinearities"),
        ({"forcing": "linear"}, "forcing"),
        ({"domain_floor": 0.0}, "domain_floor"),
        ({"grid": {"kind": "uniform"}}, "grid.kind"),
        ({"grid": {"kind": "loaded"}}, "grid.kind"),
    ], ids=["grid.N", "tolerance", "quadrature.kind", "kernel", "nonlinearities",
            "forcing", "domain_floor", "grid.kind", "grid.kind_loaded"])
    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_unread_key_exits_2(self, tmp_path, capsys, config, key, command):
        cfg = write_config(tmp_path, **config)
        argv = [command, "--config", cfg]
        if command == "solve":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: config keys that nothing reads: {key}\n"
        assert not (tmp_path / "out").exists()

    def test_paper_example_refuses_m_other_than_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=2)
        assert main(["check", "--config", cfg]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: the paper example has m = 1, got m = 2\n"

    @pytest.mark.parametrize("command, config, message", [
        pytest.param(command, config, message, id=f"{command}-{name}")
        for name, config, message, commands in [
            # the forcing alpha*t - c/(2t) overflows, so no problem is built
            ("alpha", {"alpha": 1e308}, "forcing must be finite on the grid",
             ("check", "solve", "verify")),
            # the forcing is finite at t <= 1.05, the upper start is not
            ("T_bracket", {"alpha": 1.3e308, "T": 1.05},
             "no start bracket at alpha = 1.3e+308 and T = 1.05", ("check", "solve")),
            # the quadrature nodes lie in [1, T]; the forcing overflows at t = T
            ("T_quadrature", {"T": 1e308}, "forcing must be finite on the grid",
             ("check", "solve", "verify")),
        ] for command in commands
    ])
    def test_overflowing_start_bracket_exits_2(self, tmp_path, capsys, command, config, message):
        cfg = write_config(tmp_path, **config)
        argv = [command, "--config", cfg]
        if command == "solve":
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert main(argv) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error:") and message in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("points", [2], ids=["1x2"])
    def test_quadrature_below_the_grid_minimum(self, tmp_path, capsys, points):
        # 2 quadrature nodes, fewer than the 9 nodes a Grid needs: so iterates
        # held at the quadrature nodes cannot be held in a Grid (1 x 4 is a
        # pinned run, tests/test_pinned_runs.py)
        cfg = write_config(tmp_path, quadrature={"panels": 1, "points": points})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (["check"], ["solve", "--out", str(out)], ["verify", "--seed", "5"]):
                assert main([*argv, "--config", cfg]) == EXIT_OK
        capsys.readouterr()

    def test_verify_seed_changes_samples_not_verdict(self, capsys):
        assert main(["verify", "--alpha", "2", "--T", "2", "--seed", "7"]) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert main(["verify", "--alpha", "2", "--T", "2", "--seed", "8"]) == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        assert first["contraction_min_slack"] != second["contraction_min_slack"]

    def test_verify_broken_nonlinearity_fails(self, tmp_path, capsys):
        # f1 scaled by 3 leaves the log(1 + .) band
        cfg = write_config(
            tmp_path, problem="custom", kernel="log-product",
            nonlinearities=["triple-log-shift", "neg-log-product"],
            forcing="linear-minus-log",
        )
        from mixedfp.cli import NONLINEARITIES

        NONLINEARITIES["triple-log-shift"] = lambda alpha, T: (
            lambda s, x: 3.0 * np.log(s + x)
        )
        try:
            assert main(["verify", "--config", cfg, "--seed", "42"]) == EXIT_CHECK_FAILED
        finally:
            del NONLINEARITIES["triple-log-shift"]

    def test_scalar_only_nonlinearity_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, problem="custom", kernel="log-product",
            nonlinearities=["scalar-log-shift", "neg-log-product"],
            forcing="linear-minus-log",
        )
        from mixedfp.cli import NONLINEARITIES

        NONLINEARITIES["scalar-log-shift"] = lambda alpha, T: (
            lambda s, x: math.log(s + x)
        )
        try:
            assert main(["check", "--config", cfg]) == EXIT_CONFIG_ERROR
        finally:
            del NONLINEARITIES["scalar-log-shift"]
        assert "nonlinearity 1 must accept node arrays" in capsys.readouterr().err


# Values outside what the schema expects.
ODD_VALUES = [0, 1, -1, 1 + 1e-7, math.nan, math.inf, -math.inf, 1e308, -1e308, 1e154,
              True, False, "x", None, [1.0, 2.0], {"n": 1}]
# Every config key, and an entry of each list, as a path into the config.
CONFIG_PATHS = [("problem",), ("T",), ("alpha",), ("m",), ("eta",), ("eta", 0), ("grid",),
                ("grid", "n"), ("quadrature",), ("quadrature", "panels"),
                ("quadrature", "points"), ("tolerances",), ("tolerances", "step"),
                ("tolerances", "residual"), ("max_iters",), ("kernel",), ("nonlinearities",),
                ("nonlinearities", 0), ("forcing",), ("domain_floor",), ("unknown",)]
_NAMES = sorted({*hs.KERNELS, *hs.NONLINEARITIES, *hs.FORCINGS})


@st.composite
def configs(draw):
    """A config that runs, paper example or custom, at most 24 grid intervals,
    4 x 4 quadrature nodes and 60 sweeps (the run-time cap), with up to three
    keys or entries then set to an odd value or a registry name."""
    pick = lambda *values: draw(st.sampled_from(values))
    m = pick(1, 2)
    cfg = {"T": pick(2.0, math.e, 10.0, 1.05), "alpha": pick(2.0, 1.5, 5.0, 1.01),
           "grid": {"n": pick(8, 24)}, "quadrature": {"panels": pick(1, 4), "points": pick(2, 4)},
           "tolerances": {"step": pick(1e-10, 1e-4)}, "max_iters": pick(1, 60),
           "eta": [pick(1.0, 0.5)] * 2}
    if draw(st.booleans()):
        cfg.update(problem="custom", m=m, kernel=pick(*hs.KERNELS),
                   nonlinearities=[pick(*hs.NONLINEARITIES) for _ in range(2 * m)],
                   forcing=pick(*hs.FORCINGS), domain_floor=pick(1.0, 0.0, 2.0),
                   eta=[pick(1.0, 0.5, 0.25)] * (2 * m))
    for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), max_size=3, unique=True)):
        *parents, last = path
        section = cfg
        for key in parents:
            section = section.setdefault(key, {})
        if isinstance(section, dict) or (isinstance(section, list) and section and last == 0):
            section[last] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES + _NAMES)))
    return cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(configs())
# found by hand or by this property: a grid spacing that overflowed a cubic
# transfer, an overflowing eta cap, and a forced solve whose last iterate lies
# below the floor
@example({"T": 1e106})
@example({"eta": [1e308, 1.0]})
@example({"problem": "custom", "kernel": "log-product", "forcing": "linear-minus-log",
          "nonlinearities": ["neg-log-product", "neg-log-product"], "max_iters": 1})
def test_no_config_crashes_or_warns(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))  # json writes NaN and Infinity
        for argv in (["check"], ["solve", "--out", f"{tmp}/a"],
                     ["solve", "--force", "--out", f"{tmp}/b"], ["verify"]):
            out = io.StringIO()
            # "always", not "error": under "error" a numpy warning raised
            # inside an operator call would read as an operator error
            with warnings.catch_warnings(record=True) as seen, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("always")
                code = main([*argv, "--config", str(path)])
            assert code in range(5) and [str(w.message) for w in seen] == [], argv
            if out.getvalue():
                json.loads(out.getvalue(), parse_constant=reject_constant)
            report = Path(argv[-1]) / "report.json"
            if argv[0] == "solve" and report.exists():
                json.loads(report.read_text(), parse_constant=reject_constant)
            if argv[0] == "check" and code in (EXIT_OK, EXIT_CHECK_FAILED):
                _assert_read_as_written(config, path)


def _assert_read_as_written(config, path):
    """The problem and iteration settings that a config which checks builds
    hold the values it sets, or else the defaults."""
    def read(*keys):
        for source in (config, cli.DEFAULTS):
            try:
                for key in keys:
                    source = source[key]
                return source
            except (KeyError, IndexError, TypeError):
                continue

    args = argparse.Namespace(config=str(path), alpha=None, T=None)
    _, problem, iteration = cli._prepare(args)
    assert problem.grid.n == read("grid", "n") + 1
    panels, points = read("quadrature", "panels"), read("quadrature", "points")
    assert problem.quadrature.nodes.size == panels * points
    assert problem.etas == tuple(read("eta"))
    assert problem.domain_floor == config.get("domain_floor", 1.0)
    assert (problem.m, problem.T) == (read("m"), read("T"))
    assert (iteration.tol_step, iteration.tol_residual, iteration.max_iters) == (
        read("tolerances", "step"), read("tolerances", "residual"), read("max_iters"))


def test_solve_does_not_import_scipy(tmp_path):
    src = Path(mixedfp.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from mixedfp.cli import main\n"
        f"assert main(['solve', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["solve", "check"])
def test_start_tuple_built_once(tmp_path, caplog, command):
    # at alpha < 2 the lower start is clamped to the floor, which logs once
    # per start tuple built
    argv = [command, "--alpha", "1.5", "--T", "2"]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out")]
    with caplog.at_level("WARNING", logger="mixedfp.hammerstein"):
        assert main(argv) == EXIT_OK
    clamps = [r for r in caplog.records if "clamping to the floor" in r.getMessage()]
    assert len(clamps) == 1


def test_verify_builds_no_start_tuple(capsys):
    # check and solve log the clamp of the start at alpha < 2; verify reads none
    assert main(["verify", "--alpha", "1.5", "--T", "2", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_verify_peaks_with_check_on_a_wide_grid(tmp_path):
    # verify draws its 250 samples a block at a time, so at n = 4096 grid
    # nodes (one sample a block) its traced peak is check's, within 10 % or
    # 1 MiB; one array of its 200 pairs alone would be 26 MB.  A first
    # check and a first verify build what any first call builds (a first
    # verify imports about 0.7 MiB of modules for its generator), so
    # neither peak counts it.
    path = write_config(tmp_path, grid={"n": 4095})
    peaks = {}
    for name, argv in (("warm", ["check"]), ("warm", ["verify", "--seed", "5"]),
                       ("check", ["check"]), ("verify", ["verify", "--seed", "5"])):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--config", path]) == EXIT_OK
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["verify"] <= max(1.1 * peaks["check"], peaks["check"] + 2 ** 20), peaks


def recorded_applies(monkeypatch):
    """The rows of every transfer apply, with "solved" marking where each
    ``solve`` returned."""
    applied, apply, run = [], LinearPlan.apply, cli.solve
    monkeypatch.setattr(
        LinearPlan, "apply", lambda plan, y: applied.append(y.shape[0]) or apply(plan, y))
    monkeypatch.setattr(
        cli, "solve", lambda *args, **kwargs: [run(*args, **kwargs), applied.append("solved")][0])
    return applied


K4_ZERO = dict(problem="custom", m=2, kernel="constant", nonlinearities=["zero"] * 4,
               forcing="linear", eta=[0.25] * 4)


@pytest.mark.parametrize("config", [
    {}, {"grid": {"n": 1000}, "quadrature": {"panels": 128, "points": 8}}, K4_ZERO,
], ids=["default", "fine_grid", "k4_zero"])
@pytest.mark.parametrize("alpha, T", [(2.0, 2.0), (2.0, math.e), (5.0, 10.0)])
def test_registry_solve_transfers_only_its_start(tmp_path, monkeypatch, config, alpha, T):
    # check E's sweep over the start's two distinct components, which solve
    # takes as its first sweep; the sampled mixed-monotonicity check reads
    # its constants at the nodes as they are, and every later image, the
    # solution whose collapsed residual the report states among them,
    # carries its quadrature-node values
    applied = recorded_applies(monkeypatch)
    cfg = write_config(tmp_path, **config)
    argv = ["solve", "--config", cfg, "--alpha", repr(alpha), "--T", repr(T)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert applied == [2, "solved"]


def test_collapsed_residual_of_a_dense_kernel_transfers_nothing(monkeypatch):
    cfg = load_config(None, {})
    cfg.update(K4_ZERO)
    problem = build_problem(cfg)
    kernel = problem.kernel
    dense = dataclasses.replace(problem, kernel=lambda t, s: kernel(t, s))
    F, ups = hs.product_operator(dense), cyclic_shift_upsilon(dense.m)
    report = solve(F, ups, cli._start_tuple(dense, 2.0), IterationConfig(),
                   dist=sup_metric, leq=pointwise_leq)
    applied = recorded_applies(monkeypatch)
    iterate_step(F, ups, (report.fixed_point[0],) * dense.k)
    assert applied == []  # the solution carries its quadrature-node values


class TestCachedParser:
    """One parser serves every ``main`` call of a process, and carries
    nothing from one call to the next."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        seen = []
        for name in ("cmd_check", "cmd_solve", "cmd_verify"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(args) or EXIT_OK)
        return seen

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_force_is_not_carried_over(self, parsed):
        assert main(["solve", "--force"]) == main(["solve"]) == EXIT_OK
        assert [args.force for args in parsed] == [True, False]

    def test_seed_is_not_carried_over(self, parsed):
        main(["verify", "--seed", "7"])
        main(["verify"])
        assert [args.seed for args in parsed] == [7, 42]

    def test_a_usage_error_reads_the_same_twice(self, capsys):
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["check", "--out", "x"])
            assert exc.value.code == EXIT_CONFIG_ERROR
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and "unrecognized arguments: --out x" in errs[0]

    def test_a_handler_patched_after_the_parser_is_built_runs(self, monkeypatch):
        cli._parser()
        monkeypatch.setattr(cli, "cmd_check", lambda args: 17)
        assert main(["check"]) == 17


class TestReproducibility:
    def test_solve_bit_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["solve", "--alpha", "2", "--T", "2", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for fname in ("solution.csv", "trace.csv", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("alpha, T", [(2.0, 1.05), (2.0, 2.0), (5.0, 10.0)])
    def test_custom_paper_pieces_equal_the_paper_example(self, tmp_path, alpha, T):
        # both read the same registry entries, so the files agree bit for bit
        custom = write_config(
            tmp_path, problem="custom", kernel="log-product",
            nonlinearities=["log-shift", "neg-log-product"], forcing="linear-minus-log")
        flags = ["--alpha", repr(alpha), "--T", repr(T)]
        for name, extra in (("paper", []), ("custom", ["--config", custom])):
            assert main(["solve", *extra, *flags, "--out", str(tmp_path / name)]) == EXIT_OK
        for fname in ("solution.csv", "trace.csv"):
            assert ((tmp_path / "paper" / fname).read_bytes()
                    == (tmp_path / "custom" / fname).read_bytes())

    def test_solution_round_trip_residual(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--alpha", "2", "--T", "2", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        solution = load_csv(out / "solution.csv")
        problem = build_problem(load_config(None, {"alpha": 2.0, "T": 2.0}))
        recomputed = sup_metric(
            solution, apply_A(problem, (solution,) * problem.k)
        )
        assert abs(recomputed - report["solution_residual"]) < 1e-12


def argument_rows(problem, args):
    """The rows R of a ``hammerstein._integrals`` call, read off its
    argument rows, each R rows' arguments at the quadrature nodes."""
    return args.shape[1] // problem.quadrature.nodes.size


def recorded_integrals(monkeypatch):
    """Record (rows, argument rows) of every ``hammerstein._integrals``
    call."""
    calls, integrals = [], hs._integrals

    def recorded(problem, args, *layout, **kwargs):
        calls.append((argument_rows(problem, args), len(args)))
        return integrals(problem, args, *layout, **kwargs)

    monkeypatch.setattr(hs, "_integrals", recorded)
    return calls


def looped_ordered_pairs(problem, rng, count):
    """The pair sampler drawn pair by pair, one ``rng.random`` call each:
    the reference for the stacked ``random_ordered_pairs``."""
    k, ones = problem.k, np.ones_like(problem.grid.nodes)
    lo, hi = problem.domain_floor, problem.domain_floor + 9.0
    in_a = (np.arange(k) % 2 == 0)[:, None]
    pairs = []
    for idx in range(count):
        if idx == 0:
            a, gap = np.full((k, 1), lo), np.full((k, 1), hi - lo)
        else:
            functions = idx % 2 == 1
            u = rng.random((k, 2, ones.size if functions else 1))
            a = lo + ((hi - 1.0 if functions else hi) - lo) * u[:, 0]
            gap = (hi - a.max(axis=1, keepdims=True)) * u[:, 1]
        a, b = a * ones, (a + gap) * ones
        pairs.append((np.where(in_a, a, b), np.where(in_a, b, a)))
    return pairs


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("count", [1, 2, 3, 8, 200])
def test_stacked_pairs_equal_the_pair_by_pair_draws(tmp_path, m, count):
    cfg = write_config(tmp_path, problem="custom", m=m, kernel="constant", forcing="linear",
                       nonlinearities=["log-shift", "neg-log-product"] * m, eta=[1.0] * (2 * m),
                       grid={"n": 16})
    problem = build_problem(load_config(cfg, {}))
    stacked, looped = np.random.default_rng(7), np.random.default_rng(7)
    pairs = as_grid_functions(problem.grid, random_ordered_pairs(problem, stacked, count))
    expected = looped_ordered_pairs(problem, looped, count)
    assert len(pairs) == count
    for (x, z), (ex, ez) in zip(pairs, expected):
        assert np.array_equal(np.stack([f.values for f in x]), ex)
        assert np.array_equal(np.stack([f.values for f in z]), ez)
    # the stream continues where the pair-by-pair draws leave it
    assert stacked.random() == looped.random()


def looped_monotone_samples(problem, rng, count):
    """The monotonicity sampler drawn one ``rng.uniform`` call per constant:
    the reference for ``monotone_samples``, which draws a sample's k at once."""
    k, lo = problem.k, problem.domain_floor
    points, coords = np.empty((count, k + 1)), np.empty(count, dtype=int)
    for i in range(count):
        points[i, :k] = lo + np.array([rng.uniform(0.0, 4.0) for _ in range(k)])
        coords[i] = rng.integers(1, k + 1)
        points[i, k] = points[i, coords[i] - 1] + rng.uniform(0.1, 3.0)
    return points, coords


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_monotone_samples_equal_the_constant_by_constant_draws(tmp_path, m, seed):
    cfg = write_config(tmp_path, problem="custom", m=m, kernel="constant", forcing="linear",
                       nonlinearities=["log-shift", "neg-log-product"] * m, eta=[1.0] * (2 * m),
                       grid={"n": 16})
    problem = build_problem(load_config(cfg, {}))
    stacked, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    points, coords = monotone_samples(problem, stacked, 20)
    expected_points, expected_coords = looped_monotone_samples(problem, looped, 20)
    assert points.shape == (20, problem.k + 1)
    assert np.array_equal(points, expected_points)
    assert np.array_equal(coords, expected_coords)
    # the stream continues where the constant-by-constant draws leave it
    assert stacked.random() == looped.random()


@pytest.mark.parametrize("panels", [32, 80, 2000])
@pytest.mark.parametrize("n", [8, 200])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("count", [1, 2, 3, 50, 200])
def test_drawn_blocks_equal_the_one_array_draws(tmp_path, count, m, n, panels):
    # pair blocks of one sample (2000 x 8 nodes), of an odd number and of an
    # even one, so that blocks start at function pairs and at constant pairs;
    # the monotonicity samples are one (count, k + 1) array at any block size
    cfg = write_config(tmp_path, problem="custom", m=m, kernel="constant", forcing="linear",
                       nonlinearities=["log-shift", "neg-log-product"] * m, eta=[1.0] * (2 * m),
                       grid={"n": n}, quadrature={"panels": panels, "points": 8})
    problem = build_problem(load_config(cfg, {}))
    size = hs._samples_per_block(problem)
    drawn, one = np.random.default_rng(count), np.random.default_rng(count)
    blocks = list(_random_ordered_pairs(problem, drawn, count))
    assert [len(b) for b in blocks] == [min(size, count - start) for start in range(0, count, size)]
    got, want = np.concatenate(blocks), random_ordered_pairs(problem, one, count)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for got, want in zip(cli._monotone_samples(problem, drawn, count),
                         monotone_samples(problem, one, count)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # the generator continues where the one-array draws leave it
    assert drawn.random() == one.random()


def test_solve_builds_one_operator_and_one_upsilon(tmp_path, monkeypatch, capsys):
    # check E's sweep, the solve and the collapsed residual share them
    calls = []
    operator, upsilon = hs.product_operator, cli.cyclic_shift_upsilon
    monkeypatch.setattr(hs, "product_operator", lambda p: calls.append("F") or operator(p))
    for module in (cli, hs):
        monkeypatch.setattr(module, "cyclic_shift_upsilon",
                            lambda m: calls.append("upsilon") or upsilon(m))
    assert main(["solve", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert sorted(calls) == ["F", "upsilon"]


def cli_child(*args, **kwargs):
    """``python -m mixedfp.cli`` as a child process, text mode."""
    return subprocess.Popen([sys.executable, "-m", "mixedfp.cli", *args],
                            env={**os.environ, "PYTHONPATH": str(SRC)}, text=True, **kwargs)


class TestProcessBoundary:
    """A closed stdout, a Ctrl-C and a second run into one --out directory
    end with a documented exit code and one stderr line, never a traceback
    or another run's files."""

    def test_a_closed_stdout_exits_141(self):
        # the reader is gone before the child writes its first byte
        child = cli_child("verify", "--seed", "5", stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 141  # 128 + SIGPIPE
        assert err == "output error: stdout was closed before the output was written\n"

    def test_sigint_during_verify_exits_130(self, tmp_path):
        # the child stops after drawing its second block of pairs, says so
        # on stderr, and is sent SIGINT there
        script = (
            "import sys, time\n"
            "from mixedfp import cli\n"
            "draw = cli._random_ordered_pairs\n"
            "def stalled(*args):\n"
            "    for i, block in enumerate(draw(*args)):\n"
            "        if i == 1:\n"
            "            print('drawn', file=sys.stderr, flush=True)\n"
            "            time.sleep(120)\n"
            "        yield block\n"
            "cli._random_ordered_pairs = stalled\n"
            "sys.exit(cli.main(['verify', '--config', sys.argv[1], '--seed', '5']))\n"
        )
        path = write_config(tmp_path, grid={"n": 16383})
        child = subprocess.Popen([sys.executable, "-c", script, path],
                                 env={**os.environ, "PYTHONPATH": str(SRC)}, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert child.stderr.readline() == "drawn\n"
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=120)
        finally:
            child.kill()
        assert child.returncode == 130  # 128 + SIGINT
        assert (out, err) == ("", "interrupted\n")

    @pytest.mark.parametrize("argv, code", [
        (["--alpha", "1.01", "--T", "2"], EXIT_CHECK_FAILED),
        (["--alpha", "1.01", "--T", "2", "--force"], EXIT_OPERATOR_ERROR),
    ], ids=["check_failed", "operator_error"])
    def test_a_failed_solve_leaves_no_stale_files(self, tmp_path, argv, code):
        out = str(tmp_path / "out")
        first = cli_child("solve", "--out", out, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        assert first.wait(timeout=120) == EXIT_OK
        assert sorted(os.listdir(out)) == ["report.json", "solution.csv", "trace.csv"]
        second = cli_child("solve", *argv, "--out", out,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = second.communicate(timeout=120)[1]
        assert second.returncode == code and "Traceback" not in err
        assert os.listdir(out) == ["report.json"]
        assert json.loads((tmp_path / "out" / "report.json").read_text())["config"]["alpha"] == 1.01


def counted_registry(monkeypatch, in_d, called, declared=True):
    """Registry nonlinearities that append to ``called`` whether check D
    is running (``in_d`` non-empty) at each call, carrying their factory's
    declaration when ``declared``."""
    def counting(factory):
        def make(alpha, T):
            f = factory(alpha, T)

            def g(s, x):
                called.append(bool(in_d))
                return f(s, x)
            if declared:
                g.declared = f.declared
            return g
        return make

    check_d = hs.check_assumption_d

    def recorded_d(*args):
        in_d.append(True)
        try:
            return check_d(*args)
        finally:
            in_d.pop()

    monkeypatch.setattr(hs, "NONLINEARITIES",
                        {name: counting(f) for name, f in hs.NONLINEARITIES.items()})
    monkeypatch.setattr(hs, "check_assumption_d", recorded_d)


class TestDeclaredVerdicts:
    """Check and solve read D's bands and mixed monotonicity off the
    registry pieces' declarations, sample what they do not prove, and fail
    on what they refute."""

    @pytest.mark.parametrize("declared", [True, False], ids=["declared", "undeclared"])
    def test_a_proved_check_samples_nothing(self, monkeypatch, capsys, declared):
        # the default check: check E's sweep (2 rows over 2 argument rows)
        # is its one kernel call, and check D calls no nonlinearity; pieces
        # that declare nothing are sampled as before, 20 monotonicity
        # samples in blocks of 12 and 8 and check D's increments
        calls, in_d, called = recorded_integrals(monkeypatch), [], []
        counted_registry(monkeypatch, in_d, called, declared)
        assert main(["check"]) == EXIT_OK
        verdict = "proved" if declared else "sampled"
        assert json.loads(capsys.readouterr().out)["verdicts"] == {
            "assumption_d": verdict, "mixed_monotone": verdict}
        assert calls == ([(2, 2)] if declared else [(2, 2), (24, 2), (16, 2)])
        assert sum(called) == (0 if declared else 2)

    @pytest.mark.parametrize("config, code, refuted, reason", [
        ({"eta": [0.9, 0.9]}, EXIT_CHECK_FAILED, [(1, "log-shift"), (2, "neg-log-product")],
         "eta 0.9 is below its band constant 1.0 above the floor 1.0"),
        # the bounded samples pass eta 0.95 for log-shift; the band does not
        ({"eta": [0.95, 1.0]}, EXIT_CHECK_FAILED, [(1, "log-shift")],
         "eta 0.95 is below its band constant 1.0 above the floor 1.0"),
        ({"problem": "custom", "kernel": "log-product", "forcing": "linear-minus-log",
          "nonlinearities": ["neg-log-product", "log-shift"]}, EXIT_CHECK_FAILED,
         [(1, "neg-log-product"), (2, "log-shift")], "position needs a non"),
        (DATA / "negative_floor.json", EXIT_CHECK_FAILED,
         [(1, "log-shift"), (2, "neg-log-product")], "the floor -5.0 is not above its domain"),
        ({"problem": "custom", "m": 2, "kernel": "constant", "forcing": "linear",
          "nonlinearities": ["zero"] * 4, "eta": [0.25] * 4}, EXIT_OK, [], None),
    ], ids=["eta_0.9", "eta_0.95", "parity", "negative_floor", "zero"])
    def test_a_refutation_names_the_piece(self, tmp_path, capsys, config, code, refuted, reason):
        path = str(config) if isinstance(config, Path) else write_config(tmp_path, **config)
        assert main(["check", "--config", path]) == code
        report = json.loads(capsys.readouterr().out)
        refutations = report["verdicts"].get("refutations", [])
        assert [(r["position"], r["piece"]) for r in refutations] == refuted
        assert all(reason in r["reason"] for r in refutations)
        assert report["passed"] is (code == EXIT_OK)

    def test_a_band_refutation_fails_what_the_samples_pass(self, tmp_path, capsys):
        # D's samples reach floor + 9, where log-shift's increments stay
        # below 0.95 * log(1 + d); the band constant 1 is reached as d -> inf
        path = write_config(tmp_path, eta=[0.95, 1.0])
        assert main(["check", "--config", path]) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["assumption_d_violations"] == [] and report["eta_ok"]
        assert report["verdicts"]["mixed_monotone"] == "proved"
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) \
            == EXIT_CHECK_FAILED
        assert json.loads(capsys.readouterr().out) == report


def floor_config(tmp_path, floor):
    # the start bracket (alpha*t/2 clamped to the floor, 3*alpha*t/2) has its
    # upper component below a floor of 10 at t = 1
    return write_config(
        tmp_path, problem="custom", kernel="constant",
        nonlinearities=["log-shift", "neg-log-product"], forcing="linear",
        domain_floor=floor,
    )


class TestCustomDomainFloor:
    def test_check_reports_assumption_e_error(self, tmp_path, capsys):
        assert main(["check", "--config", floor_config(tmp_path, 10)]) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"]
        error = report["assumption_e_error"]
        assert error["component"] == 2 and error["node"] == 1.0
        assert "below the domain floor 10" in error["message"]

    def test_solve_fails_the_check_then_forced_exits_4(self, tmp_path, capsys):
        cfg = floor_config(tmp_path, 10)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        assert "assumption_e_error" in json.loads(capsys.readouterr().out)
        code = main(["solve", "--config", cfg, "--out", str(out), "--force"])
        assert code == EXIT_OPERATOR_ERROR
        report = json.loads((out / "report.json").read_text())
        assert report["operator_error"]["node"] == 1.0
        # the failing argument, as the message and the check name it, not
        # the sweep row
        assert report["operator_error"]["component"] == 2
        assert "at component 2: component 2 value" in report["operator_error"]["message"]
        assert report["check"]["assumption_e_error"]["component"] == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("floor, expected", [(2.0, EXIT_CHECK_FAILED), (10.0, EXIT_OK)])
    def test_verify_draws_pairs_above_the_floor(self, tmp_path, capsys, floor, expected):
        cfg = floor_config(tmp_path, floor)
        assert main(["verify", "--config", cfg, "--seed", "42"]) == expected
        json.loads(capsys.readouterr().out)
        problem = build_problem(load_config(cfg, {}))
        for block in _random_ordered_pairs(problem, np.random.default_rng(0), 20):
            assert floor <= block.min() and block.max() <= floor + 9.0

    def test_unevaluable_monotone_samples_fail_the_check(self, tmp_path, capsys):
        # below x = 0 the log nonlinearities are NaN: assumption D flags the
        # increments and the monotonicity samples drawn near the floor cannot
        # be evaluated
        cfg = str(DATA / "negative_floor.json")
        assert main(["check", "--config", cfg]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert not report["passed"]
        assert report["assumption_d_violations"]
        error = report["mixed_monotone_error"]
        assert error["message"] == "operator failed: non-finite integrand encountered"
        assert "Traceback" not in captured.err
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_CHECK_FAILED
        assert "mixed_monotone_error" in json.loads(capsys.readouterr().out)
        assert main(["solve", "--config", cfg, "--out", out, "--force"]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

    def test_failed_checks_write_the_solve_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = str(DATA / "negative_floor.json")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        checked = json.loads(capsys.readouterr().out)
        report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
        assert report == {"config": load_config(cfg, {}), "converged": False, "check": checked}
        assert sorted(path.name for path in out.iterdir()) == ["report.json"]

    def test_reports_are_strict_json(self, tmp_path, capsys):
        # NaN increments below x = 0 have an infinite assumption-D excess,
        # written as null in check's stdout and in solve --force's report
        cfg = str(DATA / "negative_floor.json")
        assert main(["check", "--config", cfg]) == EXIT_CHECK_FAILED
        checked = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--force"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
        assert report["check"] == checked
        excesses = [v[-1] for v in checked["assumption_d_violations"]]
        assert None in excesses
        assert all(e is None or math.isfinite(e) for e in excesses)
        assert set(checked["mixed_monotone_error"]) == {"component", "node", "message"}
