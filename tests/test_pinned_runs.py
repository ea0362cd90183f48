"""Every pinned or gated ``mixedfp`` run, in one table (``RUNS``).

A row is one run: its argv, its config (a file under ``tests/data/`` or
inline JSON text), its exit code, its stdout and its ``--out`` files, a
stderr rule and any extra check.  Each row runs twice:

- in this process, through ``cli.main``, with the package's log records
  and any warning written to stderr as a child process shows them;
- as a child process, through the ``mixedfp`` console script on ``PATH``
  (``pip install -e .`` puts it there), skipped when there is none.  A row
  that patches the registry runs in process only.

A stdout or stderr spec is a pinned file under ``tests/data/`` (a Path),
an exact text (a str), ``CLEAN`` (no ``Traceback`` or ``Warning``) or None
(not compared).  ``out`` names a pinned directory: the run's ``--out``
holds its files, bar ``stderr.txt``, byte for byte, and no other.  To move
a pin, regenerate its file under ``tests/data/``; each is read by exactly
one row (``test_each_pin_is_read_by_one_row``).

The pins' history: the ``_factored`` files and every other unsuffixed pin
come from the registry's SeparableKernel; the three dense-kernel pins were
recorded when images began to carry their quadrature-node values, and
differ from the factored ones at the ulp level.  The ``solve_force_*``
runs stop at sweep 2, where component 1 drops below the floor at s = 1, a
grid node that no Gauss node hits.  Every ``check`` file and
``report.json`` was regenerated when the reports gained their ``verdicts``
field, and differs from its recording by that field alone.
"""

import contextlib
import io
import json
import logging
import math
import os
import shutil
import subprocess
import threading
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mixedfp import cli
from mixedfp import hammerstein as hs
from mixedfp.contraction import builtin_log_triple

DATA = Path(__file__).parent / "data"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
SCRIPT = shutil.which("mixedfp")
CLEAN = object()  # a stderr rule: no Traceback or Warning
OUT = "{tmp}/out"  # a row's --out directory; {tmp} is the run's scratch directory


class Result(NamedTuple):
    code: int
    stdout: str
    stderr: str
    tmp: Path  # the run's scratch directory
    config: str  # the path of the config it read, or None


@dataclass(frozen=True)
class Run:
    id: str
    argv: tuple
    config: str = None  # a file under tests/data/, or inline JSON text ("{...")
    code: object = 0  # an exit code, or a set of them
    stdout: object = None
    stderr: object = CLEAN
    out: str = None  # a pinned directory under tests/data/
    extra: tuple = ()  # checks of the Result
    make: tuple = ()  # made in the scratch directory first: "name" a file, "name/" a directory
    head: int = None  # stdout is a pipe whose reader takes this many bytes and closes it
    also: tuple = ()  # more argvs that must give the same result, each in its own directory
    dense: bool = False  # the registry's log-product kernel as one dense callable


def reject_constant(name):
    """A ``parse_constant`` hook: strict JSON has no Infinity or NaN."""
    raise ValueError(f"{name} is not strict JSON")


def strict_json(test=lambda doc: True, name=None):
    """stdout, or the --out file ``name``, is strict JSON on which ``test``
    holds."""
    def check(result):
        text = result.stdout if name is None else (result.tmp / "out" / name).read_text()
        doc = json.loads(text, parse_constant=reject_constant)
        assert test(doc), doc
    return check


def solution_near(alpha, tol):
    """The written solution lies within ``tol`` of alpha * t at every node."""
    def check(result):
        t, x = np.loadtxt(result.tmp / "out" / "solution.csv", delimiter=",", skiprows=1).T
        err = float(np.max(np.abs(x - alpha * t)))
        assert err <= tol, f"max |x - alpha*t| = {err:.3g}"
    return check


def operator_error_record(result):
    """verify's one operator-error record, on stdout, and its stderr line."""
    record = json.loads(result.stdout, parse_constant=reject_constant)["operator_error"]
    assert sorted(record) == ["component", "message", "node"]
    assert result.stderr == f"operator error: {record['message']}\n"


def streamed_pairs(result):
    """verify draws its contraction pairs a block at a time: the traced peak
    of the contraction check over 200 seeded pairs is at most 10 % above its
    peak over 20.  At n = 16383 one array of the 200 pairs would be 200 MiB.
    The check's peak, not a process's RSS, is measured, so neither the
    sampling that check and solve skip nor start-up moves the reference."""
    problem = cli.build_problem(cli.load_config(result.config, {}))

    def peak(count):
        pairs = cli._random_ordered_pairs(problem, np.random.default_rng(5), count)
        tracemalloc.start()
        try:
            hs.check_contraction(problem, pairs, builtin_log_triple(), tol_slack=1e-8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # a first call builds what any first call builds
    few, many = peak(20), peak(200)
    assert many <= 1.1 * few, f"traced peak: {few} B at 20 pairs, {many} B at 200"


def forced_fallback(name, argv, config=None):
    # solve --force whose first sweep leaves the floor: report.json alone,
    # and the log lines and the operator error as a user sees them
    return Run(f"solve_force_{name}", ("solve", "--force", *argv, "--out", OUT), config,
               code=cli.EXIT_OPERATOR_ERROR, stdout="", out=f"solve_force_{name}",
               stderr=DATA / f"solve_force_{name}/stderr.txt")


def refused(name, argv, config=None, make=()):
    # bad outside input: exit 2 with an error line, no traceback
    return Run(f"refused-{name}", argv, config, code=cli.EXIT_CONFIG_ERROR, make=make)


N16383 = '{"grid": {"n": 16383}}'
QUAD_1X4 = '{"quadrature": {"panels": 1, "points": 4}}'
WIDE_SPACING = '{"T": 1e106}'
NAN_STEP = '{"tolerances": {"step": NaN}}'
NO_SWEEPS = '{"max_iters": 0}'
HUGE_T = '{"T": 1e308}'
HUGE_ALPHA = '{"alpha": 1e308}'
STRING_ETA = '{"eta": "11"}'
BOOL_STEP = '{"tolerances": {"step": true}}'

RUNS = [
    # the sampled checks print their pins byte for byte
    Run("verify_seed5", ("verify", "--seed", "5"),
        stdout=DATA / "verify_a2_T2_seed5_factored.json"),
    Run("verify_seed7", ("verify", "--seed", "7"),
        stdout=DATA / "verify_a2_T2_seed7_factored.json"),
    Run("verify_seed42", ("verify", "--seed", "42"),
        stdout=DATA / "verify_a2_T2_seed42_factored.json"),
    Run("verify_fine_grid", ("verify", "--seed", "5"), "fine_grid.json",
        stdout=DATA / "verify_fine_grid_seed5_factored.json"),
    # check adds the proved verdicts of the registry pieces
    Run("check_a5_T10", ("check", "--alpha", "5", "--T", "10"),
        stdout=DATA / "check_a5_T10_factored.json"),
    Run("check", ("check",), extra=(strict_json(
        lambda report: report["passed"] and math.isclose(report["kernel_bound"], 1.0,
                                                         abs_tol=1e-10)),)),
    Run("check_fine_grid", ("check",), "fine_grid.json", stdout=DATA / "check_fine_grid.json"),
    # the k = 4 monotonicity path with repeated nonlinearity names, and a
    # floor of 10 that the samples pass and check E's start does not
    Run("check_m2_repeated", ("check",), "custom_m2_repeated.json", code=cli.EXIT_CHECK_FAILED,
        stdout=DATA / "check_custom_m2_repeated.json"),
    Run("check_floor_10", ("check",), "floor_10.json", code=cli.EXIT_CHECK_FAILED,
        stdout=DATA / "check_floor_10.json"),
    # a config whose checks fail: a strict-JSON report, with the
    # monotonicity check's operator-failure record below x = 0
    Run("check_negative_floor", ("check",), "negative_floor.json", code=cli.EXIT_CHECK_FAILED,
        stdout=DATA / "check_negative_floor.json",
        extra=(strict_json(lambda report: report["passed"] is False),)),
    Run("solve_negative_floor", ("solve", "--out", OUT), "negative_floor.json",
        code=cli.EXIT_CHECK_FAILED, extra=(strict_json(
            lambda report: report["converged"] is False and not report["check"]["passed"],
            name="report.json"),)),
    Run("verify_negative_floor", ("verify",), "negative_floor.json",
        code=cli.EXIT_OPERATOR_ERROR, extra=(operator_error_record,)),
    # the one-shot solve; --force on checks that pass changes nothing, and a
    # second solve in one interpreter runs on the warm parser and base rule
    Run("solve", ("solve", "--out", OUT), out="solve_a2_T2_factored", stderr="",
        also=(("solve", "--force", "--out", OUT), ("solve", "--out", OUT))),
    Run("solve_m2_repeated_forced", ("solve", "--force", "--out", OUT),
        "custom_m2_repeated.json", out="solve_custom_m2_repeated"),
    # every sweep after the first forms no grid value
    Run("solve_fine_grid_a2_T2", ("solve", "--alpha", "2", "--T", "2", "--out", OUT),
        "fine_grid.json", out="solve_fine_grid_a2_T2"),
    Run("solve_fine_grid_a5_T10", ("solve", "--alpha", "5", "--T", "10", "--out", OUT),
        "fine_grid.json", out="solve_fine_grid_a5_T10", extra=(solution_near(5.0, 1e-9),)),
    forced_fallback("a1.01_T2", ("--alpha", "1.01", "--T", "2")),
    forced_fallback("a1.3_T2", ("--alpha", "1.3", "--T", "2")),
    forced_fallback("a1.2_T5", ("--alpha", "1.2", "--T", "5")),
    forced_fallback("floor_10", (), "floor_10.json"),
    # the paper's kernel as one dense callable
    Run("dense_verify_seed5", ("verify", "--alpha", "2", "--T", "2", "--seed", "5"), dense=True,
        stdout=DATA / "verify_a2_T2_seed5.json"),
    Run("dense_check_a5_T10", ("check", "--alpha", "5", "--T", "10"), dense=True,
        stdout=DATA / "check_a5_T10.json"),
    Run("dense_solve", ("solve", "--alpha", "2", "--T", "2", "--out", OUT), dense=True,
        out="solve_a2_T2"),
    # a reader that closes the pipe early: exit 0, or 141 when it closed
    # before the output was written
    Run("verify_head", ("verify",), code={cli.EXIT_OK, cli.EXIT_CLOSED_STDOUT}, head=10),
    # a quadrature far wider than the grid
    Run("verify_wide_quadrature", ("verify",),
        '{"grid": {"n": 8}, "quadrature": {"panels": 2000, "points": 8}}'),
    # a grid wider than a sampled check's block: each block is one sample
    Run("check_n16383", ("check",), N16383),
    Run("solve_n16383", ("solve", "--out", OUT), N16383),
    Run("verify_n16383", ("verify", "--seed", "5"), N16383, extra=(streamed_pairs,)),
    # a 1 x 4 quadrature, fewer nodes than a grid needs
    Run("check_quad_1x4", ("check",), QUAD_1X4),
    Run("solve_quad_1x4", ("solve", "--out", OUT), QUAD_1X4, extra=(solution_near(2.0, 1e-5),)),
    Run("verify_quad_1x4", ("verify", "--seed", "5"), QUAD_1X4),
    # an infinite assumption-D cap fails the eta check without a numpy warning
    Run("check_huge_eta", ("check",), '{"eta": [1e308, 1]}', code=cli.EXIT_CHECK_FAILED,
        extra=(strict_json(lambda report: not report["eta_ok"]),)),
    # T = 1e106 spaces the grid nodes 5e103 apart, which the linear transfer
    # takes: only the start fails assumption E
    Run("check_wide_spacing", ("check",), WIDE_SPACING, code=cli.EXIT_CHECK_FAILED,
        extra=(strict_json(),)),
    Run("verify_wide_spacing", ("verify",), WIDE_SPACING, extra=(strict_json(),)),
    Run("solve_wide_spacing", ("solve", "--out", OUT), WIDE_SPACING, code=cli.EXIT_CHECK_FAILED,
        extra=(strict_json(),)),
    Run("refused-verify-negative_seed", ("verify", "--seed", "-1"), code=cli.EXIT_CONFIG_ERROR,
        stdout="", stderr="config error: --seed must be nonnegative, got -1\n"),
    refused("check-infinite_n", ("check",), '{"grid": {"n": 1e400}}'),
    refused("solve-out_a_file", ("solve", "--out", "{tmp}/a-file"), make=("a-file",)),
    refused("check-out", ("check", "--out", "x")),
    refused("solve-nan_step", ("solve", "--out", OUT), NAN_STEP),
    refused("check-nan_step", ("check",), NAN_STEP),
    refused("check-no_sweeps", ("check",), NO_SWEEPS),
    refused("solve-no_sweeps", ("solve", "--out", OUT), NO_SWEEPS),
    refused("verify-nan_step", ("verify",), NAN_STEP),
    refused("verify-no_sweeps", ("verify",), NO_SWEEPS),
    refused("check-grid_kind", ("check",), '{"grid": {"kind": "uniform"}}'),
    refused("check-nan_floor", ("check",), (
        '{"problem": "custom", "kernel": "constant", "nonlinearities": '
        '["log-shift", "neg-log-product"], "forcing": "linear", "domain_floor": NaN}')),
    refused("check-fractional_n", ("check",), '{"grid": {"n": 50.9}}'),
    refused("check-unread_key", ("check",), '{"grid": {"N": 500}}'),
    refused("check-huge_T", ("check",), HUGE_T),
    refused("verify-huge_T", ("verify",), HUGE_T),
    refused("check-huge_alpha", ("check",), HUGE_ALPHA),
    refused("solve-huge_alpha", ("solve", "--out", OUT), HUGE_ALPHA),
    refused("verify-huge_alpha", ("verify",), HUGE_ALPHA),
    refused("check-string_nonlinearities", ("check",), (
        '{"problem": "custom", "kernel": "log-product", "nonlinearities": "log-shift", '
        '"forcing": "linear-minus-log"}')),
    refused("check-unknown_kernel", ("check",), (
        '{"problem": "custom", "kernel": "nope", "nonlinearities": '
        '["log-shift", "neg-log-product"], "forcing": "linear-minus-log"}')),
    refused("check-string_eta", ("check",), STRING_ETA),
    refused("verify-string_eta", ("verify",), STRING_ETA),
    refused("check-bool_step", ("check",), BOOL_STEP),
    refused("verify-bool_step", ("verify",), BOOL_STEP),
    refused("check-deep_nesting", ("check",), '{"eta": ' + "[" * 100000 + "]" * 100000 + "}"),
    refused("solve-blocked_report", ("solve", "--out", "{tmp}/blocked"),
            make=("blocked/report.json/",)),
]


def in_process(argv, head):
    """``cli.main(argv)`` in this process: the package's log records go to
    stderr as a process's last-resort handler writes them, then each
    warning, formatted as Python prints it.  With ``head``, stdout is a pipe
    whose reader takes that many bytes and closes its end."""
    stdout, err, got = io.StringIO(), io.StringIO(), []
    if head is not None:
        r, w = os.pipe()
        stdout = open(w, "w")
        reader = threading.Thread(target=lambda: (got.append(os.read(r, head)), os.close(r)))
        reader.start()
    log = logging.getLogger("mixedfp")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        log.addHandler(logging.lastResort)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
        finally:
            log.removeHandler(logging.lastResort)
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                   for w in seen)
    if head is None:
        return code, stdout.getvalue(), err.getvalue()
    stdout.close()  # the reader sees the end of an output shorter than head
    reader.join(timeout=60)
    assert not reader.is_alive()
    return code, got[0].decode(), err.getvalue()


def console_script(argv, head):
    """The ``mixedfp`` console script as a child process."""
    if head is None:
        child = subprocess.run([SCRIPT, *argv], capture_output=True, text=True, timeout=300)
        return child.returncode, child.stdout, child.stderr
    with subprocess.Popen([SCRIPT, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        got = child.stdout.read(head)
        child.stdout.close()
        err = child.stderr.read()
        return child.wait(timeout=300), got.decode(), err.decode()


RUNNERS = {"main": in_process, "script": console_script}


def expect(text, spec, what):
    if spec is CLEAN:
        assert "Traceback" not in text and "Warning" not in text, f"{what}:\n{text}"
    elif isinstance(spec, Path):
        assert text == spec.read_text(), what
    elif spec is not None:
        assert text == spec, what


def out_pins(run):
    """The files of ``run``'s pinned --out directory, bar its stderr.txt."""
    if run.out is None:
        return []
    return sorted(path for path in (DATA / run.out).iterdir() if path.name != "stderr.txt")


def pinned_files(run):
    """The files under tests/data/ that ``run`` compares."""
    return {*(spec for spec in (run.stdout, run.stderr) if isinstance(spec, Path)), *out_pins(run)}


@pytest.mark.parametrize("run", RUNS, ids=[run.id for run in RUNS])
@pytest.mark.parametrize("runner", RUNNERS)
def test_pinned_run(runner, run, tmp_path, monkeypatch):
    if runner == "script" and SCRIPT is None:
        pytest.skip("no mixedfp console script on PATH")
    if runner == "script" and run.dense:
        pytest.skip("the registry is patched in this process only")
    if run.dense:
        monkeypatch.setitem(hs.KERNELS, "log-product", lambda alpha, T: (
            lambda t, s: 1.0 / (2.0 * math.log(T) * t * s)))
    config = run.config
    if config is not None and config.startswith("{"):
        (tmp_path / "config.json").write_text(config)
        config = str(tmp_path / "config.json")
    elif config is not None:
        config = str(DATA / config)
    for i, argv in enumerate((run.argv, *run.also)):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        for name in run.make:
            if name.endswith("/"):
                (tmp / name).mkdir(parents=True)
            else:
                (tmp / name).touch()
        argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
        if config is not None:
            argv += ["--config", config]
        code, stdout, stderr = RUNNERS[runner](argv, run.head)
        what = " ".join(argv)
        assert code in (run.code if isinstance(run.code, set) else {run.code}), \
            f"{what}: exit {code}\n{stderr}"
        expect(stdout, run.stdout, f"{what}: stdout")
        expect(stderr, run.stderr, f"{what}: stderr")
        if run.out is not None:
            pins = out_pins(run)
            assert sorted(path.name for path in (tmp / "out").iterdir()) == \
                [pin.name for pin in pins], what
            for pin in pins:
                assert (tmp / "out" / pin.name).read_bytes() == pin.read_bytes(), \
                    f"{what}: {pin.name}"
        for check in run.extra:
            check(Result(code, stdout, stderr, tmp, config))


def test_each_pin_is_read_by_one_row():
    # every pinned output under tests/data/, a check_*, verify_* or solve_*
    # file or a file in such a directory, is compared by exactly one row
    readers = {}
    for run in RUNS:
        for path in pinned_files(run):
            readers.setdefault(path, []).append(run.id)
    pins = {path for pattern in ("check_*", "verify_*", "solve_*") for top in DATA.glob(pattern)
            for path in ([top] if top.is_file() else top.iterdir())}
    assert {path.relative_to(DATA).as_posix(): readers.get(path, []) for path in pins
            if len(readers.get(path, [])) != 1} == {}
    assert set(readers) <= pins


def test_the_workflow_names_no_pin():
    # the workflow runs the table through tier-1; a file under tests/data/
    # named there would be a second home for its pin
    assert "tests/data/" not in WORKFLOW.read_text()
