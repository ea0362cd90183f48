"""Command-line front end: load a JSON problem config, run the assumption
checks, the solver, or the sampled property suite.

Each subcommand takes ``--config``, ``--alpha`` and ``--T``; ``solve`` also
takes ``--out`` and ``--force``, ``verify`` also ``--seed``.  A flag that a
subcommand does not read is a usage error (exit 2).  Every subcommand reads
its config through one check (``_prepare``), so all three refuse the same
configs with the same error line.

Exit codes: 0 success, 1 check/property failure (solve also writes its
report.json), 2 config or usage error (including a kernel above
KERNEL_BYTES_GUARD, an integer field that is not integral, a key that
nothing reads, and any value the constructors of the problem, the iteration
settings or the start bracket refuse), 3 non-convergence, 4 operator error
(the operator could not be evaluated during a solve, e.g. a component below
the domain floor under --force, or during verify's sampled checks).  Every
operator failure is written as one record, ``{component, node, message}``
(``_operator_error``): ``operator_error`` in solve's report.json and in
verify's stdout, and ``assumption_e_error`` or ``mixed_monotone_error`` in a
check report, which fails the check (exit 1; ``solve --force`` goes on).

One order slack, ``funcspace.ORDER_SLACK``, compares grid functions in
every check and in solve, whose metric and order are
``hammerstein.image_metric`` and ``image_leq``: two rank-one images are
compared on their coefficients, anything else at the grid nodes.
Assumption E's H_r are the first sweep, which solve takes as its own
(``engine.solve``'s ``first_sweep``), evaluated on the one operator and Υ
tuple that ``solve`` builds, so a solve evaluates and judges its start
once.  The sampled checks' samples are never grid functions: the
contraction pairs are drawn block by block as stacked arrays, each block
checked as it is drawn (``hammerstein.check_contraction``), and the
mixed-monotonicity samples are k + 1 constants each, drawn in one array
(``hammerstein.check_mixed_monotone``).
"""

import argparse
import functools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import hammerstein as hs
from .contraction import builtin_log_triple
from .engine import (
    IterationConfig,
    NonConvergenceError,
    OperatorEvaluationError,
    iterate_step,
    solve,
    trace_csv,
)
from .funcspace import format_csv
from .hammerstein import FORCINGS, KERNELS, NONLINEARITIES  # noqa: F401 (re-exported)
from .hammerstein import _number
from .order import cyclic_shift_upsilon

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NO_CONVERGENCE = 3
EXIT_OPERATOR_ERROR = 4

# A problem's largest array is its weighted kernel, one float64 per (grid
# node, quadrature node); the sampled checks hold one block of samples at a
# time (hammerstein._BLOCK_ELEMENTS).  build_problem refuses a kernel above
# this many bytes (256 MiB) before building anything.
KERNEL_BYTES_GUARD = 2 ** 28

DEFAULTS = {
    "problem": "paper-example",
    "T": 2.0,
    "alpha": 2.0,
    "m": 1,
    "eta": [1.0, 1.0],
    "grid": {"n": 200},
    "quadrature": {"panels": 32, "points": 8},
    "tolerances": {"step": IterationConfig.tol_step,
                   "residual": IterationConfig.tol_residual},
    "max_iters": IterationConfig.max_iters,
}

# read only when "problem" is "custom"; the last, domain_floor, is optional
CUSTOM_KEYS = ("kernel", "nonlinearities", "forcing", "domain_floor")


class ConfigError(ValueError):
    pass


def _integer(value, name) -> int:
    """An integer config field, read as given: a bool, a string or a
    non-integral number is refused, not truncated."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (OverflowError, TypeError, ValueError) as exc:  # int() of inf, NaN, None, ...
        raise ValueError(f"{name} must be an integer, got {value!r} ({exc})") from exc
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _unread_keys(cfg) -> list:
    """The config keys that nothing reads, as dotted names."""
    read = {*DEFAULTS, *(CUSTOM_KEYS if cfg["problem"] == "custom" else ())}
    return [key for key in cfg if key not in read] + [
        f"{key}.{sub}" for key, section in DEFAULTS.items() if isinstance(section, dict)
        for sub in cfg[key] if sub not in section
    ]


def load_config(path, overrides) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # JSON, UTF-8, long int, nesting
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    # explicit shortcut flags win over the file
    for key in ("alpha", "T"):
        if overrides.get(key) is not None:
            cfg[key] = overrides[key]
    return cfg


def build_problem(cfg: dict) -> hs.HammersteinProblem:
    try:
        alpha, T = _number(cfg["alpha"], "alpha"), _number(cfg["T"], "T")
        if not (np.isfinite(alpha) and np.isfinite(T)):
            raise ConfigError(f"alpha and T must be finite, got {alpha} and {T}")
        n = _integer(cfg["grid"]["n"], "grid.n")
        panels = _integer(cfg["quadrature"]["panels"], "quadrature.panels")
        points = _integer(cfg["quadrature"]["points"], "quadrature.points")
        # (n + 1) grid nodes by panels * points Gauss-Legendre nodes; at
        # least the grid itself when the quadrature is empty (rejected later)
        kernel_bytes = (n + 1) * max(panels * points, 1) * 8
        if kernel_bytes > KERNEL_BYTES_GUARD:
            raise ConfigError(
                f"grid.n = {n} with {panels} x {points} quadrature nodes needs a "
                f"{kernel_bytes} byte kernel, above the guard of {KERNEL_BYTES_GUARD} bytes"
            )
        unread = _unread_keys(cfg)
        if unread:
            raise ConfigError(f"config keys that nothing reads: {', '.join(unread)}")
        kind, m = cfg["problem"], _integer(cfg["m"], "m")
        if kind == "paper-example":
            if m != 1:
                raise ConfigError(f"the paper example has m = 1, got m = {m}")
            hs.check_paper_alpha(alpha)
            pieces = {}
        elif kind == "custom":
            missing = [key for key in CUSTOM_KEYS[:3] if key not in cfg]
            if missing:
                raise ConfigError(f"config keys that a custom problem needs: {', '.join(missing)}")
            pieces = {key: cfg[key] for key in CUSTOM_KEYS if key in cfg}
        else:
            raise ConfigError(f"unknown problem kind {kind!r}")
        return hs.named_problem(alpha, T, n, panels, points, m=m, etas=cfg["eta"], **pieces)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:  # 1/0 at alpha = 0
        raise ConfigError(f"bad config: {exc}") from exc


def _start_tuple(problem, alpha):
    try:
        lower, upper = hs.initial_bracket(problem, alpha)
    except ValueError as exc:  # alpha*t/2 or 3*alpha*t/2 is not finite
        raise ConfigError(
            f"no start bracket at alpha = {alpha} and T = {problem.T}: {exc}") from exc
    return tuple(lower if i % 2 == 0 else upper for i in range(problem.k))


def _prepare(args):
    """The config check of every subcommand: the config, its problem and its
    iteration settings, or ConfigError.  It builds no start tuple, so a
    subcommand that reads none (verify) logs no clamp of one."""
    cfg = load_config(args.config, {"alpha": args.alpha, "T": args.T})
    problem = build_problem(cfg)
    try:
        tols = cfg["tolerances"]
        config = IterationConfig(
            tol_step=_number(tols["step"], "tolerances.step"),
            tol_residual=_number(tols["residual"], "tolerances.residual"),
            max_iters=_integer(cfg["max_iters"], "max_iters"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return cfg, problem, config


def _run_checks(problem, x0, F=None, upsilon=None):
    """Assumptions D and E and sampled mixed monotonicity, with assumption E
    read at the start tuple ``x0``: the check report, and check E's H_r, the
    first sweep from ``x0``, None when it cannot be evaluated.  Check E's
    sweep is evaluated on ``F`` and ``upsilon``, the operator and Υ tuple
    of the solve that follows, by default the problem's own
    (``hammerstein.check_assumption_e``)."""
    floor = problem.domain_floor
    pairs = [(floor, floor), (floor, floor + 0.5), (floor + 1.0, floor + 4.0),
             (floor + 0.25, floor + 9.0)]
    s_samples = list(np.linspace(1.0, problem.T, 9))
    d_report = hs.check_assumption_d(problem, pairs, s_samples)
    e_error = mono_error = first_sweep = None
    try:
        e_report = hs.check_assumption_e(problem, x0, F=F, upsilon=upsilon)
        e_failures, first_sweep = e_report.failures, e_report.h_functions
    except OperatorEvaluationError as exc:
        # the start tuple cannot be evaluated: a failed check, not a crash
        e_failures, e_error = (), _operator_error(exc)
    try:
        violations = hs.check_mixed_monotone(
            problem, *_monotone_samples(problem, np.random.default_rng(0), 20))
    except OperatorEvaluationError as exc:
        violations, mono_error = [], _operator_error(exc)
    report = {
        "kernel_bound": d_report.kernel_bound,
        "eta_ok": d_report.eta_ok,
        # a non-finite excess (inf) is written as null, so the report is strict JSON
        "assumption_d_violations": [
            [*v[:-1], v[-1] if math.isfinite(v[-1]) else None] for v in d_report.violations
        ],
        "assumption_e_failures": [list(f) for f in e_failures],
        "mixed_monotone_violations": [list(v) for v in violations],
        "passed": (d_report.passed and e_error is None and not e_failures
                   and mono_error is None and not violations),
    }
    if e_error is not None:
        report["assumption_e_error"] = e_error
    if mono_error is not None:
        report["mixed_monotone_error"] = mono_error
    return report, first_sweep


def _operator_error(exc: OperatorEvaluationError) -> dict:
    """The one record of an operator failure (``OperatorEvaluationError``)."""
    return {"component": exc.component, "node": exc.node, "message": str(exc)}


def _monotone_samples(problem, rng, count):
    """Random single-coordinate ordered perturbations of constant tuples, as
    ``hammerstein.check_mixed_monotone`` takes them: a (count, k + 1) array
    of constants and their 1-based coordinates.  Sample i is k constants in
    [lo, lo + 4], lo the domain floor, then its component ``coords[i]``
    raised by 0.1-3.  The loop makes only a sample's three draws, in order,
    each uniform one as ``rng.uniform(low, high)`` computes it, low +
    (high - low) * ``rng.random()``: the same doubles and generator state
    at a third of the cost of a scalar draw."""
    k = problem.k
    points, coords, raises = np.empty((count, k + 1)), np.empty(count, dtype=int), np.empty(count)
    for i in range(count):
        points[i, :k] = 4.0 * rng.random(k)
        coords[i] = rng.integers(1, k + 1)
        raises[i] = 0.1 + (3.0 - 0.1) * rng.random()
    points[:, :k] += problem.domain_floor
    points[:, k] = points[np.arange(count), coords - 1] + raises
    return points, coords


def _random_ordered_pairs(problem, rng, count):
    """Seeded ordered pairs of product tuples with values in [lo, lo + 9],
    lo the domain floor, drawn block by block as
    ``hammerstein.check_contraction`` takes them: each block is a
    (b, 2, k, n) array, pair p's x, then its z, b the check's block size
    (``_samples_per_block``) but at the end.

    Half the pairs use constant functions with scalar gaps (these reach the
    extreme separations where a broken nonlinearity actually leaves the
    contraction band); the first pair spans the full range.  Every later
    pair draws, in order, one (k, 2, width) array of ``rng.random`` values,
    row i the values then the gaps of component i, scaled as
    ``rng.uniform`` would: width n for the function pairs (odd index), 1 for
    the constant ones (even index).  A block makes one ``rng.random`` call
    and reads it as rows of one period, 2k(n + 1) values: a function pair's
    draws, then the next constant pair's; a block that starts at a constant
    pair leaves its first function slot empty.
    """
    k, n = problem.k, problem.grid.n
    lo, hi = problem.domain_floor, problem.domain_floor + 9.0
    size = hs._samples_per_block(problem)
    for start in range(0, count, size):
        stop = min(start + size, count)
        pairs = np.empty((stop - start, 2, k, n))
        a, b = pairs[:, 0], pairs[:, 1]
        if start == 0:
            a[0], b[0] = lo, hi
        first = max(start, 1)
        lead = first % 2 == 0  # the block's first draws are a constant pair's
        functions, constants = stop // 2 - first // 2, (stop - 1) // 2 - (first - 1) // 2
        u = np.empty((functions + lead, 2 * k * (n + 1)))
        skip = 2 * k * n * lead
        rng.random(out=u.reshape(-1)[skip:skip + 2 * k * (n * functions + constants)])
        for at, top, draws in ((first + lead, hi - 1.0, u[lead:, :2 * k * n].reshape(-1, k, 2, n)),
                               (first + 1 - lead, hi, u[:constants, 2 * k * n:].reshape(-1, k, 2, 1))):
            values = lo + (top - lo) * draws[:, :, 0]
            gap = (hi - values.max(axis=2, keepdims=True)) * draws[:, :, 1]
            a[at - start::2], b[at - start::2] = values, values + gap
        # x_i <= z_i on the A block (odd i), x_i >= z_i on the B block (even i),
        # so x is a and z is b on A, the other way round on B
        a[:, 1::2], b[:, 1::2] = b[:, 1::2], a[:, 1::2].copy()
        yield pairs


def cmd_check(args) -> int:
    cfg, problem, _ = _prepare(args)
    report, _ = _run_checks(problem, _start_tuple(problem, float(cfg["alpha"])))
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:  # a directory or an unwritable file at that name
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_solve(args) -> int:
    cfg, problem, config = _prepare(args)
    x0 = _start_tuple(problem, float(cfg["alpha"]))
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at --out or above it
        raise ConfigError(f"cannot create --out {args.out}: {exc}") from exc

    # one operator and one Υ tuple: check E's sweep is the solve's first
    F, upsilon = hs.product_operator(problem), cyclic_shift_upsilon(problem.m)
    check_report, first_sweep = _run_checks(problem, x0, F=F, upsilon=upsilon)
    if not check_report["passed"]:
        if not args.force:
            print(json.dumps(check_report, indent=2))
            payload = {"config": cfg, "converged": False, "check": check_report}
            _write(out_dir / "report.json", json.dumps(payload, indent=2) + "\n")
            return EXIT_CHECK_FAILED
        log.warning("assumption checks failed; continuing under --force")

    try:
        try:
            report = solve(F, upsilon, x0, config, dist=hs.image_metric, leq=hs.image_leq,
                           first_sweep=first_sweep)
            status = EXIT_OK
        except NonConvergenceError as exc:
            report = exc.report
            status = EXIT_NO_CONVERGENCE
        # defect of the collapsed solution alone, reproducible from solution.csv:
        # one distinct row over one element, so one transfer at any k; under
        # --force the last iterate can lie below the floor
        solution = report.fixed_point[0]
        collapsed_residual = hs.image_metric(
            solution, iterate_step(F, upsilon, (solution,) * problem.k)[0])
    except OperatorEvaluationError as exc:
        print(f"operator error: {exc}", file=sys.stderr)
        payload = {"config": cfg, "converged": False,
                   "operator_error": _operator_error(exc), "check": check_report}
        _write(out_dir / "report.json", json.dumps(payload, indent=2) + "\n")
        return EXIT_OPERATOR_ERROR

    _write(out_dir / "trace.csv", trace_csv(report))
    _write(out_dir / "solution.csv", format_csv(solution))
    payload = {
        "solution_residual": collapsed_residual,
        "config": cfg,
        "iterations": report.iterations,
        "converged": report.converged,
        "monotone_ok": report.monotone_ok,
        "collapsed": report.collapsed,
        "final_residual": report.final_residual,
        "final_spread": report.final_spread,
        "check": check_report,
    }
    _write(out_dir / "report.json", json.dumps(payload, indent=2) + "\n")
    return status


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    _, problem, _ = _prepare(args)
    rng = np.random.default_rng(args.seed)
    try:
        # the contraction check draws its pair blocks as it evaluates them,
        # then the monotonicity samples are drawn, from the one generator
        report = hs.check_contraction(problem, _random_ordered_pairs(problem, rng, 200),
                                      builtin_log_triple(), tol_slack=1e-8)
        mono_violations = hs.check_mixed_monotone(problem, *_monotone_samples(problem, rng, 50))
    except OperatorEvaluationError as exc:
        print(f"operator error: {exc}", file=sys.stderr)
        print(json.dumps({"operator_error": _operator_error(exc)}, indent=2))
        return EXIT_OPERATOR_ERROR

    summary = {
        "contraction_min_slack": report.min_slack,
        "contraction_rejected_pairs": list(report.rejected_pairs),
        "contraction_ok": report.passed,
        "mixed_monotone_violations": [list(v) for v in mono_violations],
        "mixed_monotone_ok": not mono_violations,
    }
    print(json.dumps(summary, indent=2))
    ok = report.passed and not mono_violations
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of a process, built at the first ``main`` call.  It holds
    no handler and no state: ``parse_args`` fills a new namespace each call."""
    parser = argparse.ArgumentParser(
        prog="mixedfp",
        description="Solve log-banded Hammerstein integral equations by "
        "multidimensional monotone fixed-point iteration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name) for name in ("check", "solve", "verify")}
    for p in parsers.values():
        p.add_argument("--config", default=None, help="JSON problem config")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--T", type=float, default=None)
    parsers["solve"].add_argument("--out", default="out", help="output directory")
    parsers["solve"].add_argument("--force", action="store_true",
                                  help="run the solver even if checks fail")
    parsers["verify"].add_argument("--seed", type=int, default=42)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the handlers are read at call time, so a patched cmd_* is the one that runs
    handler = {"check": cmd_check, "solve": cmd_solve, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
