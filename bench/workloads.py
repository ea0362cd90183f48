"""The four benchmark workloads.

Each workload is a closed loop with one in-process caller: the next op
starts when the previous one has returned, because the solver is a batch
tool with no arrival schedule.  ``round_ops(r)`` lists the ops of round r in
order, each a callable taking the tracer (None when untraced) and returning
an ``Op``.  A round covers every case of the workload.  Every op has a
correctness gate that is checked outside its timed region.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
from time import perf_counter

import numpy as np

from mixedfp import cli
from mixedfp.contraction import ContractionTriple, DeclaredProperties, builtin_log_triple
from mixedfp.engine import IterationConfig, ProductOperator, solve
from mixedfp.funcspace import load_csv, pointwise_leq, sup_metric
from mixedfp.hammerstein import kernel_bound, product_operator
from mixedfp.oracle import check_theorem_hypotheses, random_instance
from mixedfp.order import cyclic_shift_upsilon

from mfold import bracket_tuple, build_mfold_log_example

GOLDEN_CASES = ((2.0, 2.0), (2.0, math.e), (5.0, 10.0))
SOLUTION_TOL = 1e-6
FINE_GRID = {"grid": {"n": 1000}, "quadrature": {"panels": 128, "points": 8}}
WIDE_K_MS = (2, 4, 8)
ORACLE_CLASSES = tuple((k, n) for k in (2, 3, 4) for n in (2, 3, 4))
ORACLE_PER_CLASS = 20


@dataclasses.dataclass
class Op:
    case: str
    seconds: float
    ok: bool
    sweeps: int = None
    detail: str = ""


def timed(tracer, name, fn, *args):
    """``fn(*args)`` and its wall time, inside a span named ``name`` when
    tracing."""
    if tracer is not None:
        fn = tracer.wrap(name, fn)
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def oracle_triple():
    """The (x, x/2, 0) triple of the finite-space acceptance criterion."""
    return ContractionTriple(lambda x: x, lambda x: 0.5 * x, lambda x: 0.0,
                             DeclaredProperties(True, True, True, True))


def gridded_leq(u, v):
    """The solver's order on grid functions, with the CLI's 1e-12 slack."""
    return pointwise_leq(u, v, 1e-12)


def _sup_error(gf, alpha):
    return float(np.max(np.abs(gf.values - alpha * gf.grid.nodes)))


class _CliSolves:
    """Shared by the workloads that drive ``mixedfp solve`` in process."""

    config = None  # JSON config applied on top of the CLI defaults

    def __init__(self, seed, workdir, cases):
        self.seed = seed
        self.workdir = workdir
        self.solve_cases = cases
        self.cases = [f"solve a={a:g} T={T:g}" for a, T in cases]
        self.config_path = None

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.config is not None:
            self.config_path = self.workdir / "config.json"
            self.config_path.write_text(json.dumps(self.config))
        gates = []
        for alpha, T in self.solve_cases:
            cfg = cli.load_config(self.config_path, {"alpha": alpha, "T": T})
            bound = kernel_bound(cli.build_problem(cfg))
            gates.append((f"kernel_bound a={alpha:g} T={T:g}", abs(bound - 1.0) <= 1e-10))
        return gates

    def _argv(self, command, alpha, T):
        argv = [command, "--alpha", str(alpha), "--T", str(T)]
        if self.config_path is not None:
            argv += ["--config", str(self.config_path)]
        return argv

    def round_ops(self, round_index):
        return [functools.partial(self.solve_op, i) for i in range(len(self.solve_cases))]

    def solve_op(self, index, tracer):
        alpha, T = self.solve_cases[index]
        out = self.workdir / f"solve{index}"
        for name in ("solution.csv", "report.json", "trace.csv"):
            (out / name).unlink(missing_ok=True)
        argv = self._argv("solve", alpha, T) + ["--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = timed(tracer, "cli.solve", cli.main, argv)
        report = json.loads((out / "report.json").read_text())
        err = _sup_error(load_csv(out / "solution.csv"), alpha)
        ok = (code == cli.EXIT_OK and err <= SOLUTION_TOL
              and report["converged"] and report["collapsed"])
        return Op(self.cases[index], seconds, ok, report["iterations"],
                  f"exit={code} err={err:.2e}")


class PaperCli(_CliSolves):
    """``mixedfp solve`` on the golden cases, plus one seeded ``verify``."""

    name = "paper-cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, GOLDEN_CASES)
        self.cases.append("verify")

    def setup(self):
        gates = super().setup()
        rng = np.random.default_rng(self.seed)
        self.verify_seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=4096)]
        return gates

    def round_ops(self, round_index):
        return super().round_ops(round_index) + [functools.partial(self.verify_op, round_index)]

    def verify_op(self, round_index, tracer):
        alpha, T = self.solve_cases[round_index % len(self.solve_cases)]
        seed = self.verify_seeds[round_index % len(self.verify_seeds)]
        argv = self._argv("verify", alpha, T) + ["--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = timed(tracer, "cli.verify", cli.main, argv)
        return Op("verify", seconds, code == cli.EXIT_OK,
                  detail=f"a={alpha:g} T={T:g} seed={seed} exit={code}")


class FineGrid(_CliSolves):
    """``mixedfp solve`` at n = 1000 with 1024 quadrature nodes."""

    name = "fine-grid"
    config = FINE_GRID

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, (GOLDEN_CASES[0], GOLDEN_CASES[2]))


class WideK:
    """Library ``solve`` from the bracket to tolerance at k = 4, 8, 16."""

    name = "wide-k"
    alpha, T = 2.0, 2.0

    def __init__(self, seed, workdir):
        self.cases = [f"k={2 * m}" for m in WIDE_K_MS]

    def setup(self):
        self.inputs = []
        gates = []
        for m in WIDE_K_MS:
            problem = build_mfold_log_example(self.alpha, self.T, m)
            bound = kernel_bound(problem)
            gates.append((f"kernel_bound k={problem.k}", abs(bound - 1.0) <= 1e-10))
            self.inputs.append((product_operator(problem), cyclic_shift_upsilon(m),
                                bracket_tuple(problem, self.alpha)))
        self.config = IterationConfig()
        self.triple = builtin_log_triple()
        return gates

    def round_ops(self, round_index):
        return [functools.partial(self.solve_op, i) for i in range(len(self.inputs))]

    def solve_op(self, index, tracer):
        F, upsilon, x0 = self.inputs[index]
        dist, leq = sup_metric, gridded_leq
        if tracer is not None:
            F = ProductOperator(F.k, tracer.wrap("hammerstein.apply_A", F.apply))
            dist = tracer.wrap("funcspace.sup_metric", dist)
            leq = tracer.wrap("order.leq", leq)
        run = functools.partial(solve, F, upsilon, x0, self.config, self.triple,
                                dist=dist, leq=leq)
        report, seconds = timed(tracer, "engine.solve", run)
        err = _sup_error(report.fixed_point[0], self.alpha)
        ok = report.collapsed and report.monotone_ok and err <= SOLUTION_TOL
        return Op(self.cases[index], seconds, ok, report.iterations, f"err={err:.2e}")


class Oracle:
    """A seeded, class-stratified stream of random finite instances checked
    exhaustively, and solved by the engine when every hypothesis holds."""

    name = "oracle"

    def __init__(self, seed, workdir, per_class=ORACLE_PER_CLASS):
        self.seed = seed
        self.per_class = per_class
        self.cases = [f"k{k}n{n}" for k, n in ORACLE_CLASSES]

    def setup(self):
        # Equal counts per (k, n) class: the criterion-7 distribution's
        # expected mix, fixed so that throughput does not drift with the
        # seed through the share of the costly (4, 4) class.
        rng = np.random.default_rng(self.seed)
        self.stream = []
        for k, n in ORACLE_CLASSES:
            drawn = 0
            while drawn < self.per_class:
                inst = random_instance(k, n, rng)
                if inst is not None:
                    self.stream.append((f"k{k}n{n}", k, inst))
                    drawn += 1
        self.triple = oracle_triple()
        self.config = IterationConfig(tol_step=1e-9, tol_residual=1e-9, max_iters=60)
        return []

    def mix(self):
        """Instances per (k, n) class; a changed mix shows in the record."""
        return {case: sum(1 for c, _, _ in self.stream if c == case) for case in self.cases}

    def round_ops(self, round_index):
        return [functools.partial(self.instance_op, *item) for item in self.stream]

    def instance_op(self, case, k, inst, tracer):
        space, upsilon, F = inst
        triple = self.triple
        if tracer is not None:
            F = tracer.counted("oracle.F", F)
            triple = ContractionTriple(
                *(tracer.counted("contraction.triple", fn)
                  for fn in (triple.psi, triple.theta, triple.phi)),
                declared=triple.declared)
        hyp, seconds = timed(tracer, "oracle.check_theorem_hypotheses",
                             check_theorem_hypotheses, space, F, upsilon, triple)
        if not hyp.all_pass:
            return Op(case, seconds, True, detail="hypotheses fail")
        run = functools.partial(solve, ProductOperator(k, F), upsilon, hyp.start_point,
                                self.config, triple, dist=space.d, leq=space.le)
        report, solve_seconds = timed(tracer, "engine.solve", run)
        ok = len(hyp.fixed_points) == 1 and report.fixed_point == hyp.fixed_points[0]
        return Op(case, seconds + solve_seconds, ok, report.iterations,
                  f"fixed point {report.fixed_point} vs oracle {hyp.fixed_points}")


WORKLOADS = {w.name: w for w in (PaperCli, WideK, FineGrid, Oracle)}
