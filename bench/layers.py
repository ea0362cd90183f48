"""Per-layer metrics of the traced run.

Every traced run, whatever its workload, ends with the same probe pass, so
that each per-layer metric exists on every workload.  The probes time direct
calls to public functions on the workloads' own inputs: the golden cases at
n = 200 (``paper-cli``), the m-fold problems at k = 4, 8, 16 (``wide-k``),
the (2, 2) case at n = 1000 with 1024 quadrature nodes (``fine-grid``) and
the seeded instance stream (``oracle``).  Solves are traced through the
callables handed to ``engine.solve``; nothing inside ``mixedfp`` is patched.
A time is the median over repeated calls (see ``median_time``); a count is
exact.
"""

import dataclasses
import functools
import math
import statistics
from time import perf_counter

import numpy as np

from mixedfp import cli
from mixedfp.contraction import builtin_log_triple, verify_contraction_sampled
from mixedfp.engine import (
    IterationConfig,
    ProductOperator,
    check_mixed_monotone_sampled,
    iterate_step,
    solve,
    trace_csv,
)
from mixedfp.funcspace import GridFunction, format_csv, interpolate, sup_metric
from mixedfp.hammerstein import (
    apply_A,
    check_assumption_d,
    check_assumption_e,
    kernel_bound,
    product_operator,
)
from mixedfp.oracle import enumerate_fixed_points
from mixedfp.order import cyclic_shift_upsilon, max_metric, product_leq

from mfold import bracket_tuple, build_mfold_log_example
from spans import Tracer
from workloads import FINE_GRID, GOLDEN_CASES, WIDE_K_MS, Oracle, gridded_leq

ORACLE_PROBE_PER_CLASS = 5


def median_time(fn, *args, budget=0.2, max_reps=200):
    """Median wall time of ``fn(*args)``, called until ``budget`` seconds
    have been spent or ``max_reps`` calls made; at least once."""
    times = []
    while not times or (sum(times) < budget and len(times) < max_reps):
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _config(alpha, T, fine=False):
    cfg = cli.load_config(None, {"alpha": alpha, "T": T})
    if fine:
        for key, value in FINE_GRID.items():
            cfg[key].update(value)
    return cfg


def traced_solve(problem, alpha):
    """Solve from the bracket with spans on the operator, metric and order.

    Returns the report, the tracer and every argument tuple the engine
    passed to the operator.
    """
    tracer = Tracer()
    calls = []

    def operator(*x):
        calls.append(x)
        return apply_A(problem, x)

    F = ProductOperator(problem.k, tracer.wrap("hammerstein.apply_A", operator))
    run = tracer.wrap("engine.solve", solve)
    report = run(F, cyclic_shift_upsilon(problem.m), bracket_tuple(problem, alpha),
                 IterationConfig(), builtin_log_triple(),
                 dist=tracer.wrap("funcspace.sup_metric", sup_metric),
                 leq=tracer.wrap("order.leq", gridded_leq))
    return report, tracer, calls


def solver_layers(out, problem, alpha, tag):
    """Operator, transfer, metric, order and sweep metrics of one solve.

    ``tag`` names the case as k<k>n<n>.  The sweep is timed on the iterate
    the engine reached halfway; row 1 of the cyclic shift is the identity,
    so the first operator call of each sweep receives the iterate itself.
    """
    k = problem.k
    report, tracer, calls = traced_solve(problem, alpha)
    apply_s = statistics.median(tracer.durations("hammerstein.apply_A"))
    middle = calls[(len(calls) // k // 2) * k]
    interp_s = median_time(interpolate, middle[0], problem.quadrature.nodes)
    F = product_operator(problem)
    ups = cyclic_shift_upsilon(problem.m)
    spans = tracer.self_times()
    out[f"engine.sweeps.{tag}"] = (report.iterations, "count")
    out[f"engine.sweep_s.{tag}"] = (median_time(iterate_step, F, ups, middle), "s")
    out[f"engine.solve.self_s.{tag}"] = (spans["engine.solve"], "s")
    out[f"hammerstein.apply_A_s.{tag}"] = (apply_s, "s")
    out[f"hammerstein.apply_A_calls.{tag}"] = (len(calls), "count")
    out[f"hammerstein.apply_A.self_s.{tag}"] = (apply_s - k * interp_s, "s")
    out[f"funcspace.interpolate_s.{tag}"] = (interp_s, "s")
    # computed, not counted: apply_A calls per sweep times k transfers each
    out[f"funcspace.interpolate_per_sweep_computed.{tag}"] = (
        len(calls) // (report.iterations + 1) * k, "count")
    out[f"funcspace.sup_metric_calls.{tag}"] = (
        len(tracer.durations("funcspace.sup_metric")), "count")
    out[f"order.leq_calls.{tag}"] = (len(tracer.durations("order.leq")), "count")
    return report, tracer


def hammerstein_layers(out, problem, x0, tag):
    """Assembly, the weighted-kernel matvec and assumption E of one problem."""
    out[f"hammerstein.assemble_s.{tag}"] = (
        median_time(dataclasses.replace, problem), "s")
    out[f"hammerstein.matvec_s.{tag}"] = (median_time(kernel_bound, problem), "s")
    out[f"hammerstein.check_e_s.{tag}"] = (
        median_time(check_assumption_e, problem, x0), "s")


def ordered_pairs(problem, rng, count):
    """Ordered tuple pairs of constant functions in [floor, floor + 9]."""
    ones = np.ones(problem.grid.n)
    pairs = []
    for _ in range(count):
        x, z = [], []
        for i in range(problem.k):
            low = problem.domain_floor + rng.uniform(0.0, 6.0)
            high = low + rng.uniform(0.0, 3.0)
            lo, hi = GridFunction(problem.grid, low * ones), GridFunction(problem.grid, high * ones)
            x.append(lo if i % 2 == 0 else hi)
            z.append(hi if i % 2 == 0 else lo)
        pairs.append((tuple(x), tuple(z)))
    return pairs


def paper_layers(out, seed):
    cfg = _config(2.0, 2.0)
    out["cli.build_problem_s.k2n200"] = (median_time(cli.build_problem, cfg), "s")
    problem = cli.build_problem(cfg)
    x0 = bracket_tuple(problem, 2.0)
    hammerstein_layers(out, problem, x0, "k2n200")
    report, tracer = solver_layers(out, problem, 2.0, "k2n200")
    out["funcspace.sup_metric_s.n200"] = (
        statistics.median(tracer.durations("funcspace.sup_metric")), "s")
    out["order.leq_s.n200"] = (statistics.median(tracer.durations("order.leq")), "s")
    out["funcspace.format_csv_s.n200"] = (median_time(format_csv, report.fixed_point[0]), "s")
    out["engine.trace_csv_s"] = (median_time(trace_csv, report), "s")
    for alpha, T in GOLDEN_CASES[1:]:
        other = cli.build_problem(_config(alpha, T))
        label = "e" if T == math.e else f"{T:g}"
        out[f"engine.sweeps.k2n200.a{alpha:g}T{label}"] = (
            traced_solve(other, alpha)[0].iterations, "count")

    # the value pairs and s samples that `mixedfp check` and `solve` test
    floor = problem.domain_floor
    pairs = [(floor, floor), (floor, floor + 0.5), (floor + 1.0, floor + 4.0),
             (floor + 0.25, floor + 9.0)]
    s_samples = list(np.linspace(1.0, problem.T, 9))
    out["hammerstein.check_d_s.k2n200"] = (
        median_time(check_assumption_d, problem, pairs, s_samples), "s")

    rng = np.random.default_rng(seed)
    ups = cyclic_shift_upsilon(problem.m)
    tuple_pairs = ordered_pairs(problem, rng, 20)
    samples = [(x, 1 + i % problem.k, x[0], z[0]) for i, (x, z) in enumerate(tuple_pairs)]
    out["engine.monotone_check_s.k2n200"] = (median_time(
        check_mixed_monotone_sampled, product_operator(problem), ups.partition, samples,
        gridded_leq), "s")
    verify = functools.partial(
        verify_contraction_sampled, functools.partial(apply_A, problem), tuple_pairs,
        builtin_log_triple(), dist=sup_metric,
        dist_k=lambda x, z: max_metric(x, z, sup_metric),
        ordered=lambda x, z: product_leq(x, z, ups.partition, gridded_leq),
        tol_slack=1e-8)
    out["contraction.verify_sampled_s.k2n200"] = (median_time(verify), "s")


def wide_k_layers(out):
    for m in WIDE_K_MS:
        problem = build_mfold_log_example(2.0, 2.0, m)
        tag = f"k{problem.k}n200"
        out[f"hammerstein.check_e_s.{tag}"] = (
            median_time(check_assumption_e, problem, bracket_tuple(problem, 2.0)), "s")
        solver_layers(out, problem, 2.0, tag)


def fine_grid_layers(out):
    cfg = _config(2.0, 2.0, fine=True)
    out["cli.build_problem_s.k2n1000"] = (median_time(cli.build_problem, cfg), "s")
    problem = cli.build_problem(cfg)
    hammerstein_layers(out, problem, bracket_tuple(problem, 2.0), "k2n1000")
    solver_layers(out, problem, 2.0, "k2n1000")


def oracle_layers(out, seed):
    """Check times come from an untraced pass over a short stream; the call
    counts, which slow the check several fold, from a second, counted pass."""
    oracle = Oracle(seed, None, ORACLE_PROBE_PER_CLASS)
    start = perf_counter()
    oracle.setup()
    out["oracle.random_instance_s"] = ((perf_counter() - start) / len(oracle.stream), "s")
    checks = {case: [] for case in oracle.cases}
    for case, k, inst in oracle.stream:
        checks[case].append(oracle.instance_op(case, k, inst, None).seconds)
    for case, times in checks.items():
        out[f"oracle.check_s.{case}"] = (statistics.median(times), "s")
    tracer = Tracer()
    for item in oracle.stream:
        oracle.instance_op(*item, tracer)
    out["oracle.engine_solve_s"] = (
        statistics.median(tracer.durations("engine.solve")), "s")
    out["oracle.F_calls"] = (tracer.counts["oracle.F"], "count")
    out["contraction.triple_calls"] = (tracer.counts["contraction.triple"], "count")
    out["oracle.pair_cells"] = (
        sum((inst[0].n ** k) ** 2 for _, k, inst in oracle.stream), "count")
    largest = [(k, inst) for case, k, inst in oracle.stream if case == oracle.cases[-1]]
    out[f"oracle.enumerate_s.{oracle.cases[-1]}"] = (statistics.median(
        median_time(enumerate_fixed_points, inst[0], inst[2], inst[1], budget=0.0)
        for _, inst in largest), "s")


def layer_metrics(seed):
    out = {}
    paper_layers(out, seed)
    wide_k_layers(out)
    fine_grid_layers(out)
    oracle_layers(out, seed)
    return out
