"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import json
import math
import time

import numpy as np
import pytest

from mixedfp import (
    GridFunction,
    IterationConfig,
    ProductOperator,
    apply_A,
    build_log_example,
    check_assumption_e,
    cyclic_shift_upsilon,
    initial_bracket,
    integrate,
    iterate_step,
    kernel_bound,
    make_quadrature,
    product_operator,
    solve,
    sup_metric,
    upsilon_violations,
)
from mixedfp.cli import EXIT_OK, main
from mixedfp.contraction import (
    ContractionTriple,
    DeclaredProperties,
    builtin_log_triple,
    majorant_for,
)
from mixedfp.funcspace import load_csv
from mixedfp.oracle import check_theorem_hypotheses, random_instance
from worked_example import closed_H_formulas


def report(criterion, ok, detail=""):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


GOLDEN_CASES = [(2.0, 2.0), (2.0, math.e), (5.0, 10.0)]


@pytest.mark.parametrize("alpha,T", GOLDEN_CASES)
def test_criterion_1_golden_solution(alpha, T, tmp_path):
    out = tmp_path / "out"
    start = time.time()
    code = main(["solve", "--alpha", str(alpha), "--T", str(T), "--out", str(out)])
    elapsed = time.time() - start
    solution = load_csv(out / "solution.csv")
    err = float(np.max(np.abs(solution.values - alpha * solution.grid.nodes)))
    iters = json.loads((out / "report.json").read_text())["iterations"]
    ok = code == EXIT_OK and err <= 1e-6 and iters <= 5000 and elapsed <= 30.0
    report(1, ok, f"alpha={alpha} T={T:.4g}: sup-error={err:.2e} iters={iters} "
                  f"time={elapsed:.2f}s")


def test_criterion_2_kernel_bound():
    worst = 0.0
    for T in (1.5, 2.0, math.e, 10.0):
        worst = max(worst, abs(kernel_bound(build_log_example(2.0, T)) - 1.0))
    report(2, worst <= 1e-10, f"max |bound - 1| = {worst:.2e}")


def test_criterion_3_initial_point_inequalities():
    worst_gap = 0.0
    brackets_ok = True
    for alpha in (2.0, 3.0, 5.0):
        for T in (2.0, math.e):
            p = build_log_example(alpha, T)
            y0 = initial_bracket(p, alpha)
            e_report = check_assumption_e(p, y0)
            h1_num, h2_num = e_report.h_functions
            h1, h2 = closed_H_formulas(alpha, T, p.grid.nodes)
            worst_gap = max(
                worst_gap,
                float(np.max(np.abs(h1_num.values - h1))),
                float(np.max(np.abs(h2_num.values - h2))),
            )
            brackets_ok &= bool(
                np.all(y0[0].values <= h1_num.values)
                and np.all(h2_num.values <= y0[1].values)
            )
    h2_at_1 = closed_H_formulas(2.0, 2.0, 1.0)[1]
    spot_ok = abs(h2_at_1 - 2.4904146265058631) < 1e-8 and h2_at_1 <= 3.0
    ok = worst_gap <= 1e-8 and brackets_ok and spot_ok
    report(3, ok, f"max |H_quad - H_closed| = {worst_gap:.2e}, brackets hold: {brackets_ok}")


def test_criterion_4_contraction_sampled():
    p = build_log_example(2.0, 2.0)
    rng = np.random.default_rng(424242)
    n = p.grid.n
    violations = 0
    worst = math.inf
    for _ in range(1000):
        # ordered pair in the product order: component 1 up, component 2 down
        a = rng.uniform(1.0, 9.0, n)
        x1, z1 = a, a + rng.uniform(0.0, 1.0, n)
        b = rng.uniform(1.0, 9.0, n)
        z2, x2 = b, b + rng.uniform(0.0, 1.0, n)
        x = (GridFunction(p.grid, x1), GridFunction(p.grid, x2))
        z = (GridFunction(p.grid, z1), GridFunction(p.grid, z2))
        dk = max(sup_metric(x[0], z[0]), sup_metric(x[1], z[1]))
        slack = math.log1p(dk) - sup_metric(apply_A(p, x), apply_A(p, z))
        worst = min(worst, slack)
        if slack < -1e-8:
            violations += 1
    report(4, violations == 0, f"1000 pairs, min slack {worst:.2e}, violations {violations}")


def test_criterion_5_monotone_bracketing():
    p = build_log_example(2.0, 2.0)
    ups = cyclic_shift_upsilon(1)
    F = product_operator(p)
    x = initial_bracket(p, 2.0)
    tol = 1e-12
    bracket_ok = True
    for _ in range(60):
        y = iterate_step(F, ups, x)
        bracket_ok &= bool(np.all(y[0].values >= x[0].values - tol))  # comp 1 up
        bracket_ok &= bool(np.all(y[1].values <= x[1].values + tol))  # comp 2 down
        bracket_ok &= bool(np.all(y[0].values <= y[1].values + tol))  # ordered pair
        if sup_metric(x[0], y[0]) < 1e-13 and sup_metric(x[1], y[1]) < 1e-13:
            break
        x = y
    leq = lambda u, v: bool(np.all(u.values <= v.values + tol))  # noqa: E731
    rep = solve(F, ups, initial_bracket(p, 2.0), IterationConfig(),
                builtin_log_triple(), dist=sup_metric, leq=leq)
    ok = bracket_ok and rep.monotone_ok and rep.collapsed and rep.final_spread <= 1e-8
    report(5, ok, f"bracketing={bracket_ok} collapsed spread={rep.final_spread:.2e}")


def test_criterion_6_majorant_consistency():
    p = build_log_example(2.0, 2.0)
    leq = lambda u, v: bool(np.all(u.values <= v.values + 1e-12))  # noqa: E731
    rep = solve(product_operator(p), cyclic_shift_upsilon(1), initial_bracket(p, 2.0),
                IterationConfig(), builtin_log_triple(), dist=sup_metric, leq=leq)
    bound = majorant_for(rep, builtin_log_triple())
    excess = max(s - b for s, b in zip(rep.step_history, bound))
    report(6, excess <= 1e-8, f"max step excess over majorant = {excess:.2e}")


def test_criterion_7_oracle_equivalence():
    triple = ContractionTriple(lambda x: x, lambda x: 0.5 * x, lambda x: 0.0,
                               DeclaredProperties(True, True, True, True))
    rng = np.random.default_rng(55555)
    passed = mismatches = 0
    attempts = 0
    while passed < 500 and attempts < 20000:
        attempts += 1
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        space, ups, F = random_instance(k, n, rng)
        hyp = check_theorem_hypotheses(space, F, ups, triple)
        if not hyp.all_pass:
            continue
        passed += 1
        if len(hyp.fixed_points) != 1:
            mismatches += 1
            continue
        sol = solve(ProductOperator(k, F), ups, hyp.start_point,
                    IterationConfig(tol_step=1e-9, tol_residual=1e-9, max_iters=60),
                    triple, dist=space.d, leq=space.le)
        if sol.fixed_point != hyp.fixed_points[0]:
            mismatches += 1
    ok = passed >= 500 and mismatches == 0
    report(7, ok, f"{passed} hypothesis-passing instances, {mismatches} mismatches")


def test_criterion_8_upsilon_machinery():
    rng = np.random.default_rng(88888)
    non_conforming = 0
    agree = True
    for m in range(1, 9):
        k = 2 * m
        ups = cyclic_shift_upsilon(m)
        partition = ups.partition
        if upsilon_violations(ups.sigmas, partition):
            agree = False
        for _ in range(200):
            sigmas = [tuple(int(v) for v in rng.integers(1, k + 1, k)) for _ in range(k)]
            got = not upsilon_violations(sigmas, partition)
            # independent exhaustive membership check
            expected = True
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    v = sigmas[i - 1][j - 1]
                    same_block = (j in partition.a) == (v in partition.a)
                    if (i in partition.a and not same_block) or (
                        i in partition.b and same_block
                    ):
                        expected = False
            if got != expected:
                agree = False
            if not expected:
                non_conforming += 1
    ok = agree and non_conforming >= 1000
    report(8, ok, f"{non_conforming} non-conforming tuples, verdicts agree: {agree}")


def test_criterion_9_quadrature_floor():
    worst = 0.0
    for T in (2.0, math.e, 10.0):
        rule = make_quadrature(T, 32, 8)
        worst = max(worst, abs(integrate(rule, 1.0 / rule.nodes) - math.log(T)))
    report(9, worst <= 1e-10, f"max |integral - ln T| = {worst:.2e}")
