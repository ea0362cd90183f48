"""Solve the bundled logarithmic-kernel Hammerstein equation and compare
against its known exact solution x(t) = alpha * t.

The equation is rewritten as a two-component fixed-point problem: both
components iterate through the same integral operator with cyclically
shifted arguments, one squeezing up from below, the other down from above.
"""

import numpy as np

from mixedfp import (
    IterationConfig,
    build_log_example,
    builtin_log_triple,
    cyclic_shift_upsilon,
    initial_bracket,
    pointwise_leq,
    product_operator,
    solve,
    sup_metric,
)

alpha, T = 2.0, 2.0
problem = build_log_example(alpha, T)
upsilon = cyclic_shift_upsilon(problem.m)

x0 = initial_bracket(problem, alpha)
print(f"start: lower = {alpha}/2 * t, upper = 3*{alpha}/2 * t on [1, {T}]")

report = solve(
    product_operator(problem), upsilon, x0, IterationConfig(),
    builtin_log_triple(), dist=sup_metric, leq=pointwise_leq,
)

solution = report.fixed_point[0]
exact = alpha * problem.grid.nodes
print(f"converged in {report.iterations} sweeps")
print(f"monotone bracketing held: {report.monotone_ok}")
print(f"components collapsed:     {report.collapsed} "
      f"(spread {report.final_spread:.2e})")
print(f"sup-error vs alpha*t:     {np.max(np.abs(solution.values - exact)):.2e}")

print("\n   t        numeric        exact")
for j in np.linspace(0, problem.grid.n - 1, 6, dtype=int):
    t = problem.grid.nodes[j]
    print(f"  {t:.3f}   {solution.values[j]:.10f}   {alpha * t:.10f}")
