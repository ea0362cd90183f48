"""Accuracy of the composite Gauss-Legendre quadrature, the order kept by the
linear transfer of a start onto the quadrature nodes, and the accuracy of a
dense kernel, whose iterates are read at the quadrature nodes."""

import math

import numpy as np

from mixedfp import (
    GridFunction,
    HammersteinProblem,
    IterationConfig,
    cyclic_shift_upsilon,
    integrate,
    make_quadrature,
    pointwise_leq,
    product_operator,
    solve,
    sup_metric,
    uniform_grid,
)
from mixedfp.funcspace import LinearPlan

print("integral of 1/s on [1, T] vs ln T (Gauss-Legendre, 32 panels x 8 pts):")
for T in (2.0, math.e, 10.0):
    rule = make_quadrature(T, 32, 8)
    err = abs(integrate(rule, 1.0 / rule.nodes) - math.log(T))
    print(f"  T = {T:6.4g}: error {err:.2e}")

print("\n2-point Gauss-Legendre on [1, 2], error / 16 per panel halving:")
prev = None
for panels in (4, 8, 16, 32):
    rule = make_quadrature(2.0, panels, 2)
    err = abs(integrate(rule, 1.0 / rule.nodes) - math.log(2.0))
    ratio = f"  ratio {prev / err:5.1f}" if prev else ""
    print(f"  {panels:3d} panels: error {err:.3e}{ratio}")
    prev = err

print("\nlinear transfer of 20 000 ordered pairs u <= v of rough 9-node data"
      "\nto the 256 nodes of a 32 x 8 rule on [1, 2]:")
rng = np.random.default_rng(0)
u = rng.normal(0.0, 1.0, (20000, 9))
v = u + rng.choice([0.0, 1e-12, 0.1], size=u.shape)
plan = LinearPlan(uniform_grid(2.0, 8), make_quadrature(2.0, 32, 8).nodes)
lu, lv = plan.apply(u), plan.apply(v)
breaks = int(np.count_nonzero((lu > lv).any(axis=1)))
stretch = float((np.abs(lu - lv).max(axis=1) - np.abs(u - v).max(axis=1)).max())
print(f"  pairs whose order breaks: {breaks}")
print(f"  largest stretch of a pair's sup distance: {stretch:.1e} (rounding)")

print("\ndense kernel 1/(2 ln(3/2) (t + s)) on [1, 2] with solution"
      "\nx(t) = 1 + sin^2(3t) + t, 32 x 8 quadrature:")


def curved(t):
    return 1.0 + np.sin(3.0 * t) ** 2 + t


c = 1.0 / (2.0 * math.log(1.5))
fs = (lambda s, x: np.log(s + x), lambda s, x: -(np.log(s) + np.log(x)))
reference = make_quadrature(2.0, 64, 16)  # the forcing's integral, to rounding
g = sum(f(reference.nodes, curved(reference.nodes)) for f in fs)


def forcing(t):
    return curved(t) - (c / (t[:, None] + reference.nodes) * reference.weights * g).sum(axis=1)


for n in (50, 200, 800):
    problem = HammersteinProblem(
        m=1, kernel=lambda t, s: c / (t + s), nonlinearities=fs, forcing=forcing,
        etas=(1.0, 1.0), domain_floor=1.0, grid=uniform_grid(2.0, n),
        quadrature=make_quadrature(2.0, 32, 8))
    x = curved(problem.grid.nodes)
    start = (GridFunction(problem.grid, np.maximum(x / 2.0, 1.0)),
             GridFunction(problem.grid, 1.5 * x))
    report = solve(product_operator(problem), cyclic_shift_upsilon(1), start, IterationConfig(),
                   dist=sup_metric, leq=pointwise_leq)
    err = max(float(np.abs(xi.values - x).max()) for xi in report.fixed_point)
    print(f"  n = {n:3d}: {report.iterations} sweeps, max |x_n - x| = {err:.1e}")
