"""Self-test of the benchmark's m-fold problem.

    PYTHONPATH=src:bench python3 -m pytest -q bench/test_mfold.py
"""

import math

import numpy as np
import pytest

from mixedfp import (
    GridFunction,
    IterationConfig,
    apply_A,
    build_log_example,
    cyclic_shift_upsilon,
    kernel_bound,
    product_operator,
    solve,
    sup_metric,
)
from mixedfp.contraction import builtin_log_triple

from mfold import bracket_tuple, build_mfold_log_example
from workloads import gridded_leq


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_kernel_bound_is_one(m):
    assert abs(kernel_bound(build_mfold_log_example(2.0, 2.0, m)) - 1.0) <= 1e-10


@pytest.mark.parametrize("alpha,T", [(2.0, 2.0), (3.0, math.e)])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_exact_solution_is_a_fixed_point(alpha, T, m):
    """alpha*t on every component maps to itself as closely as for m = 1:
    the m-fold operator on equal components is the bundled one."""
    base = build_log_example(alpha, T)
    problem = build_mfold_log_example(alpha, T, m)
    exact = GridFunction(problem.grid, alpha * problem.grid.nodes)
    image = apply_A(problem, (exact,) * problem.k)
    reference = apply_A(base, (exact,) * base.k)
    assert sup_metric(image, exact) <= 1e-8
    assert sup_metric(image, reference) <= 1e-12


def test_solve_reaches_the_exact_solution():
    problem = build_mfold_log_example(2.0, 2.0, 2)
    report = solve(product_operator(problem), cyclic_shift_upsilon(2),
                   bracket_tuple(problem, 2.0), IterationConfig(), builtin_log_triple(),
                   dist=sup_metric, leq=gridded_leq)
    err = float(np.max(np.abs(report.fixed_point[0].values - 2.0 * problem.grid.nodes)))
    assert report.collapsed and report.monotone_ok and err <= 1e-6
