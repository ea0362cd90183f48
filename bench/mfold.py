"""The m-fold log example used by the ``wide-k`` workload.

Built from the public API only: the bundled m = 1 problem with its kernel
divided by m and its nonlinearity pair repeated m times.  The integrand sum
is m times the pair's sum, so the kernel factor 1/m leaves the operator on
equal components, and hence the exact solution alpha*t, unchanged.  The
kernel bound 2m * max_t int G/m ds equals the m = 1 bound of 1; for m a
power of two the division is exact and the bound is bit-identical.
"""

import dataclasses

from mixedfp import build_log_example, initial_bracket


def build_mfold_log_example(alpha, T, m, n_intervals=200, panels=32, points=8):
    base = build_log_example(alpha, T, n_intervals, panels, points)
    if m == 1:
        return base
    kernel = base.kernel
    return dataclasses.replace(
        base,
        m=m,
        kernel=lambda t, s: kernel(t, s) / m,
        nonlinearities=base.nonlinearities * m,
        etas=(1.0,) * (2 * m),
    )


def bracket_tuple(problem, alpha):
    """Start tuple: the lower bracket on odd components, upper on even."""
    lower, upper = initial_bracket(problem, alpha)
    return tuple(lower if i % 2 == 0 else upper for i in range(problem.k))
