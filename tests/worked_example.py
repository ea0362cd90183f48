"""The paper's worked-example formulas, kept as references for the tests:
the closed forms of the first Jacobi sweep of the log-kernel example and
the exponential inequality behind its upper start; and the quadrature rules
the tests run on: the package's Gauss-Legendre rule and a composite Simpson
rule, whose nodes hit grid nodes; the CLI's samplers drawn in one array
sample by sample, the references for the samplers; and the generic sampled
checks' form of those arrays."""

import math
from typing import Tuple

import numpy as np

from mixedfp.funcspace import GridFunction, QuadratureRule, make_quadrature


def closed_H_formulas(alpha: float, T: float, t) -> Tuple[float, float]:
    """Closed forms of the two comparison integrals for the log-kernel
    example started from (alpha*t/2, 3*alpha*t/2); T cancels.

    H1(t) = alpha*t + ln((2+alpha)/(3(1+alpha))) / (2t)
    H2(t) = alpha*t + ln((2+3alpha)/(1+alpha)) / (2t)
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if not T > 1.0:
        raise ValueError(f"T must exceed 1, got {T}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 1.0) or np.any(t > T):
        raise ValueError("t outside [1, T]")
    h1 = alpha * t + math.log((2 + alpha) / (3 * (1 + alpha))) / (2 * t)
    h2 = alpha * t + math.log((2 + 3 * alpha) / (1 + alpha)) / (2 * t)
    if t.ndim == 0:
        return float(h1), float(h2)
    return h1, h2


def check_exp_inequality(alpha: float) -> bool:
    """True iff exp(alpha) > (2 + 3*alpha)/(1 + alpha); holds for alpha >= 1
    and underwrites the admissibility of the 3*alpha*t/2 upper start."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return math.exp(alpha) - (2 + 3 * alpha) / (1 + alpha) > 0


def simpson_rule(T: float, panels: int, points: int) -> QuadratureRule:
    """Composite Simpson rule on [1, T]: `points` (even) subintervals per
    panel, nodes at every panel edge and subinterval end, so a grid node
    at one of them is hit exactly."""
    w = np.ones(points + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    edges = np.linspace(1.0, T, panels + 1)
    nodes = [np.linspace(a, b, points + 1) for a, b in zip(edges[:-1], edges[1:])]
    weights = [w * ((b - a) / points) / 3.0 for a, b in zip(edges[:-1], edges[1:])]
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights), T)


RULES = {"gauss-legendre": make_quadrature, "simpson": simpson_rule}


def as_grid_functions(grid, array, coords=None):
    """A stacked sampler array as the generic checks take it, every length-n
    row a new GridFunction on ``grid``: pairs, (count, 2, k, n), as a list
    of (x, z) tuples; monotonicity samples, (count, k + 1) constants with
    their 1-based ``coords``, as a list of (point, j, low, high) of constant
    grid functions, low = point[j - 1]."""
    def wrap(a):
        return GridFunction(grid, a) if a.ndim == 1 else tuple(map(wrap, a))

    array = np.asarray(array)
    if coords is None:
        return list(wrap(array))
    items = wrap(np.repeat(array[:, :, None], grid.n, axis=2))
    return [(s[:-1], int(j), s[j - 1], s[-1]) for s, j in zip(items, coords)]


def monotone_samples(problem, rng, count):
    """``cli._monotone_samples`` drawn sample by sample and filled as drawn:
    the (count, k + 1) constants and their coordinates."""
    k, lo = problem.k, problem.domain_floor
    points, coords = np.empty((count, k + 1)), np.empty(count, dtype=int)
    for i in range(count):
        points[i, :k] = lo + rng.uniform(0.0, 4.0, size=k)
        coords[i] = rng.integers(1, k + 1)
        points[i, k] = points[i, coords[i] - 1] + rng.uniform(0.1, 3.0)
    return points, coords


def random_ordered_pairs(problem, rng, count):
    """``cli._random_ordered_pairs`` as one (count, 2, k, n) array, from one
    ``rng.random`` call read as rows of 2k(n + 1) values: a function pair's
    draws, then the next constant pair's."""
    k, n = problem.k, problem.grid.n
    lo, hi = problem.domain_floor, problem.domain_floor + 9.0
    functions, constants = count // 2, (count - 1) // 2
    u = np.empty((functions, 2 * k * (n + 1)))
    rng.random(out=u.reshape(-1)[:2 * k * (n * functions + constants)])
    pairs = np.empty((count, 2, k, n))
    a, b = pairs[:, 0], pairs[:, 1]
    a[0], b[0] = lo, hi
    for first, top, draws in ((1, hi - 1.0, u[:, :2 * k * n].reshape(-1, k, 2, n)),
                              (2, hi, u[:constants, 2 * k * n:].reshape(-1, k, 2, 1))):
        values = lo + (top - lo) * draws[:, :, 0]
        gap = (hi - values.max(axis=2, keepdims=True)) * draws[:, :, 1]
        a[first::2], b[first::2] = values, values + gap
    a[:, 1::2], b[:, 1::2] = b[:, 1::2], a[:, 1::2].copy()
    return pairs
