"""Discretized continuous functions on [1, T]: grids, sup-metric, pointwise
order, order-preserving linear interpolation, and composite Gauss-Legendre
quadrature."""

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Grid",
    "GridFunction",
    "QuadratureRule",
    "LinearPlan",
    "uniform_grid",
    "make_quadrature",
    "integrate",
    "sup_metric",
    "ORDER_SLACK",
    "pointwise_leq",
    "interpolate",
    "load_csv",
]


@dataclass(frozen=True)
class Grid:
    """At least 9 strictly increasing nodes in [1, T], T > 1; they need not
    reach 1 or T, but a ``HammersteinProblem``'s grid must."""

    T: float
    nodes: np.ndarray

    def __post_init__(self):
        if not self.T > 1.0:
            raise ValueError(f"T must exceed 1, got {self.T}")
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.size < 9:
            raise ValueError("grid needs at least 8 intervals")
        if not (np.diff(nodes) > 0.0).all():
            raise ValueError("grid nodes must be strictly increasing")
        if not (nodes[0] >= 1.0 and nodes[-1] <= self.T):
            raise ValueError("grid nodes must lie in [1, T]")

    @property
    def n(self) -> int:
        return self.nodes.size

    def sample(self, f: Callable[[float], float]) -> "GridFunction":
        return GridFunction(self, np.array([f(t) for t in self.nodes], dtype=float))


def uniform_grid(T: float, n_intervals: int = 200) -> Grid:
    return Grid(T, np.linspace(1.0, T, n_intervals + 1))


@dataclass(frozen=True)
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} values, got shape {values.shape}"
            )
        _check_finite(values)


def _check_finite(values: np.ndarray) -> None:
    """Grid function values, of one function or a stack, must be finite."""
    if not np.isfinite(values).all():
        raise ValueError("grid function values must be finite")


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a is not b and not np.array_equal(a.nodes, b.nodes):
        raise ValueError("grid mismatch")


def sup_metric(u: GridFunction, v: GridFunction) -> float:
    """max_j |u_j - v_j| over the common grid."""
    _check_same_grid(u.grid, v.grid)
    return float(np.abs(u.values - v.values).max())


# The package's one order slack: u <= v means u_j <= v_j + ORDER_SLACK at every node.
ORDER_SLACK = 1e-12


def pointwise_leq(u: GridFunction, v: GridFunction, tol: float = ORDER_SLACK) -> bool:
    """u <= v nodewise, up to the nonnegative slack tol."""
    _check_same_grid(u.grid, v.grid)
    return bool((u.values <= v.values + tol).all())


class LinearPlan:
    """Piecewise-linear transfer from ``grid`` to fixed points ``t`` in
    [1, T], split into a plan (the range check, each point's interval i and
    its offset theta in [0, 1]) and an O(k * t.size) apply.

    Each value is (1 - theta) * y_i + theta * y_{i+1}, a combination with
    nonnegative weights, so in floating point u <= v at the nodes gives
    Lu <= Lv exactly, and the transfer does not stretch sup distances
    beyond rounding.  A node hit (theta = 0) or T (theta = 1) gives the
    stored value.
    """

    def __init__(self, grid: Grid, t):
        x = grid.nodes
        t_arr = np.asarray(t, dtype=float)
        lo, hi = x[0], x[-1]
        if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
            raise ValueError(f"evaluation point outside [{lo}, {hi}]")
        flat = np.clip(t_arr, lo, hi).ravel()
        self.shape = t_arr.shape
        # interval i with x_i <= t < x_{i+1}; the last one is closed
        idx = np.clip(np.searchsorted(x, flat, side="right") - 1, 0, x.size - 2)
        self._idx, self._idx1 = idx, idx + 1
        self._theta = (flat - x[idx]) / (x[idx + 1] - x[idx])
        self._rest = 1.0 - self._theta

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Values at the planned points of each row of ``y`` (shape (k, n)),
        shape (k, t.size), in two (k, t.size) arrays: each gathered end is
        weighted in place."""
        out = y.take(self._idx, axis=1)
        out *= self._rest
        right = y.take(self._idx1, axis=1)
        right *= self._theta
        out += right
        return out


def interpolate(u: GridFunction, t):
    """Piecewise-linear value(s) at t in [1, T], shaped like t: exact at
    nodes, order-preserving and reproducing linear data to rounding.  To
    transfer several functions of one grid to the same points, build one
    ``LinearPlan`` and ``apply`` it to their stacked values.
    """
    plan = LinearPlan(u.grid, t)
    out = plan.apply(u.values[None, :])
    return float(out[0, 0]) if plan.shape == () else out[0].reshape(plan.shape)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in [1, T] and positive weights that sum to T - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    T: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape:
            raise ValueError("nodes/weights length mismatch")
        if not (weights > 0.0).all():
            raise ValueError("weights must be positive")
        if not ((nodes >= 1.0) & (nodes <= self.T)).all():
            raise ValueError(f"quadrature nodes must lie in [1, T], T = {self.T}")
        length = self.T - 1.0
        if abs(float(np.sum(weights)) - length) > 1e-12 * max(1.0, length):
            raise ValueError("weights do not sum to T - 1")


@functools.cache
def _gauss_legendre(points: int):
    """``leggauss(points)`` on [-1, 1], built once per process for each
    ``points``, as two read-only arrays."""
    xi, wi = leggauss(points)
    xi.flags.writeable = wi.flags.writeable = False
    return xi, wi


def make_quadrature(T: float, panels: int, points: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [1, T]: `panels` equal panels of
    `points` nodes each (2..16), exact on polynomials of degree
    2*points - 1 per panel."""
    if not T > 1.0:
        raise ValueError(f"T must exceed 1, got {T}")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if not 2 <= points <= 16:
        raise ValueError("gauss-legendre points per panel must be in 2..16")
    edges = np.linspace(1.0, T, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    # an int key, so a float such as 8.0 is refused whatever the cache holds
    xi, wi = _gauss_legendre(operator.index(points))
    # the midpoint as a / 2 + b / 2, since a + b overflows for T above ~9e307
    nodes = (b - a) / 2.0 * xi + (a / 2.0 + b / 2.0)
    return QuadratureRule(nodes.ravel(), ((b - a) / 2.0 * wi).ravel(), T)


def integrate(rule: QuadratureRule, fvals) -> float:
    """Weighted sum of integrand values sampled exactly at the rule nodes."""
    fvals = np.asarray(fvals, dtype=float)
    if fvals.shape != rule.nodes.shape:
        raise ValueError("integrand sample length does not match rule nodes")
    return float(np.dot(rule.weights, fvals))


def format_csv(gf: GridFunction) -> str:
    """`t,value` rows at 17 significant digits, formatted in one pass."""
    rows = np.column_stack([gf.grid.nodes, gf.values]).ravel().tolist()
    return "t,value\n" + ("%.17g,%.17g\n" * gf.grid.n) % tuple(rows)


def load_csv(path) -> GridFunction:
    """Read a `t,value` file back into a GridFunction."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected two columns t,value")
    t, v = data[:, 0], data[:, 1]
    return GridFunction(Grid(float(t[-1]), t), v)
