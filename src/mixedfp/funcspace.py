"""Discretized continuous functions on [1, T]: grids, sup-metric, pointwise
order, monotone-safe interpolation, and composite Gauss-Legendre quadrature."""

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Grid",
    "GridFunction",
    "QuadratureRule",
    "PchipPlan",
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


class PchipPlan:
    """Monotone-safe piecewise-cubic (PCHIP) transfer from ``grid`` to fixed
    points ``t`` in [1, T], split into a plan and an apply.

    The plan holds everything that depends only on the grid and ``t``: the
    range check, the clipped points, the interval of each point, its local
    coordinate and powers, the spacings, the Fritsch-Carlson weights and the
    points that hit a node exactly.  ``apply`` then costs O(k*n) for the
    derivatives of k functions plus O(k*t.size) to evaluate them.

    The arithmetic is that of scipy's ``PchipInterpolator(x, y, axis=0)(t)``
    (Fritsch-Butland derivatives with one-sided end slopes, Hermite
    coefficients, power-basis sum in the order of scipy's evaluation), so
    the two agree bit for bit before the stored values are written at exact
    node hits.
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
        s = flat - x[idx]
        z2 = s * s
        self._s, self._z2, self._z3 = s, z2, z2 * s
        h = np.diff(x)
        self._h, self._h_at = h, h[idx]
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        self._w1, self._w2, self._w12 = w1, w2, w1 + w2
        # one-sided end slopes from (h0, h1) = (h_0, h_1) at the left end and
        # (h_{n-2}, h_{n-3}) at the right (a grid has at least 9 nodes)
        self._ends, self._nexts = np.array([0, -1]), np.array([1, -2])
        h0, h1 = h[self._ends], h[self._nexts]
        self._h0, self._e1, self._e2 = h0, 2 * h0 + h1, h0 + h1
        # stored values win at exact node hits (polynomial evaluation can be
        # off by an ulp at panel edges)
        pos = np.minimum(np.searchsorted(x, flat), x.size - 1)
        exact = x[pos] == flat
        self._exact, self._exact_pos = np.nonzero(exact)[0], pos[exact]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Values at the planned points of the PCHIP interpolant of each row
        of ``y`` (shape (k, n), finite), shape (k, t.size).

        Rows, not columns: every operation then runs along the grid or the
        points, which is faster than along k for the k of the solver.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            mk = np.diff(y, axis=1) / self._h
            # the derivative is zero where neighbouring slopes differ in sign
            # or either is zero (mk is never NaN: y and h are finite, h > 0),
            # else the weighted harmonic mean of the slopes
            smk = np.sign(mk)
            zero = smk[:, 1:] * smk[:, :-1] <= 0
            whmean = (self._w1 / mk[:, :-1] + self._w2 / mk[:, 1:]) / self._w12
            d = np.empty_like(y)
            d[:, 1:-1] = np.where(zero, 0.0, 1.0 / whmean)
            m0, m1 = mk[:, self._ends], mk[:, self._nexts]
            e = (self._e1 * m0 - self._h0 * m1) / self._e2
            sm0 = np.sign(m0)
            wrong_sign = np.sign(e) != sm0
            overshoot = (sm0 != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            d[:, self._ends] = np.where(wrong_sign, 0.0, np.where(overshoot, 3.0 * m0, e))
        # Hermite coefficients of each point's interval only
        idx, h = self._idx, self._h_at
        slope, d0 = np.take(mk, idx, axis=1), np.take(d, idx, axis=1)
        tt = (d0 + np.take(d, self._idx1, axis=1) - 2 * slope) / h
        c1 = (slope - d0) / h - tt
        out = ((np.take(y, idx, axis=1) + d0 * self._s) + c1 * self._z2) + (tt / h) * self._z3
        if self._exact.size:
            out[:, self._exact] = y[:, self._exact_pos]
        return out


def interpolate(u: GridFunction, t):
    """Monotone-safe piecewise-cubic value(s) at t in [1, T], shaped like t.

    PCHIP keeps monotone data monotone (no overshoot), so order checks
    survive transfer to finer grids; it is exact at nodes and reproduces
    linear data to rounding.  To transfer several functions of one grid to
    the same points, build one ``PchipPlan`` and ``apply`` it to their
    stacked values.
    """
    plan = PchipPlan(u.grid, t)
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
    xi, wi = leggauss(points)
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
    """`t,value` rows at 17 significant digits."""
    buf = io.StringIO()
    buf.write("t,value\n")
    for t, v in zip(gf.grid.nodes, gf.values):
        buf.write(f"{t:.17g},{v:.17g}\n")
    return buf.getvalue()


def load_csv(path) -> GridFunction:
    """Read a `t,value` file back into a GridFunction."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected two columns t,value")
    t, v = data[:, 0], data[:, 1]
    return GridFunction(Grid(float(t[-1]), t), v)
