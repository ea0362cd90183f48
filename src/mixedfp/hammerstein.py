"""Hammerstein integral equations x(t) = int_1^T G(t,s) sum_i f_i(s, x(s)) ds + p(t)
with 2m nonlinearities banded by log(1 + .) in alternating directions, the
induced product operator, and numerical checkers for the standing
assumptions and, on stacked sample arrays, for contraction and mixed
monotonicity.

Named pieces of problem data are built by one constructor, ``named_problem``,
whose defaults are the paper's example: G(t,s) = 1/(2 ln T * t * s),
f1(s,x) = ln(s + x), f2(s,x) = -(ln s + ln x), exact solution x(t) = alpha * t.
A kernel is a callable G(t, s), kept as the dense n x nq weighted grid
block and an nq x nq node block, or a rank-one ``SeparableKernel``, kept
as its two factors (the degenerate-kernel form, Atkinson 1997, ch. 2), as
every registry kernel is.
Either way an image is known at the grid nodes and at the quadrature nodes,
where the next sweep reads it (the Nystrom method, Atkinson 1997, ch. 4).
"""

import logging
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .contraction import ContractionSampleReport, ContractionTriple
from .engine import OperatorEvaluationError, ProductOperator, iterate_step
from .funcspace import (
    ORDER_SLACK,
    Grid,
    GridFunction,
    LinearPlan,
    QuadratureRule,
    _check_finite,
    _check_same_grid,
    make_quadrature,
    uniform_grid,
)
from .order import cyclic_shift_upsilon

__all__ = [
    "HammersteinProblem",
    "SeparableKernel",
    "DomainFloorError",
    "AssumptionDReport",
    "AssumptionEReport",
    "apply_A",
    "product_operator",
    "kernel_bound",
    "check_assumption_d",
    "check_assumption_e",
    "check_contraction",
    "check_mixed_monotone",
    "build_log_example",
    "named_problem",
    "initial_bracket",
]

log = logging.getLogger(__name__)

# Problem data is array-valued: each piece is called on whole node arrays
# (shapes in HammersteinProblem) and returns an array or scalar that
# broadcasts to them, so write np.log, not math.log.
Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]
Nonlinearity = Callable[[np.ndarray, np.ndarray], np.ndarray]
Forcing = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SeparableKernel:
    """The rank-one kernel G(t, s) = a(t) * b(s).  Called, it is that dense
    kernel; ``HammersteinProblem`` instead calls ``a`` on the grid nodes
    followed by the quadrature nodes, shape (n + nq,), and ``b`` on the
    quadrature nodes, shape (nq,)."""

    a: Forcing
    b: Forcing

    def __call__(self, t, s):
        return self.a(t) * self.b(s)


class DomainFloorError(ValueError):
    """A component dips below the admissible floor; names node and component."""

    def __init__(self, component: int, node: float, value: float, floor: float):
        self.component = component
        self.node = node
        super().__init__(
            f"component {component} value {value:.6g} at s={node:.6g} "
            f"is below the domain floor {floor:.6g}"
        )


def _node_array_output(piece: str, fn: Callable, shape: tuple, *args) -> np.ndarray:
    """Call one piece of problem data on read-only views of node arrays and
    broadcast its output to ``shape``; a scalar-only callable, or one that
    writes into an argument, fails here with a message naming the piece.
    Values are not checked."""
    views = [a.view() for a in args]
    for view in views:
        view.setflags(write=False)
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn(*views), dtype=float)
        return out if out.shape == shape else np.broadcast_to(out, shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{piece} must accept node arrays and return values that broadcast "
            f"to shape {shape}: {exc}"
        ) from exc


@dataclass(frozen=True)
class HammersteinProblem:
    """Problem data plus its discretization (collocation grid and quadrature).

    Nonlinearities come in ordered pairs: odd positions are nondecreasing in
    x with increments bounded above by eta*log(1+dx), even positions are
    nonincreasing with increments bounded below by -eta*log(1+dx).

    Kernel, nonlinearities and forcing are array-valued (see ``Kernel``).
    With t the grid nodes followed by the quadrature nodes, shape (n + nq,),
    and s the quadrature nodes, shape (nq,):
    ``kernel(tt, ss)`` with tt of shape (n, 1) and ss of shape (1, nq), and
    at the first operator call with tt of shape (nq, 1); or, for a
    ``SeparableKernel``, ``a(t)`` and ``b(s)``;
    ``f(s, x)`` with 1-D arrays s and x of one length (nq in ``apply_A``,
    b*nq in a batch kernel call of b rows, which lays the b argument rows
    end to end);
    and ``forcing(t)``.
    A scalar return broadcasts.  A nonlinearity must be deterministic and
    side-effect free, as ``ProductOperator`` requires of the operator: a
    kernel call evaluates a repeated pair of callable and argument once and
    hands it a read-only argument (``_integrals``), and every other call
    hands a piece read-only views of its node arrays (``_node_array_output``).
    Construction calls each piece once on the node arrays and raises
    ValueError, naming the piece, when its output cannot broadcast to that
    shape or it writes into an argument.  It also raises
    ValueError unless the grid's nodes run from 1 to its T and the
    quadrature is a rule on [1, T], and for a non-finite forcing value,
    domain_floor or eta.
    """

    m: int
    kernel: Kernel
    nonlinearities: Tuple[Nonlinearity, ...]
    forcing: Forcing
    etas: Tuple[float, ...]
    domain_floor: float
    grid: Grid
    quadrature: QuadratureRule

    def __post_init__(self):
        if not (self.grid.nodes[0] == 1.0 and self.grid.nodes[-1] == self.T == self.quadrature.T):
            raise ValueError(f"grid and quadrature must span [1, T], T = {self.T}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if len(self.nonlinearities) != 2 * self.m:
            raise ValueError(f"expected {2 * self.m} nonlinearities")
        if len(self.etas) != 2 * self.m or not all(0.0 < e < math.inf for e in self.etas):
            raise ValueError("need 2m positive finite eta constants")
        if not math.isfinite(self.domain_floor):
            raise ValueError(f"domain_floor must be finite, got {self.domain_floor}")
        # assemble and check the kernel and evaluate the forcing now (all
        # cached), then probe each nonlinearity once
        self._weighted_kernel
        self._forcing_values
        s = self.quadrature.nodes
        x = np.full_like(s, self.domain_floor)
        for i, fi in enumerate(self.nonlinearities, start=1):
            _node_array_output(f"nonlinearity {i}", fi, s.shape, s, x)

    @property
    def T(self) -> float:
        return self.grid.T

    @property
    def k(self) -> int:
        return 2 * self.m

    @cached_property
    def _nodes(self) -> np.ndarray:
        # the grid nodes followed by the quadrature nodes
        return np.concatenate([self.grid.nodes, self.quadrature.nodes])

    @cached_property
    def _weighted_kernel(self):
        # W[j, q] = G(t_j, s_q) w_q over collocation nodes t_j and quadrature
        # nodes s_q; a SeparableKernel is kept as (a(t), b(s_q) w_q), t the
        # grid nodes followed by the quadrature nodes
        if not isinstance(self.kernel, SeparableKernel):
            return self._dense_rows(self.grid.nodes)
        s = self.quadrature.nodes
        a = _node_array_output("kernel", self.kernel.a, self._nodes.shape, self._nodes)
        b = _node_array_output("kernel", self.kernel.b, s.shape, s)
        _check_kernel(a, b)
        return a, b * self.quadrature.weights

    @cached_property
    def _node_block(self) -> np.ndarray:
        # G(s_i, s_q) w_q of a dense kernel at the quadrature nodes s_i;
        # built at the first operator call
        return self._dense_rows(self.quadrature.nodes)

    def _dense_rows(self, t: np.ndarray) -> np.ndarray:
        s = self.quadrature.nodes
        g = _node_array_output("kernel", self.kernel, (t.size, s.size), t[:, None], s[None, :])
        _check_kernel(g)
        return g * self.quadrature.weights

    @cached_property
    def _layouts(self) -> dict:
        # row tuple -> what a kernel call reads off it alone (_layout)
        return {}

    @cached_property
    def _transfer(self) -> LinearPlan:
        # grid values -> quadrature nodes; built at the first operator call
        return LinearPlan(self.grid, self.quadrature.nodes)

    @cached_property
    def _forcing_values(self) -> np.ndarray:
        # p at the grid nodes followed by the quadrature nodes
        values = _node_array_output("forcing", self.forcing, self._nodes.shape, self._nodes)
        if not np.all(np.isfinite(values)):
            raise ValueError("forcing must be finite on the grid")
        return values


def _check_kernel(*factors: np.ndarray) -> None:
    # NaN fails >= 0; an infinite value or product makes the product of maxima inf or NaN
    if not (all(np.all(f >= 0.0) for f in factors)
            and math.isfinite(math.prod(float(f.max()) for f in factors))):
        raise ValueError("kernel must be finite and nonnegative on the grid")


def _check_floor(values: np.ndarray, nodes: np.ndarray, floor: float):
    """Raise DomainFloorError at the first row of ``values``, then the first
    node, lying below ``floor - ORDER_SLACK``; row i is component i + 1."""
    bad = values < floor - ORDER_SLACK
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[i]))
        raise DomainFloorError(i + 1, float(nodes[j]), float(values[i, j]), floor)


# The one size bound of the batch kernel, in float64 values (64 KiB): a
# sampled check's block is the samples of at most _BLOCK_ELEMENTS // max(n, nq)
# components, at least one sample, so its one kernel call gathers under
# 2 * _BLOCK_ELEMENTS argument values, or one sample's 2k * nq.
_BLOCK_ELEMENTS = 1 << 13


def _apply_kernel(problem: HammersteinProblem, g: np.ndarray, nodes: bool = True) -> np.ndarray:
    """sum_q W[j, q] g[r, q] for (R, nq) integrands g: the (R, n) rows at the
    grid nodes, then, when ``nodes``, the (R, nq) rows at the quadrature
    nodes.  A dense kernel costs R*n*nq multiply-adds, plus R*nq*nq for the
    node rows; a SeparableKernel row is c_r * a with the scalar
    c_r = sum_q b(s_q) w_q g[r, q], R dot products of length nq.

    Every kernel product goes through here, and each caller asks for the
    rows it reads: the operator's images read both, ``kernel_bound`` and
    the sampled checks the grid rows only, so only an image builds a dense
    kernel's nq x nq node block.  Each row is summed on its own, so its
    bits depend on neither R nor ``nodes``."""
    if isinstance(problem.kernel, SeparableKernel):
        a, wb = problem._weighted_kernel
        return np.matmul(g[:, None, :], wb[:, None])[:, 0] * (a if nodes else a[:problem.grid.n])
    blocks = (problem._weighted_kernel, problem._node_block) if nodes else (problem._weighted_kernel,)
    return np.concatenate([np.matmul(w, g[:, :, None])[:, :, 0] for w in blocks], axis=1)


# At most this many row tuples have their layout kept on one problem; a
# further one is laid out on each call.
_MAX_LAYOUTS = 16


def _layout(problem: HammersteinProblem, rows):
    """What a kernel call reads off its 1-based (R, k) row table alone: the
    0-based gather index of the distinct columns, the key (first position of
    f_j, distinct column of j) of each position j, and the quadrature nodes
    tiled R times, read-only.  A row tuple, as a sweep's plan hands over,
    has its layout kept on the problem (``_MAX_LAYOUTS``); a table that
    cannot be a dict key, such as a sampled check's array, is laid out on
    each call, so an (0, k) table works."""
    try:
        return problem._layouts[rows]
    except KeyError:
        keep = len(problem._layouts) < _MAX_LAYOUTS
    except TypeError:
        keep = False
    table = np.asarray(rows) - 1
    first, columns, keys = {}, {}, []
    for j, (f, column) in enumerate(zip(problem.nonlinearities, map(tuple, table.T.tolist()),
                                        strict=True)):
        keys.append((first.setdefault(id(f), j), columns.setdefault(column, len(columns))))
    s = np.tile(problem.quadrature.nodes, table.shape[0])
    s.flags.writeable = False
    layout = np.array([*columns], dtype=np.intp), tuple(keys), s
    if keep:
        problem._layouts[rows] = layout
    return layout


def _integrals(problem: HammersteinProblem, rows, values: np.ndarray, known=(), at_nodes=(),
               nodes: bool = True):
    """The operator at R argument tuples drawn from ``values``, as the (R, n)
    array of the images at the grid nodes and the (R, nq) array of the same
    images at the quadrature nodes, (R, 0) unless ``nodes``
    (``_apply_kernel``): row r is int_1^T G(t, s) sum_j
    f_j(s, u_j(s)) ds + p(t), u_j the component ``values[rows[r, j] - 1]``,
    ``rows`` a 1-based (R, k) index table and ``values`` a (c, n) array of
    any number c of components at the problem's grid nodes.

    Every component is checked against the floor.  Those at the 0-based
    positions ``known`` come with their (len(known), nq) values at the
    quadrature nodes, ``at_nodes``, which are then checked too; the others
    are transferred there in one apply of the problem's ``LinearPlan``
    (which stays between each interval's node values, so these need no
    check); when all carry them, they are stacked as they are.  A
    DomainFloorError names the argument, a 1-based index into ``values``,
    not the row.  All R rows then make one kernel call, laid out by
    ``_layout``.  Argument j of every row, laid end to end, is column j of
    ``rows`` gathered from the (c, nq) array, a 1-D array of length R*nq, so
    the array contract holds and a scalar return broadcasts.  Each distinct
    column is gathered once and each distinct pair (f_j, column j), f_j told
    apart by identity, is called once, so d distinct pairs cost d calls
    whatever k is; the k terms are still summed in j order, so the sum's
    bits are those of k calls.  The nodes and the gathered arguments are
    read-only: a nonlinearity that writes into either raises ValueError
    instead of changing another's.  A caller bounds R: the engine's sweeps
    have at most k rows and a sampled check hands over one block.
    """
    index, keys, s = _layout(problem, rows)
    s_nodes, n_rows = problem.quadrature.nodes, len(rows)
    nq = s_nodes.size
    _check_floor(values, problem.grid.nodes, problem.domain_floor)
    if not len(known):
        vals = problem._transfer.apply(values)
    else:
        if len(known) == len(values):
            vals = np.stack(at_nodes)
        else:
            vals = np.empty((len(values), nq))
            vals[known] = at_nodes
            todo = np.delete(np.arange(len(values)), known)
            vals[todo] = problem._transfer.apply(values[todo])
        _check_floor(vals, s_nodes, problem.domain_floor)
    # one gather; row c holds distinct column c of every row end to end.  A
    # row may be read by several callables, so none may write into it.
    args = vals.take(index, axis=0).reshape(len(index), -1)
    args.flags.writeable = False
    fs, total, terms = problem.nonlinearities, np.zeros(n_rows * nq), {}
    with np.errstate(all="ignore"):
        for j, key in enumerate(keys):
            if key not in terms:
                terms[key] = fs[j](s, args[key[1]])
            total += terms[key]
        if not np.isfinite(total).all():
            raise ArithmeticError("non-finite integrand encountered")
        out = _apply_kernel(problem, total.reshape(n_rows, nq), nodes)
        out += problem._forcing_values[:out.shape[1]]
    n = problem.grid.n
    return out[:, :n], out[:, n:]


def apply_A(problem: HammersteinProblem, x: Sequence[GridFunction]) -> GridFunction:
    """Evaluate the product operator at a 2m-tuple of grid functions:
    int_1^T G(t, s) sum_i f_i(s, x_i(s)) ds + p(t) at the collocation nodes.

    Every component must lie on the problem's grid.  This is the one-row
    case of the batch kernel.  Cost per call: O(k*nq) to transfer the
    components that carry no quadrature-node values (the interval search is
    planned once per problem), k nonlinearity calls on nq nodes and two
    matmuls of (n + nq)*nq multiply-adds in all (O(n + nq) for a
    SeparableKernel).  Each of the k arguments is read, a repeated one at
    each position, so its one row has k distinct columns and its kernel
    call shares no term (``batch``); the row is one tuple, so the problem
    keeps its layout (``_layout``).  A sweep goes through the engine and
    the batch instead, which reads each distinct component once.
    """
    if len(x) != problem.k:
        raise ValueError(f"expected {problem.k} components, got {len(x)}")
    return product_operator(problem).batch((range(1, problem.k + 1),), x)[0]


@dataclass(frozen=True)
class _Image(GridFunction):
    """An image with its values at the nodes of ``quadrature``; both arrays
    are read-only, so the two cannot drift apart."""

    quadrature: QuadratureRule
    at_nodes: np.ndarray


def product_operator(problem: HammersteinProblem) -> ProductOperator:
    """The problem's operator, with a batched evaluation.

    ``batch(rows, x)`` computes the images at R argument tuples drawn from
    c components in one ``_integrals`` call, which gathers up to R*k*nq
    argument values at once, so a caller with many rows hands them over in
    blocks, as the sampled checks do.  Every image carries its values at the
    quadrature nodes, which a component is read from when it carries them
    for this problem's rule (``is``); any other is transferred (O(nq)).  The
    engine hands the batch each distinct component once and each distinct
    row once, as one tuple of rows per pattern (``engine._images``), so
    from the bracket start, whose A components are one object and whose B
    components another, every sweep is R = c = 2 at any k, only the first
    transfers and every later one reads the layout the problem keeps.
    """
    def batch(rows, x):
        for xi in x:
            _check_same_grid(problem.grid, xi.grid)
        known = [i for i, xi in enumerate(x)
                 if isinstance(xi, _Image) and xi.quadrature is problem.quadrature]
        images, at_nodes = _integrals(problem, rows, np.stack([xi.values for xi in x]),
                                      known, [x[i].at_nodes for i in known])
        _check_finite(at_nodes)
        images.flags.writeable = at_nodes.flags.writeable = False
        return tuple(_Image(problem.grid, out, problem.quadrature, nodes)
                     for out, nodes in zip(images, at_nodes))

    return ProductOperator(problem.k, lambda *x: apply_A(problem, x), batch)


def kernel_bound(problem: HammersteinProblem) -> float:
    """2m * max over collocation nodes t of int_1^T G(t, s) ds, read off
    ``_apply_kernel``'s grid rows on a row of ones."""
    ones = np.ones((1, problem.quadrature.nodes.size))
    return problem.k * float(np.max(_apply_kernel(problem, ones, nodes=False)))


@dataclass(frozen=True)
class AssumptionDReport:
    kernel_bound: float
    eta_ok: bool
    violations: Tuple[tuple, ...]  # (nonlinearity index, s, x, y, excess)

    @property
    def passed(self) -> bool:
        return self.eta_ok and not self.violations


def check_assumption_d(
    problem: HammersteinProblem,
    value_pairs: Sequence[Tuple[float, float]],
    s_samples: Sequence[float],
) -> AssumptionDReport:
    """Sampled check of the alternating log-increment bands and the eta cap.

    value_pairs are ordered (x, y) with y >= x >= domain_floor; every
    nonlinearity is tested at every (s, x, y) combination, up to
    ORDER_SLACK, and the violations are listed by pair, then s, then
    nonlinearity.  Each nonlinearity is called once, on the arrays of every
    (s, y) and then every (s, x) combination laid end to end.  A non-finite
    increment (a nonlinearity undefined there) is a violation with excess
    inf.
    """
    for x, y in value_pairs:
        if y < x or x < problem.domain_floor:
            raise ValueError(f"bad value pair ({x}, {y})")
    for s in s_samples:
        if not 1.0 <= s <= problem.T:
            raise ValueError(f"s sample {s} outside [1, T]")
    pairs, n_s = np.array(value_pairs, dtype=float).reshape(-1, 2), len(s_samples)
    ss = np.tile(np.asarray(s_samples, dtype=float), len(pairs))
    xs, ys = pairs.repeat(n_s, axis=0).T
    # eta_i * log(1 + y - x), shape (k, pairs * n_s), with math.log1p (numpy's
    # may differ by an ulp)
    bands = np.repeat([math.log1p(y - x) for x, y in pairs], n_s)
    odd = (np.arange(problem.k) % 2 == 0)[:, None]  # f_1, f_3, ...: nondecreasing
    with np.errstate(all="ignore"):  # an infinite cap is a valid one
        caps = np.asarray(problem.etas)[:, None] * bands
        lo, hi = np.where(odd, 0.0, -caps), np.where(odd, caps, 0.0)
        diffs = np.empty_like(caps)
        for i, fi in enumerate(problem.nonlinearities):
            fy, fx = _node_array_output(f"nonlinearity {i + 1}", fi, (2 * ss.size,),
                                        np.tile(ss, 2), np.concatenate([ys, xs])).reshape(2, -1)
            diffs[i] = fy - fx
        finite = np.isfinite(diffs)
        bad = ~finite | (diffs < lo - ORDER_SLACK) | (diffs > hi + ORDER_SLACK)
        excess = np.where(finite, np.maximum(lo - diffs, diffs - hi), np.inf)
    # the transpose's nonzero runs over pair, then s, then nonlinearity
    violations = [(int(i) + 1, float(ss[q]), float(xs[q]), float(ys[q]), float(excess[i, q]))
                  for q, i in zip(*np.nonzero(bad.T))]
    bound = kernel_bound(problem)
    eta_ok = max(problem.etas) <= 1.0 / bound + 1e-8 if bound > 0 else True
    return AssumptionDReport(bound, eta_ok, tuple(violations))


@dataclass(frozen=True)
class AssumptionEReport:
    h_functions: Tuple[GridFunction, ...]
    failures: Tuple[tuple, ...]  # (r, node index) where the comparison fails

    @property
    def passed(self) -> bool:
        return not self.failures


def check_assumption_e(
    problem: HammersteinProblem,
    y0: Sequence[GridFunction],
) -> AssumptionEReport:
    """Starting-bracket condition: odd components sit below their comparison
    integrals H_r, even components above, nodewise, up to ORDER_SLACK
    (u <= v + ORDER_SLACK, as ``funcspace.pointwise_leq``).

    H_r is apply_A at y0 permuted by sigma_r of the cyclic shift, so the H_r
    are the first Jacobi sweep from y0 (``engine.iterate_step``), and this is
    ``engine.solve``'s starting-point condition on its first sweep, read
    node by node; an evaluation failure raises the same
    OperatorEvaluationError as that sweep.
    """
    upsilon = cyclic_shift_upsilon(problem.m)
    h_functions = iterate_step(product_operator(problem), upsilon, y0)
    failures: List[tuple] = []
    for r, (comp, h) in enumerate(zip(y0, h_functions), start=1):
        lo, hi = upsilon.partition.orient(r, comp, h)
        failures.extend((r, int(j)) for j in np.nonzero(lo.values > hi.values + ORDER_SLACK)[0])
    return AssumptionEReport(h_functions, tuple(failures))


def _samples_per_block(problem: HammersteinProblem, elements: int) -> int:
    """A sampled check's block: the samples of ``elements`` components each
    that make at most _BLOCK_ELEMENTS // max(n, nq) components, at least one."""
    size = max(problem.grid.n, problem.quadrature.nodes.size)
    return max(1, _BLOCK_ELEMENTS // size // elements)


def _sample_images(problem: HammersteinProblem, rows, values: np.ndarray, done: int):
    """``_integrals``' grid images on a block that follows ``done``
    evaluated components: a failure or a non-finite image raises
    OperatorEvaluationError, its ``component`` offset by ``done``."""
    try:
        out = _integrals(problem, rows, values, nodes=False)[0]
        _check_finite(out)
    except Exception as exc:
        raise OperatorEvaluationError(exc, range(done + 1, done + len(values) + 1)) from exc
    return out


def check_contraction(problem: HammersteinProblem, pairs: np.ndarray,
                      triple: ContractionTriple, tol_slack: float) -> ContractionSampleReport:
    """``contraction.verify_contraction_sampled`` on a (count, 2, k, n) array
    of pairs, pair p's x then its z, under the sup metric, its maximum over
    components and the cyclic shift's twisted order.  Each block of
    ``_samples_per_block(problem, 2k)`` pairs is order-checked, then its
    accepted pairs make one ``_integrals`` call, rows x then z; the
    components of the accepted pairs, laid end to end, are what an
    OperatorEvaluationError's ``component`` indexes, as in the generic check.
    """
    count, k, n = len(pairs), problem.k, problem.grid.n
    if pairs.shape[1:] != (2, k, n):
        raise ValueError(f"pairs must have shape (count, 2, {k}, {n})")
    in_a = (np.arange(k) % 2 == 0)[:, None]  # the cyclic shift's A block, as in check D
    size = _samples_per_block(problem, 2 * k)
    rows = np.arange(1, 2 * k * size + 1).reshape(-1, k)
    slacks, rejected, done = [], [], 0
    for start in range(0, count, size):
        block = pairs[start:start + size]
        x, z = block[:, 0], block[:, 1]
        ordered = np.where(in_a, x <= z + ORDER_SLACK, z <= x + ORDER_SLACK).all(axis=(1, 2))
        rejected += (start + np.flatnonzero(~ordered)).tolist()
        accepted = block[ordered]
        images = _sample_images(problem, rows[:2 * len(accepted)], accepted.reshape(-1, n), done)
        dks = np.abs(accepted[:, 0] - accepted[:, 1]).max(axis=(1, 2))
        ds = np.abs(images[0::2] - images[1::2]).max(axis=1)
        slacks += [triple.theta(dk) - triple.phi(dk) - triple.psi(d)
                   for dk, d in zip(dks.tolist(), ds.tolist())]
        done += 2 * k * len(accepted)
    return ContractionSampleReport(tuple(slacks), tuple(rejected), tol_slack)


def check_mixed_monotone(problem: HammersteinProblem, samples: np.ndarray,
                         coords: Sequence[int]) -> List[tuple]:
    """``engine.check_mixed_monotone_sampled`` on a (count, k + 1, n) array
    of samples under the cyclic shift's partition: sample i is its point,
    then ``high``, which replaces the point's component ``coords[i]``
    (1-based).  Returns the violating samples as (index, coordinate).  Each
    block of ``_samples_per_block(problem, k + 1)`` samples makes one
    ``_integrals`` call of two rows a sample; an OperatorEvaluationError's
    ``component`` indexes the samples' components laid end to end.
    """
    count, k, n = len(samples), problem.k, problem.grid.n
    coords = np.asarray(coords)
    if samples.shape[1:] != (k + 1, n) or coords.shape != (count,) or \
            not np.all((1 <= coords) & (coords <= k)):
        raise ValueError(f"samples must have shape (count, {k + 1}, {n}), coords be in 1..{k}")
    in_a = np.arange(k) % 2 == 0  # the cyclic shift's A block, as in check D
    size = _samples_per_block(problem, k + 1)
    violations = []
    for start in range(0, count, size):
        block, j = samples[start:start + size], coords[start:start + size]
        index = np.arange(1, block.size // n + 1).reshape(-1, k + 1)
        high = index[:, :k].copy()
        high[np.arange(len(block)), j - 1] = index[:, k]
        rows = np.stack([index[:, :k], high], axis=1).reshape(-1, k)
        images = _sample_images(problem, rows, block.reshape(-1, n), start * (k + 1))
        low, up = images[0::2], images[1::2]
        ok = np.where(in_a[j - 1, None], low <= up + ORDER_SLACK, up <= low + ORDER_SLACK)
        violations += [(start + int(i), int(j[i])) for i in np.flatnonzero(~ok.all(axis=1))]
    return violations


def _linear_minus_log_forcing(alpha: float, T: float) -> Forcing:
    ratio = (1 + alpha) / (alpha * math.sqrt(T))
    if not ratio > 0.0:
        raise ValueError(f"forcing linear-minus-log takes ln((1+alpha)/(alpha*sqrt(T))), "
                         f"undefined at alpha = {alpha} and T = {T}")
    c = math.log(ratio)
    return lambda t: alpha * t - c / (2.0 * t)


# Named pieces of problem data, each a factory of (alpha, T), read only by
# named_problem, so the paper's pieces live here only.
KERNELS = {
    "log-product": lambda alpha, T: SeparableKernel(lambda t: 1.0 / (2.0 * math.log(T) * t),
                                                    lambda s: 1.0 / s),
    "constant": lambda alpha, T: SeparableKernel(lambda t: 1.0 / (T - 1.0), lambda s: 1.0),
}
NONLINEARITIES = {
    "log-shift": lambda alpha, T: (lambda s, x: np.log(s + x)),
    "neg-log-product": lambda alpha, T: (lambda s, x: -(np.log(s) + np.log(x))),
    "zero": lambda alpha, T: (lambda s, x: 0.0),
}
FORCINGS = {
    "linear-minus-log": _linear_minus_log_forcing,
    "linear": lambda alpha, T: (lambda t: alpha * t),
    "zero": lambda alpha, T: (lambda t: 0.0),
}


def _number(value, name) -> float:
    """A number read as given: a bool or a string is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _lookup(piece: str, registry: dict, name):
    """The factory registered under ``name``, or ValueError naming the piece."""
    if not (isinstance(name, str) and name in registry):
        raise ValueError(f"unknown {piece} {name!r}; known: {', '.join(sorted(registry))}")
    return registry[name]


def named_problem(alpha: float, T: float, n_intervals: int = 200, quad_panels: int = 32,
                  quad_points: int = 8, *, m: int = 1, kernel: str = "log-product",
                  nonlinearities: Sequence[str] = ("log-shift", "neg-log-product"),
                  forcing: str = "linear-minus-log", etas: Sequence[float] = (1.0, 1.0),
                  domain_floor: float = 1.0) -> HammersteinProblem:
    """The problem whose pieces are named in the registries, each factory
    called at (alpha, T), on ``uniform_grid(T, n_intervals)`` and
    ``make_quadrature(T, quad_panels, quad_points)``; the defaults are the
    paper's.  The grid is built first, so T <= 1 is refused before a factory
    computes with T.  A name that is not registered, ``nonlinearities`` or
    ``etas`` that is not a list or tuple, or a bool or string eta or
    domain_floor, raises ValueError naming the piece."""
    floor = _number(domain_floor, "domain_floor")
    if not isinstance(etas, (list, tuple)):
        raise ValueError(f"eta must be a list of numbers, got {etas!r}")
    etas = tuple(_number(e, f"eta[{i}]") for i, e in enumerate(etas))
    grid = uniform_grid(T, n_intervals)
    if not isinstance(nonlinearities, (list, tuple)):
        raise ValueError(f"nonlinearities must be a list of names, got {nonlinearities!r}")
    fs = tuple(_lookup("nonlinearity", NONLINEARITIES, name)(alpha, T) for name in nonlinearities)
    return HammersteinProblem(
        m=m, kernel=_lookup("kernel", KERNELS, kernel)(alpha, T), nonlinearities=fs,
        forcing=_lookup("forcing", FORCINGS, forcing)(alpha, T),
        etas=etas, domain_floor=floor, grid=grid,
        quadrature=make_quadrature(T, quad_panels, quad_points))


def build_log_example(
    alpha: float,
    T: float,
    n_intervals: int = 200,
    quad_panels: int = 32,
    quad_points: int = 8,
) -> HammersteinProblem:
    """The bundled m=1 problem with exact solution x(t) = alpha * t.

    kernel G(t,s) = 1/(2 ln T * t * s), f1 = ln(s+x), f2 = -(ln s + ln x),
    forcing p(t) = alpha*t - ln((1+alpha)/(alpha*sqrt(T)))/(2t); both eta
    constants are 1, exactly saturating the kernel-bound cap.
    """
    check_paper_alpha(alpha)
    return named_problem(alpha, T, n_intervals, quad_panels, quad_points)


def check_paper_alpha(alpha: float) -> None:
    """The paper example's exact solution alpha * t needs alpha > 1."""
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")


def initial_bracket(problem: HammersteinProblem, alpha: float) -> Tuple[GridFunction, GridFunction]:
    """Starting pair (alpha*t/2, 3*alpha*t/2) for the log-kernel example.

    For alpha < 2 the lower start would dip below the domain floor near t=1;
    it is raised to the floor and the substitution is logged.  The
    starting-order condition should then be re-checked numerically.
    """
    t = problem.grid.nodes
    with np.errstate(over="ignore"):  # GridFunction refuses an infinite start
        lower, upper = alpha * t / 2.0, 3.0 * alpha * t / 2.0
    if lower[0] < problem.domain_floor:
        log.warning(
            "lower start alpha*t/2 dips below the floor %.6g near t=1; "
            "clamping to the floor", problem.domain_floor,
        )
        lower = np.maximum(lower, problem.domain_floor)
    return GridFunction(problem.grid, lower), GridFunction(problem.grid, upper)
