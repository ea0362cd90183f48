"""Hammerstein integral equations x(t) = int_1^T G(t,s) sum_i f_i(s, x(s)) ds + p(t)
with 2m nonlinearities banded by log(1 + .) in alternating directions, the
induced product operator, and numerical checkers for the standing
assumptions and, on stacked sample arrays, for contraction and, on
constant samples, for mixed monotonicity.

Named pieces of problem data are built by one constructor, ``named_problem``,
whose defaults are the paper's example: G(t,s) = 1/(2 ln T * t * s),
f1(s,x) = ln(s + x), f2(s,x) = -(ln s + ln x), exact solution x(t) = alpha * t.
A kernel is a callable G(t, s), kept as the dense n x nq weighted grid
block and an nq x nq node block, or a rank-one ``SeparableKernel``, kept
as its two factors (the degenerate-kernel form, Atkinson 1997, ch. 2), as
every registry kernel is.
Either way an image is known at the quadrature nodes, where the next sweep
reads it (the Nystrom method, Atkinson 1997, ch. 4), and at the grid nodes,
where a rank-one image is its one coefficient c, ``c * a + p`` formed only
where its grid values are read (``_RankOne``); ``image_metric`` and
``image_leq``, the metric and order that ``mixedfp solve`` hands
``engine.solve``, read two such images off their coefficients.
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
    pointwise_leq,
    sup_metric,
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
    "image_metric",
    "image_leq",
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

    @cached_property
    def _rank_one(self):
        # the grid side of a SeparableKernel problem's images (``_RankOne``),
        # None for a dense kernel; built at the first operator call
        if not isinstance(self.kernel, SeparableKernel):
            return None
        n = self.grid.n
        return _RankOne(self._weighted_kernel[0][:n], self._forcing_values[:n])


def _check_kernel(*factors: np.ndarray) -> None:
    # NaN fails >= 0; an infinite value or product makes the product of maxima inf or NaN
    if not (all(np.all(f >= 0.0) for f in factors)
            and math.isfinite(math.prod(float(f.max()) for f in factors))):
        raise ValueError("kernel must be finite and nonnegative on the grid")


def _check_floor(values: np.ndarray, nodes: np.ndarray, floor: float, components=None):
    """Raise DomainFloorError at the first row of ``values``, then the first node, lying
    below ``floor - ORDER_SLACK``; row i is component i + 1, or ``components[i] + 1``.
    Passing costs one ``min``."""
    if values.min(initial=math.inf) < floor - ORDER_SLACK:
        bad = values < floor - ORDER_SLACK
        i = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[i]))
        component = i + 1 if components is None else components[i] + 1
        raise DomainFloorError(component, float(nodes[j]), float(values[i, j]), floor)


class _RankOne:
    """The grid side of a SeparableKernel problem's images: the image of
    coefficient c is ``grid(c)``, fl(fl(c * a_t) + p_t) at the n grid nodes,
    a = a(t) >= 0 and p the forcing, with the bits of ``_apply_kernel``'s
    grid rows.  One is built per problem, and an image of that problem
    holds it as its ``family`` (``_Image``).

    Rounding is monotone and a >= 0, so c <= c' gives grid(c) <= grid(c')
    at every node: two images are ordered as their coefficients are, and an
    image whose coefficient is at least that of one whose grid values lie
    above the floor lies above it too.  Their sup distance is |c - c'| *
    ``scale`` (max a) up to rounding, and every grid value of c is finite
    when |c| * ``scale`` + ``bound`` (max |p|) rounds to a finite number."""

    def __init__(self, a: np.ndarray, p: np.ndarray):
        self.a, self.p = a, p
        self.scale, self.bound = float(a.max()), float(np.abs(p).max())

    def grid(self, c) -> np.ndarray:
        """The grid values of coefficient c, a scalar or an (R, 1) column."""
        out = c * self.a
        out += self.p
        return out


# The one size bound of the batch kernel, in float64 values (96 KiB): a
# sampled check's block is the samples whose two rows of k arguments each
# make at most _BLOCK_ELEMENTS // max(n, nq) arguments, at least one sample,
# so no array of its draws or of its one kernel call holds more than
# _BLOCK_ELEMENTS values, or one sample's 2k * max(n, nq).  Blocks twice as
# large were faster alone, but their arrays passed 128 KiB, glibc's default
# threshold for mapping an allocation, and the heap was trimmed and faulted
# in again around each block, which a round of CLI solves paid for.
_BLOCK_ELEMENTS = 3 << 12


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
    bits depend on neither R nor ``nodes``.  A batch of rank-one images
    takes the c_r alone (``_coefficients``) and scales ``a`` at the
    quadrature nodes only (``_integrals``)."""
    if isinstance(problem.kernel, SeparableKernel):
        a = problem._weighted_kernel[0]
        return _coefficients(problem, g) * (a if nodes else a[:problem.grid.n])
    blocks = (problem._weighted_kernel, problem._node_block) if nodes else (problem._weighted_kernel,)
    return np.concatenate([np.matmul(w, g[:, :, None])[:, :, 0] for w in blocks], axis=1)


def _coefficients(problem: HammersteinProblem, g: np.ndarray) -> np.ndarray:
    """The (R, 1) column of a SeparableKernel problem's c_r = sum_q b(s_q)
    w_q g[r, q], R dot products of length nq, each summed on its own."""
    return np.matmul(g[:, None, :], problem._weighted_kernel[1][:, None])[:, 0]


def _layout(problem: HammersteinProblem, rows):
    """What a kernel call reads off its 1-based (R, k) row table alone: the
    0-based gather index of the distinct columns, one call (first position
    of f_j, distinct column of j) per distinct term, the index of each
    position j's term, and the quadrature nodes tiled R times, read-only.
    The table is read as an (R, k) array, so an empty one is (0, k).  The
    operator's ``prepare`` lays its rows out once; a sampled check's rows
    have k distinct columns and lay out as ``_distinct_terms``."""
    table = np.asarray(rows, dtype=np.intp).reshape(len(rows), problem.k) - 1
    first, columns, terms, select = {}, {}, {}, []
    for j, (f, column) in enumerate(zip(problem.nonlinearities, map(tuple, table.T.tolist()))):
        key = first.setdefault(id(f), j), columns.setdefault(column, len(columns))
        select.append(terms.setdefault(key, len(terms)))
    s = np.tile(problem.quadrature.nodes, table.shape[0])
    s.flags.writeable = False
    return np.array([*columns], dtype=np.intp), tuple(terms), np.array(select, dtype=np.intp), s


def _distinct_terms(problem: HammersteinProblem, rows: int):
    """``_layout``'s calls, selection and tiled nodes for ``rows`` rows whose
    k columns are distinct, as a sampled check's are: term j is f_j on
    argument row j, and the k terms are the summands as they stand."""
    s = np.tile(problem.quadrature.nodes, rows)
    s.flags.writeable = False
    return tuple(zip(range(problem.k), range(problem.k))), np.arange(problem.k), s


def _node_values(problem: HammersteinProblem, x: Sequence[GridFunction]):
    """The c grid functions ``x`` of a batch (``product_operator``) at the
    quadrature nodes, a (c, nq) array, each checked against the floor, and
    the least coefficient of this problem's rank-one images among them, or
    of their ``floor_safe``, inf when there is none: the ``floor_safe`` of
    the batch's images.  A DomainFloorError names the component, a 1-based
    index into ``x``, and a component on another grid raises ValueError.

    One pass classifies the components, after one that finds the family's
    least ``floor_safe`` and coefficient.  An image for this problem's rule
    (``is``) carries its values at the quadrature nodes; any other component
    is transferred there in one apply of the problem's ``LinearPlan``, which
    stays between each interval's node values, so it is checked at the grid
    nodes only.  A rank-one image of this problem whose coefficient is at
    least the least ``floor_safe`` among them is checked at neither node
    set: a >= 0 and rounding is monotone, so its values lie above those of
    an image that passed both checks (``_RankOne``).  Any other image is
    checked at the grid nodes, and then, when there is one, all the node
    values at once, which the others pass.  Checking the rest in their
    order names the first failing component and node, as checking all of
    them would.
    """
    rule, family, floor = problem.quadrature, problem._rank_one, problem.domain_floor
    safe = least = math.inf  # the least floor_safe and the least coefficient of the family
    if family is not None:
        for xi in x:
            if isinstance(xi, _Image) and xi.family is family:
                safe, least = min(safe, xi.floor_safe), min(least, xi.coefficient)
    vals, checked, moved, carried = np.empty((len(x), rule.nodes.size)), [], [], False
    for i, xi in enumerate(x):
        _check_same_grid(problem.grid, xi.grid)
        if isinstance(xi, _Image) and xi.quadrature is rule:
            vals[i] = xi.at_nodes
            if family is not None and xi.family is family and xi.coefficient >= safe:
                continue
            carried = True
        else:
            moved.append(i)
        checked.append(i)
    if checked:
        grid = np.array([x[i].values for i in checked])
        _check_floor(grid, problem.grid.nodes, floor, checked)
        if moved:
            at = grid if len(moved) == len(checked) else grid[np.searchsorted(checked, moved)]
            vals[moved] = problem._transfer.apply(at)
        if carried:  # the rows transferred or at or above floor_safe pass
            _check_floor(vals, rule.nodes, floor)
    return vals, min(safe, least)


def _integrals(problem: HammersteinProblem, args: np.ndarray, calls, select, s: np.ndarray,
               nodes: bool = True, coefficients: bool = False):
    """The operator at R argument tuples that the caller has laid out at the
    quadrature nodes and checked against the floor, as the (R, n) array of
    the images at the grid nodes and the (R, nq) array of the same images at
    the quadrature nodes, (R, 0) unless ``nodes`` (``_apply_kernel``): row r
    is int_1^T G(t, s) sum_j f_j(s, u_rj(s)) ds + p(t).  With
    ``coefficients``, a SeparableKernel problem's images are not formed at
    the grid nodes: the first array is then the (R, 1) column of their
    coefficients (``_coefficients``), whose grid values ``_RankOne.grid``
    forms.

    ``args`` holds the distinct argument columns, row c column c's R
    arguments laid end to end at the quadrature nodes, a 1-D array of
    length R*nq for each, so the array contract holds and a scalar return
    broadcasts; ``calls`` holds one (position j of f_j, row of ``args``)
    per distinct term, ``select`` the term of each position j and ``s`` the
    quadrature nodes tiled R times, read-only (``_layout``,
    ``_distinct_terms``).  Each caller lays out its own value form: the
    prepared batch gathers its components' node values (``_node_values``),
    the monotonicity check repeats each position's constants over the
    nodes, and the contraction check transfers each block's positions at
    the grid.  This call marks ``args`` read-only, since a row may be read
    by several callables, so a nonlinearity that writes into it raises
    ValueError instead of changing another's term.

    Then all R rows make one kernel call: each distinct term is called
    once, so d distinct terms cost d calls whatever k is.  The d terms fill
    one (d, R*nq) array, and one ``np.add.reduce`` from 0.0 sums the k
    terms taken from it in j order: numpy adds the rows of an outer-axis
    reduction one after another, so the sum has the bits of k calls.  Both
    image arrays are checked finite at once and returned read-only; the
    grid values of coefficients are finite when |c| * max a + max |p| is
    (``_RankOne``), and are formed and checked only when it is not, so an
    image that overflows at either node set fails as it would if formed.  A
    caller bounds R: the engine's sweeps have at most k rows and a sampled
    check hands over one block.
    """
    nq, n = problem.quadrature.nodes.size, problem.grid.n
    n_rows = s.size // nq
    args.flags.writeable = False
    fs, terms = problem.nonlinearities, np.empty((len(calls), n_rows * nq))
    family = problem._rank_one if coefficients else None
    with np.errstate(all="ignore"):
        for term, (j, column) in zip(terms, calls):
            np.copyto(term, fs[j](s, args[column]), casting="same_kind")  # as += casts
        # k distinct terms are the summands as they stand
        summands = terms if len(select) == len(terms) else terms.take(select, axis=0)
        if summands.shape[1] == 1:  # numpy would pair the terms of a lone column
            summands = np.broadcast_to(summands, (len(select), 2))
        total = np.add.reduce(summands, axis=0, initial=0.0)[:n_rows * nq]
        if not np.isfinite(total).all():
            raise ArithmeticError("non-finite integrand encountered")
        if family is None:
            out = _apply_kernel(problem, total.reshape(n_rows, nq), nodes)
            out += problem._forcing_values[:out.shape[1]]
            _check_finite(out)
            first, at_nodes = out[:, :n], out[:, n:]
        else:
            first = out = _coefficients(problem, total.reshape(n_rows, nq))  # out: made read-only
            at_nodes = first * problem._weighted_kernel[0][n:] if nodes else np.empty((n_rows, 0))
            at_nodes += problem._forcing_values[n:n + at_nodes.shape[1]]
            _check_finite(at_nodes)
            if not math.isfinite(abs(first).max(initial=0.0) * family.scale + family.bound):
                _check_finite(family.grid(first))
            at_nodes.flags.writeable = False
    out.flags.writeable = False
    return first, at_nodes


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
    call shares no term; the row is laid out on each call
    (``product_operator``'s ``prepare``).  A sweep goes through the engine
    and a prepared batch instead, which reads each distinct component once.
    """
    if len(x) != problem.k:
        raise ValueError(f"expected {problem.k} components, got {len(x)}")
    return product_operator(problem).prepare((range(1, problem.k + 1),))(x)[0]


class _Image(GridFunction):
    """An image with its values at the nodes of ``quadrature``,
    ``at_nodes``.  A dense kernel's image holds its grid values as well; a
    rank-one image holds its ``coefficient`` c over its problem's
    ``family`` (``_RankOne``) instead, and forms its grid values, with the
    bits a dense formation would give them, at the first read of
    ``values``.  ``floor_safe`` is a coefficient of that family whose image
    is known to lie above the floor at the grid nodes and at the quadrature
    nodes, inf when none is: one of a batch's components, which all passed
    (``_node_values``).  Every array is read-only, so the values cannot
    drift apart.  Only a prepared batch (``product_operator``) builds one,
    from rows ``_integrals`` has checked, so they are not checked again."""

    family = coefficient = None
    floor_safe = math.inf

    def __init__(self, grid: Grid, quadrature: QuadratureRule, at_nodes: np.ndarray,
                 values=None, family=None, coefficient=None, floor_safe=math.inf):
        fields = vars(self)  # the frozen grid function's own fields, set once here
        fields["grid"], fields["quadrature"], fields["at_nodes"] = grid, quadrature, at_nodes
        if values is not None:
            fields["values"] = values
        else:
            fields["family"], fields["coefficient"], fields["floor_safe"] = \
                family, coefficient, floor_safe

    @cached_property
    def values(self) -> np.ndarray:
        out = self.family.grid(self.coefficient)
        out.flags.writeable = False
        return out


def product_operator(problem: HammersteinProblem) -> ProductOperator:
    """The problem's operator, with a batched evaluation.

    ``prepare(rows)`` lays out the R rows once (``_layout``) and returns the
    batch ``x -> images``: the images at the R argument tuples drawn from c
    components.  The batch's value form is its components' node values
    (``_node_values``), classified in one pass: an image for this problem's
    rule (``is``) carries them, and any other component is transferred
    (O(nq)).  One gather lays out the distinct columns, up to R*k*nq
    argument values, for one ``_integrals`` call, so a caller with many
    rows hands them over in blocks.  A SeparableKernel problem's image
    carries its coefficient instead of its grid values (``_Image``), so a
    batch over rank-one images of the problem costs O(R*nq) and forms no
    grid value and makes no floor check, at the grid nodes or at the
    quadrature nodes, unless a component lies below the coefficients known
    to be safe.  Its images' ``floor_safe`` is the least coefficient of the
    family among the components, which all passed.  From the bracket
    start, whose A components are one object and whose B components
    another, a solve prepares R = 2 rows once at any k
    (``engine._prepare``), and each sweep reads c = 2 components, which
    only the first sweep transfers and only the first two check.  A call
    costs d nonlinearity calls and the kernel product plus a fixed number
    of numpy calls (``_integrals``).
    """
    def prepare(rows):
        index, *layout = _layout(problem, rows)

        def batch(x):
            vals, safe = _node_values(problem, x)
            # one gather; row c holds distinct column c of every row end to end
            first, at_nodes = _integrals(problem, vals.take(index, axis=0).reshape(len(index), -1),
                                         *layout, coefficients=True)
            family = problem._rank_one
            if family is None:
                return tuple(_Image(problem.grid, problem.quadrature, nodes, out)
                             for out, nodes in zip(first, at_nodes))
            return tuple(_Image(problem.grid, problem.quadrature, nodes, family=family,
                                coefficient=c, floor_safe=safe)
                         for c, nodes in zip(first[:, 0].tolist(), at_nodes))

        return batch

    return ProductOperator(problem.k, lambda *x: apply_A(problem, x), prepare=prepare)


def _rank_one_pair(u, v):
    """The family of two rank-one images of one problem, else None."""
    if isinstance(u, _Image) and isinstance(v, _Image) and u.family is v.family:
        return u.family
    return None


def image_metric(u: GridFunction, v: GridFunction) -> float:
    """``funcspace.sup_metric``, read off the coefficients of two rank-one
    images of one problem: |c_u - c_v| * max_t a(t), within a few ulps of
    max |x| of the grid sup, which rounds each grid value (``_RankOne``).
    Any other pair is measured at the grid nodes, with sup_metric's bits."""
    family = _rank_one_pair(u, v)
    if family is None:
        return sup_metric(u, v)
    return abs(u.coefficient - v.coefficient) * family.scale


def image_leq(u: GridFunction, v: GridFunction) -> bool:
    """``funcspace.pointwise_leq`` with ``ORDER_SLACK``, read exactly off the
    coefficients of two rank-one images of one problem when c_u <= c_v:
    rounding is monotone and a >= 0, so u lies below v at every grid node
    (``_RankOne``).  When the coefficients cannot decide, or the pair is
    not of that kind, the grid values are compared, as pointwise_leq does."""
    family = _rank_one_pair(u, v)
    if family is not None and u.coefficient <= v.coefficient:
        return True
    return pointwise_leq(u, v)


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
    *,
    F: ProductOperator = None,
    upsilon=None,
) -> AssumptionEReport:
    """Starting-bracket condition: odd components sit below their comparison
    integrals H_r, even components above, nodewise, up to ORDER_SLACK
    (u <= v + ORDER_SLACK, as ``funcspace.pointwise_leq``).

    H_r is apply_A at y0 permuted by sigma_r of the cyclic shift, so the H_r
    are the first Jacobi sweep from y0 (``engine.iterate_step``), which
    ``engine.solve`` takes as its ``first_sweep``, and this is its
    starting-point condition on that sweep, read node by node; an
    evaluation failure raises the same OperatorEvaluationError as that sweep.
    The sweep is evaluated on ``F`` and ``upsilon``, by default the
    problem's ``product_operator`` and ``cyclic_shift_upsilon(m)``; a
    caller that solves next hands over the ones its solve uses.
    """
    upsilon = cyclic_shift_upsilon(problem.m) if upsilon is None else upsilon
    F = product_operator(problem) if F is None else F
    h_functions = iterate_step(F, upsilon, y0)
    failures: List[tuple] = []
    for r, (comp, h) in enumerate(zip(y0, h_functions), start=1):
        lo, hi = upsilon.partition.orient(r, comp, h)
        failures.extend((r, int(j)) for j in np.nonzero(lo.values > hi.values + ORDER_SLACK)[0])
    return AssumptionEReport(h_functions, tuple(failures))


def _samples_per_block(problem: HammersteinProblem) -> int:
    """A sampled check's block: the samples, two rows of k arguments each,
    that make at most _BLOCK_ELEMENTS // max(n, nq) arguments, at least one.
    A pair's 2k components are its arguments, a monotonicity sample's k + 1
    constants fewer.  Each check lays out a full block's 2 * size rows once
    a call (``_distinct_terms``): their k columns are distinct, so the
    terms and their selection do not depend on the row count, and a shorter
    block, the last or a filtered one, reads the first of the tiled nodes.
    Its argument rows, k of 2 * size * nq values, hold at most
    _BLOCK_ELEMENTS values when the block's arguments do."""
    size = max(problem.grid.n, problem.quadrature.nodes.size)
    return max(1, _BLOCK_ELEMENTS // size // (2 * problem.k))


def check_contraction(problem: HammersteinProblem, blocks,
                      triple: ContractionTriple, tol_slack: float) -> ContractionSampleReport:
    """``contraction.verify_contraction_sampled`` on pairs of product
    tuples under the sup metric, its maximum over components and the cyclic
    shift's twisted order.  ``blocks`` is an iterable of (b, 2, k, n)
    arrays, pair p's x then its z (``cli._random_ordered_pairs`` draws
    them; a caller with one array passes ``[pairs]``).  Each is checked as
    it arrives, before any of it is evaluated: a shape or a non-finite
    value raises ValueError.  It is cut into blocks of
    ``_samples_per_block(problem)`` pairs, so no more than one array of the
    iterable is held.  A block's order is checked in one whole-block
    comparison; its accepted pairs, all of it when none is rejected, make
    one ``_integrals`` call, rows x then z, and one distance.  Their
    components are checked against the floor at the grid nodes, and each
    position's components, gathered at the grid, are transferred to the
    quadrature nodes in one apply of the problem's ``LinearPlan`` as that
    position's argument row.  The components of the accepted pairs, laid
    end to end over all blocks, are what an OperatorEvaluationError's
    ``component`` indexes, as in the generic check.
    """
    k, n, nq = problem.k, problem.grid.n, problem.quadrature.nodes.size
    size = _samples_per_block(problem)
    calls, select, s = _distinct_terms(problem, 2 * size)
    slacks, rejected, count, done = [], [], 0, 0
    for pairs in blocks:
        if pairs.shape[1:] != (2, k, n):
            raise ValueError(f"pairs must have shape (count, 2, {k}, {n})")
        if not np.isfinite(pairs).all():
            raise ValueError("sample pairs must be finite")
        for start in range(0, len(pairs), size):
            block = pairs[start:start + size]
            # x <= z on the cyclic shift's A block, the even 0-based components
            # as in check D, z <= x on its B block
            x, z = block[:, 0], block[:, 1]
            ordered = ((x[:, 0::2] <= z[:, 0::2] + ORDER_SLACK).all(axis=(1, 2))
                       & (z[:, 1::2] <= x[:, 1::2] + ORDER_SLACK).all(axis=(1, 2)))
            if not ordered.all():
                rejected += (count + np.flatnonzero(~ordered)).tolist()
                block = block[ordered]
            count += len(ordered)
            values = block.reshape(-1, n)  # the accepted pairs' components, rows x then z
            try:
                _check_floor(values, problem.grid.nodes, problem.domain_floor)
                args = problem._transfer.apply(values.reshape(-1, k, n).transpose(1, 0, 2)
                                               .reshape(-1, n))
                images = _integrals(problem, args.reshape(k, -1), calls, select,
                                    s[:len(values) // k * nq], nodes=False)[0]
            except Exception as exc:
                raise OperatorEvaluationError(exc, range(done + 1, done + len(values) + 1)) from exc
            dks = np.abs(block[:, 0] - block[:, 1]).max(axis=(1, 2))
            ds = np.abs(images[0::2] - images[1::2]).max(axis=1)
            slacks += [triple.theta(dk) - triple.phi(dk) - triple.psi(d)
                       for dk, d in zip(dks.tolist(), ds.tolist())]
            done += len(values)
    return ContractionSampleReport(tuple(slacks), tuple(rejected), tol_slack)


def check_mixed_monotone(problem: HammersteinProblem, points, coords) -> List[tuple]:
    """``engine.check_mixed_monotone_sampled`` on constant samples under
    the cyclic shift's partition.  ``points`` is a (count, k + 1) array of
    constants, sample i's point then ``high``, which replaces the point's
    component ``coords[i]`` (1-based), as ``cli._monotone_samples`` draws
    them.  Both are checked whole before any evaluation: a shape, a
    ``coords`` that is not an integer array (a bool one included) or
    outside 1..k, or a non-finite point raises ValueError.  Returns the
    violating samples as (index, coordinate).

    The samples are cut into blocks of ``_samples_per_block(problem)``.  A
    block makes one ``_integrals`` call of two rows a sample, low then
    high.  Each constant is checked against the floor as one number, a
    failure naming the grid's first node, and is its value at every node:
    a position's argument row repeats its constants over the quadrature
    nodes, with no transfer and no array with a grid axis.  An
    OperatorEvaluationError's ``component`` indexes the samples' constants
    laid end to end.  A
    SeparableKernel problem's two images of a sample are ordered as their
    coefficients are (``_RankOne``), so the order check reads the
    coefficients, exactly, and forms the grid rows of only the samples
    whose coefficients do not pass, which are compared node by node under
    ``ORDER_SLACK`` as a dense kernel's images are.
    """
    k = problem.k
    points, coords = np.asarray(points, dtype=float), np.asarray(coords)
    if points.shape[1:] != (k + 1,) or coords.shape != points.shape[:1] \
            or coords.dtype.kind not in "iu" or not np.all((1 <= coords) & (coords <= k)):
        raise ValueError(f"points must have shape (count, {k + 1}), coords be integers in 1..{k}")
    if not np.isfinite(points).all():
        raise ValueError("sample points must be finite")
    size = _samples_per_block(problem)
    calls, select, s = _distinct_terms(problem, 2 * size)
    nq, in_a = problem.quadrature.nodes.size, np.arange(k) % 2 == 0  # A as in check D
    family, violations = problem._rank_one, []
    # position i's constant in the rows low then high of every sample, the
    # high row's coordinate raised
    columns = np.repeat(points[:, :k].T, 2, axis=1)
    columns[coords - 1, 2 * np.arange(len(points)) + 1] = points[:, k]
    for start in range(0, len(points), size):
        block, j = points[start:start + size], coords[start:start + size]
        rows, done = columns[:, 2 * start:2 * (start + len(block))], start * (k + 1)
        try:
            _check_floor(block.reshape(-1, 1), problem.grid.nodes, problem.domain_floor)
            images = _integrals(problem, np.repeat(rows, nq, axis=1), calls, select,
                                s[:rows.size // k * nq], nodes=False, coefficients=True)[0]
        except Exception as exc:
            raise OperatorEvaluationError(exc, range(done + 1, done + block.size + 1)) from exc
        low, up = images[0::2], images[1::2]
        rest = np.arange(len(block))
        if family is not None:  # the (b, 1) coefficients: low <= up on A, up <= low on B
            rest = np.flatnonzero(~np.where(in_a[j - 1], low[:, 0] <= up[:, 0],
                                            up[:, 0] <= low[:, 0]))
        if rest.size:
            if family is not None:
                low, up = family.grid(low[rest]), family.grid(up[rest])
            ok = np.where(in_a[j[rest] - 1, None], low <= up + ORDER_SLACK,
                          up <= low + ORDER_SLACK).all(axis=1)
            violations += [(start + i, int(j[i])) for i in rest[~ok].tolist()]
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
