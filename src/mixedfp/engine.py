"""Picard iteration for multidimensional fixed points.

One Jacobi sweep replaces every component i by F applied to the sigma_i
permutation of the current tuple.  Under the contraction/monotonicity
hypotheses the sweeps converge to the unique fixed tuple; with the cyclic
shift the components additionally collapse to a single base element.
"""

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .order import Distance, Leq, Partition, UpsilonTuple

__all__ = [
    "ProductOperator",
    "IterationConfig",
    "IterationReport",
    "NonConvergenceError",
    "OperatorEvaluationError",
    "iterate_step",
    "check_mixed_monotone_sampled",
    "solve",
    "trace_csv",
]

log = logging.getLogger(__name__)


class OperatorEvaluationError(RuntimeError):
    """Operator evaluation failed; ``cause`` is the exception raised.

    One meaning on both evaluation paths: ``component`` is the failing
    element of the batch's elements ``x`` (1-based, see ``ProductOperator``),
    at its first occurrence in ``x`` when the element occurs more than once,
    and ``node`` the failing node, both read from the cause's attributes of
    those names and None when it names none (a non-finite integrand names
    neither).  The cause's index is mapped to ``x`` through ``to_x``, the
    1-based positions in ``x`` of what it indexes: the distinct elements
    handed to the batch (the plan's ``keep``), or the arguments of the
    failing row of ``apply``.  With one failing element both paths name it;
    with several they may name different ones.  For a sweep ``x`` is the
    iterate; the sampled checks say how they lay out theirs.
    """

    def __init__(self, cause: BaseException, to_x: Sequence[int]):
        c = getattr(cause, "component", None)
        self.component = None if c is None else int(to_x[c - 1])
        self.node = getattr(cause, "node", None)
        self.cause = cause
        where = "" if self.component is None else f" at component {self.component}"
        super().__init__(f"operator failed{where}: {cause}")


@dataclass(frozen=True)
class ProductOperator:
    """A mapping from k base elements to one base element.

    Must be deterministic and side-effect free; the engine may evaluate
    argument tuples in any order, and many of them in one batch.  It
    evaluates a repeated tuple once, and repeated rows share one image:
    elements are told apart by identity, so a tuple of the same objects is
    one tuple, and a plan lays out which are distinct (``_prepare``).

    ``prepare``, when set, is given by keyword and evaluates many argument
    tuples in one call: ``prepare(rows)`` takes a 1-based (R, k) index table
    ``rows`` and returns their batch, which takes a sequence ``x`` of any
    number of base elements and returns the R values
    ``apply(x[r_1 - 1], ..., x[r_k - 1])``, exactly one image per row
    (r_1..r_k); any other count raises ValueError on every path.  An
    exception may name the failing argument in a ``component`` attribute, a
    1-based index into ``x`` when the batch raises it and a position among
    the arguments when ``apply`` does, and the failing node in ``node``
    (``OperatorEvaluationError``).  A Jacobi sweep is the batch of the
    distinct rows of ``upsilon.sigmas`` over the iterate's distinct
    elements, as its plan lays them out; ``solve`` prepares it again only
    when the iterate's pattern changes, and every other caller prepares its
    one batch and drops it.  From a start whose A components are one object
    and whose B components another, as the cyclic shift keeps them, a sweep
    is 2 distinct rows over 2 distinct elements whatever k is, and the
    pattern never changes.
    """

    k: int
    apply: Callable[..., object]
    prepare: Optional[Callable[[Sequence[Sequence[int]]], Callable[[Sequence], Sequence]]] = \
        field(default=None, kw_only=True)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")


@dataclass(frozen=True)
class IterationConfig:
    """``solve`` stops after the first sweep whose step is at most
    ``tol_step``; ``tol_residual`` is the largest final spread that reads
    ``collapsed``."""

    tol_step: float = 1e-10
    tol_residual: float = 1e-8
    max_iters: int = 100000

    def __post_init__(self):
        if not (0.0 < self.tol_step < math.inf and 0.0 < self.tol_residual < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not isinstance(self.max_iters, numbers.Integral) or isinstance(self.max_iters, bool):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationReport:
    step_history: Tuple[float, ...]  # per sweep: its largest residual, NaN if any is
    spread_history: Tuple[float, ...]
    monotone_ok: bool
    collapsed: bool
    converged: bool
    fixed_point: tuple

    @property
    def iterations(self) -> int:
        return len(self.step_history)

    @property
    def final_residual(self) -> float:
        return self.step_history[-1]

    @property
    def final_spread(self) -> float:
        return self.spread_history[-1]


class NonConvergenceError(RuntimeError):
    """max_iters exhausted or a non-finite step; ``report`` holds the partial
    trace."""

    def __init__(self, report: IterationReport):
        self.report = report
        super().__init__(
            f"no convergence after {report.iterations} sweeps "
            f"(last step {report.step_history[-1]:.3e})"
        )


class _Plan(NamedTuple):
    """The layout of a batch of rows over elements ``x``, which depends only
    on the rows and on ``x``'s pattern (``_pattern``): ``keep``, the 1-based
    positions in ``x`` of its distinct elements, (1, 2, ...) when all are;
    ``rows``, the distinct rows over those, 1-based among them; ``slots``,
    the slot in ``rows`` of every given row, (0, 1, ...) when all are
    distinct; and for a sweep, ``pairs``, the 1-based position i of each
    distinct (x_i, y_i, block) (``_compare``).  No field is ever None."""

    keep: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]
    slots: Tuple[int, ...]
    pairs: Tuple[int, ...] = ()


def _pattern(x: Sequence) -> Tuple[int, ...]:
    """The 1-based position of each element's first occurrence in ``x``,
    elements told apart by identity."""
    first = {}
    return tuple([first.setdefault(id(e), i) for i, e in enumerate(x, start=1)])


def _plan(rows: Sequence[Sequence[int]], pattern: Tuple[int, ...],
          partition: Optional[Partition] = None) -> _Plan:
    """The plan of ``rows`` over elements of the given pattern; with a
    ``partition``, the plan of a sweep, rows the sigmas."""
    keep = tuple(i for i, p in enumerate(pattern, start=1) if p == i)
    rank = dict(zip(keep, range(1, len(keep) + 1)))
    index = [0, *(rank[p] for p in pattern)]  # index[j] is that of element j
    slot = {}  # distinct row -> its slot, in order of first occurrence
    slots = tuple(slot.setdefault(tuple(map(index.__getitem__, row)), len(slot)) for row in rows)
    if partition is None:
        return _Plan(keep, tuple(slot), slots)
    pairs = {}  # (x_i, y_i, block) -> i at its first occurrence
    for i, p in enumerate(pattern, start=1):
        pairs.setdefault((p, slots[i - 1], i in partition.a), i)
    return _Plan(keep, tuple(slot), slots, tuple(pairs.values()))


def _prepare(F: ProductOperator, plan: _Plan) -> Callable[[Sequence], list]:
    """The evaluation ``x -> images`` that ``plan`` lays out, for elements
    ``x`` of the plan's pattern: F at (x[r_1 - 1], ..., x[r_k - 1]) for each
    row the plan was made from, by one call of the batch that ``F.prepare``
    returns for the plan's distinct rows, prepared here, else by one
    ``F.apply`` call per distinct row.  Each distinct element, told apart
    by identity, and each distinct row is handed over once, and repeats of
    a row share one image object, so that repeats carry into the next
    sweep.  A failure, preparing included, raises OperatorEvaluationError
    naming the first occurrence, and a batch that returns other than one
    image per row, ValueError.
    """
    keep, distinct, slots = plan[:3]
    try:
        batch = F.prepare and F.prepare(distinct)
    except Exception as exc:
        raise OperatorEvaluationError(exc, keep) from exc

    def images(x: Sequence) -> list:
        elements = [x[i - 1] for i in keep]
        if batch is not None:
            try:
                out = batch(elements)
            except Exception as exc:
                raise OperatorEvaluationError(exc, keep) from exc
        else:
            out = []
            for row in distinct:
                try:
                    out.append(F.apply(*(elements[j - 1] for j in row)))
                except Exception as exc:
                    raise OperatorEvaluationError(exc, [keep[j - 1] for j in row]) from exc
        if len(out) != len(distinct):
            raise ValueError(f"dimension mismatch: {len(out)} images for {len(distinct)} rows")
        return [out[i] for i in slots]

    return images


def _images(F: ProductOperator, rows: Sequence[Sequence[int]], x: Sequence) -> list:
    """F at the argument tuples (x[r_1 - 1], ..., x[r_k - 1]), one per row
    of the 1-based index table ``rows``, by an evaluation planned for
    ``x``'s pattern, prepared and dropped (``_prepare``)."""
    return _prepare(F, _plan(rows, _pattern(x)))(x)


def _check_dimensions(F: ProductOperator, upsilon: UpsilonTuple, x: Sequence) -> None:
    k = upsilon.partition.k
    if len(x) != k or F.k != k:
        raise ValueError("dimension mismatch between operator, tuple and point")


def iterate_step(F: ProductOperator, upsilon: UpsilonTuple, x: Sequence) -> tuple:
    """One Jacobi sweep: y_i = F(x permuted by sigma_i) for every i, as one
    batch of the k rows sigma_i over the elements ``x``, planned for ``x``'s
    pattern, prepared and dropped (``_images``, ``OperatorEvaluationError``)."""
    _check_dimensions(F, upsilon, x)
    return tuple(_images(F, upsilon.sigmas, x))


def check_mixed_monotone_sampled(
    F: ProductOperator,
    partition: Partition,
    samples: Sequence[tuple],
    leq: Leq,
) -> List[tuple]:
    """Sampled mixed-monotonicity check.

    Each sample is (base_point, j, low, high): a k-tuple, a 1-based
    coordinate, and an ordered pair low <= high to substitute there.  F must
    be nondecreasing in coordinates of A and nonincreasing in coordinates of
    B.  Returns the violating samples as (sample_index, j).

    All 2 * len(samples) images are evaluated in one batch (``_images``),
    after every sample has been validated.  The batch's elements are the
    samples laid end to end, each as its base point with ``low`` in
    coordinate j, then ``high``: k + 1 elements per sample, which an
    OperatorEvaluationError's ``component`` indexes.  An operator whose k
    is not the partition's raises ValueError before any evaluation, as in
    ``iterate_step``.
    """
    k = partition.k
    if F.k != k:
        raise ValueError("dimension mismatch between operator, tuple and point")
    elements, rows = [], []
    for idx, sample in enumerate(samples):
        if len(sample) != 4:
            raise ValueError(f"sample {idx} is not (point, coord, low, high)")
        point, j, low, high = sample
        if len(point) != k or not (1 <= j <= k):
            raise ValueError(f"sample {idx} has bad dimensions")
        lo_row = list(range(len(elements) + 1, len(elements) + k + 1))
        hi_row = list(lo_row)
        hi_row[j - 1] = len(elements) + k + 1
        elements += [*point[:j - 1], low, *point[j:], high]
        rows += [lo_row, hi_row]
    images = _images(F, rows, elements) if rows else []
    return [(idx, j) for idx, (_, j, _, _) in enumerate(samples)
            if not leq(*partition.orient(j, images[2 * idx], images[2 * idx + 1]))]


def solve(
    F: ProductOperator,
    upsilon: UpsilonTuple,
    x0: Sequence,
    config: IterationConfig,
    triple=None,
    *,
    dist: Distance,
    leq: Leq,
    first_sweep: Optional[Sequence] = None,
) -> IterationReport:
    """Iterate Jacobi sweeps until a sweep's step, its largest residual, is
    at most ``config.tol_step`` (``IterationConfig``).

    The first sweep doubles as the starting-point condition: x0_i below
    its image for i in A, above for i in B (``Partition.orient``), and a
    failing start raises ValueError before any history is recorded.  A
    caller that has judged it already hands that sweep's k images over as
    ``first_sweep``, which is then neither evaluated nor judged again.  The
    same comparison of every sweep that is not judged sets ``monotone_ok``.
    The sweep's plan and prepared evaluation (``_prepare``) are this call's
    own, made again only when the iterate's pattern changes.
    ``triple`` (a ``ContractionTriple``) is only warned about if undeclared.

    The returned fixed_point is the last iterate whose residual was measured,
    so the report's final residual is the defect of the returned point.
    Raises NonConvergenceError when max_iters is exhausted, or at once after
    a sweep whose step is NaN or infinite; its report then holds the last
    finite iterate as fixed_point.
    """
    partition = upsilon.partition
    if len(x0) != partition.k:
        raise ValueError("starting point dimension mismatch")
    if triple is not None:
        triple.warn_if_undeclared()
    _check_dimensions(F, upsilon, x0 if first_sweep is None else first_sweep)

    x = tuple(x0)
    pattern = None
    steps: List[float] = []
    spreads: List[float] = []
    monotone_ok = True

    def report(converged: bool, collapsed: bool = False) -> IterationReport:
        return IterationReport(
            step_history=tuple(steps),
            spread_history=tuple(spreads),
            monotone_ok=monotone_ok,
            collapsed=collapsed,
            converged=converged,
            fixed_point=x,
        )

    for it in range(config.max_iters):
        if (seen := _pattern(x)) != pattern:
            pattern, plan = seen, _plan(upsilon.sigmas, seen, partition)
            images = _prepare(F, plan)
        y = tuple(images(x) if it or first_sweep is None else first_sweep)
        ordered, res = _compare(x, y, plan.pairs, partition, dist, leq)
        if it == 0 and first_sweep is None and not all(ordered):
            ordered, _ = _compare(x, y, range(1, partition.k + 1), partition, dist, leq)
            raise ValueError(
                f"starting point fails the initial-order condition; "
                f"per-component: {ordered}"
            )
        d = math.nan if any(map(math.isnan, res)) else max(res)
        steps.append(d)
        spreads.append(_spread([x[i - 1] for i in plan.keep], dist))

        # no later sweep can recover from a NaN or infinite step, and
        # `d <= tol` is never true for NaN
        if not math.isfinite(d):
            log.warning("non-finite step at sweep %d; stopping", it + 1)
            raise NonConvergenceError(report(converged=False))

        if not all(ordered):
            if monotone_ok:
                log.warning("monotone bracketing violated at sweep %d", it + 1)
            monotone_ok = False

        if d <= config.tol_step:
            return report(converged=True, collapsed=spreads[-1] <= config.tol_residual)
        x = y

    raise NonConvergenceError(report(converged=False))


def _compare(x: Sequence, y: Sequence, pairs: Sequence[int], partition: Partition,
             dist: Distance, leq: Leq) -> Tuple[List[bool], List[float]]:
    """At each 1-based position i of ``pairs``: x_i <= y_i in the
    partition-twisted order, leq(*partition.orient(i, x_i, y_i)), and
    dist(x_i, y_i).  A sweep's plan lists one position per distinct (x_i,
    y_i, block) (``_Plan``), so each is compared once."""
    ordered, res = [], []
    for i in pairs:
        xi, yi = x[i - 1], y[i - 1]
        ordered.append(leq(*partition.orient(i, xi, yi)))
        res.append(dist(xi, yi))
    return ordered, res


def _spread(x: Sequence, dist: Distance) -> float:
    """Largest distance between two of the distinct elements ``x``."""
    return max(
        (dist(x[i], x[j]) for i in range(len(x)) for j in range(i + 1, len(x))),
        default=0.0,
    )


def trace_csv(report: IterationReport) -> str:
    """Per-iteration trace: `iter,step_dk,max_residual,collapsed_spread`."""
    lines = ["iter,step_dk,max_residual,collapsed_spread"]
    for i, (s, sp) in enumerate(zip(report.step_history, report.spread_history)):
        lines.append(f"{i},{s:.17g},{s:.17g},{sp:.17g}")
    return "\n".join(lines) + "\n"
