"""Brute-force ground truth on small finite ordered metric spaces.

Elements are integer indices 0..n-1; the metric and partial order are full
tables, checked exhaustively at construction.  Fixed tuples are found by
enumerating every candidate, so these results are independent of the
iteration engine they validate.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .contraction import ContractionTriple
from .order import Partition, UpsilonTuple

__all__ = [
    "FiniteSpace",
    "HypothesisReport",
    "enumerate_fixed_points",
    "check_theorem_hypotheses",
    "random_instance",
]

# Bounds n^k for enumerate_fixed_points, which visits the candidate tuples
# one at a time, and the m^k ordered pairs x <= z of check_theorem_hypotheses
# (m = leq.sum() ordered base pairs), whose index arrays of x, z and the
# max-metric rank, and the gathers over them, have that many entries.  The
# pairs include every (x, x), so the bound covers F's n^k table too.
SIZE_GUARD = 10 ** 6


@dataclass(frozen=True)
class FiniteSpace:
    labels: Tuple[str, ...]
    dist: np.ndarray   # n x n nonnegative, symmetric, triangle inequality
    leq: np.ndarray    # n x n boolean, reflexive antisymmetric transitive

    def __post_init__(self):
        n = len(self.labels)
        d = np.asarray(self.dist, dtype=float)
        L = np.asarray(self.leq, dtype=bool)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "leq", L)
        if d.shape != (n, n) or L.shape != (n, n):
            raise ValueError("table shapes must be n x n")
        if np.any(d < 0) or np.any(np.diag(d) != 0) or not np.array_equal(d, d.T):
            raise ValueError("distance table is not symmetric/zero-diagonal")
        off_diagonal = ~np.eye(n, dtype=bool)
        if ((d == 0) & off_diagonal).any():
            raise ValueError("distinct points at distance zero")
        # d[i, k] <= d[i, j] + d[j, k] on axes (i, j, k), over blocks of
        # middle points j of about 2^20 cells each, whatever n is
        block = max(1, 2 ** 20 // max(n * n, 1))
        for lo in range(0, n, block):
            mid = slice(lo, lo + block)
            if (d[:, None, :] > d[:, mid, None] + d[None, mid, :] + 1e-12).any():
                raise ValueError("triangle inequality fails")
        if not np.all(np.diag(L)):
            raise ValueError("order is not reflexive")
        if np.any(L & L.T & off_diagonal):
            raise ValueError("order is not antisymmetric")
        # boolean matrix product: (L @ L)[i, k] iff i <= j <= k for some j
        if ((L @ L) & ~L).any():
            raise ValueError("order is not transitive")

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, a: int, b: int) -> float:
        return float(self.dist[a, b])

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])


def _guard(count: int, what: str):
    if count > SIZE_GUARD:
        raise ValueError(f"{what} exceed the size guard")


def _element(space: FiniteSpace, F: Callable[..., int], x: tuple) -> int:
    """F(*x), refused unless it is an element index in 0..n-1 (a bool is not)."""
    n, v = space.n, F(*x)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < n:
        raise ValueError(f"F{x} = {v!r} is not an element index in 0..{n - 1}")
    return v


def enumerate_fixed_points(
    space: FiniteSpace,
    F: Callable[..., int],
    upsilon: UpsilonTuple,
) -> List[tuple]:
    """All tuples x with F(x permuted by sigma_i) == x_i for every i."""
    k = upsilon.partition.k
    _guard(space.n ** k, f"{space.n}^{k} candidates")
    found = []
    for x in itertools.product(range(space.n), repeat=k):
        if all(
            _element(space, F, upsilon.permute(i, x)) == x[i - 1]
            for i in range(1, k + 1)
        ):
            found.append(x)
    return found


@dataclass(frozen=True)
class HypothesisReport:
    contraction_ok: bool
    start_point: tuple          # () when none exists
    mixed_monotone_ok: bool
    upper_bounds_ok: bool
    fixed_points: Tuple[tuple, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.contraction_ok
            and bool(self.start_point)
            and self.mixed_monotone_ok
            and self.upper_bounds_ok
        )


def _operator_table(space: FiniteSpace, F: Callable[..., int], k: int) -> np.ndarray:
    """F at every tuple, evaluated once each, indexed like itertools.product:
    tuple x has index sum_j x_j n^(k-j), first coordinate most significant."""
    return np.array(
        [_element(space, F, x) for x in itertools.product(range(space.n), repeat=k)],
        dtype=np.intp,
    )


def check_theorem_hypotheses(
    space: FiniteSpace,
    F: Callable[..., int],
    upsilon: UpsilonTuple,
    triple: ContractionTriple,
) -> HypothesisReport:
    """Exhaustive evaluation of the fixed-tuple theorem's hypotheses.

    Checks the contraction inequality and mixed monotonicity (F(x) <= F(z))
    over all pairs x <= z of the twisted product order, existence of a valid
    starting tuple, and pairwise upper bounds in the product order.  The
    fixed-point list is always returned; the theorem's conclusion (at least
    one point, exactly one under the bound condition) is only meaningful
    when every hypothesis passes.

    F is called once per tuple and must return an element index in
    0..n-1 (ValueError otherwise); the triple is called at most three times
    per distinct entry of ``space.dist``.  Every hypothesis is read off
    tables of those values and index arrays of the ordered pairs, whose
    count leq.sum() ** k is bounded by ``SIZE_GUARD`` before F is called.
    """
    partition = upsilon.partition
    k = partition.k
    n = space.n
    size = n ** k
    lo, hi = np.nonzero(space.leq)  # the ordered base pairs lo <= hi
    _guard(lo.size ** k, f"{lo.size}^{k} ordered pairs")
    fvals = _operator_table(space, F, k)
    digits = np.indices((n,) * k).reshape(k, size).T  # row p: the tuple of index p
    place = n ** np.arange(k - 1, -1, -1)             # place[j - 1] = n^(k-j)
    in_a = np.array([i in partition.a for i in range(1, k + 1)])

    # Every distance compared below is an entry of space.dist, so the triple
    # is evaluated once per distinct value and read back by rank.  Ranks
    # preserve order, so the max metric is the value at the maximum rank.
    vals, rank = np.unique(space.dist, return_inverse=True)
    rank = rank.reshape(space.dist.shape)
    psi = np.array([triple.psi(v) for v in vals.tolist()], dtype=float)
    bound = np.array(
        [triple.theta(v) - triple.phi(v) for v in vals.tolist()], dtype=float
    )
    # x <= z iff each (x_i, z_i) is a base pair oriented by i's block: grow
    # their product one coordinate at a time, as tuple indices and max rank
    xs = zs = dk_rank = np.zeros(1, dtype=np.intp)
    for i in range(1, k + 1):
        xi, zi = partition.orient(i, lo, hi)
        xs = (xs[:, None] * n + xi).ravel()
        zs = (zs[:, None] * n + zi).ravel()
        dk_rank = np.maximum(dk_rank[:, None], rank[xi, zi]).ravel()
    fx, fz = fvals[xs], fvals[zs]
    contraction_ok = bool((psi[rank[fx, fz]] <= bound[dk_rank] + 1e-12).all())
    # x <= z in the twisted order chains single-coordinate moves, so by
    # transitivity F(x) <= F(z) over those pairs is mixed monotonicity
    mixed_monotone_ok = bool(space.leq[fx, fz].all())

    # f_perm[p, i - 1] = F(x permuted by sigma_i), x the tuple of index p
    f_perm = fvals[digits[:, np.array(upsilon.sigmas) - 1] @ place]
    below = space.leq[digits, f_perm]
    above = space.leq[f_perm, digits]
    starts = np.flatnonzero(np.where(in_a, below, above).all(axis=1))
    start_point = tuple(digits[starts[0]].tolist()) if starts.size else ()
    fixed_points = tuple(map(tuple, digits[(f_perm == digits).all(axis=1)].tolist()))

    # A common product-order bound exists for every pair iff every base pair
    # has an upper bound (needed on the A block) and a lower bound (B block):
    # (L @ L.T)[a, b] iff a, b <= z for some z, (L.T @ L)[a, b] iff z <= a, b.
    L = space.leq
    upper_bounds_ok = (not partition.a or bool((L @ L.T).all())) and (
        not partition.b or bool((L.T @ L).all())
    )

    return HypothesisReport(
        contraction_ok,
        start_point,
        mixed_monotone_ok,
        upper_bounds_ok,
        fixed_points,
    )


def _metric_closure(d: np.ndarray) -> np.ndarray:
    """Repair a symmetric nonnegative table into a metric via shortest paths."""
    n = d.shape[0]
    out = d.copy()
    for mid in range(n):
        out = np.minimum(out, out[:, mid : mid + 1] + out[mid : mid + 1, :])
    np.fill_diagonal(out, 0.0)
    return out


def _random_order(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random partial order: random edges on a label ordering, then
    reflexive-transitive closure (acyclic by construction)."""
    L = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                L[i, j] = True
    for mid in range(n):
        L = L | (L[:, mid : mid + 1] & L[mid : mid + 1, :])
    return L


def random_instance(k: int, n: int, rng: np.random.Generator):
    """One random finite instance: space, partition, sigma tuple, operator.

    The operator is biased toward maps satisfying the hypotheses: constant,
    or a monotone function of a single coordinate (order-direction-aware).
    Uniform random tables almost never pass the contraction and
    monotonicity checks.
    """
    raw = rng.integers(1, 3, size=(n, n)).astype(float)
    d = _metric_closure(np.triu(raw, 1) + np.triu(raw, 1).T)
    space = FiniteSpace(tuple(f"e{i}" for i in range(n)), d, _random_order(n, rng))

    a = frozenset(
        i for i in range(1, k + 1) if rng.random() < 0.5
    ) or frozenset({1})
    partition = Partition(k, a)

    sigmas = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            # never empty: A holds 1 or more, and B is wanted only when
            # exactly one of i and j lies in A, so the other lies in B
            want_a = (j in partition.a) == (i in partition.a)
            pool = [
                v for v in range(1, k + 1)
                if (v in partition.a) == want_a
            ]
            row.append(pool[int(rng.integers(len(pool)))])  # rng.choice's draw
        sigmas.append(row)
    upsilon = UpsilonTuple(partition, sigmas)

    style = rng.random()
    if style < 0.5:
        c = int(rng.integers(0, n))
        F = lambda *x: c  # noqa: E731
    else:
        j = int(rng.integers(0, k))
        # monotone table g: respects the base order, direction set by block
        perm = _monotone_table(space, rng, increasing=(j + 1) in partition.a)
        F = lambda *x: perm[x[j]]  # noqa: E731
    return space, upsilon, F


def _monotone_table(space: FiniteSpace, rng: np.random.Generator, increasing: bool):
    """A self-map respecting the order (x <= y implies g(x) <= g(y) for the
    increasing flavor, reversed otherwise), built by random trial."""
    n, L = space.n, space.leq
    for _ in range(64):
        g = rng.integers(0, n, size=n)
        image = L[np.ix_(g, g)]  # image[x, y] iff g(x) <= g(y)
        if (~L | (image if increasing else image.T)).all():
            return [int(v) for v in g]
    return [0] * n  # constant fallback always monotone
