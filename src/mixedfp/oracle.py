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
# one at a time, and (n^k)^2 for check_theorem_hypotheses, which builds
# several pair tables of that many cells at once.
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
        for i, j in itertools.product(range(n), repeat=2):
            if i != j and d[i, j] == 0:
                raise ValueError("distinct points at distance zero")
        for i, j, k in itertools.product(range(n), repeat=3):
            if d[i, k] > d[i, j] + d[j, k] + 1e-12:
                raise ValueError("triangle inequality fails")
        if not np.all(np.diag(L)):
            raise ValueError("order is not reflexive")
        if np.any(L & L.T & ~np.eye(n, dtype=bool)):
            raise ValueError("order is not antisymmetric")
        for i, j, k in itertools.product(range(n), repeat=3):
            if L[i, j] and L[j, k] and not L[i, k]:
                raise ValueError("order is not transitive")

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, a: int, b: int) -> float:
        return float(self.dist[a, b])

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])


def _guard(space: FiniteSpace, k: int):
    if space.n ** k > SIZE_GUARD:
        raise ValueError(f"{space.n}^{k} candidates exceed the size guard")


def _pair_guard(space: FiniteSpace, k: int):
    if (space.n ** k) ** 2 > SIZE_GUARD:
        raise ValueError(f"({space.n}^{k})^2 pair cells exceed the size guard")


def enumerate_fixed_points(
    space: FiniteSpace,
    F: Callable[..., int],
    upsilon: UpsilonTuple,
) -> List[tuple]:
    """All tuples x with F(x permuted by sigma_i) == x_i for every i."""
    k = upsilon.partition.k
    _guard(space, k)
    found = []
    for x in itertools.product(range(space.n), repeat=k):
        if all(
            F(*upsilon.permute(i, x)) == x[i - 1] for i in range(1, k + 1)
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


def check_theorem_hypotheses(
    space: FiniteSpace,
    F: Callable[..., int],
    upsilon: UpsilonTuple,
    triple: ContractionTriple,
) -> HypothesisReport:
    """Exhaustive evaluation of the fixed-tuple theorem's hypotheses.

    Checks the contraction inequality over all ordered pairs, existence of a
    valid starting tuple, mixed monotonicity over all single-coordinate
    ordered moves, and pairwise upper bounds in the product order.  The
    fixed-point list is always returned; the theorem's conclusion (at least
    one point, exactly one under the bound condition) is only meaningful
    when every hypothesis passes.
    """
    partition = upsilon.partition
    k = partition.k
    _pair_guard(space, k)
    points = list(itertools.product(range(space.n), repeat=k))
    pts = np.array(points, dtype=int)

    # pairwise product-order mask and max-metric table, vectorized
    ordered = np.ones((len(points), len(points)), dtype=bool)
    dk_table = np.zeros((len(points), len(points)))
    for i in range(1, k + 1):
        rows = pts[:, None, i - 1]
        cols = pts[None, :, i - 1]
        if i in partition.a:
            ordered &= space.leq[rows, cols]
        else:
            ordered &= space.leq[cols, rows]
        dk_table = np.maximum(dk_table, space.dist[rows, cols])

    fvals = np.array([F(*x) for x in points], dtype=int)
    lhs = np.vectorize(triple.psi)(space.dist[fvals[:, None], fvals[None, :]])
    rhs = np.vectorize(lambda v: triple.theta(v) - triple.phi(v))(dk_table)
    contraction_ok = bool(np.all(lhs[ordered] <= rhs[ordered] + 1e-12))

    start_point = ()
    for x in points:
        ok = True
        for i in range(1, k + 1):
            fx = F(*upsilon.permute(i, x))
            if i in partition.a:
                ok = space.le(x[i - 1], fx)
            else:
                ok = space.le(fx, x[i - 1])
            if not ok:
                break
        if ok:
            start_point = x
            break

    mixed_monotone_ok = True
    for x in points:
        for j in range(1, k + 1):
            for v in range(space.n):
                if not space.le(x[j - 1], v) or v == x[j - 1]:
                    continue
                hi = list(x)
                hi[j - 1] = v
                f_lo, f_hi = F(*x), F(*hi)
                if j in partition.a:
                    ok = space.le(f_lo, f_hi)
                else:
                    ok = space.le(f_hi, f_lo)
                if not ok:
                    mixed_monotone_ok = False
    # A common product-order bound exists for every pair iff every base pair
    # has an upper bound (needed on the A block) and a lower bound (B block).
    def _base_pairs_bounded(upper: bool) -> bool:
        return all(
            any(
                (space.le(a, z) and space.le(b, z)) if upper
                else (space.le(z, a) and space.le(z, b))
                for z in range(space.n)
            )
            for a in range(space.n)
            for b in range(space.n)
        )

    upper_bounds_ok = (not partition.a or _base_pairs_bounded(True)) and (
        not partition.b or _base_pairs_bounded(False)
    )

    return HypothesisReport(
        contraction_ok,
        start_point,
        mixed_monotone_ok,
        upper_bounds_ok,
        tuple(enumerate_fixed_points(space, F, upsilon)),
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
    partition = Partition.of(k, sorted(a))

    sigmas = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            want_a = (j in partition.a) == (i in partition.a)
            pool = [
                v for v in range(1, k + 1)
                if (v in partition.a) == want_a
            ]
            row.append(int(rng.choice(pool)) if pool else None)
        if any(v is None for v in row):
            return None  # partition cannot host a conforming tuple
        sigmas.append(tuple(row))
    upsilon = UpsilonTuple(partition, tuple(sigmas))

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
    n = space.n
    for _ in range(64):
        g = rng.integers(0, n, size=n)
        ok = True
        for x in range(n):
            for y in range(n):
                if space.le(x, y):
                    if increasing and not space.le(int(g[x]), int(g[y])):
                        ok = False
                    if not increasing and not space.le(int(g[y]), int(g[x])):
                        ok = False
        if ok:
            return [int(v) for v in g]
    return [0] * n  # constant fallback always monotone
