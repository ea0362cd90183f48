"""Partially ordered product spaces and coordinate-permutation tuples.

The base space is abstract: callers supply a distance function d(a, b) and a
partial-order test leq(a, b).  On the k-fold product we use the maximum metric
and the partition-twisted order (componentwise <= on the A-block, >= on the
B-block).
"""

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

__all__ = [
    "Partition",
    "UpsilonTuple",
    "UpsilonMembershipError",
    "max_metric",
    "product_leq",
    "upsilon_violations",
    "cyclic_shift_upsilon",
]

Distance = Callable[[object, object], float]
Leq = Callable[[object, object], bool]


@dataclass(frozen=True)
class Partition:
    """A two-block partition {A, B} of the index set {1, ..., k}.

    Indices are 1-based; ``a``, any iterable of them, is kept as a frozenset
    and B is the rest.  Either block may be empty, but k >= 2.
    """

    k: int
    a: frozenset

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        object.__setattr__(self, "a", frozenset(self.a))
        if not self.a <= frozenset(range(1, self.k + 1)):
            raise ValueError(f"A={sorted(self.a)} is not a subset of {{1,...,{self.k}}}")

    @property
    def b(self) -> frozenset:
        return frozenset(range(1, self.k + 1)) - self.a

    @staticmethod
    def odd_even(k: int) -> "Partition":
        """A = odd indices, B = even indices."""
        return Partition(k, range(1, k + 1, 2))

    def orient(self, i: int, u, v) -> tuple:
        """The twisted order at 1-based index i: (u, v) for i in A, (v, u)
        for i in B, so u lies below v there when leq(*orient(i, u, v))."""
        return (u, v) if i in self.a else (v, u)


class UpsilonMembershipError(ValueError):
    """A candidate sigma tuple violates the block-membership rules.

    ``violations`` lists (i, j) pairs: map i sends index j into the wrong
    block for its position.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"membership violations at {self.violations}")


@dataclass(frozen=True)
class UpsilonTuple:
    """k index maps sigma_i: {1,...,k} -> {1,...,k}, stored 1-based as a
    tuple of tuples, from any sequence of sequences.

    Maps for i in A must preserve the blocks (A->A, B->B); maps for i in B
    must swap them (A->B, B->A).  Every instance is a member of Upsilon: the
    constructor raises ValueError for maps that are not total on
    {1,...,k} or leave it, and UpsilonMembershipError for maps that break
    the block rules (``upsilon_violations``).
    """

    partition: Partition
    sigmas: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(tuple(s) for s in self.sigmas))
        violations = upsilon_violations(self.sigmas, self.partition)
        if violations:
            raise UpsilonMembershipError(violations)

    def permute(self, i: int, x: Sequence) -> tuple:
        """The argument tuple (x_{sigma_i(1)}, ..., x_{sigma_i(k)})."""
        row = self.sigmas[i - 1]
        return tuple(x[v - 1] for v in row)


def max_metric(x: Sequence, y: Sequence, dist: Distance) -> float:
    """Maximum of componentwise base distances."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return max(dist(xi, yi) for xi, yi in zip(x, y))


def product_leq(x: Sequence, y: Sequence, partition: Partition, leq: Leq) -> bool:
    """Partition-twisted product order: x_i <= y_i on A, x_i >= y_i on B
    (``Partition.orient``)."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    if len(x) != partition.k:
        raise ValueError(f"dimension {len(x)} does not match k={partition.k}")
    return all(leq(*partition.orient(i, xi, yi))
               for i, (xi, yi) in enumerate(zip(x, y), start=1))


def upsilon_violations(sigmas, partition: Partition):
    """All (i, j) at which the block-membership rules fail.

    Raises ValueError for structurally bad input (non-total maps, values out
    of range); that is distinct from a membership rejection.
    """
    k = partition.k
    if len(sigmas) != k:
        raise ValueError(f"expected {k} maps, got {len(sigmas)}")
    for i, sigma in enumerate(sigmas, start=1):
        if len(sigma) != k:
            raise ValueError(f"sigma_{i} is not total on {{1,...,{k}}}")
        for j, v in enumerate(sigma, start=1):
            if not (1 <= v <= k):
                raise ValueError(f"sigma_{i}({j}) = {v} is outside {{1,...,{k}}}")
    a = partition.a
    # maps in A preserve the blocks, maps in B swap them
    return [
        (i, j)
        for i, sigma in enumerate(sigmas, start=1)
        for j, v in enumerate(sigma, start=1)
        if ((v in a) == (j in a)) != (i in a)
    ]


def cyclic_shift_upsilon(m: int) -> UpsilonTuple:
    """The 2m cyclic-shift tuple: sigma_i(j) = ((i + j - 2) mod 2m) + 1.

    Row 1 is the identity; row i shifts by i-1.  With A = odd indices and
    B = even indices every row lands in the required membership class.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    k = 2 * m
    sigmas = [[(i + j - 2) % k + 1 for j in range(1, k + 1)] for i in range(1, k + 1)]
    return UpsilonTuple(Partition.odd_even(k), sigmas)

