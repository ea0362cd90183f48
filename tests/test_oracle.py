import itertools
import json

import numpy as np
import pytest

from mixedfp.contraction import (
    ContractionTriple,
    DeclaredProperties,
    builtin_log_triple,
)
from mixedfp.engine import IterationConfig, ProductOperator, solve
from mixedfp.oracle import (
    SIZE_GUARD,
    FiniteSpace,
    _metric_closure,
    _monotone_table,
    _random_order,
    check_theorem_hypotheses,
    enumerate_fixed_points,
    random_instance,
)
from mixedfp.order import Partition, UpsilonTuple, max_metric, product_leq

# goes with distances drawn from {1, 2}: factor-1/2 linear contraction
HALF_TRIPLE = ContractionTriple(
    lambda x: x, lambda x: 0.5 * x, lambda x: 0.0,
    DeclaredProperties(True, True, True, True),
)


def chain_space(n):
    """Totally ordered space 0 < 1 < ... < n-1 with |i - j| distances."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    leq = idx[:, None] <= idx[None, :]
    return FiniteSpace(tuple(str(i) for i in range(n)), dist, leq)


PART2 = Partition(2, [1])
ID_SWAP = UpsilonTuple(PART2, [(1, 2), (2, 1)])


class TestFiniteSpace:
    def test_chain_valid(self):
        chain_space(3)

    def test_rejects_asymmetric_distance(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="not symmetric/zero-diagonal"):
            FiniteSpace(("a", "b"), d, np.eye(2, dtype=bool))

    def test_rejects_triangle_violation(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="triangle inequality fails"):
            FiniteSpace(("a", "b", "c"), d, np.eye(3, dtype=bool))

    def test_triangle_check_covers_every_block_of_middle_points(self):
        # at n = 128 the middle points come in two blocks; only middles
        # 101..109 (second block) break d[100, 110] <= d[100, j] + d[j, 110]
        space = chain_space(128)
        d = space.dist.copy()
        d[100, 110] = d[110, 100] = 10.5
        with pytest.raises(ValueError, match="triangle inequality fails"):
            FiniteSpace(space.labels, d, space.leq)

    def test_rejects_cyclic_order(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        leq = np.ones((2, 2), dtype=bool)  # a <= b and b <= a
        with pytest.raises(ValueError, match="order is not antisymmetric"):
            FiniteSpace(("a", "b"), d, leq)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="table shapes must be n x n"):
            FiniteSpace(("a", "b"), np.zeros((3, 3)), np.eye(2, dtype=bool))

    def test_rejects_zero_distance_first(self):
        # also breaks the triangle inequality; the earlier check reports
        d = np.array([[0, 0, 5], [0, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="distinct points at distance zero"):
            FiniteSpace(("a", "b", "c"), d, np.eye(3, dtype=bool))

    def test_rejects_irreflexive_order(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="order is not reflexive"):
            FiniteSpace(("a", "b"), d, np.array([[True, False], [False, False]]))

    def test_rejects_intransitive_order(self):
        # a <= b <= c without a <= c
        leq = np.eye(3, dtype=bool)
        leq[0, 1] = leq[1, 2] = True
        with pytest.raises(ValueError, match="order is not transitive"):
            FiniteSpace(("a", "b", "c"), chain_space(3).dist, leq)


class TestEnumeration:
    def test_constant_operator(self):
        space = chain_space(3)
        points = enumerate_fixed_points(space, lambda a, b: 1, ID_SWAP)
        assert points == [(1, 1)]

    def test_projection_fixes_everything(self):
        space = chain_space(2)
        points = enumerate_fixed_points(space, lambda a, b: a, ID_SWAP)
        assert len(points) == 4

    def test_and_not(self):
        # F(a, b) = a and (not b) on {0, 1}: both defining equations hold
        # exactly off the all-ones corner (checked by hand over 4 pairs)
        space = chain_space(2)
        points = enumerate_fixed_points(
            space, lambda a, b: int(bool(a) and not bool(b)), ID_SWAP
        )
        assert points == [(0, 0), (0, 1), (1, 0)]

    def test_size_guard(self):
        space = chain_space(4)
        part = Partition(12, range(1, 13, 2))
        sigmas = [tuple(((i + j - 2) % 12) + 1 for j in range(1, 13)) for i in range(1, 13)]
        ups = UpsilonTuple(part, sigmas)
        with pytest.raises(ValueError):
            enumerate_fixed_points(space, lambda *x: 0, ups)


class TestHypothesisChecks:
    def test_pair_guard_bounds_the_pair_tables(self):
        # 10^4 candidates pass the n^k guard but need 10^8-cell tables
        space = chain_space(10)
        part = Partition(4, [1, 3])
        ups = UpsilonTuple(part, [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)])

        def F(*x):
            raise AssertionError("no table may be built")

        with pytest.raises(ValueError, match=r"\(10\^4\)\^2 pair cells"):
            check_theorem_hypotheses(space, F, ups, HALF_TRIPLE)
        assert (4 ** 4) ** 2 <= SIZE_GUARD < (10 ** 4) ** 2

    def test_one_point_space(self):
        space = FiniteSpace(("o",), np.zeros((1, 1)), np.ones((1, 1), dtype=bool))
        report = check_theorem_hypotheses(space, lambda a, b: 0, ID_SWAP, HALF_TRIPLE)
        assert report.all_pass
        assert report.fixed_points == ((0, 0),)

    def test_two_point_chain_contraction(self):
        space = chain_space(2)
        report = check_theorem_hypotheses(space, lambda a, b: 0, ID_SWAP, HALF_TRIPLE)
        assert report.all_pass
        assert len(report.fixed_points) == 1

    def test_violated_monotonicity_detected(self):
        space = chain_space(3)
        # decreasing in coordinate 1, which sits in the A block
        report = check_theorem_hypotheses(
            space, lambda a, b: 2 - a, ID_SWAP, HALF_TRIPLE
        )
        assert not report.mixed_monotone_ok
        assert not report.all_pass
        # the enumeration result is still reported
        assert isinstance(report.fixed_points, tuple)

    @pytest.mark.parametrize("value", [-1, 3, 0.5])
    def test_rejects_operator_value_outside_the_space(self, value):
        # numpy indexing would wrap -1 to element 2; 3 is past the tables
        with pytest.raises(ValueError, match=rf"F\(0, 0\) = {value} is not an element"):
            check_theorem_hypotheses(chain_space(3), lambda a, b: value, ID_SWAP, HALF_TRIPLE)

    def test_calls_F_once_per_tuple_and_the_triple_once_per_distance(self):
        space, ups, F = random_instance(4, 4, np.random.default_rng(3))
        calls = {"F": 0, "triple": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        triple = ContractionTriple(
            *(counted("triple", fn) for fn in (HALF_TRIPLE.psi, HALF_TRIPLE.theta, HALF_TRIPLE.phi))
        )
        check_theorem_hypotheses(space, counted("F", F), ups, triple)
        assert calls["F"] == 4 ** 4
        assert 0 < calls["triple"] <= 3 * len(np.unique(space.dist))


def reference_report(space, F, ups, triple):
    """The hypotheses read off their definitions, one pair or move at a time."""
    part = ups.partition
    k, n = part.k, space.n
    points = list(itertools.product(range(n), repeat=k))

    def within_bound(x, z):
        dk = max_metric(x, z, space.d)
        return triple.psi(space.d(F(*x), F(*z))) <= triple.theta(dk) - triple.phi(dk) + 1e-12

    def starts(x):
        return all(
            space.le(x[i - 1], F(*ups.permute(i, x))) if i in part.a
            else space.le(F(*ups.permute(i, x)), x[i - 1])
            for i in range(1, k + 1)
        )

    def monotone_move(x, j, v):
        hi = x[: j - 1] + (v,) + x[j:]
        if j in part.a:
            return space.le(F(*x), F(*hi))
        return space.le(F(*hi), F(*x))

    def bounded(upper):
        return all(
            any(space.le(a, z) and space.le(b, z) if upper
                else space.le(z, a) and space.le(z, b) for z in range(n))
            for a in range(n) for b in range(n)
        )

    return (
        all(within_bound(x, z) for x in points for z in points
            if product_leq(x, z, part, space.le)),
        next((x for x in points if starts(x)), ()),
        all(monotone_move(x, j, v) for x in points for j in range(1, k + 1)
            for v in range(n) if space.le(x[j - 1], v) and v != x[j - 1]),
        (not part.a or bounded(True)) and (not part.b or bounded(False)),
        tuple(enumerate_fixed_points(space, F, ups)),
    )


@pytest.mark.parametrize("k, n", list(itertools.product((2, 3, 4), repeat=2)))
def test_random_instance_always_returns_one(k, n):
    # A is never empty, so every sigma entry has a block to draw from
    for seed in range(300):
        space, ups, F = random_instance(k, n, np.random.default_rng(seed))
        assert space.n == n and ups.partition.k == k and ups.partition.a
        assert all(0 <= F(*x) < n for x in itertools.product(range(n), repeat=k))


def choice_random_instance(k, n, rng):
    """``random_instance`` with each sigma entry drawn by ``rng.choice``:
    the reference for its one ``rng.integers`` draw per entry."""
    raw = rng.integers(1, 3, size=(n, n)).astype(float)
    d = _metric_closure(np.triu(raw, 1) + np.triu(raw, 1).T)
    space = FiniteSpace(tuple(f"e{i}" for i in range(n)), d, _random_order(n, rng))
    partition = Partition(k, frozenset(i for i in range(1, k + 1) if rng.random() < 0.5)
                          or frozenset({1}))
    sigmas = [[int(rng.choice([v for v in range(1, k + 1)
                               if (v in partition.a) == ((j in partition.a) == (i in partition.a))]))
               for j in range(1, k + 1)] for i in range(1, k + 1)]
    if rng.random() < 0.5:
        c = int(rng.integers(0, n))
        F = lambda *x: c  # noqa: E731
    else:
        j = int(rng.integers(0, k))
        perm = _monotone_table(space, rng, increasing=(j + 1) in partition.a)
        F = lambda *x: perm[x[j]]  # noqa: E731
    return space, UpsilonTuple(partition, sigmas), F


@pytest.mark.parametrize("k, n", list(itertools.product((2, 3, 4), repeat=2)))
def test_random_instance_equals_the_choice_draws(k, n):
    # the same space, partition, sigma table and operator table, and the
    # generator left in the same state
    for seed in range(100):
        drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        (space, ups, F), (space2, ups2, F2) = (random_instance(k, n, drawn),
                                               choice_random_instance(k, n, chosen))
        assert space.labels == space2.labels
        assert space.dist.tobytes() == space2.dist.tobytes()
        assert np.array_equal(space.leq, space2.leq)
        assert ups.partition.a == ups2.partition.a
        assert [list(row) for row in ups.sigmas] == [list(row) for row in ups2.sigmas]
        assert all(type(v) is int for row in ups.sigmas for v in row)
        tuples = list(itertools.product(range(n), repeat=k))
        assert [F(*x) for x in tuples] == [F2(*x) for x in tuples]
        assert drawn.random() == chosen.random()


@pytest.mark.parametrize("k, n", list(itertools.product((2, 3, 4), repeat=2)))
def test_hypotheses_match_the_pairwise_reference(k, n):
    # biased random_instance operators (some pass every hypothesis) and
    # arbitrary table operators (almost all fail), under both triples
    rng = np.random.default_rng(1000 * k + n)
    triples = (HALF_TRIPLE, builtin_log_triple())
    checked = 0
    while checked < 10:
        space, ups, F = random_instance(k, n, rng)
        if checked >= 6:
            table = rng.integers(0, n, size=(n,) * k)
            F = lambda *x, table=table: int(table[x])  # noqa: E731
        triple = triples[checked % 2]
        report = check_theorem_hypotheses(space, F, ups, triple)
        fields = (report.contraction_ok, report.start_point, report.mixed_monotone_ok,
                  report.upper_bounds_ok, report.fixed_points)
        assert fields == reference_report(space, F, ups, triple)
        assert all(type(v) is int for v in report.start_point)
        assert all(type(v) is int for x in report.fixed_points for v in x)
        json.dumps([report.start_point, report.fixed_points])
        checked += 1


class TestRandomizedEquivalence:
    def test_engine_matches_oracle(self):
        rng = np.random.default_rng(20240817)
        passed = 0
        attempts = 0
        while passed < 120 and attempts < 3000:
            attempts += 1
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            space, ups, F = random_instance(k, n, rng)
            report = check_theorem_hypotheses(space, F, ups, HALF_TRIPLE)
            if not report.all_pass:
                continue
            passed += 1
            assert len(report.fixed_points) == 1
            sol = solve(
                ProductOperator(k, F), ups, report.start_point,
                IterationConfig(tol_step=1e-9, tol_residual=1e-9, max_iters=60),
                HALF_TRIPLE, dist=space.d, leq=space.le,
            )
            assert sol.fixed_point == report.fixed_points[0]
        assert passed == 120


def looped_monotone_table(space, rng, increasing):
    """Reference for ``oracle._monotone_table``: the same random trials,
    each candidate checked pair by pair."""
    n = space.n
    for _ in range(64):
        g = rng.integers(0, n, size=n)
        if all(space.le(int(g[x]), int(g[y])) if increasing else space.le(int(g[y]), int(g[x]))
               for x in range(n) for y in range(n) if space.le(x, y)):
            return [int(v) for v in g]
    return [0] * n


class TestMonotoneTable:
    @pytest.mark.parametrize("increasing", [True, False])
    def test_matches_the_looped_reference(self, increasing):
        rng = np.random.default_rng(7)
        accepted = 0
        for n in (1, 2, 3, 4, 6):
            idx = np.arange(n)
            for _ in range(30):
                space = FiniteSpace(tuple(map(str, idx)), np.abs(idx[:, None] - idx[None, :]),
                                    _random_order(n, rng))
                seed = int(rng.integers(2 ** 32))
                fast, looped = np.random.default_rng(seed), np.random.default_rng(seed)
                table = _monotone_table(space, fast, increasing)
                assert table == looped_monotone_table(space, looped, increasing)
                # the same number of draws, so the instance stream is unchanged
                assert fast.integers(2 ** 32) == looped.integers(2 ** 32)
                accepted += len(set(table)) > 1  # not the constant fallback
        assert accepted >= 20
