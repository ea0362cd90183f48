import numpy as np
import pytest

from mixedfp.contraction import ContractionTriple, DeclaredProperties
from mixedfp.engine import IterationConfig, ProductOperator, solve
from mixedfp.oracle import (
    SIZE_GUARD,
    FiniteSpace,
    check_theorem_hypotheses,
    enumerate_fixed_points,
    random_instance,
)
from mixedfp.order import Partition, validate_upsilon

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


PART2 = Partition.of(2, [1])
ID_SWAP = validate_upsilon([(1, 2), (2, 1)], PART2)


class TestFiniteSpace:
    def test_chain_valid(self):
        chain_space(3)

    def test_rejects_asymmetric_distance(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), d, np.eye(2, dtype=bool))

    def test_rejects_triangle_violation(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b", "c"), d, np.eye(3, dtype=bool))

    def test_rejects_cyclic_order(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        leq = np.ones((2, 2), dtype=bool)  # a <= b and b <= a
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), d, leq)


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
        part = Partition.of(12, range(1, 13, 2))
        sigmas = [tuple(((i + j - 2) % 12) + 1 for j in range(1, 13)) for i in range(1, 13)]
        ups = validate_upsilon(sigmas, part)
        with pytest.raises(ValueError):
            enumerate_fixed_points(space, lambda *x: 0, ups)


class TestHypothesisChecks:
    def test_pair_guard_bounds_the_pair_tables(self):
        # 10^4 candidates pass the n^k guard but need 10^8-cell tables
        space = chain_space(10)
        part = Partition.of(4, [1, 3])
        ups = validate_upsilon([(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)], part)

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


class TestRandomizedEquivalence:
    def test_engine_matches_oracle(self):
        rng = np.random.default_rng(20240817)
        passed = 0
        attempts = 0
        while passed < 120 and attempts < 3000:
            attempts += 1
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            inst = random_instance(k, n, rng)
            if inst is None:
                continue
            space, ups, F = inst
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
