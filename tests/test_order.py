import pytest
from hypothesis import given, strategies as st

from mixedfp.order import (
    Partition,
    UpsilonMembershipError,
    UpsilonTuple,
    cyclic_shift_upsilon,
    max_metric,
    product_leq,
    upsilon_violations,
)

absdist = lambda a, b: abs(a - b)  # noqa: E731
realleq = lambda a, b: a <= b  # noqa: E731

reals = st.floats(-1e6, 1e6, allow_nan=False)
triples3 = st.tuples(
    st.tuples(reals, reals, reals),
    st.tuples(reals, reals, reals),
    st.tuples(reals, reals, reals),
)


class TestPartition:
    def test_basic(self):
        p = Partition(4, [1, 3])
        assert p.a == frozenset({1, 3}) and p.b == frozenset({2, 4})
        assert p == Partition(4, (3, 1)) == Partition.odd_even(4)

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            Partition(1, [1])

    @pytest.mark.parametrize("a", [[1, 4], [0, 2]], ids=["above_k", "zero"])
    def test_rejects_index_outside_k(self, a):
        with pytest.raises(ValueError, match=r"not a subset of \{1,...,3\}"):
            Partition(3, a)

    def test_empty_block_allowed(self):
        p = Partition(2, [1, 2])
        assert not p.b

    def test_orient_odd_even(self):
        p = Partition.odd_even(4)
        assert [p.orient(i, "u", "v") for i in range(1, 5)] == [
            ("u", "v"), ("v", "u"), ("u", "v"), ("v", "u")]

    def test_orient_follows_the_blocks_not_the_parity(self):
        p = Partition(4, [2, 3])
        assert [p.orient(i, "u", "v") for i in range(1, 5)] == [
            ("v", "u"), ("u", "v"), ("u", "v"), ("v", "u")]


class TestMaxMetric:
    def test_identity(self):
        assert max_metric((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), absdist) == 0.0

    def test_k2(self):
        assert max_metric((1.0, 5.0), (3.0, 4.0), absdist) == 2.0

    def test_k3(self):
        assert max_metric((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), absdist) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            max_metric((1.0,), (1.0, 2.0), absdist)

    @given(triples3)
    def test_metric_axioms(self, pts):
        x, y, z = pts
        dxy = max_metric(x, y, absdist)
        assert dxy >= 0.0
        assert dxy == max_metric(y, x, absdist)
        assert (dxy == 0.0) == (x == y)
        assert max_metric(x, z, absdist) <= dxy + max_metric(y, z, absdist) + 1e-9


class TestProductLeq:
    partition = Partition(2, [1])

    def test_reflexive(self):
        x = (0.3, -1.2)
        assert product_leq(x, x, self.partition, realleq)

    def test_twisted_direction(self):
        assert product_leq((0.0, 5.0), (1.0, 3.0), self.partition, realleq)
        assert not product_leq((0.0, 5.0), (1.0, 7.0), self.partition, realleq)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            product_leq((0.0,), (1.0, 2.0), self.partition, realleq)

    def test_tuples_of_another_k_are_refused(self):
        with pytest.raises(ValueError, match="dimension 3 does not match k=2"):
            product_leq((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), self.partition, realleq)

    @given(triples3.filter(lambda p: True))
    def test_transitive(self, pts):
        part = Partition(3, [1, 3])
        x, y, z = pts
        if product_leq(x, y, part, realleq) and product_leq(y, z, part, realleq):
            assert product_leq(x, z, part, realleq)

    @given(st.tuples(reals, reals), st.tuples(reals, reals))
    def test_antisymmetric(self, x, y):
        if product_leq(x, y, self.partition, realleq) and product_leq(
            y, x, self.partition, realleq
        ):
            assert x == y


class TestValidateUpsilon:
    partition = Partition(2, [1])

    def test_id_swap_accepted(self):
        ups = UpsilonTuple(self.partition, [(1, 2), (2, 1)])
        assert ups.permute(2, ("a", "b")) == ("b", "a")

    def test_identity_in_b_rejected(self):
        with pytest.raises(UpsilonMembershipError) as exc:
            UpsilonTuple(self.partition, [(1, 2), (1, 2)])
        assert (2, 1) in exc.value.violations
        assert (2, 2) in exc.value.violations

    def test_out_of_range_is_structural(self):
        with pytest.raises(ValueError) as exc:
            upsilon_violations([(1, 3), (2, 1)], self.partition)
        assert not isinstance(exc.value, UpsilonMembershipError)

    def test_a_map_that_is_not_total_is_structural(self):
        with pytest.raises(ValueError, match=r"sigma_2 is not total on \{1,...,2\}") as exc:
            UpsilonTuple(self.partition, [(1, 2), (2,)])
        assert not isinstance(exc.value, UpsilonMembershipError)

    def test_constructor_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            UpsilonTuple(self.partition, ((1, 2),))

    def test_constructor_rejects_a_non_member(self):
        # sigma_1 = (2, 1) sends both blocks across, but 1 is in A
        with pytest.raises(UpsilonMembershipError) as exc:
            UpsilonTuple(Partition.odd_even(2), ((2, 1), (1, 2)))
        assert exc.value.violations == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestCyclicShift:
    def test_m1(self):
        ups = cyclic_shift_upsilon(1)
        assert ups.sigmas == ((1, 2), (2, 1))

    def test_m2_third_row(self):
        assert cyclic_shift_upsilon(2).sigmas[2] == (3, 4, 1, 2)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_first_row_identity(self, m):
        assert cyclic_shift_upsilon(m).sigmas[0] == tuple(range(1, 2 * m + 1))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_accepted_and_parity(self, m):
        ups = cyclic_shift_upsilon(m)
        assert not upsilon_violations(ups.sigmas, ups.partition)
        # odd rows preserve the parity classes, even rows swap them
        for i in range(1, 2 * m + 1):
            for j in range(1, 2 * m + 1):
                v = ups.sigmas[i - 1][j - 1]
                if i % 2 == 1:
                    assert v % 2 == j % 2
                else:
                    assert v % 2 != j % 2

    def test_rejects_m0(self):
        with pytest.raises(ValueError):
            cyclic_shift_upsilon(0)


def test_componentwise_cauchy_gives_max_metric_cauchy():
    # completeness transfer, restated on finite data: a sequence whose
    # components share a Cauchy modulus is Cauchy in the max metric with the
    # same modulus
    seq = [(1.0 / 2**n, -1.0 / 2**n, 3.0 + 1.0 / 2**n) for n in range(20)]
    for n in range(len(seq)):
        for p in range(n, len(seq)):
            modulus = 2.0 ** (1 - n)  # componentwise bound at index n
            assert max_metric(seq[n], seq[p], absdist) <= modulus
