import math

import pytest
from hypothesis import given, strategies as st

from mixedfp.contraction import (
    ContractionTriple,
    DeclaredProperties,
    UnsupportedDiagnosticError,
    builtin_log_triple,
    gain_bound_sequence,
    verify_contraction_sampled,
)
from mixedfp.engine import IterationConfig, ProductOperator, solve
from mixedfp.order import Partition, UpsilonTuple, max_metric, product_leq

absdist = lambda a, b: abs(a - b)  # noqa: E731


class TestBuiltinTriple:
    def test_zero_at_zero(self):
        t = builtin_log_triple()
        assert t.psi(0.0) == t.theta(0.0) == t.phi(0.0) == 0.0

    def test_gap_at_one(self):
        # 1 - ln 2
        assert builtin_log_triple().gap(1.0) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-15
        )

    def test_gap_positive_across_scales(self):
        t = builtin_log_triple()
        assert all(t.gap(10.0**e) > 0.0 for e in range(-8, 5))

    def test_theta_hits_one(self):
        assert builtin_log_triple().theta(math.e - 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_declared_truthfully(self):
        d = builtin_log_triple().declared
        assert d.psi_altering and d.theta_usc and d.phi_lsc and d.zero_at_zero

    @pytest.mark.parametrize("declared, warned", [
        (DeclaredProperties(), True),
        (DeclaredProperties(True, True, True, False), True),
        (DeclaredProperties(True, True, True, True), False),
    ], ids=["none", "three", "all"])
    def test_solve_warns_about_an_undeclared_triple(self, caplog, declared, warned):
        triple = ContractionTriple(lambda x: x, math.log1p, lambda x: 0.0, declared)
        op = ProductOperator(2, lambda a, b: 0.5 * (a + b))
        with caplog.at_level("WARNING"):
            solve(op, UpsilonTuple(Partition(2, [1]), [(1, 2), (2, 1)]), (0.0, 1.0),
                  IterationConfig(), triple, dist=absdist, leq=lambda a, b: a <= b)
        messages = [r.getMessage() for r in caplog.records]
        assert any("unverified analytic declarations" in m for m in messages) == warned


class TestGainBound:
    def test_zero_start(self):
        assert gain_bound_sequence(0.0, 5, builtin_log_triple()) == [0.0] * 6

    def test_known_values(self):
        seq = gain_bound_sequence(1.0, 2, builtin_log_triple())
        assert seq[1] == pytest.approx(math.log(2.0), abs=1e-15)
        assert seq[2] == pytest.approx(math.log(1.0 + math.log(2.0)), abs=1e-15)

    @given(st.floats(1e-8, 1e3))
    def test_strictly_decreasing(self, d0):
        seq = gain_bound_sequence(d0, 20, builtin_log_triple())
        assert all(b < a for a, b in zip(seq, seq[1:]))
        assert all(v >= 0.0 for v in seq)

    def test_non_identity_psi_refused(self):
        t = ContractionTriple(lambda x: 2 * x, lambda x: x, lambda x: 0.0)
        with pytest.raises(UnsupportedDiagnosticError):
            gain_bound_sequence(1.0, 3, t)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="d0 must be nonnegative"):
            gain_bound_sequence(-1.0, 3, builtin_log_triple())

    def test_nan_start_rejected(self):
        # NaN is not below 0 either, and its sequence read [nan, 0.0, ...],
        # a zero majorant
        with pytest.raises(ValueError, match="d0 must be nonnegative"):
            gain_bound_sequence(math.nan, 3, builtin_log_triple())

    def test_infinite_start_states_no_bound(self):
        assert gain_bound_sequence(math.inf, 3, builtin_log_triple()) == [math.inf] * 4


class TestVerifyContractionSampled:
    partition = Partition(2, [1])

    def ordered(self, x, z):
        return product_leq(x, z, self.partition, lambda a, b: a <= b)

    def dk(self, x, z):
        return max_metric(x, z, absdist)

    def test_equal_pair_slack_zero(self):
        report = verify_contraction_sampled(
            lambda x: 0.5 * (x[0] + x[1]),
            [((1.0, 1.0), (1.0, 1.0))],
            builtin_log_triple(),
            dist=absdist,
            dist_k=self.dk,
            ordered=self.ordered,
        )
        assert report.slacks == (0.0,)
        assert report.passed

    def test_expanding_operator_fails(self):
        # F(a, b) = 2a: psi(2) = 2 exceeds theta(1) = ln 2
        report = verify_contraction_sampled(
            lambda x: 2.0 * x[0],
            [((0.0, 0.0), (1.0, 0.0))],
            builtin_log_triple(),
            dist=absdist,
            dist_k=self.dk,
            ordered=self.ordered,
        )
        assert not report.passed
        assert report.min_slack == pytest.approx(math.log(2.0) - 2.0)

    def test_unordered_pair_rejected_before_evaluation(self):
        def boom(x):
            raise AssertionError("must not evaluate")

        report = verify_contraction_sampled(
            boom,
            [((1.0, 0.0), (0.0, 0.0))],
            builtin_log_triple(),
            dist=absdist,
            dist_k=self.dk,
            ordered=self.ordered,
        )
        assert report.rejected_pairs == (0,)
        assert not report.passed
