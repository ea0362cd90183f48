import math

import pytest

from mixedfp.contraction import builtin_log_triple
from mixedfp.engine import (
    IterationConfig,
    NonConvergenceError,
    OperatorEvaluationError,
    ProductOperator,
    check_mixed_monotone_sampled,
    iterate_step,
    majorant_for,
    solve,
    trace_csv,
)
from mixedfp.order import Partition, validate_upsilon

absdist = lambda a, b: abs(a - b)  # noqa: E731
realleq = lambda a, b: a <= b  # noqa: E731

PART2 = Partition.of(2, [1])
ID_SWAP = validate_upsilon([(1, 2), (2, 1)], PART2)
MIDPOINT = ProductOperator(2, lambda a, b: 0.5 * (a + b))


class TestIterateStep:
    def test_midpoint(self):
        assert iterate_step(MIDPOINT, ID_SWAP, (0.0, 1.0)) == (0.5, 0.5)

    def test_fixed_point_is_stationary(self):
        assert iterate_step(MIDPOINT, ID_SWAP, (0.5, 0.5)) == (0.5, 0.5)

    def test_failure_carries_component(self):
        # a cause that names no argument gives neither component nor node
        def bad(a, b):
            if b == 1.0:
                raise RuntimeError("boom")
            return a

        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(ProductOperator(2, bad), ID_SWAP, (0.0, 1.0))
        assert exc.value.component is None and exc.value.node is None
        assert str(exc.value) == "operator failed: boom"

    def test_per_row_failure_maps_the_named_position_through_the_row(self):
        class ArgumentError(ValueError):
            component, node = 1, 0.25  # the first argument of the row

        def bad(a, b):
            if a == 1.0:
                raise ArgumentError("first argument is out of range")
            return a

        # row (1, 2) passes; row (2, 1) fails in its first argument, x_2
        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(ProductOperator(2, bad), ID_SWAP, (0.0, 1.0))
        assert (exc.value.component, exc.value.node) == (2, 0.25)
        assert str(exc.value) == "operator failed at component 2: first argument is out of range"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            iterate_step(MIDPOINT, ID_SWAP, (0.0, 1.0, 2.0))

    def test_sweep_replaces_the_per_row_calls(self):
        def no_apply(a, b):
            raise AssertionError("apply called although the operator has a batch")

        def batch(rows, x):
            return [MIDPOINT.apply(*(x[j - 1] for j in row)) for row in rows]

        op = ProductOperator(2, no_apply, batch)
        assert iterate_step(op, ID_SWAP, (0.0, 1.0)) == (0.5, 0.5)

    def test_sweep_failure_carries_the_named_argument(self):
        class ArgumentError(ValueError):
            component = 2

        def batch(rows, x):
            raise ArgumentError("argument 2 is out of range")

        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(ProductOperator(2, MIDPOINT.apply, batch), ID_SWAP, (0.0, 1.0))
        assert exc.value.component == 2
        assert str(exc.value) == "operator failed at component 2: argument 2 is out of range"

    def test_sweep_failure_without_an_argument(self):
        def batch(rows, x):
            raise ArithmeticError("boom")

        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(ProductOperator(2, MIDPOINT.apply, batch), ID_SWAP, (0.0, 1.0))
        assert exc.value.component is None
        assert str(exc.value) == "operator failed: boom"


class TestMixedMonotoneSampled:
    def test_constant_passes(self):
        op = ProductOperator(2, lambda a, b: 7.0)
        samples = [((0.0, 0.0), 1, 0.0, 1.0), ((0.0, 0.0), 2, 0.0, 1.0)]
        assert check_mixed_monotone_sampled(op, PART2, samples, realleq) == []

    def test_difference_operator(self):
        op = ProductOperator(2, lambda a, b: a - b)
        samples = [((0.0, 0.0), 1, 0.0, 1.0), ((0.0, 0.0), 2, 0.0, 1.0)]
        assert check_mixed_monotone_sampled(op, PART2, samples, realleq) == []
        flipped = Partition.of(2, [2])
        violations = check_mixed_monotone_sampled(op, flipped, samples, realleq)
        assert {(0, 1), (1, 2)} == set(violations)

    def test_malformed_sample(self):
        with pytest.raises(ValueError):
            check_mixed_monotone_sampled(MIDPOINT, PART2, [((0.0, 0.0), 1, 0.0)], realleq)

    def test_one_batch_call_gives_the_per_row_verdicts(self):
        difference = ProductOperator(2, lambda a, b: a - b)
        batches = []

        def batch(rows, x):
            batches.append((list(map(tuple, rows)), list(x)))
            return [difference.apply(*(x[j - 1] for j in row)) for row in rows]

        def no_apply(a, b):
            raise AssertionError("apply called although the operator has a batch")

        samples = [((0.0, 5.0), 1, 0.0, 1.0), ((2.0, 0.0), 2, 0.0, 1.0), ((1.0, 1.0), 2, -1.0, 3.0)]
        flipped = Partition.of(2, [2])
        batched = ProductOperator(2, no_apply, batch)
        assert check_mixed_monotone_sampled(batched, flipped, samples, realleq) == \
            check_mixed_monotone_sampled(difference, flipped, samples, realleq) == \
            [(0, 1), (1, 2), (2, 2)]
        # each sample lays out its point with low in coordinate j, then high
        [(rows, elements)] = batches
        assert rows == [(1, 2), (3, 2), (4, 5), (4, 6), (7, 8), (7, 9)]
        assert elements == [0.0, 5.0, 1.0, 2.0, 0.0, 1.0, 1.0, -1.0, 3.0]

    def test_no_samples_evaluate_nothing(self):
        def never(*args):
            raise AssertionError("evaluated without samples")

        assert check_mixed_monotone_sampled(ProductOperator(2, never, never), PART2, [],
                                            realleq) == []


class TestSolve:
    config = IterationConfig(tol_step=1e-12, tol_residual=1e-12, max_iters=50)

    def test_already_fixed(self):
        report = solve(
            MIDPOINT, ID_SWAP, (0.5, 0.5), self.config, builtin_log_triple(),
            dist=absdist, leq=realleq,
        )
        assert report.iterations == 1
        assert report.step_history == (0.0,)
        assert report.fixed_point == (0.5, 0.5)

    def test_midpoint_converges(self):
        report = solve(
            MIDPOINT, ID_SWAP, (0.0, 1.0), self.config, builtin_log_triple(),
            dist=absdist, leq=realleq,
        )
        assert report.fixed_point == (0.5, 0.5)
        assert report.step_history[0] == 0.5
        assert report.converged and report.collapsed and report.monotone_ok
        assert report.final_residual == 0.0

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError, match=r"per-component: \[False, False\]"):
            solve(
                MIDPOINT, ID_SWAP, (1.0, 0.0), self.config, builtin_log_triple(),
                dist=absdist, leq=realleq,
            )

    def test_skip_initial_check(self):
        report = solve(
            MIDPOINT, ID_SWAP, (1.0, 0.0), self.config, builtin_log_triple(),
            dist=absdist, leq=realleq, skip_initial_check=True,
        )
        assert report.fixed_point == (0.5, 0.5)

    def test_max_iters_exhausted(self):
        shrink = ProductOperator(2, lambda a, b: 0.9 * a + 0.05)
        cfg = IterationConfig(tol_step=1e-12, tol_residual=1e-12, max_iters=3)
        ups = validate_upsilon([(1, 1), (1, 1)], Partition.of(2, [1, 2]))
        with pytest.raises(NonConvergenceError) as exc:
            solve(shrink, ups, (0.0, 0.0), cfg, builtin_log_triple(),
                  dist=absdist, leq=realleq)
        assert exc.value.report.iterations == 3
        assert len(exc.value.report.step_history) == 3
        assert not exc.value.report.converged

    def test_non_finite_step_stops_at_once(self):
        nan_op = ProductOperator(2, lambda a, b: float("nan"))
        with pytest.raises(NonConvergenceError) as exc:
            solve(nan_op, ID_SWAP, (0.0, 1.0), IterationConfig(), builtin_log_triple(),
                  dist=absdist, leq=realleq, skip_initial_check=True)
        report = exc.value.report
        assert report.iterations == 1
        assert len(report.step_history) == 1 and math.isnan(report.step_history[0])
        assert report.fixed_point == (0.0, 1.0)
        assert not report.converged

    def test_a_nan_residual_is_the_step(self):
        # the step is NaN when any residual is, wherever it lies among them
        op = ProductOperator(2, lambda a, b: float("nan") if a == 1.0 else a)
        with pytest.raises(NonConvergenceError) as exc:
            solve(op, ID_SWAP, (0.0, 1.0), IterationConfig(), builtin_log_triple(),
                  dist=absdist, leq=realleq, skip_initial_check=True)
        assert len(exc.value.report.step_history) == 1
        assert math.isnan(exc.value.report.final_residual)

    def test_deterministic(self):
        runs = [
            solve(MIDPOINT, ID_SWAP, (0.0, 1.0), self.config, builtin_log_triple(),
                  dist=absdist, leq=realleq)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_monotone_flag_flips_without_abort(self):
        # oscillating map: iterates are not product-ordered, run still finishes
        op = ProductOperator(2, lambda a, b: 0.5 * b)
        ups = validate_upsilon([(1, 1), (2, 2)], Partition.of(2, [1, 2]))
        cfg = IterationConfig(tol_step=1e-10, tol_residual=1e-10, max_iters=200)
        report = solve(op, ups, (1.0, -1.0), cfg, builtin_log_triple(),
                       dist=absdist, leq=realleq, skip_initial_check=True)
        assert not report.monotone_ok
        assert report.converged

    @pytest.mark.parametrize("skip", [False, True])
    def test_one_operator_call_per_component_and_sweep(self, skip):
        # the start check reads the first sweep instead of making its own
        calls = []
        op = ProductOperator(2, lambda a, b: calls.append(1) or 0.5 * (a + b))
        report = solve(op, ID_SWAP, (0.0, 1.0), self.config, builtin_log_triple(),
                       dist=absdist, leq=realleq, skip_initial_check=skip)
        assert report.iterations >= 2
        assert len(calls) == 2 * report.iterations

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            ProductOperator(1, lambda a: a)


class TestDiagnostics:
    def test_majorant_dominates_steps(self):
        # contraction factor 0.5 sits below the ln(1+x) majorant
        report = solve(
            MIDPOINT, ID_SWAP, (0.0, 1.0),
            IterationConfig(tol_step=1e-14, tol_residual=1e-14, max_iters=100),
            builtin_log_triple(), dist=absdist, leq=realleq,
        )
        bound = majorant_for(report, builtin_log_triple())
        assert all(s <= b + 1e-12 for s, b in zip(report.step_history, bound))

    def test_trace_csv_shape(self):
        report = solve(
            MIDPOINT, ID_SWAP, (0.0, 1.0),
            IterationConfig(tol_step=1e-12, tol_residual=1e-12, max_iters=50),
            builtin_log_triple(), dist=absdist, leq=realleq,
        )
        lines = trace_csv(report).strip().splitlines()
        assert lines[0] == "iter,step_dk,max_residual,collapsed_spread"
        assert len(lines) == report.iterations + 1


class TestConfigValidation:
    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            IterationConfig(tol_step=0.0)
        with pytest.raises(ValueError):
            IterationConfig(tol_residual=-1.0)
        with pytest.raises(ValueError):
            IterationConfig(max_iters=0)

    @pytest.mark.parametrize("field", ["tol_step", "tol_residual"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tolerances(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            IterationConfig(**{field: value})
