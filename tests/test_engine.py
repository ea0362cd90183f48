import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixedfp.contraction import builtin_log_triple, majorant_for, verify_contraction_sampled
from mixedfp.engine import (
    IterationConfig,
    NonConvergenceError,
    OperatorEvaluationError,
    ProductOperator,
    _MAX_PLANS,
    _images,
    _pattern,
    _plan,
    check_mixed_monotone_sampled,
    iterate_step,
    solve,
    trace_csv,
)
from mixedfp.funcspace import GridFunction, pointwise_leq, sup_metric
from mixedfp.hammerstein import build_log_example, initial_bracket, product_operator
from mixedfp.order import Partition, UpsilonTuple, cyclic_shift_upsilon

absdist = lambda a, b: abs(a - b)  # noqa: E731
realleq = lambda a, b: a <= b  # noqa: E731

PART2 = Partition(2, [1])
ID_SWAP = UpsilonTuple(PART2, [(1, 2), (2, 1)])
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

    def test_a_batch_with_too_few_images_is_refused(self):
        # the count is read off the plan before any image is handed out, so
        # a sweep and both generic sampled checks refuse alike
        op = ProductOperator(2, MIDPOINT.apply, lambda rows, x: [0.5] * (len(rows) - 1))
        a, b, c, d = (Box(v) for v in range(4))
        runs = [
            lambda: solve(op, ID_SWAP, (0.0, 1.0), IterationConfig(), dist=absdist, leq=realleq),
            lambda: check_mixed_monotone_sampled(op, PART2, [((a, b), 1, c, d)], realleq),
            lambda: verify_contraction_sampled(op, [((a, b), (c, d))], builtin_log_triple(),
                                               absdist, lambda x, z: 1.0, lambda x, z: True),
        ]
        messages = set()
        for run in runs:
            with pytest.raises(ValueError, match="dimension mismatch") as exc:
                run()
            messages.add(str(exc.value))
        assert messages == {"dimension mismatch: 1 images for 2 rows"}

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
        flipped = Partition(2, [2])
        violations = check_mixed_monotone_sampled(op, flipped, samples, realleq)
        assert {(0, 1), (1, 2)} == set(violations)

    def test_malformed_sample(self):
        with pytest.raises(ValueError):
            check_mixed_monotone_sampled(MIDPOINT, PART2, [((0.0, 0.0), 1, 0.0)], realleq)

    @pytest.mark.parametrize("sample", [
        ((0.0, 0.0, 0.0), 1, 0.0, 1.0), ((0.0, 0.0), 0, 0.0, 1.0), ((0.0, 0.0), 3, 0.0, 1.0),
    ], ids=["point_too_long", "coordinate_0", "coordinate_above_k"])
    def test_sample_with_bad_dimensions_is_refused(self, sample):
        calls = []
        op = ProductOperator(2, lambda a, b: calls.append((a, b)) or a)
        good = ((0.0, 0.0), 1, 0.0, 1.0)
        with pytest.raises(ValueError, match="sample 1 has bad dimensions"):
            check_mixed_monotone_sampled(op, PART2, [good, sample], realleq)
        assert calls == []  # every sample is checked before any evaluation

    def test_one_batch_call_gives_the_per_row_verdicts(self):
        difference = ProductOperator(2, lambda a, b: a - b)
        batches = []

        def batch(rows, x):
            batches.append((list(map(tuple, rows)), list(x)))
            return [difference.apply(*(x[j - 1] for j in row)) for row in rows]

        def no_apply(a, b):
            raise AssertionError("apply called although the operator has a batch")

        lo, hi = 0.0, 1.0  # one object each, shared by the samples
        samples = [((lo, 5.0), 1, lo, hi), ((2.0, lo), 2, lo, hi), ((hi, hi), 2, -1.0, 3.0)]
        flipped = Partition(2, [2])
        batched = ProductOperator(2, no_apply, batch)
        assert check_mixed_monotone_sampled(batched, flipped, samples, realleq) == \
            check_mixed_monotone_sampled(difference, flipped, samples, realleq) == \
            [(0, 1), (1, 2), (2, 2)]
        # each sample lays out its point with low in coordinate j, then high:
        # elements [lo, 5, hi, 2, lo, hi, hi, -1, 3], rows (1, 2), (3, 2),
        # (4, 5), (4, 6), (7, 8), (7, 9); the batch gets each distinct
        # element once, in order of first occurrence, and the rows over them
        [(rows, elements)] = batches
        assert rows == [(1, 2), (3, 2), (4, 1), (4, 3), (3, 5), (3, 6)]
        assert elements == [lo, 5.0, hi, 2.0, -1.0, 3.0]
        assert len(set(map(id, elements))) == len(elements)

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

    @pytest.mark.parametrize("tol_residual, collapsed", [(1e-12, False), (1e-3, True)])
    def test_the_step_tolerance_alone_stops_the_solve(self, tol_residual, collapsed):
        # each component halves its distance to 1, so sweep j steps 2**-j
        # and the spread of the iterate it starts from is 2**-j as well
        halve = ProductOperator(2, lambda a, b: 0.5 * (a + 1.0))
        ups = UpsilonTuple(Partition(2, [1, 2]), [(1, 1), (2, 2)])
        cfg = IterationConfig(tol_step=1e-6, tol_residual=tol_residual, max_iters=100)
        report = solve(halve, ups, (0.0, 0.5), cfg, dist=absdist, leq=realleq)
        assert report.step_history == tuple(2.0 ** -j for j in range(1, 21))
        assert report.final_spread == 2.0 ** -20
        assert report.converged and report.collapsed is collapsed

    def test_start_of_the_wrong_dimension_is_refused(self):
        with pytest.raises(ValueError, match="starting point dimension mismatch"):
            solve(MIDPOINT, ID_SWAP, (0.0, 1.0, 2.0), self.config, dist=absdist, leq=realleq)

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
        ups = UpsilonTuple(Partition(2, [1, 2]), [(1, 1), (1, 1)])
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
        ups = UpsilonTuple(Partition(2, [1, 2]), [(1, 1), (2, 2)])
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


class Box:
    """An element told apart from equal-valued ones by identity only."""

    def __init__(self, value):
        self.value = value


def weighted(*args):
    # order-sensitive, so a row evaluated over the wrong elements shows
    return sum(j * math.sin(a.value + j) for j, a in enumerate(args, start=1))


def alternating(k, lower, upper):
    """The start the CLI builds: ``lower`` on A (odd), ``upper`` on B (even)."""
    return tuple(lower if i % 2 == 0 else upper for i in range(k))


def mfold_example(m):
    # the m-fold log example on a small grid: kernel / m, pair repeated m times
    base = build_log_example(2.0, 2.0, 40, 8, 4)
    return dataclasses.replace(
        base, m=m, kernel=lambda t, s: base.kernel(t, s) / m,
        nonlinearities=base.nonlinearities * m, etas=(1.0,) * (2 * m))


class ArgumentError(ValueError):
    def __init__(self, component):
        self.component = component
        super().__init__(f"argument {component} is out of range")


class TestDistinctTuples:
    def test_a_k16_sweep_is_two_rows_over_two_elements(self):
        batches = []

        def batch(rows, x):
            batches.append((list(rows), list(x)))
            return [Box(weighted(*(x[j - 1] for j in row))) for row in rows]

        lower, upper = Box(0.25), Box(3.5)
        ups = cyclic_shift_upsilon(8)
        y = iterate_step(ProductOperator(16, weighted, batch), ups, alternating(16, lower, upper))
        [(rows, elements)] = batches
        assert elements == [lower, upper]
        assert rows == [(1, 2) * 8, (2, 1) * 8]
        assert len(set(map(id, y))) == 2
        assert all(yi is y[0] for yi in y[0::2]) and all(yi is y[1] for yi in y[1::2])
        # and the shared images are the per-row values
        for i, yi in enumerate(y, start=1):
            assert yi.value == weighted(*ups.permute(i, alternating(16, lower, upper)))

    @pytest.mark.parametrize("m", [2, 4])
    def test_solve_from_an_aliased_start_equals_a_fresh_start(self, m):
        problem = mfold_example(m)
        lower, upper = initial_bracket(problem, 2.0)
        aliased = alternating(problem.k, lower, upper)
        fresh = tuple(GridFunction(problem.grid, np.copy(xi.values)) for xi in aliased)
        config = IterationConfig(tol_step=1e-9, tol_residual=1e-9, max_iters=100)
        runs = [solve(product_operator(problem), cyclic_shift_upsilon(m), x0, config,
                      dist=sup_metric, leq=pointwise_leq) for x0 in (aliased, fresh)]
        assert runs[0].step_history == runs[1].step_history
        assert runs[0].spread_history == runs[1].spread_history
        assert runs[0].iterations == runs[1].iterations
        for a, b in zip(runs[0].fixed_point, runs[1].fixed_point):
            assert np.array_equal(a.values, b.values)
        assert len(set(map(id, runs[0].fixed_point))) == 2
        assert len(set(map(id, runs[1].fixed_point))) == problem.k

    def test_solve_compares_each_distinct_pair_once(self):
        calls = {"dist": 0, "leq": 0}

        def dist(a, b):
            calls["dist"] += 1
            return abs(a.value - b.value)

        def leq(a, b):
            calls["leq"] += 1
            return a.value <= b.value

        def mean(*args):
            return Box(sum(a.value for a in args) / len(args))

        report = solve(ProductOperator(16, mean), cyclic_shift_upsilon(8),
                       alternating(16, Box(0.0), Box(1.0)), IterationConfig(),
                       dist=dist, leq=leq)
        # per sweep: two residuals and one spread; two order comparisons
        assert calls == {"dist": 3 * report.iterations, "leq": 2 * report.iterations}

    @pytest.mark.parametrize("batched", [True, False])
    def test_failure_names_the_first_occurrence(self, batched):
        a, b = Box(0.0), Box(1.0)

        def apply(*args):
            # names the last position holding b
            if any(v is b for v in args):
                raise ArgumentError(max(p for p, v in enumerate(args, start=1) if v is b))
            return a

        def batch(rows, x):
            # names the last index of b in its elements
            raise ArgumentError(max(i for i, v in enumerate(x, start=1) if v is b))

        F = ProductOperator(4, apply, batch if batched else None)
        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(F, cyclic_shift_upsilon(2), (a, b, a, b))
        assert exc.value.component == 2
        assert str(exc.value).startswith("operator failed at component 2: ")

    @given(
        values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_images_equal_per_row_apply(self, values, data):
        pool = [Box(v) for v in values]
        k = data.draw(st.integers(2, 4))
        pattern = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
        x = [pool[i] for i in pattern]
        rows = data.draw(st.lists(
            st.lists(st.integers(1, len(x)), min_size=k, max_size=k), max_size=10))
        expected = [weighted(*(x[j - 1] for j in row)) for row in rows]
        seen = []

        def batch(rows, x):
            seen.append((len(rows), len(x)))
            return [weighted(*(x[j - 1] for j in row)) for row in rows]

        keys = [tuple(id(x[j - 1]) for j in row) for row in rows]
        for F in (ProductOperator(k, weighted), ProductOperator(k, weighted, batch)):
            images = _images(F, rows, x)
            assert list(images) == expected
            # rows over the same objects share one image
            shared = {}
            assert all(shared.setdefault(key, y) is y for key, y in zip(keys, images))
        assert seen == [(len(set(keys)), len(set(map(id, x))))]

    @pytest.mark.parametrize("batched", [True, False])
    def test_cached_plans_give_the_uncached_images(self, batched):
        # one UpsilonTuple swept over more patterns of repeated elements than
        # it keeps plans for: each sweep equals _images planned afresh, value
        # and sharing, on both evaluation paths, and at most _MAX_PLANS stay
        def batch(rows, x):
            return [weighted(*(x[j - 1] for j in row)) for row in rows]

        F = ProductOperator(6, weighted, batch if batched else None)
        ups = cyclic_shift_upsilon(3)
        pool = [Box(0.5 * v) for v in range(6)]
        rng = np.random.default_rng(11)
        patterns = [rng.integers(0, int(rng.integers(1, 7)), size=6) for _ in range(60)]
        for pattern in patterns * 2:
            x = tuple(pool[i] for i in pattern)
            y = iterate_step(F, ups, x)
            fresh = _images(F, ups.sigmas, x)
            assert list(y) == list(fresh)
            assert _pattern(y) == _pattern(fresh)
        assert len(ups._plans) == _MAX_PLANS

    def test_a_repeated_row_sweep_refuses_a_batch_one_image_over(self):
        # the alternating start is 2 distinct rows at k = 4; a third image
        # would otherwise be dropped by the spread to the k rows
        op = ProductOperator(4, weighted, lambda rows, x: [Box(0.0)] * (len(rows) + 1))
        with pytest.raises(ValueError, match="^dimension mismatch: 3 images for 2 rows$"):
            iterate_step(op, cyclic_shift_upsilon(2), alternating(4, Box(0.0), Box(1.0)))

    def test_an_all_distinct_plan_has_the_identity_layout(self):
        ups = cyclic_shift_upsilon(2)
        iterate_step(ProductOperator(4, weighted), ups, tuple(Box(v) for v in range(4)))
        plan = ups._plans[(1, 2, 3, 4)]
        assert (plan.keep, plan.slots) == ((1, 2, 3, 4), (0, 1, 2, 3))
        assert plan.rows == tuple(map(tuple, ups.sigmas))
        assert _plan([(2, 1), (1, 2)], (1, 2))[::2] == ((1, 2), (0, 1))

    def test_a_plan_keeps_the_start_check_verdict_per_component(self):
        # a start that fails the order condition names every component's
        # verdict, though each distinct (x_i, y_i, block) is compared once
        op = ProductOperator(4, lambda *args: Box(args[0].value + 1.0))
        lower, upper = Box(0.0), Box(1.0)
        with pytest.raises(ValueError, match=r"per-component: \[True, False, True, False\]"):
            solve(op, cyclic_shift_upsilon(2), alternating(4, lower, upper), IterationConfig(),
                  dist=lambda a, b: abs(a.value - b.value), leq=lambda a, b: a.value <= b.value)
