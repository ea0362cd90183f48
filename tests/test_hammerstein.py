import dataclasses
import gc
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixedfp import cli
from mixedfp import engine
from mixedfp import hammerstein as hs
from mixedfp.contraction import builtin_log_triple, verify_contraction_sampled
from mixedfp.engine import (
    IterationConfig,
    OperatorEvaluationError,
    ProductOperator,
    check_mixed_monotone_sampled,
    iterate_step,
    solve,
)
from mixedfp.funcspace import (
    Grid,
    GridFunction,
    LinearPlan,
    integrate,
    make_quadrature,
    pointwise_leq,
    sup_metric,
    uniform_grid,
)
from mixedfp.hammerstein import (
    _BLOCK_ELEMENTS,
    KERNELS,
    DomainFloorError,
    HammersteinProblem,
    SeparableKernel,
    apply_A,
    _samples_per_block,
    build_log_example,
    check_assumption_d,
    check_assumption_e,
    check_contraction,
    check_mixed_monotone,
    initial_bracket,
    kernel_bound,
    named_problem,
    product_operator,
)
from mixedfp.order import (
    Partition,
    UpsilonTuple,
    cyclic_shift_upsilon,
    max_metric,
    product_leq,
)
from worked_example import RULES, as_grid_functions, check_exp_inequality, closed_H_formulas


@pytest.fixture(scope="module")
def example22():
    return build_log_example(2.0, 2.0)


def linear(problem, slope):
    return GridFunction(problem.grid, slope * problem.grid.nodes)


def printed_h_pairs(r, two_m):
    """(nonlinearity index, component index) pairs of the r-th comparison
    integral H_r as the paper prints them, 1-based: the identity for r = 1,
    else a two-sum scheme."""
    if r == 1:
        return [(i, i) for i in range(1, two_m + 1)]
    pairs = [(i, i + r - 1) for i in range(1, two_m - r + 2)]
    pairs += [(two_m - ell, r - 1 - ell) for ell in range(0, r - 1)]
    return pairs


def mfold(problem, m):
    """The m-fold problem: the nonlinearities repeated m times, the kernel
    divided by m, so the kernel bound is unchanged."""
    return dataclasses.replace(
        problem, m=m, kernel=lambda t, s: problem.kernel(t, s) / m,
        nonlinearities=problem.nonlinearities * m, etas=(1.0,) * (2 * m),
    )


class TestBuildExample:
    def test_forcing_value(self):
        # p(1) = 2 - (ln 3 - ln 2 - 1/2)/2 at alpha=2, T=e
        p = build_log_example(2.0, math.e)
        expected = 2.0 - (math.log(3.0) - math.log(2.0) - 0.5) / 2.0
        assert p.forcing(1.0) == pytest.approx(expected, abs=1e-15)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            build_log_example(1.0, 2.0)
        with pytest.raises(ValueError):
            build_log_example(2.0, 1.0)

    def test_negative_kernel_rejected(self):
        with pytest.raises(ValueError):
            HammersteinProblem(
                m=1, kernel=lambda t, s: -1.0,
                nonlinearities=(lambda s, x: 0.0, lambda s, x: 0.0),
                forcing=lambda t: 0.0, etas=(1.0, 1.0), domain_floor=0.0,
                grid=uniform_grid(2.0, 16),
                quadrature=make_quadrature(2.0, 4, 4),
            )


def _small_problem(**pieces):
    data = dict(
        m=1, kernel=lambda t, s: 1.0 / (t * s),
        nonlinearities=(lambda s, x: np.log(s + x), lambda s, x: -np.log(x)),
        forcing=lambda t: t, etas=(1.0, 1.0), domain_floor=1.0,
        grid=uniform_grid(2.0, 16),
        quadrature=make_quadrature(2.0, 4, 4),
    )
    data.update(pieces)
    return HammersteinProblem(**data)


class TestProblemChecks:
    @pytest.mark.parametrize("field, make", [
        ("quadrature", lambda: make_quadrature(3.0, 4, 4)),
        ("grid", lambda: Grid(2.0, np.linspace(1.0, 1.9, 17))),
        ("grid", lambda: Grid(2.0, np.linspace(1.1, 2.0, 17))),
    ], ids=["quadrature", "grid_short_of_T", "grid_short_of_1"])
    def test_grid_and_quadrature_must_span_1_to_T(self, field, make):
        # the grid and quadrature of _small_problem are on [1, 2]
        with pytest.raises(ValueError, match=r"must span \[1, T\]"):
            _small_problem(**{field: make()})

    @pytest.mark.parametrize("pieces, message", [
        ({"m": 0}, "m must be >= 1, got 0"),
        ({"nonlinearities": (lambda s, x: np.log(s + x),)}, "expected 2 nonlinearities"),
        ({"m": 2}, "expected 4 nonlinearities"),
    ], ids=["m_0", "one_nonlinearity", "m_2_with_two"])
    def test_wrong_piece_count_rejected(self, pieces, message):
        with pytest.raises(ValueError, match=message):
            _small_problem(**pieces)

    @pytest.mark.parametrize("pieces", [
        {"domain_floor": math.nan}, {"domain_floor": -math.inf},
        {"etas": (math.nan, 1.0)}, {"etas": (1.0, math.inf)},
    ], ids=["floor_nan", "floor_inf", "eta_nan", "eta_inf"])
    def test_non_finite_floor_or_eta_rejected(self, pieces):
        with pytest.raises(ValueError, match="finite"):
            _small_problem(**pieces)

    def test_non_finite_forcing_rejected(self):
        with pytest.raises(ValueError, match="forcing must be finite on the grid"):
            _small_problem(forcing=lambda t: 1.0 / (t - 1.0))


class TestArrayContract:
    def test_scalar_returns_broadcast(self):
        p = _small_problem(kernel=lambda t, s: 0.5, forcing=lambda t: 2,
                           nonlinearities=(lambda s, x: 0.0, lambda s, x: 1.0))
        out = apply_A(p, (linear(p, 1.0),) * 2)
        assert np.array_equal(out.values, np.full(p.grid.n, 2.0 + 0.5 * 1.0))

    @pytest.mark.parametrize("piece,fields", [
        ("kernel", {"kernel": lambda t, s: 1.0 / math.log(t * s + 1.0)}),
        ("nonlinearity 2", {"nonlinearities": (lambda s, x: np.log(s + x),
                                               lambda s, x: -math.log(x))}),
        ("forcing", {"forcing": lambda t: math.log(t)}),
    ])
    def test_scalar_only_callable_rejected(self, piece, fields):
        with pytest.raises(ValueError, match=f"^{piece} must accept node arrays"):
            _small_problem(**fields)

    @pytest.mark.parametrize("piece,fields", [
        ("kernel", {"kernel": lambda t, s: np.ones(3)}),
        ("nonlinearity 1", {"nonlinearities": (lambda s, x: np.log(s + x)[:, None],
                                               lambda s, x: -np.log(x))}),
        ("forcing", {"forcing": lambda t: np.ones((2, t.size))}),
    ])
    def test_unbroadcastable_output_rejected(self, piece, fields):
        with pytest.raises(ValueError, match=f"^{piece} must accept node arrays"):
            _small_problem(**fields)

    @pytest.mark.parametrize("piece,fields", [
        ("nonlinearity 1", {"nonlinearities": (lambda s, x: np.log(np.add(s, 0.001, out=s) + x),
                                               lambda s, x: -np.log(x))}),
        ("kernel", {"kernel": lambda t, s: 1.0 / (t * np.add(s, 0.25, out=s))}),
        ("kernel", {"kernel": SeparableKernel(lambda t: 1.0 / np.add(t, 0.5, out=t),
                                              lambda s: 1.0 / s)}),
        ("forcing", {"forcing": lambda t: np.add(t, 0.5, out=t)}),
    ], ids=["nonlinearity", "dense_kernel", "kernel_factor", "forcing"])
    def test_a_piece_cannot_write_into_the_node_arrays(self, piece, fields):
        # each piece is handed read-only views, so a write is refused before
        # it can move the nodes that the problem shares with its grid and rule
        grid, quadrature = uniform_grid(2.0, 16), make_quadrature(2.0, 4, 4)
        nodes = grid.nodes.tobytes(), quadrature.nodes.tobytes()
        with pytest.raises(ValueError, match=f"^{piece} must accept node arrays.*read-only"):
            _small_problem(grid=grid, quadrature=quadrature, **fields)
        assert (grid.nodes.tobytes(), quadrature.nodes.tobytes()) == nodes

    def test_a_piece_cannot_write_into_the_node_arrays_after_construction(self):
        # the dense kernel's node block is built at the first operator call,
        # and check D calls each nonlinearity on arrays of its own
        armed = set()

        def kernel(t, s):
            return 1.0 / (t * (np.add(s, 0.25, out=s) if "kernel" in armed else s))

        def f(s, x):
            return np.log((np.add(s, 0.001, out=s) if "f" in armed else s) + x)

        p = _small_problem(kernel=kernel, nonlinearities=(f, lambda s, x: -np.log(x)))
        nodes = p.grid.nodes.tobytes(), p.quadrature.nodes.tobytes()
        armed.add("kernel")
        with pytest.raises(ValueError, match="^kernel must accept node arrays.*read-only"):
            product_operator(p).batch(((1, 2),), (linear(p, 2.0), linear(p, 3.0)))
        armed.add("f")
        with pytest.raises(ValueError, match="^nonlinearity 1 must accept node arrays.*read-only"):
            check_assumption_d(p, [(1.0, 2.0)], [1.5])
        assert (p.grid.nodes.tobytes(), p.quadrature.nodes.tobytes()) == nodes

    def test_values_are_not_probed(self):
        # -log(0) on the probe at the floor is infinite; only shapes count,
        # and the probe raises no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _small_problem(domain_floor=0.0)


class TestKernelBound:
    @pytest.mark.parametrize("T", [1.5, 2.0, math.e, 10.0])
    def test_example_bound_is_one(self, T):
        assert kernel_bound(build_log_example(2.0, T)) == pytest.approx(1.0, abs=1e-10)

    def test_flat_kernel(self):
        p = HammersteinProblem(
            m=1, kernel=lambda t, s: 1.0 / 2.0,
            nonlinearities=(lambda s, x: 0.0, lambda s, x: 0.0),
            forcing=lambda t: 0.0, etas=(1.0, 1.0), domain_floor=0.0,
            grid=uniform_grid(3.0, 16),
            quadrature=make_quadrature(3.0, 4, 4),
        )
        assert kernel_bound(p) == pytest.approx(2.0, abs=1e-12)

    def test_refinement_stable(self):
        coarse = kernel_bound(build_log_example(2.0, 2.0, quad_panels=32))
        fine = kernel_bound(build_log_example(2.0, 2.0, quad_panels=64))
        assert abs(coarse - fine) < 1e-8


class TestApplyA:
    def test_zero_nonlinearities_give_forcing(self):
        p = HammersteinProblem(
            m=1, kernel=lambda t, s: 1.0,
            nonlinearities=(lambda s, x: 0.0, lambda s, x: 0.0),
            forcing=lambda t: 3.0 * t - 1.0, etas=(1.0, 1.0), domain_floor=0.0,
            grid=uniform_grid(2.0, 16),
            quadrature=make_quadrature(2.0, 4, 4),
        )
        x = linear(p, 1.0)
        out = apply_A(p, (x, x))
        assert sup_metric(out, p.grid.sample(lambda t: 3.0 * t - 1.0)) < 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("T", [1.5, 2.0, math.e, 10.0])
    def test_exact_solution_is_fixed(self, alpha, T):
        p = build_log_example(alpha, T)
        x = linear(p, alpha)
        assert sup_metric(apply_A(p, (x, x)), x) < 1e-10

    def test_bracket_image_matches_closed_form(self, example22):
        y1, y2 = initial_bracket(example22, 2.0)
        out = apply_A(example22, (y1, y2))
        h1 = example22.grid.sample(lambda t: closed_H_formulas(2.0, 2.0, t)[0])
        assert sup_metric(out, h1) < 1e-10

    def test_domain_floor_violation(self, example22):
        bad = GridFunction(example22.grid, 0.5 * np.ones(example22.grid.n))
        with pytest.raises(DomainFloorError) as exc:
            apply_A(example22, (bad, linear(example22, 2.0)))
        assert exc.value.component == 1

    def test_domain_floor_names_first_bad_component_and_node(self, example22):
        values = 2.0 * example22.grid.nodes
        values[[7, 3]] = 0.5
        bad = GridFunction(example22.grid, values)
        with pytest.raises(DomainFloorError) as exc:
            apply_A(example22, (linear(example22, 2.0), bad))
        assert exc.value.component == 2
        assert exc.value.node == example22.grid.nodes[3]

    def test_wrong_arity(self, example22):
        with pytest.raises(ValueError):
            apply_A(example22, (linear(example22, 2.0),))

    def test_components_off_the_problem_grid(self, example22):
        # one common grid among the components is not enough: the cached
        # transfer plan is for the problem's grid
        other = uniform_grid(2.0, 100).sample(lambda t: 2.0 * t)
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_A(example22, (other, other))
        # assumption E fails as the first sweep of a solve does
        with pytest.raises(OperatorEvaluationError, match="grid mismatch") as exc:
            check_assumption_e(example22, (linear(example22, 2.0), other))
        assert isinstance(exc.value.cause, ValueError)
        assert (exc.value.component, exc.value.node) == (None, None)

    def test_one_component_off_the_problem_grid(self, example22):
        # each component is checked, not only the first
        other = uniform_grid(2.0, 32).sample(lambda t: 2.0 * t)
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_A(example22, (linear(example22, 2.0), other))


def rough_ordered_tuple(problem, rng):
    """Rough (nodewise random) components above the floor: the odd ones
    from one random function, the even ones a random gap above it."""
    n, floor = problem.grid.n, problem.domain_floor
    lower = floor + rng.uniform(0.0, 6.0, n)
    return tuple(
        GridFunction(problem.grid, lower if i % 2 == 0 else lower + rng.uniform(0.0, 3.0, n))
        for i in range(problem.k)
    )


class TestSweepKernel:
    @pytest.mark.parametrize("quadrature", ["gauss-legendre", "simpson"])
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_sweep_equals_per_row_apply_A(self, example22, m, quadrature):
        # simpson nodes include grid nodes, so exact node hits are covered
        p = mfold(dataclasses.replace(
            example22, quadrature=RULES[quadrature](2.0, 32, 8)), m)
        ups = cyclic_shift_upsilon(m)
        F = product_operator(p)
        assert F.batch is not None
        rng = np.random.default_rng(100 + m)
        for _ in range(3):
            x = rough_ordered_tuple(p, rng)
            sweep = iterate_step(F, ups, x)
            assert len(sweep) == p.k
            for i, y in enumerate(sweep, start=1):
                assert np.array_equal(y.values, apply_A(p, ups.permute(i, x)).values)

    def test_sweep_follows_the_given_upsilon(self, example22):
        # the cyclic shift's table is symmetric; this one is neither
        # symmetric nor bijective, so rows and arguments cannot be confused
        p = mfold(example22, 2)
        ups = UpsilonTuple(
            Partition.odd_even(4), [(3, 2, 1, 4), (2, 3, 4, 1), (3, 4, 3, 4), (4, 1, 2, 3)])
        x = rough_ordered_tuple(p, np.random.default_rng(9))
        sweep = iterate_step(product_operator(p), ups, x)
        for i, y in enumerate(sweep, start=1):
            assert np.array_equal(y.values, apply_A(p, ups.permute(i, x)).values)

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_one_transfer_and_k_nonlinearity_calls_per_sweep(self, example22, monkeypatch, m):
        lengths = []

        def counted(f):
            def g(s, x):
                lengths.append((s.size, x.size))
                return f(s, x)
            return g

        base = mfold(example22, m)
        p = dataclasses.replace(base, nonlinearities=tuple(map(counted, base.nonlinearities)))
        applies = []
        apply = LinearPlan.apply
        monkeypatch.setattr(
            LinearPlan, "apply", lambda plan, y: applies.append(y.shape) or apply(plan, y))
        lengths.clear()  # construction probes each piece once
        x = rough_ordered_tuple(p, np.random.default_rng(3))
        iterate_step(product_operator(p), cyclic_shift_upsilon(m), x)
        nq = p.quadrature.nodes.size
        assert applies == [(p.k, p.grid.n)]
        assert lengths == [(p.k * nq, p.k * nq)] * p.k

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_a_sweep_from_the_bracket_calls_each_shared_nonlinearity_once(self, example22, m):
        # the m-fold problem repeats one f1 and one f2; from the bracket start
        # every sweep is 2 rows over 2 elements, whose columns pair f1 with
        # one and f2 with the other, so whatever k is, f1 and f2 are called
        # once each on 2 * nq values
        calls = []

        def counted(name, f):
            def g(s, x):
                calls.append((name, s.size, x.size))
                return f(s, x)
            return g

        f1, f2 = example22.nonlinearities
        p = mfold(dataclasses.replace(
            example22, nonlinearities=(counted("f1", f1), counted("f2", f2))), m)
        lower, upper = initial_bracket(p, 2.0)
        x = tuple(lower if i % 2 == 0 else upper for i in range(p.k))
        F, ups, nq = product_operator(p), cyclic_shift_upsilon(m), p.quadrature.nodes.size
        for _ in range(3):  # the first sweep transfers; later ones read the nodes
            calls.clear()
            x = iterate_step(F, ups, x)
            assert calls == [("f1", 2 * nq, 2 * nq), ("f2", 2 * nq, 2 * nq)]

    def test_one_callable_at_two_positions_is_called_once_per_distinct_column(self):
        calls = []

        def g(s, x):
            calls.append(x.copy())
            return np.log(s + x)

        p = _small_problem(nonlinearities=(g, g))
        calls.clear()  # construction probes each piece once
        u, v = linear(p, 2.0), linear(p, 3.0)
        F = product_operator(p)
        # the columns of (u, v) differ: g is called at each of them
        F.batch([(1, 2)], (u, v))
        assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])
        # the columns of (u, u) are one: g is called once, its term added
        # twice, as in apply_A, whose one row (1, 2) has two columns
        calls.clear()
        image = F.batch([(1, 1)], (u, v))[0]
        assert len(calls) == 1
        assert np.array_equal(image.values, apply_A(p, (u, u)).values)

    def test_a_nonlinearity_cannot_write_into_a_shared_argument(self):
        # two callables read one column of (u, u); the first writes into its
        # argument, which would change the second's term, so it raises
        armed = []

        def f(s, x):
            return np.log(x, out=x) if armed else np.log(x)

        def g(s, x):
            return np.log(s + x)

        p = _small_problem(nonlinearities=(f, g))
        armed.append(True)  # construction's probe passes
        u = linear(p, 2.0)
        with pytest.raises(ValueError, match="read-only"):
            product_operator(p).batch([(1, 1)], (u,))

    def test_a_nonlinearity_cannot_write_into_the_nodes(self):
        # the tiled nodes are kept between kernel calls, so a nonlinearity
        # that writes into them would change every later call's nodes
        armed = []

        def f(s, x):
            return np.log(np.add(s, x, out=s) if armed else s + x)

        p = _small_problem(nonlinearities=(f, lambda s, x: np.log(s + x)))
        armed.append(True)  # construction's probe passes
        with pytest.raises(ValueError, match="read-only"):
            product_operator(p).batch(((1, 2),), (linear(p, 2.0), linear(p, 3.0)))

    def test_floor_error_names_the_argument_not_the_row(self, example22):
        p = mfold(example22, 2)
        x = list(rough_ordered_tuple(p, np.random.default_rng(5)))
        values = x[2].values.copy()
        values[4] = 0.5
        x[2] = GridFunction(p.grid, values)
        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(product_operator(p), cyclic_shift_upsilon(2), x)
        assert exc.value.component == 3
        assert isinstance(exc.value.cause, DomainFloorError)
        assert exc.value.cause.node == p.grid.nodes[4]

    def test_solve_with_scalar_nonlinearities_gives_the_forcing(self):
        # the registry's "zero" returns a float, which must broadcast over
        # the k argument rows of the sweep
        cfg = cli.load_config(None, {"alpha": 2.0, "T": 2.0})
        cfg.update(problem="custom", kernel="constant", nonlinearities=["zero", "zero"],
                   forcing="linear")
        p = cli.build_problem(cfg)
        forcing = 2.0 * p.grid.nodes

        def no_apply(*x):
            raise AssertionError("per-row apply called although the sweep is set")

        F = dataclasses.replace(product_operator(p), apply=no_apply)
        x0 = (GridFunction(p.grid, forcing - 0.5), GridFunction(p.grid, forcing + 0.5))
        report = solve(F, cyclic_shift_upsilon(1), x0, IterationConfig(),
                       dist=sup_metric, leq=pointwise_leq)
        assert report.converged and report.iterations == 2
        for component in report.fixed_point:
            assert np.array_equal(component.values, forcing)

    def test_non_finite_integrand_names_no_argument(self):
        p = _small_problem(domain_floor=0.0)
        x = (linear(p, 1.0), GridFunction(p.grid, np.zeros(p.grid.n)))
        with pytest.raises(ArithmeticError, match="non-finite integrand"):
            apply_A(p, x)
        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(product_operator(p), cyclic_shift_upsilon(1), x)
        assert exc.value.component is None
        assert str(exc.value) == "operator failed: non-finite integrand encountered"


def rough_pool(problem, rng, count):
    """``count`` rough components in [floor, floor + 9]."""
    n, floor = problem.grid.n, problem.domain_floor
    return [GridFunction(problem.grid, floor + rng.uniform(0.0, 9.0, n)) for _ in range(count)]


def recorded_operator(problem):
    """The problem's batched operator; ``calls`` records each batch's rows
    and elements, and ``apply`` must not be called."""
    F = product_operator(problem)
    calls = []

    def batch(rows, x):
        calls.append((list(rows), list(x)))
        return F.batch(rows, x)

    def no_apply(*x):
        raise AssertionError("per-tuple apply called although the batch is set")

    return ProductOperator(F.k, no_apply, batch), calls


def sampled_contraction(problem, F, pairs):
    ups = cyclic_shift_upsilon(problem.m)
    return verify_contraction_sampled(
        F, pairs, builtin_log_triple(), dist=sup_metric,
        dist_k=lambda x, z: max_metric(x, z, sup_metric),
        ordered=lambda x, z: product_leq(x, z, ups.partition, pointwise_leq))


def rows_at_the_gather_bound(p):
    """max(k, _BLOCK_ELEMENTS // (k * nq)): the rows whose gathered arguments
    fill _BLOCK_ELEMENTS values.  Row counts around it check that a row's
    bits do not depend on how many rows share its kernel call."""
    return max(p.k, _BLOCK_ELEMENTS // (p.k * p.quadrature.nodes.size))


class TestBatchKernel:
    @pytest.mark.parametrize("quadrature", ["gauss-legendre", "simpson"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_batch_equals_per_tuple_apply_A(self, example22, m, quadrature):
        p = mfold(dataclasses.replace(
            example22, quadrature=RULES[quadrature](2.0, 32, 8)), m)
        F = product_operator(p)
        block = rows_at_the_gather_bound(p)
        rng = np.random.default_rng(200 + m)
        # the larger pool is more than twice a sampled check's block
        for pool in (3 * p.k, 2 * (_BLOCK_ELEMENTS // p.quadrature.nodes.size) + 3):
            x = rough_pool(p, rng, pool)
            for n_rows in (1, block - 1, block, block + 1, 400):
                rows = rng.integers(1, len(x) + 1, size=(n_rows, p.k))
                images = F.batch(rows, x)
                assert len(images) == n_rows
                for row, y in zip(rows, images):
                    assert np.array_equal(y.values, apply_A(p, [x[j - 1] for j in row]).values)

    @pytest.mark.parametrize("pool", ["rough", "images", "mixed"])
    @pytest.mark.parametrize("m", [2, 4])
    def test_shared_terms_equal_per_position_calls(self, example22, m, pool):
        # the m-fold problem shares its callables, and tables drawn from 3
        # columns repeat columns at every R; apply_A's one row has k distinct
        # columns, so its kernel call shares no term.  The components carry
        # node values or not, or some of them do.
        p = mfold(example22, m)
        F, rng = product_operator(p), np.random.default_rng(300 + m)
        rough = rough_pool(p, rng, 3)
        images = list(F.batch(rng.integers(1, 4, size=(3, p.k)), rough))
        x = {"rough": rough, "images": images, "mixed": rough[:2] + images[:2]}[pool]
        for n_rows in (0, 1, rows_at_the_gather_bound(p), 400):
            columns = rng.integers(1, len(x) + 1, size=(n_rows, 3))
            rows = columns[:, rng.integers(0, 3, size=p.k)]
            out = F.batch(rows, x)
            assert len(out) == n_rows
            for row, y in zip(rows, out):
                expected = apply_A(p, [x[j - 1] for j in row])
                assert np.array_equal(y.values, expected.values)
                assert np.array_equal(y.at_nodes, expected.at_nodes)

    def test_each_component_is_transferred_once_and_each_f_j_called_once(
            self, example22, monkeypatch):
        # more components than a sampled check's block, and rows past the
        # gather bound
        base = mfold(example22, 2)
        lengths = []

        def counted(f):
            def g(s, x):
                lengths.append(x.size)
                return f(s, x)
            return g

        p = dataclasses.replace(base, nonlinearities=tuple(map(counted, base.nonlinearities)))
        k, nq = p.k, p.quadrature.nodes.size
        per_apply = _BLOCK_ELEMENTS // nq
        x = rough_pool(p, np.random.default_rng(4), 2 * per_apply + 3)
        n_rows = 3 * rows_at_the_gather_bound(p) + 1
        rows = np.random.default_rng(5).integers(1, len(x) + 1, size=(n_rows, k))
        applied = []
        apply = LinearPlan.apply
        monkeypatch.setattr(
            LinearPlan, "apply", lambda plan, y: applied.append(y.copy()) or apply(plan, y))
        lengths.clear()  # construction probes each piece once
        images = product_operator(p).batch(rows, x)
        assert len(images) == n_rows
        # every component once, in order, in one apply
        assert len(applied) == 1
        assert np.array_equal(applied[0], np.stack([xi.values for xi in x]))
        # one kernel call, calling every f_j once on the R argument rows
        assert lengths == [n_rows * nq] * k

    def test_a_block_stays_within_the_bound_when_n_exceeds_nq(self, monkeypatch):
        # n = 2001 grid values against nq = 16 quadrature nodes: a block of
        # the sampled checks is sized by n
        p = build_log_example(2.0, 2.0, 2000, 2, 8)
        n, k = p.grid.n, p.k
        applied = []
        apply = LinearPlan.apply
        monkeypatch.setattr(
            LinearPlan, "apply", lambda plan, y: applied.append(y.shape) or apply(plan, y))
        # ordered pairs: x <= z on the A component 1, z <= x on the B component 2
        rng = np.random.default_rng(7)
        x = p.domain_floor + rng.uniform(0.0, 3.0, (10, k, n))
        z = x + rng.uniform(0.0, 1.0, (10, k, n))
        x[:, 1::2], z[:, 1::2] = z[:, 1::2], x[:, 1::2].copy()
        pairs = np.stack([x, z], axis=1)
        check_contraction(p, pairs, builtin_log_triple(), 0.0)
        assert sum(rows for rows, _ in applied) == 2 * k * len(pairs)
        assert all(rows * n <= max(_BLOCK_ELEMENTS, 2 * k * n) for rows, _ in applied)

    def test_floor_error_names_the_component_of_x(self, example22):
        p = example22
        k = p.k
        block = rows_at_the_gather_bound(p)
        x = rough_pool(p, np.random.default_rng(6), k * (block + 1))
        values = x[-1].values.copy()
        values[4] = 0.5
        x[-1] = GridFunction(p.grid, values)
        rows = [range(r * k + 1, r * k + k + 1) for r in range(block + 1)]
        with pytest.raises(DomainFloorError) as exc:
            product_operator(p).batch(rows, x)
        assert exc.value.component == len(x)
        assert exc.value.node == p.grid.nodes[4]


def dense_twin(problem):
    """The problem with its kernel as a plain callable, on the dense path."""
    kernel = problem.kernel
    return dataclasses.replace(problem, kernel=lambda t, s: kernel(t, s))


# (alpha, T) -> sweeps from the bracket start, the same at both sizes
SWEEPS = {(2.0, 2.0): 17, (2.0, math.e): 15, (5.0, 10.0): 9, (1.5, 2.0): 20, (3.0, 20.0): 10}
FIVE_CASES = list(SWEEPS)
# the default (n = 200, 32 x 8) and fine-grid (n = 1000, 128 x 8) sizes
SIZES = [(200, 32, 8), (1000, 128, 8)]


class TestSeparableKernel:
    def test_called_it_is_the_dense_kernel(self):
        G = KERNELS["log-product"](2.0, 3.0)
        t, s = np.linspace(1.0, 3.0, 5)[:, None], np.linspace(1.0, 3.0, 7)[None, :]
        assert np.array_equal(G(t, s), G.a(t) * G.b(s))
        assert np.allclose(G(t, s), 1.0 / (2.0 * math.log(3.0) * t * s), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("size", SIZES, ids=["n200", "n1000"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_stores_no_n_by_nq_array(self, kernel, size):
        p = named_problem(2.0, 2.0, *size, kernel=kernel)
        n, nq = p.grid.n, p.quadrature.nodes.size
        a, wb = p._weighted_kernel
        assert a.shape == (n + nq,) and wb.shape == (nq,)
        # a dense kernel's nq x nq block is built at the first operator call,
        # not by kernel_bound
        dense = dense_twin(p)
        assert dense._weighted_kernel.shape == (n, nq)
        kernel_bound(dense)
        assert "_node_block" not in vars(dense)
        apply_A(dense, initial_bracket(dense, 2.0))
        assert dense._node_block.shape == (nq, nq)

    def test_dense_sampled_checks_leave_the_node_block_unbuilt(self):
        # verify's seed-5 draws on the default problem's dense twin: the
        # sampled checks read the grid rows only, and report what the generic
        # checks report through full images (the minimum slack as measured
        # when the array checks still computed the node rows)
        p = build_log_example(2.0, 2.0)
        dense, reference = dense_twin(p), dense_twin(p)
        rng = np.random.default_rng(5)
        pairs = cli._random_ordered_pairs(dense, rng, 200)
        samples, coords = cli._monotone_samples(dense, rng, 50)
        report = check_contraction(dense, pairs, builtin_log_triple(), 1e-8)
        violations = check_mixed_monotone(dense, samples, coords)
        assert "_node_block" not in vars(dense)
        F = product_operator(reference)
        assert report == dataclasses.replace(
            sampled_contraction(reference, F, as_grid_functions(p.grid, pairs)), tol_slack=1e-8)
        assert violations == check_mixed_monotone_sampled(
            F, cyclic_shift_upsilon(1).partition,
            as_grid_functions(p.grid, samples, coords), pointwise_leq) == []
        assert report.min_slack == 0.2218914661679627 and report.rejected_pairs == ()
        assert "_node_block" in vars(reference)

    @pytest.mark.parametrize("size", SIZES, ids=["n200", "n1000"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("alpha, T", FIVE_CASES)
    def test_factored_batch_matches_the_dense_one(self, alpha, T, kernel, size):
        p = named_problem(alpha, T, *size, kernel=kernel)
        dense = dense_twin(p)
        assert abs(kernel_bound(p) - kernel_bound(dense)) <= 1e-15 * kernel_bound(dense)
        k = p.k
        block = rows_at_the_gather_bound(p)
        rng = np.random.default_rng(11)
        x = rough_pool(p, rng, 12)
        rows = rng.integers(1, len(x) + 1, size=(2 * block + 3, k))
        for y, z in zip(product_operator(p).batch(rows, x), product_operator(dense).batch(rows, x)):
            assert np.max(np.abs(y.values - z.values)) <= 1e-14 * np.max(np.abs(z.values))

    @pytest.mark.parametrize("size", SIZES, ids=["n200", "n1000"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_batch_equals_per_tuple_apply_A(self, kernel, size):
        # a row's bits do not depend on how many rows share its kernel call
        p = named_problem(2.0, 2.0, *size, kernel=kernel)
        k = p.k
        block = rows_at_the_gather_bound(p)
        rng = np.random.default_rng(12)
        x = rough_pool(p, rng, 9)
        for n_rows in (1, block - 1, block + 1, 2 * block + 3):
            rows = rng.integers(1, len(x) + 1, size=(n_rows, k))
            for row, y in zip(rows, product_operator(p).batch(rows, x)):
                assert np.array_equal(y.values, apply_A(p, [x[j - 1] for j in row]).values)

    @pytest.mark.parametrize("size", SIZES, ids=["n200", "n1000"])
    @pytest.mark.parametrize("alpha, T", FIVE_CASES)
    def test_sweeps_and_error_are_the_dense_ones(self, alpha, T, size):
        def solved(problem):
            report = solve(product_operator(problem), cyclic_shift_upsilon(1),
                           initial_bracket(problem, alpha), IterationConfig(),
                           dist=sup_metric, leq=pointwise_leq)
            nodes = problem.grid.nodes
            err = max(float(np.max(np.abs(c.values - alpha * nodes))) for c in report.fixed_point)
            return report.iterations, err

        p = named_problem(alpha, T, *size)
        (sweeps, err), (dense_sweeps, dense_err) = solved(p), solved(dense_twin(p))
        assert sweeps == dense_sweeps == SWEEPS[alpha, T]
        assert err <= dense_err + 1e-14

    @pytest.mark.parametrize("alpha, T", FIVE_CASES)
    def test_reaches_the_fixed_point_of_its_dense_twin(self, alpha, T):
        # one discretization: both kernels' images are known at the
        # quadrature nodes, so the two iterations agree to rounding
        p = named_problem(alpha, T)
        reports = [solve(product_operator(q), cyclic_shift_upsilon(1), initial_bracket(q, alpha),
                         IterationConfig(), dist=sup_metric, leq=pointwise_leq)
                   for q in (p, dense_twin(p))]
        for x, y in zip(*(report.fixed_point for report in reports)):
            assert np.abs(x.values - y.values).max() <= 1e-14
            assert np.abs(x.at_nodes - y.at_nodes).max() <= 1e-14

    @pytest.mark.parametrize("a, b, message", [
        (lambda t: -1.0 / t, lambda s: 1.0, "finite and nonnegative"),
        (lambda t: 1.0 / t, lambda s: np.where(s > 1.5, np.nan, 1.0), "finite and nonnegative"),
        (lambda t: np.inf, lambda s: 1.0, "finite and nonnegative"),
        (lambda t: 0.0, lambda s: np.inf, "finite and nonnegative"),
        (lambda t: 1e200, lambda s: 1e200 / s, "finite and nonnegative"),
        (lambda t: np.ones(3), lambda s: 1.0, "kernel must accept node arrays"),
        (lambda t: 1.0, lambda s: np.ones((s.size, 2)), "kernel must accept node arrays"),
    ], ids=["negative", "nan", "infinite", "zero_times_infinite", "product_overflows",
            "a_wrong_shape", "b_wrong_shape"])
    def test_bad_factor_refused(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            _small_problem(kernel=SeparableKernel(a, b))


def curved_dense_problem(n_intervals):
    """A kernel that is not rank one, G(t, s) = 1/(2 ln((1 + T)/2) (t + s))
    on [1, 2] (kernel bound 1), the paper's nonlinearities, and the forcing
    whose solution is the curved x(t) = 1 + sin^2(3t) + t, its integral
    taken with a 64 x 16 rule."""
    T, c = 2.0, 1.0 / (2.0 * math.log(1.5))
    reference = make_quadrature(T, 64, 16)
    fs = (lambda s, x: np.log(s + x), lambda s, x: -(np.log(s) + np.log(x)))
    g = sum(f(reference.nodes, curved(reference.nodes)) for f in fs)

    def forcing(t):
        return curved(t) - (c / (t[:, None] + reference.nodes) * reference.weights * g).sum(axis=1)

    return HammersteinProblem(
        m=1, kernel=lambda t, s: c / (t + s), nonlinearities=fs, forcing=forcing,
        etas=(1.0, 1.0), domain_floor=1.0, grid=uniform_grid(T, n_intervals),
        quadrature=make_quadrature(T, 32, 8))


def curved(t):
    return 1.0 + np.sin(3.0 * t) ** 2 + t


class TestNystrom:
    @pytest.mark.parametrize("n_intervals", [50, 200, 800])
    def test_a_curved_dense_solution_is_as_accurate_on_every_grid(self, n_intervals):
        # the images are read at the quadrature nodes, not interpolated from
        # the grid, so the error is the quadrature's and the iteration's
        p = curved_dense_problem(n_intervals)
        x = curved(p.grid.nodes)
        start = (GridFunction(p.grid, np.maximum(x / 2.0, 1.0)), GridFunction(p.grid, 1.5 * x))
        assert check_assumption_e(p, start).passed
        report = solve(product_operator(p), cyclic_shift_upsilon(1), start, IterationConfig(),
                       dist=sup_metric, leq=pointwise_leq)
        assert max(np.abs(xi.values - x).max() for xi in report.fixed_point) <= 1e-9


def recorded_rows(monkeypatch):
    """The rows of every transfer apply."""
    applied, apply = [], LinearPlan.apply
    monkeypatch.setattr(
        LinearPlan, "apply", lambda plan, y: applied.append(y.shape[0]) or apply(plan, y))
    return applied


class TestCarriedNodeValues:
    @pytest.mark.parametrize("pieces, message", [
        ({"kernel": SeparableKernel(lambda t: np.where(np.isin(t, uniform_grid(2.0, 16).nodes),
                                                       1.0, -1.0), lambda s: 1.0)},
         "kernel must be finite and nonnegative on the grid"),
        ({"kernel": SeparableKernel(lambda t: np.where(np.isin(t, uniform_grid(2.0, 16).nodes),
                                                       1.0, np.inf), lambda s: 1.0)},
         "kernel must be finite and nonnegative on the grid"),
        ({"kernel": SeparableKernel(lambda t: np.where(np.isin(t, uniform_grid(2.0, 16).nodes),
                                                       1.0, np.nan), lambda s: 1.0)},
         "kernel must be finite and nonnegative on the grid"),
        ({"kernel": SeparableKernel(lambda t: 1.0 / t, lambda s: 1.0),
          "forcing": lambda t: np.where(np.isin(t, uniform_grid(2.0, 16).nodes), t, np.nan)},
         "forcing must be finite on the grid"),
    ], ids=["a_negative", "a_infinite", "a_nan", "forcing_nan"])
    def test_bad_value_at_the_quadrature_nodes_refused(self, pieces, message):
        with pytest.raises(ValueError, match=message):
            _small_problem(**pieces)

    def test_a_dense_kernel_reads_the_forcing_at_the_quadrature_nodes(self):
        with pytest.raises(ValueError, match="forcing must be finite on the grid"):
            _small_problem(
                forcing=lambda t: np.where(np.isin(t, uniform_grid(2.0, 16).nodes), t, np.nan))

    def test_a_dense_kernel_at_the_quadrature_nodes_is_checked_at_the_first_call(self):
        # negative only where both arguments are quadrature nodes
        on_grid = uniform_grid(2.0, 16).nodes
        p = _small_problem(kernel=lambda t, s: np.where(np.isin(t, on_grid), 1.0, -1.0) + 0 * s)
        with pytest.raises(OperatorEvaluationError, match="finite and nonnegative") as exc:
            iterate_step(product_operator(p), cyclic_shift_upsilon(1), (linear(p, 2.0),) * 2)
        assert isinstance(exc.value.cause, ValueError)

    @pytest.mark.parametrize("alpha, T", [(2.0, 2.0), (5.0, 10.0), (3.0, 20.0)])
    def test_scalar_of_the_image_of_alpha_t_is_the_closed_form(self, alpha, T):
        # int_1^T (1/s) ln((1 + alpha)/(alpha s)) ds = ln T * ln((1 + alpha)/(alpha sqrt T))
        # the image is c * a: |c - c*| * max a, up to the rounding of c * a
        p = named_problem(alpha, T, 200, 32, 8)
        s = p.quadrature.nodes
        x = p._transfer.apply(np.stack([alpha * p.grid.nodes] * 2))
        g = sum(f(s, xi) for f, xi in zip(p.nonlinearities, x))
        image, a = hs._apply_kernel(p, g[None])[0], p._weighted_kernel[0]
        exact = math.log(T) * math.log((1 + alpha) / (alpha * math.sqrt(T)))
        assert image.shape == a.shape == (p.grid.n + s.size,)
        assert np.abs(image - exact * a).max() <= 5e-16

    def test_images_carry_read_only_node_values(self, example22):
        x = rough_ordered_tuple(example22, np.random.default_rng(13))
        y = iterate_step(product_operator(example22), cyclic_shift_upsilon(1), x)
        n = example22.grid.n
        a, p = example22._weighted_kernel[0][n:], example22._forcing_values[n:]
        for yi in y:
            assert yi.quadrature is example22.quadrature
            assert yi.at_nodes.shape == example22.quadrature.nodes.shape
            with pytest.raises(ValueError, match="read-only"):
                yi.values[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                yi.at_nodes[0] = 0.0
            # c * a + p at both node sets, with one scalar c
            c = (yi.values[0] - example22._forcing_values[0]) / example22._weighted_kernel[0][0]
            assert np.allclose(yi.at_nodes, c * a + p, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("dense", [False, True], ids=["separable", "dense"])
    @pytest.mark.parametrize("alpha, T", FIVE_CASES)
    def test_no_kernel_transfers_after_the_first_sweep(self, alpha, T, dense, monkeypatch):
        p = named_problem(alpha, T)
        p = dense_twin(p) if dense else p
        applied = recorded_rows(monkeypatch)
        report = solve(product_operator(p), cyclic_shift_upsilon(1), initial_bracket(p, alpha),
                       IterationConfig(), dist=sup_metric, leq=pointwise_leq)
        # the first sweep is over the start's two distinct components
        assert report.iterations > 1 and applied == [2]

    def test_an_image_for_another_rule_is_transferred(self, example22, monkeypatch):
        x = rough_ordered_tuple(example22, np.random.default_rng(14))
        y = iterate_step(product_operator(example22), cyclic_shift_upsilon(1), x)
        # an equal rule that is another object, and one of other nodes
        for rule in (make_quadrature(2.0, 32, 8), make_quadrature(2.0, 16, 8)):
            other = dataclasses.replace(example22, quadrature=rule)
            applied = recorded_rows(monkeypatch)
            image = apply_A(other, y)
            plain = apply_A(other, [GridFunction(yi.grid, yi.values) for yi in y])
            assert applied == [2, 2]
            assert np.array_equal(image.values, plain.values)
        applied.clear()
        apply_A(example22, y)
        assert applied == []

    def test_carried_values_below_the_floor_are_refused(self):
        # a = 1 at the grid nodes and 0 between them: each image is 2 on the
        # grid and 0 at the quadrature nodes, below the floor of 1
        on_grid = uniform_grid(2.0, 16).nodes
        p = _small_problem(
            kernel=SeparableKernel(lambda t: np.isin(t, on_grid) * 1.0, lambda s: 1.0),
            nonlinearities=(lambda s, x: 1.0, lambda s, x: 1.0), forcing=lambda t: 0.0)
        F, ups = product_operator(p), cyclic_shift_upsilon(1)
        y = iterate_step(F, ups, (GridFunction(p.grid, np.full(p.grid.n, 2.0)),) * 2)
        assert np.all(y[0].values == 2.0) and np.all(y[0].at_nodes == 0.0)
        with pytest.raises(OperatorEvaluationError) as exc:
            iterate_step(F, ups, y)
        assert isinstance(exc.value.cause, DomainFloorError)
        assert exc.value.component == 1 and exc.value.node == p.quadrature.nodes[0]


class TestNamedProblem:
    @pytest.mark.parametrize("pieces, message", [
        ({"etas": "11"}, "eta must be a list of numbers, got '11'"),
        ({"etas": 1.0}, "eta must be a list of numbers, got 1.0"),
        ({"etas": np.ones(2)}, "eta must be a list of numbers"),
        ({"etas": [True, 1]}, r"eta\[0\] must be a number, got True"),
        ({"etas": (1.0, "1")}, r"eta\[1\] must be a number, got '1'"),
        ({"domain_floor": "1"}, "domain_floor must be a number, got '1'"),
    ], ids=["string", "number", "array", "bool_entry", "string_entry", "string_floor"])
    def test_misread_number_refused_naming_it(self, pieces, message):
        with pytest.raises(ValueError, match=message):
            named_problem(2.0, 2.0, **pieces)

    def test_number_entries_of_any_real_type_read(self):
        p = named_problem(2.0, 2.0, etas=[1, np.float64(0.5)], domain_floor=np.int64(1))
        assert p.etas == (1.0, 0.5) and p.domain_floor == 1.0


class TestBatchedChecks:
    def test_monotone_check_is_one_batch_with_the_per_tuple_verdicts(self, example22):
        p = mfold(example22, 2)
        samples = as_grid_functions(p.grid, *cli._monotone_samples(p, np.random.default_rng(1), 12))
        partition = cyclic_shift_upsilon(2).partition
        F, calls = recorded_operator(p)
        batched = check_mixed_monotone_sampled(F, partition, samples, pointwise_leq)
        assert [len(rows) for rows, _ in calls] == [24]
        per_tuple = ProductOperator(p.k, product_operator(p).apply)
        assert batched == check_mixed_monotone_sampled(
            per_tuple, partition, samples, pointwise_leq)

    def test_monotone_check_failure_has_one_type_on_both_paths(self, example22):
        p = example22
        ok = linear(p, 2.0)
        below = GridFunction(p.grid, np.full(p.grid.n, 0.5))
        # sample 2 substitutes a low value below the floor in coordinate 1;
        # its elements are (below, ok, ok): element 4 of the batch on both paths
        samples = [((ok, ok), 2, ok, linear(p, 3.0)), ((ok, ok), 1, below, ok)]
        partition = cyclic_shift_upsilon(1).partition
        F = product_operator(p)
        for op in (ProductOperator(p.k, F.apply), F):
            with pytest.raises(OperatorEvaluationError) as exc:
                check_mixed_monotone_sampled(op, partition, samples, pointwise_leq)
            assert (exc.value.component, exc.value.node) == (4, p.grid.nodes[0])
            assert isinstance(exc.value.cause, DomainFloorError)

    def test_contraction_check_is_one_batch_of_the_accepted_pairs(self, example22):
        pairs = as_grid_functions(
            example22.grid, cli._random_ordered_pairs(example22, np.random.default_rng(2), 6))
        x, z = pairs[3]
        pairs[3] = (z, x)  # unordered: rejected before any evaluation
        F, calls = recorded_operator(example22)
        report = sampled_contraction(example22, F, pairs)
        assert report.rejected_pairs == (3,)
        [(rows, elements)] = calls
        assert len(rows) == 2 * 5
        assert not any(e is c for e in elements for c in x + z)

    def test_per_tuple_callable_gives_the_batched_report(self, example22):
        # bench/layers.py passes functools.partial(apply_A, problem)
        pairs = as_grid_functions(
            example22.grid, cli._random_ordered_pairs(example22, np.random.default_rng(3), 40))
        per_tuple = sampled_contraction(
            example22, lambda x: apply_A(example22, x), pairs)
        batched = sampled_contraction(example22, product_operator(example22), pairs)
        assert per_tuple == batched
        assert len(batched.slacks) == 40 and batched.passed

    def test_contraction_check_failure_has_one_type_on_both_paths(self):
        p = _small_problem(domain_floor=0.0)
        zero = GridFunction(p.grid, np.zeros(p.grid.n))
        pairs = [((linear(p, 1.0), zero), (linear(p, 2.0), zero))]
        # a non-finite integrand names no argument on either path
        for F in (lambda x: apply_A(p, x), product_operator(p)):
            with pytest.raises(OperatorEvaluationError) as exc:
                sampled_contraction(p, F, pairs)
            assert (exc.value.component, exc.value.node) == (None, None)
            assert isinstance(exc.value.cause, ArithmeticError)


def steep_k4():
    """A k = 4 problem on which the sampled contraction fails."""
    return named_problem(2.0, 2.0, m=2, kernel="constant", forcing="linear",
                         nonlinearities=["log-shift", "neg-log-product"] * 2, etas=[0.25] * 4)


def swapped(pairs, indices):
    """``pairs`` with x and z exchanged at ``indices``: unordered pairs."""
    pairs = pairs.copy()
    pairs[indices] = pairs[indices][:, ::-1]
    return pairs


class TestArrayChecks:
    """The array checks against the generic ones on the same samples, each
    wrapped into grid functions by ``as_grid_functions``."""

    PROBLEMS = {
        "example": lambda: build_log_example(2.0, 2.0),  # a factored kernel, m = 1
        "m=2": lambda: mfold(build_log_example(2.0, 2.0), 2),  # a dense one
        "steep k=4": steep_k4,
        # f_1 decreasing, f_2 increasing: mixed monotonicity fails
        "flipped": lambda: _small_problem(
            nonlinearities=(lambda s, x: -np.log(x), lambda s, x: np.log(s + x))),
        # the same by about 1e-9, far above ORDER_SLACK
        "nearly flipped": lambda: _small_problem(
            nonlinearities=(lambda s, x: -1e-9 * x, lambda s, x: 1e-9 * x)),
        # nq = 4800: one sample a block, so a rejected pair is a block with none accepted
        "one a block": lambda: _small_problem(quadrature=make_quadrature(2.0, 600, 8)),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(PROBLEMS))
    def test_contraction_equals_the_generic_check(self, case, seed):
        p = self.PROBLEMS[case]()
        size = _samples_per_block(p, 2 * p.k)
        pairs = cli._random_ordered_pairs(p, np.random.default_rng(seed), 2 * size + 3)
        # rejected pairs in the first block, on both sides of its end, and in the last
        swaps = sorted({0, size - 1, size, 2 * size + 1})
        pairs = swapped(pairs, swaps)
        # pair 1 leaves the order by 1e-9 in B coordinate 2 (rejected); pair
        # 2 by less than ORDER_SLACK in A coordinate 1 and B coordinate 2
        x, z = pairs[1:3, 0], pairs[1:3, 1]
        z[0, 1, 3] = x[0, 1, 3] + 1e-9
        x[1, 0, 3], z[1, 1, 3] = z[1, 0, 3] + 5e-13, x[1, 1, 3] + 5e-13
        array = check_contraction(p, pairs, builtin_log_triple(), 1e-12)
        generic = sampled_contraction(p, product_operator(p), as_grid_functions(p.grid, pairs))
        assert array == generic
        assert array.rejected_pairs == tuple(sorted({1, *swaps}))
        assert len(array.slacks) == len(pairs) - len(array.rejected_pairs)
        assert all(type(v) is float for v in array.slacks)
        assert (array.min_slack < 0) == (case == "steep k=4")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(PROBLEMS))
    def test_mixed_monotone_equals_the_generic_check(self, case, seed):
        p = self.PROBLEMS[case]()
        size = _samples_per_block(p, p.k + 1)
        samples, coords = cli._monotone_samples(p, np.random.default_rng(seed), 2 * size + 3)
        array = check_mixed_monotone(p, samples, coords)
        generic = check_mixed_monotone_sampled(
            product_operator(p), cyclic_shift_upsilon(p.m).partition,
            as_grid_functions(p.grid, samples, coords), pointwise_leq)
        assert array == generic
        assert all(type(i) is int and type(j) is int for i, j in array)
        assert ("flipped" in case) == bool(array)
        assert "flipped" not in case or any(i >= size for i, _ in array)
        # every sample violates when no nonlinearity is monotone the right way
        assert case != "nearly flipped" or len(array) == len(samples)

    @pytest.mark.parametrize("case", ["flipped", "steep k=4"])
    def test_the_a_block_is_read_without_building_upsilon(self, monkeypatch, case):
        # the array checks read the cyclic shift's A block off the parity
        # mask, as check D does, and never build its k sigma rows
        def no_upsilon(m):
            raise AssertionError("an array check built the cyclic shift")

        p = self.PROBLEMS[case]()
        rng = np.random.default_rng(4)
        pairs = swapped(cli._random_ordered_pairs(p, rng, 6), [1, 4])
        samples, coords = cli._monotone_samples(p, rng, 6)
        F, partition = product_operator(p), cyclic_shift_upsilon(p.m).partition
        monkeypatch.setattr(hs, "cyclic_shift_upsilon", no_upsilon)
        array = check_contraction(p, pairs, builtin_log_triple(), 1e-12)
        assert array == sampled_contraction(p, F, as_grid_functions(p.grid, pairs))
        assert array.rejected_pairs == (1, 4)
        assert check_mixed_monotone(p, samples, coords) == check_mixed_monotone_sampled(
            F, partition, as_grid_functions(p.grid, samples, coords), pointwise_leq)

    @pytest.mark.parametrize("fault", ["floor", "non-finite"])
    def test_failure_in_a_later_block_names_the_generic_component(self, fault):
        p = mfold(_small_problem(domain_floor=0.0), 2)
        k, n = p.k, p.grid.n
        if fault == "floor":
            bad = np.ones(n)
            bad[4] = -0.5
            cause, node = DomainFloorError, p.grid.nodes[4]
        else:  # zero is on the floor, where -log(x) is infinite
            bad, cause, node = np.zeros(n), ArithmeticError, None
        # the samples are raised by 1 above the floor of 0, so that the bad
        # element is the only one that fails; it is coordinate 2 (B) of pair
        # target's z, which keeps the pair ordered, and two earlier pairs are
        # rejected, so it is element 2k * (target - 2) + k + 2 of the accepted
        size = _samples_per_block(p, 2 * k)
        target = size + 2
        pairs = swapped(cli._random_ordered_pairs(p, np.random.default_rng(3), 2 * size) + 1.0,
                        [1, size])
        pairs[target, 1, 1] = bad
        size_m = _samples_per_block(p, k + 1)
        samples, coords = cli._monotone_samples(p, np.random.default_rng(4), 2 * size_m)
        samples += 1.0
        samples[size_m + 1, 1] = bad
        partition = cyclic_shift_upsilon(p.m).partition
        runs = [
            (lambda: check_contraction(p, pairs, builtin_log_triple(), 1e-12),
             lambda: sampled_contraction(p, product_operator(p), as_grid_functions(p.grid, pairs)),
             2 * k * (target - 2) + k + 2),
            (lambda: check_mixed_monotone(p, samples, coords),
             lambda: check_mixed_monotone_sampled(product_operator(p), partition,
                                                  as_grid_functions(p.grid, samples, coords),
                                                  pointwise_leq),
             (k + 1) * (size_m + 1) + 2),
        ]
        for array, generic, component in runs:
            records = []
            for run in (array, generic):
                with pytest.raises(OperatorEvaluationError) as exc:
                    run()
                assert type(exc.value.cause) is cause
                records.append((exc.value.component, exc.value.node))
            assert records[0] == records[1] == (component if fault == "floor" else None, node)

    def test_a_non_finite_image_fails_on_both_paths(self):
        # the forcing is finite, the forcing plus the integral overflows
        p = _small_problem(kernel=lambda t, s: 1e306, forcing=lambda t: 1.79e308)
        pairs = cli._random_ordered_pairs(p, np.random.default_rng(0), 3)
        samples, coords = cli._monotone_samples(p, np.random.default_rng(0), 3)
        partition = cyclic_shift_upsilon(p.m).partition
        for run in (lambda: check_contraction(p, pairs, builtin_log_triple(), 1e-12),
                    lambda: sampled_contraction(p, product_operator(p),
                                                as_grid_functions(p.grid, pairs)),
                    lambda: check_mixed_monotone(p, samples, coords),
                    lambda: check_mixed_monotone_sampled(
                        product_operator(p), partition,
                        as_grid_functions(p.grid, samples, coords), pointwise_leq)):
            # the overflow is reported as the operator error, with no warning
            with warnings.catch_warnings(), pytest.raises(
                    OperatorEvaluationError, match="grid function values must be finite") as exc:
                warnings.simplefilter("error")
                run()
            assert (exc.value.component, exc.value.node) == (None, None)

    @pytest.mark.parametrize("shape, coords", [
        ((3, 4, 17), [1, 2, 1]),  # k + 2 rows a sample
        ((3, 3, 16), [1, 2, 1]),  # off the grid
        ((3, 3, 17), [1, 2]),     # a coordinate missing
        ((3, 3, 17), [1, 0, 1]),
        ((3, 3, 17), [1, 3, 1]),
    ], ids=["rows", "grid", "count", "zero", "above_k"])
    def test_malformed_samples_refused(self, shape, coords):
        p = _small_problem()
        with pytest.raises(ValueError, match="samples must have shape"):
            check_mixed_monotone(p, np.full(shape, 2.0), coords)

    @pytest.mark.parametrize("shape", [(3, 2, 3, 17), (3, 2, 2, 16), (3, 3, 2, 17)])
    def test_malformed_pairs_refused(self, shape):
        with pytest.raises(ValueError, match="pairs must have shape"):
            check_contraction(_small_problem(), np.full(shape, 2.0), builtin_log_triple(), 1e-12)


class TestOperatorFailureContract:
    """One failing element gives one (component, node) on the per-tuple and
    the batched path of every evaluation user, and on the array path of the
    sampled checks: the element's 1-based index in the user's batch and the
    failing node, or neither when the cause names none."""

    @staticmethod
    def evaluate(user, p, op, bad):
        """Run ``user`` with ``bad`` in coordinate 2 of one of its tuples: a
        sampled check's input is built as its stacked array and run by the
        array check when ``op`` is None, else wrapped for the generic one."""
        ok = np.stack([p.grid.nodes + i for i in range(p.k)])
        ups = cyclic_shift_upsilon(p.m)
        with_bad = ok.copy()
        with_bad[1] = bad
        if user == "iterate_step":
            iterate_step(op, ups, as_grid_functions(p.grid, with_bad))
        elif user == "check_mixed_monotone_sampled":
            high = 9.0 * p.grid.nodes
            samples, coords = np.stack([np.vstack([ok, high]), np.vstack([with_bad, high])]), [2, 1]
            if op is None:
                check_mixed_monotone(p, samples, coords)
            else:
                check_mixed_monotone_sampled(
                    op, ups.partition, as_grid_functions(p.grid, samples, coords), pointwise_leq)
        else:
            pairs = np.stack([[ok, ok], [ok, with_bad]])
            if op is None:
                check_contraction(p, pairs, builtin_log_triple(), 1e-12)
            else:
                sampled_contraction(p, op, as_grid_functions(p.grid, pairs))

    @pytest.mark.parametrize("fault", ["floor", "non-finite"])
    @pytest.mark.parametrize("user, index", [
        ("iterate_step", 2),
        # k = 4: sample 1 takes elements 1..5, sample 2's point 6..9
        ("check_mixed_monotone_sampled", 7),
        # k = 4: pair 1 takes elements 1..8, pair 2's x 9..12 and its z 13..16
        ("verify_contraction_sampled", 14),
    ])
    def test_one_failure_one_record_on_both_paths(self, user, index, fault):
        p = mfold(_small_problem(domain_floor=0.0), 2)
        if fault == "floor":
            values = np.ones(p.grid.n)
            values[4] = -0.5
            cause, expected = DomainFloorError, (index, p.grid.nodes[4])
        else:  # zero is on the floor, where -log(x) is infinite
            values = np.zeros(p.grid.n)
            cause, expected = ArithmeticError, (None, None)
        F = product_operator(p)
        ops = [ProductOperator(p.k, F.apply), F] + ([None] if user != "iterate_step" else [])
        for op in ops:
            with pytest.raises(OperatorEvaluationError) as exc:
                self.evaluate(user, p, op, values)
            assert (exc.value.component, exc.value.node) == expected
            assert type(exc.value.cause) is cause


def looped_assumption_d(problem, value_pairs, s_samples, slack=1e-12):
    """The violations of assumption D found one point at a time, in the
    order pair, s, nonlinearity: the reference for the array check."""
    violations = []
    for x, y in value_pairs:
        band = math.log1p(y - x)
        for s in s_samples:
            for i, fi in enumerate(problem.nonlinearities, start=1):
                with np.errstate(all="ignore"):
                    diff = fi(s, y) - fi(s, x)
                eta = problem.etas[i - 1]
                lo, hi = (0.0, eta * band) if i % 2 == 1 else (-eta * band, 0.0)
                if not math.isfinite(diff):
                    violations.append((i, s, x, y, math.inf))
                elif diff < lo - slack or diff > hi + slack:
                    violations.append((i, s, x, y, max(lo - diff, diff - hi)))
    return violations


class TestAssumptionD:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("case", ["example", "m=2", "negative floor", "steep"])
    def test_matches_the_looped_reference(self, example22, case, seed):
        problem = {
            "example": example22,
            "m=2": mfold(example22, 2),
            "negative floor": _small_problem(domain_floor=-5.0),
            "steep": _small_problem(nonlinearities=(lambda s, x: 2.0 * x,
                                                    lambda s, x: -np.sqrt(x))),
        }[case]
        rng = np.random.default_rng(seed)
        lows = problem.domain_floor + rng.uniform(0.0, 6.0, 12)
        highs = lows + rng.uniform(0.0, 4.0, 12) * rng.integers(0, 2, 12)
        pairs = [(float(x), float(y)) for x, y in zip(lows, highs)]
        pairs.append((problem.domain_floor, problem.domain_floor))
        s_samples = [float(s) for s in rng.uniform(1.0, problem.T, 5)] + [1.0, problem.T]
        report = check_assumption_d(problem, pairs, s_samples)
        expected = looped_assumption_d(problem, pairs, s_samples)
        assert list(report.violations) == expected
        if case in ("negative floor", "steep"):
            assert expected
        for v in report.violations:
            assert all(type(c) in (int, float) for c in v)

    def test_array_only_nonlinearity(self):
        # x.clip exists on arrays and numpy scalars, not on Python floats,
        # so only a check that honours the array contract can evaluate it
        fs = (lambda s, x: np.log(s + x.clip(1.0)), lambda s, x: -np.log(x.clip(1.0)))
        p = _small_problem(nonlinearities=fs)
        pairs, s_samples = [(1.0, 1.0), (1.0, 2.5), (2.0, 7.0)], [1.0, 1.5, 2.0]
        with pytest.raises(AttributeError):
            looped_assumption_d(p, pairs, s_samples)
        report = check_assumption_d(p, pairs, s_samples)
        assert report.violations == ()
        scalars = [(np.float64(x), np.float64(y)) for x, y in pairs]
        assert looped_assumption_d(p, scalars, [np.float64(s) for s in s_samples]) == []

    def test_example_passes(self, example22):
        pairs = [(1.0, 1.0), (1.0, 1.5), (2.0, 5.0), (1.25, 10.0)]
        report = check_assumption_d(example22, pairs, [1.0, 1.5, 2.0])
        assert report.passed
        assert report.eta_ok
        assert report.kernel_bound == pytest.approx(1.0, abs=1e-10)

    def test_equal_pair_in_band(self, example22):
        report = check_assumption_d(example22, [(2.0, 2.0)], [1.0, 2.0])
        assert report.passed

    def test_steep_odd_nonlinearity_fails(self):
        p = HammersteinProblem(
            m=1, kernel=lambda t, s: 0.1,
            nonlinearities=(lambda s, x: 2.0 * x, lambda s, x: -x / 100.0),
            forcing=lambda t: 0.0, etas=(1.0, 1.0), domain_floor=0.0,
            grid=uniform_grid(2.0, 16),
            quadrature=make_quadrature(2.0, 4, 4),
        )
        report = check_assumption_d(p, [(0.0, 1.0)], [1.5])
        # f(s, x) = 2x jumps by 2 > log 2 over the unit pair
        assert any(v[0] == 1 for v in report.violations)

    def test_non_finite_increment_is_a_violation(self):
        # ln(s + x) and -ln(x) are undefined at x = -5: NaN increments fail
        p = _small_problem(domain_floor=-5.0)
        report = check_assumption_d(p, [(-5.0, -5.0), (-5.0, -4.5), (1.0, 2.0)], [1.0])
        assert not report.passed
        assert [v[0] for v in report.violations] == [1, 2, 1, 2]
        assert all(v[4] == math.inf for v in report.violations)

    def test_unordered_pair_is_structural(self, example22):
        with pytest.raises(ValueError):
            check_assumption_d(example22, [(3.0, 2.0)], [1.0])

    @pytest.mark.parametrize("s", [0.5, 2.5, math.nan])
    def test_s_sample_outside_1_to_T_is_structural(self, example22, s):
        with pytest.raises(ValueError, match=r"outside \[1, T\]"):
            check_assumption_d(example22, [(2.0, 3.0)], [1.0, s])


class TestAssumptionE:
    def test_example_bracket_passes(self, example22):
        report = check_assumption_e(example22, initial_bracket(example22, 2.0))
        assert report.passed

    def test_exact_solution_self_consistent(self, example22):
        x = linear(example22, 2.0)
        report = check_assumption_e(example22, (x, x))
        for h in report.h_functions:
            assert sup_metric(h, x) < 1e-9

    def test_library_default_gives_the_cli_verdict(self):
        # with zero nonlinearities H_r is the forcing 2t exactly, so the
        # lower start 2t + 5e-11 sits above H_1 by a margin in (1e-12, 1e-10]
        zero = lambda s, x: 0.0  # noqa: E731
        p = _small_problem(nonlinearities=(zero, zero), forcing=lambda t: 2.0 * t)
        h = 2.0 * p.grid.nodes
        y0 = (GridFunction(p.grid, h + 5e-11), GridFunction(p.grid, h + 1.0))
        margin = y0[0].values - h
        assert 1e-12 < margin.min() and margin.max() <= 1e-10
        report = check_assumption_e(p, y0)
        assert report.failures == tuple((1, j) for j in range(p.grid.n))
        assert cli._run_checks(p, y0)["assumption_e_failures"] == [list(f) for f in report.failures]

    def test_too_high_lower_start_fails(self, example22):
        y1 = linear(example22, 4.0)   # 2*alpha*t sits above H1
        _, y2 = initial_bracket(example22, 2.0)
        report = check_assumption_e(example22, (y1, y2))
        assert any(r == 1 for r, _ in report.failures)

    def test_matches_problem_rebuilt_per_r(self, example22):
        # references: the first Jacobi sweep from y0 evaluated row by row
        # (apply_A at each permuted tuple), and H_r as apply_A of a problem
        # rebuilt with the nonlinearities of the printed pairs,
        # sorted by nonlinearity index so both sum f_1..f_k in order
        for m in (1, 2, 3, 4):
            p = mfold(example22, m)
            lower, upper = initial_bracket(p, 2.0)
            y0 = (lower, upper) + tuple(linear(p, 0.5 + i) for i in range(1, p.k - 1))
            report = check_assumption_e(p, y0)
            ups = cyclic_shift_upsilon(m)
            for r, h in enumerate(report.h_functions, start=1):
                assert np.array_equal(h.values, apply_A(p, ups.permute(r, y0)).values)
                pairs = sorted(printed_h_pairs(r, p.k))
                rebuilt = dataclasses.replace(
                    p, nonlinearities=tuple(p.nonlinearities[fi - 1] for fi, _ in pairs))
                expected = apply_A(rebuilt, tuple(y0[yi - 1] for _, yi in pairs))
                assert np.array_equal(h.values, expected.values)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_index_scheme_matches_cyclic_rotation(self, m):
        # the printed two-sum scheme stays in 1..2m and is exactly the
        # cyclic rotation of component indices against the nonlinearity list
        ups = cyclic_shift_upsilon(m)
        for r in range(1, 2 * m + 1):
            printed = sorted(printed_h_pairs(r, 2 * m))
            assert all(1 <= i <= 2 * m and 1 <= j <= 2 * m for i, j in printed)
            rotated = sorted((i, ups.sigmas[r - 1][i - 1]) for i in range(1, 2 * m + 1))
            assert printed == rotated


MFOLD_SWEEPS = Path(__file__).parent / "data" / "mfold_sweeps.json"


def bracket_start(problem, alpha):
    lower, upper = initial_bracket(problem, alpha)
    return tuple(lower if i % 2 == 0 else upper for i in range(problem.k))


def solve_bits(problem, alpha, upsilon):
    """A bracket solve's histories as float.hex and a sha256 of its fixed
    point's values, component after component."""
    report = solve(product_operator(problem), upsilon, bracket_start(problem, alpha),
                   IterationConfig(), dist=sup_metric, leq=pointwise_leq)
    digest = hashlib.sha256()
    for component in report.fixed_point:
        digest.update(np.ascontiguousarray(component.values).tobytes())
    err = float(np.max(np.abs(report.fixed_point[0].values - alpha * problem.grid.nodes)))
    return {"step_history": [v.hex() for v in report.step_history],
            "spread_history": [v.hex() for v in report.spread_history],
            "fixed_point_sha256": digest.hexdigest()}, err


class TestSweepCaches:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_mfold_sweeps_are_pinned(self, example22, m):
        # the dense m-fold solves from the bracket at alpha = 2, T = 2, bit
        # for bit as recorded before sweeps were planned once per pattern
        bits, _ = solve_bits(mfold(example22, m), 2.0, cyclic_shift_upsilon(m))
        assert bits == json.loads(MFOLD_SWEEPS.read_text())[str(m)]

    def test_problems_built_and_dropped_in_turn_solve_as_fresh_ones(self):
        # each problem keeps its kernel-call layouts and each UpsilonTuple its
        # sweep plans.  Problems at other (alpha, T) and quadratures are
        # built, solved and dropped one after another, so that their ids are
        # reused, on one UpsilonTuple per m: each solve gives the bits of the
        # first solve of its case, near alpha * t
        cases = [(2.0, 2.0, 1, RULES["gauss-legendre"], 32, 8),
                 (5.0, 10.0, 1, RULES["gauss-legendre"], 32, 8),  # other nodes, as many
                 (3.0, math.e, 1, RULES["simpson"], 24, 8),
                 (1.5, 2.0, 2, RULES["gauss-legendre"], 16, 4),
                 (2.0, 2.0, 2, RULES["simpson"], 32, 8)]
        bases = [mfold(dataclasses.replace(build_log_example(alpha, T),
                                           quadrature=rule(T, panels, points)), m)
                 for alpha, T, m, rule, panels, points in cases]
        upsilons = {m: cyclic_shift_upsilon(m) for m in (1, 2)}

        def run(i):
            problem = dataclasses.replace(bases[i])  # a new instance, no cache
            bits, err = solve_bits(problem, cases[i][0], upsilons[problem.m])
            assert err <= 1e-6, cases[i]
            del problem
            gc.collect()
            return bits

        first = [run(i) for i in range(len(cases))]
        for order in ([4, 3, 2, 1, 0], [1, 0, 2, 1, 0, 2, 4, 3, 4], [0, 2, 1, 3, 0, 4, 2]) * 3:
            assert [run(i) for i in order] == [first[i] for i in order]

    @pytest.mark.parametrize("batched", [True, False])
    def test_one_upsilon_over_three_patterns_gives_the_uncached_images(self, example22, batched):
        # a bracket start, an all-distinct start and the collapsed tuple, each
        # swept twice on one UpsilonTuple, so the second sweep reads the
        # cached plan: images and the failing component are those of
        # _images planned afresh
        p = mfold(example22, 2)
        F = product_operator(p) if batched else ProductOperator(p.k, product_operator(p).apply)
        ups = cyclic_shift_upsilon(2)
        solution = GridFunction(p.grid, 2.0 * p.grid.nodes)
        values = np.array(solution.values)
        values[4] = 0.5
        bad = GridFunction(p.grid, values)
        starts = [bracket_start(p, 2.0), rough_ordered_tuple(p, np.random.default_rng(4)),
                  (solution,) * p.k]
        for _ in range(2):
            for x in starts:
                y, fresh = iterate_step(F, ups, x), engine._images(F, ups.sigmas, x)
                assert all(np.array_equal(a.values, b.values) for a, b in zip(y, fresh))
                assert engine._pattern(y) == engine._pattern(fresh)
                # every occurrence of x's last element fails: the pattern is kept
                last = x[-1]
                failing = tuple(bad if xi is last else xi for xi in x)
                with pytest.raises(OperatorEvaluationError) as cached:
                    iterate_step(F, ups, failing)
                with pytest.raises(OperatorEvaluationError) as uncached:
                    engine._images(F, ups.sigmas, failing)
                assert cached.value.component == uncached.value.component \
                    == [xi is last for xi in x].index(True) + 1
        assert len(ups._plans) == 3


class TestClosedForms:
    def test_values_at_one(self):
        h1, h2 = closed_H_formulas(2.0, 2.0, 1.0)
        assert h2 == pytest.approx(2.0 + 0.5 * math.log(8.0 / 3.0), abs=1e-14)
        assert h1 == pytest.approx(2.0 + 0.5 * math.log(4.0 / 9.0), abs=1e-14)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0, 11.0])
    def test_ordering(self, alpha):
        for t in np.linspace(1.0, 2.0, 21):
            h1, h2 = closed_H_formulas(alpha, 2.0, t)
            assert h1 < alpha * t < h2

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_H_formulas(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            closed_H_formulas(2.0, 2.0, 3.0)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("T", [2.0, math.e])
    def test_agrees_with_direct_quadrature(self, alpha, T):
        # evaluate the bracket-image integrals by quadrature, independently
        # of the operator pipeline (the integrands simplify in closed form
        # only after the s-integral; here we integrate them raw)
        rule = make_quadrature(T, 32, 8)
        two_lnT = 2.0 * math.log(T)
        p = lambda t: alpha * t - math.log((1 + alpha) / (alpha * math.sqrt(T))) / (2 * t)  # noqa: E731
        for t in np.linspace(1.0, T, 7):
            g = 1.0 / (two_lnT * t * rule.nodes)
            sum1 = np.log((2.0 + alpha) / (3.0 * alpha * rule.nodes))
            sum2 = np.log((2.0 + 3.0 * alpha) / (alpha * rule.nodes))
            h1_quad = integrate(rule, g * sum1) + p(t)
            h2_quad = integrate(rule, g * sum2) + p(t)
            h1, h2 = closed_H_formulas(alpha, T, t)
            assert h1_quad == pytest.approx(h1, abs=1e-10)
            assert h2_quad == pytest.approx(h2, abs=1e-10)


class TestExpInequality:
    def test_boundary(self):
        # e - 2.5 > 0 at the boundary alpha = 1
        assert math.exp(1.0) - 2.5 > 0
        assert check_exp_inequality(1.0)

    def test_alpha_two(self):
        assert math.exp(2.0) - 8.0 / 3.0 == pytest.approx(4.722389, abs=1e-6)
        assert check_exp_inequality(2.0)

    def test_margin_increases(self):
        k = lambda a: math.exp(a) - (2 + 3 * a) / (1 + a)  # noqa: E731
        assert k(1.5) > k(1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            check_exp_inequality(0.0)


class TestInitialBracket:
    def test_alpha_two_unclamped(self, example22):
        lo, hi = initial_bracket(example22, 2.0)
        assert np.array_equal(lo.values, example22.grid.nodes)
        assert np.array_equal(hi.values, 3.0 * example22.grid.nodes)

    def test_small_alpha_clamped_to_floor(self, caplog):
        p = build_log_example(1.5, 2.0)
        with caplog.at_level("WARNING"):
            lo, _ = initial_bracket(p, 1.5)
        assert lo.values[0] == p.domain_floor
        assert np.all(lo.values >= p.domain_floor)


class TestOperatorProperties:
    def test_contraction_on_random_ordered_pairs(self, example22):
        rng = np.random.default_rng(7)
        n = example22.grid.n
        for _ in range(50):
            a1 = rng.uniform(1.0, 9.0, n)
            z1 = a1 + rng.uniform(0.0, 1.0, n)
            z2 = rng.uniform(1.0, 9.0, n)
            x2 = z2 + rng.uniform(0.0, 1.0, n)
            x = (GridFunction(example22.grid, a1), GridFunction(example22.grid, x2))
            z = (GridFunction(example22.grid, z1), GridFunction(example22.grid, z2))
            dk = max(sup_metric(x[0], z[0]), sup_metric(x[1], z[1]))
            lhs = sup_metric(apply_A(example22, x), apply_A(example22, z))
            assert lhs <= math.log1p(dk) + 1e-10

    def test_mixed_monotone_single_coordinate(self, example22):
        base = (linear(example22, 2.0), linear(example22, 2.0))
        bumped = GridFunction(example22.grid, base[0].values + 1.0)
        up_odd = apply_A(example22, (bumped, base[1]))
        up_even = apply_A(example22, (base[0], bumped))
        ref = apply_A(example22, base)
        assert np.all(up_odd.values >= ref.values - 1e-12)
        assert np.all(up_even.values <= ref.values + 1e-12)
