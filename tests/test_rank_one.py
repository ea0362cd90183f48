"""Rank-one images: a SeparableKernel problem's image is its coefficient c
over the problem's (a, p), and its grid values fl(fl(c * a) + p) are formed
only where they are read.  The properties check each shortcut against the
grid computation it stands for, on registry problems drawn at m = 1 and 2
and random (alpha, T); the last checks the sampled monotonicity check on
constant samples, for these problems and their dense twins."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedfp import hammerstein as hs
from mixedfp.engine import IterationConfig, check_mixed_monotone_sampled, solve
from mixedfp.funcspace import ORDER_SLACK, GridFunction, pointwise_leq, sup_metric, uniform_grid
from mixedfp.hammerstein import (
    SeparableKernel,
    check_mixed_monotone,
    image_leq,
    image_metric,
    initial_bracket,
    named_problem,
    product_operator,
)
from mixedfp.order import cyclic_shift_upsilon
from worked_example import as_grid_functions, monotone_samples

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)

problems = st.builds(
    lambda alpha, T, m, kernel, forcing, n: named_problem(
        alpha, T, n, 4, 4, m=m, kernel=kernel, forcing=forcing,
        nonlinearities=("log-shift", "neg-log-product") * m, etas=(1.0,) * (2 * m)),
    alpha=st.floats(1.01, 10.0), T=st.floats(1.1, 20.0), m=st.sampled_from([1, 2]),
    kernel=st.sampled_from(sorted(hs.KERNELS)), forcing=st.sampled_from(sorted(hs.FORCINGS)),
    n=st.integers(8, 40))


def images_of(problem, seed, count=6):
    """``count`` images of ``problem`` at rough tuples above its floor, and
    siblings of the first a few ulps apart from it."""
    rng = np.random.default_rng(seed)
    x = [GridFunction(problem.grid, problem.domain_floor + rng.uniform(0.0, 9.0, problem.grid.n))
         for _ in range(3)]
    rows = rng.integers(1, len(x) + 1, size=(count, problem.k))
    images = list(product_operator(problem).prepare(rows)(x))
    first = images[0]
    for ulps in (-3, -1, 1, 2):
        c = first.coefficient + ulps * math.ulp(first.coefficient)
        images.append(hs._Image(problem.grid, problem.quadrature, first.at_nodes,
                                family=first.family, coefficient=c))
    return images


def pairs_of(images):
    return [(u, v) for u in images for v in images if u is not v]


class TestShortcuts:
    @PROPERTY
    @given(problems, st.integers(0, 2 ** 16))
    def test_the_coefficient_order_is_the_grid_order(self, problem, seed):
        for u, v in pairs_of(images_of(problem, seed)):
            assert image_leq(u, v) == pointwise_leq(u, v)
            if u.coefficient <= v.coefficient:
                assert (u.values <= v.values).all()

    @PROPERTY
    @given(problems, st.integers(0, 2 ** 16))
    def test_the_floor_test_admits_only_what_the_grid_check_admits(self, problem, seed):
        # a floor that the reference image just clears: an image whose
        # coefficient is at least the reference's clears it too
        nodes = problem.grid.nodes
        for ref, u in pairs_of(images_of(problem, seed)):
            floor = float(ref.values.min()) + ORDER_SLACK
            try:
                hs._check_floor(ref.values[None], nodes, floor)
            except hs.DomainFloorError:
                continue
            if u.coefficient >= ref.coefficient:
                hs._check_floor(u.values[None], nodes, floor)

    @PROPERTY
    @given(problems, st.integers(0, 2 ** 16))
    def test_a_batch_forms_no_grid_value_above_the_safe_coefficient(self, problem, seed):
        # images above the floor, whose floor_safe is the least coefficient
        # among them, pass the grid floor check unformed, and a batch over
        # them gives what it gives over the same images formed and checked
        nodes, floor = problem.grid.nodes, problem.domain_floor
        above = []
        for y in images_of(problem, seed):
            try:
                hs._check_floor(y.values[None], nodes, floor)
                above.append(y)
            except hs.DomainFloorError:
                pass
        if not above:
            return
        safe = min(y.coefficient for y in above)
        rows = np.random.default_rng(seed).integers(1, len(above) + 1, size=(3, problem.k))
        batch = product_operator(problem).prepare(rows)
        outcomes = []
        for x in ([hs._Image(problem.grid, problem.quadrature, y.at_nodes, family=y.family,
                             coefficient=y.coefficient, floor_safe=safe) for y in above],
                  [hs._Image(problem.grid, problem.quadrature, y.at_nodes, y.values)
                   for y in above]):
            try:
                outcomes.append([(y.values, y.at_nodes) for y in batch(x)])
            except hs.DomainFloorError as exc:  # below the floor at a quadrature node
                outcomes.append((exc.component, exc.node))
            if len(outcomes) == 1:
                assert all("values" not in vars(xi) for xi in x)
        if isinstance(outcomes[0], tuple):
            assert outcomes[0] == outcomes[1]
        else:
            for (values, at_nodes), (want_values, want_at_nodes) in zip(*outcomes):
                assert np.array_equal(values, want_values)
                assert np.array_equal(at_nodes, want_at_nodes)

    @PROPERTY
    @given(problems, st.integers(0, 2 ** 16))
    def test_step_and_spread_are_the_grid_sup_to_a_few_ulps(self, problem, seed):
        for u, v in pairs_of(images_of(problem, seed)):
            top = max(np.abs(u.values).max(), np.abs(v.values).max())
            assert abs(image_metric(u, v) - sup_metric(u, v)) <= 4 * np.spacing(top)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(a=st.floats(1e306, 1.7e308), integral=st.floats(0.5, 2.0),
           p=st.floats(-1.79e308, 1.79e308))
    def test_an_image_that_would_overflow_takes_the_exact_path(self, a, integral, p):
        # grid values fl(fl(c * a) + p) with c = integral near 1 and a near
        # the overflow threshold: the coefficient path raises exactly when
        # the images formed at both node sets are not finite
        grid = uniform_grid(2.0, 16)
        problem = hs.HammersteinProblem(
            m=1, kernel=SeparableKernel(lambda t: np.where(np.isin(t, grid.nodes), a, 1.0),
                                        lambda s: 1.0),
            nonlinearities=(lambda s, x: integral, lambda s, x: 0.0), forcing=lambda t: p,
            etas=(1.0, 1.0), domain_floor=1.0, grid=grid,
            quadrature=hs.make_quadrature(2.0, 2, 4))
        layout = hs._layout(problem, [(1, 1)])
        values = np.full((1, grid.n), 2.0)
        outcomes = []
        for coefficients in (False, True):
            try:
                hs._integrals(problem, layout, values, coefficients=coefficients)
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] in (None, "grid function values must be finite")

    @pytest.mark.parametrize("broken", [False, True])
    @PROPERTY
    @given(problem=problems, seed=st.integers(0, 2 ** 16))
    def test_mixed_monotone_verdicts_are_the_grid_verdicts(self, broken, problem, seed):
        # broken: odd and even nonlinearities swapped, so that samples
        # violate and the grid fallback runs; then and only then grid rows
        # are formed
        if broken:
            problem = dataclasses.replace(problem, nonlinearities=problem.nonlinearities[::-1])
        points, coords = monotone_samples(problem, np.random.default_rng(seed), 7)
        formed, grid = [], hs._RankOne.grid
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hs._RankOne, "grid", lambda f, c: formed.append(1) or grid(f, c))
            verdicts = check_mixed_monotone(problem, points, coords)
        reference = check_mixed_monotone_sampled(
            product_operator(problem), cyclic_shift_upsilon(problem.m).partition,
            as_grid_functions(problem.grid, points, coords), pointwise_leq)
        assert verdicts == reference
        assert bool(formed) == bool(verdicts) == broken


@st.composite
def constant_samples(draw):
    """A registry problem or its dense twin, its nonlinearities swapped or
    not, and 1 to 8 constant samples: each constant on the floor or up to 4
    above it, and ``high`` raised by 0.1 to 3 or by 1 to 4 ulps."""
    problem = draw(problems)
    if draw(st.booleans()):
        kernel = problem.kernel
        problem = dataclasses.replace(problem, kernel=lambda t, s: kernel(t, s))
    if draw(st.booleans()):
        problem = dataclasses.replace(problem, nonlinearities=problem.nonlinearities[::-1])
    k, count = problem.k, draw(st.integers(1, 8))
    offsets = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 4.0)), min_size=k, max_size=k)
    points = problem.domain_floor + np.array(draw(st.lists(offsets, min_size=count,
                                                           max_size=count)))
    coords = np.array(draw(st.lists(st.integers(1, k), min_size=count, max_size=count)))
    high = points[np.arange(count), coords - 1]
    for i in range(count):
        ulps = draw(st.one_of(st.integers(1, 4), st.floats(0.1, 3.0)))
        if isinstance(ulps, int):
            for _ in range(ulps):
                high[i] = np.nextafter(high[i], np.inf)
        else:
            high[i] += ulps
    return problem, np.column_stack([points, high]), coords


@settings(derandomize=True, max_examples=250, deadline=None)  # about 1.5 s, a third violating
@given(constant_samples())
def test_constant_samples_get_the_verdicts_of_constant_grid_functions(case):
    # the generic check on constant grid functions, transferred to the
    # nodes, is the reference for the check that reads the constants as
    # they are
    problem, points, coords = case
    reference = check_mixed_monotone_sampled(
        product_operator(problem), cyclic_shift_upsilon(problem.m).partition,
        as_grid_functions(problem.grid, points, coords), pointwise_leq)
    assert check_mixed_monotone(problem, points, coords) == reference


def test_a_rank_one_solve_forms_its_grid_values_a_fixed_number_of_times(monkeypatch):
    # the start's two images, compared with the start, whatever the sweep count
    p = hs.build_log_example(2.0, 2.0, 16383)
    formed, grid = [], hs._RankOne.grid
    monkeypatch.setattr(hs._RankOne, "grid", lambda f, c: formed.append(np.shape(c)) or grid(f, c))
    counts = []
    for tol in (1e-4, 1e-12):
        formed.clear()
        report = solve(product_operator(p), cyclic_shift_upsilon(1), initial_bracket(p, 2.0),
                       IterationConfig(tol_step=tol), dist=image_metric, leq=image_leq)
        counts.append((report.iterations, len(formed)))
    (few, first), (many, second) = counts
    assert few < many and first == second == 2
