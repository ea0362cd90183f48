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


def node_values_of(problem, c):
    """The (1, nq) quadrature-node values of the rank-one image of
    coefficient c, fl(fl(c * a) + p), as a batch forms them."""
    n = problem.grid.n
    return np.array([[c]]) * problem._weighted_kernel[0][n:] + problem._forcing_values[n:]


def clears_the_floor(problem, y):
    """Whether image y lies above the floor at the grid and the quadrature
    nodes, as a batch checks a component."""
    try:
        hs._check_floor(y.values[None], problem.grid.nodes, problem.domain_floor)
        hs._check_floor(y.at_nodes[None], problem.quadrature.nodes, problem.domain_floor)
    except hs.DomainFloorError:
        return False
    return True


def first_floor_failure(problem, x):
    """(component, node) of the first component below the floor when every
    component is checked at the grid nodes and then at the quadrature
    nodes, each in order, as a batch checked them before it skipped the
    components at or above floor_safe; None when all clear it."""
    for values, nodes in ((np.array([xi.values for xi in x]), problem.grid.nodes),
                          (np.array([xi.at_nodes for xi in x]), problem.quadrature.nodes)):
        bad = values < problem.domain_floor - ORDER_SLACK
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            return i + 1, float(nodes[np.argmax(bad[i])])
    return None


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
        # images above the floor at both node sets, whose floor_safe is the
        # least coefficient among them, pass unformed and with no floor
        # check, and a batch over them gives what it gives over the same
        # images formed and checked
        above = [y for y in images_of(problem, seed) if clears_the_floor(problem, y)]
        if not above:
            return
        safe = min(y.coefficient for y in above)
        rows = np.random.default_rng(seed).integers(1, len(above) + 1, size=(3, problem.k))
        batch = product_operator(problem).prepare(rows)
        outcomes, checks, check_floor = [], [], hs._check_floor
        for x in ([hs._Image(problem.grid, problem.quadrature, y.at_nodes, family=y.family,
                             coefficient=y.coefficient, floor_safe=safe) for y in above],
                  [hs._Image(problem.grid, problem.quadrature, y.at_nodes, y.values)
                   for y in above]):
            checks.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hs, "_check_floor", lambda *args: checks.append(1)
                              or check_floor(*args))
                outcomes.append([(y.values, y.at_nodes) for y in batch(x)])
            if len(outcomes) == 1:
                assert all("values" not in vars(xi) for xi in x)
                assert checks == []
        for (values, at_nodes), (want_values, want_at_nodes) in zip(*outcomes):
            assert np.array_equal(values, want_values)
            assert np.array_equal(at_nodes, want_at_nodes)

    @PROPERTY
    @given(problems, st.integers(0, 2 ** 16), st.integers(0, 4))
    def test_an_image_above_the_safe_coefficient_clears_the_floor_at_the_nodes(
            self, problem, seed, ulps):
        # a floor that a batch's image just clears, at its least value over
        # both node sets, so that its coefficient is a floor_safe: an image
        # whose coefficient is 0 to 4 ulps above it lies above that image
        # at every quadrature node, so it passes the node check it skips
        for ref in images_of(problem, seed)[:6]:  # the batch's own images
            assert node_values_of(problem, ref.coefficient).tobytes() == ref.at_nodes.tobytes()
            floor = min(float(ref.values.min()), float(ref.at_nodes.min()))
            c = ref.coefficient
            for _ in range(ulps):
                c = math.nextafter(c, math.inf)
            at_nodes = node_values_of(problem, c)
            assert (at_nodes >= ref.at_nodes).all()
            hs._check_floor(at_nodes, problem.quadrature.nodes, floor)

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
        # one row reading one component of 2.0 at every node
        index, *layout = hs._layout(problem, [(1, 1)])
        args = np.full((len(index), problem.quadrature.nodes.size), 2.0)
        outcomes = []
        for coefficients in (False, True):
            try:
                hs._integrals(problem, args, *layout, coefficients=coefficients)
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


def test_a_bracket_solve_checks_the_floor_at_the_nodes_in_one_sweep(monkeypatch):
    # the first sweep transfers the start and checks it at the grid nodes;
    # the second reads images whose floor_safe is not yet known and checks
    # them at both node sets; every later sweep reads images at or above
    # floor_safe and makes no floor reduction at either
    check_floor, node_values = hs._check_floor, hs._node_values
    for alpha, p in ((2.0, hs.build_log_example(2.0, 2.0)),
                     (5.0, hs.build_log_example(5.0, 10.0, 1000, 128))):
        sweeps = []
        monkeypatch.setattr(hs, "_check_floor", lambda values, nodes, *args: sweeps[-1].append(
            "grid" if nodes is p.grid.nodes else "nodes") or check_floor(values, nodes, *args))
        monkeypatch.setattr(hs, "_node_values", lambda problem, x: sweeps.append([])
                            or node_values(problem, x))
        report = solve(product_operator(p), cyclic_shift_upsilon(1), initial_bracket(p, alpha),
                       IterationConfig(), dist=image_metric, leq=image_leq)
        assert report.converged and len(sweeps) == report.iterations > 3
        assert sweeps[:2] == [["grid"], ["grid", "nodes"]]
        assert all(checks == [] for checks in sweeps[2:])


@pytest.mark.parametrize("where", ["grid", "nodes"])
@pytest.mark.parametrize("bad_first", [False, True])
def test_a_component_below_floor_safe_names_the_first_failure(where, bad_first):
    # the image of coefficient c is 2t + (c / ln 2 - C) / (2t), whose least
    # value lies between grid nodes; a floor between its least grid value
    # and its least quadrature-node value fails it at a node only, a floor
    # above both at a grid node.  Next to it an image above the floor at
    # floor_safe, which the batch skips: the record is still the one of
    # checking every component at the grid nodes, then at the quadrature
    # nodes
    base = hs.build_log_example(2.0, 2.0)
    c = next(c for c in np.linspace(3.0, 9.0, 601).tolist()
             if node_values_of(base, c).min() < hs._RankOne(
                 base._weighted_kernel[0][:base.grid.n],
                 base._forcing_values[:base.grid.n]).grid(c).min() - 1e-9)
    grid_min = float(base._rank_one.grid(c).min())
    nodes_min = float(node_values_of(base, c).min())
    floor = (grid_min + nodes_min) / 2 if where == "nodes" else grid_min + 1e-6
    p = hs.named_problem(2.0, 2.0, domain_floor=floor)
    family, safe = p._rank_one, 2.0 * c
    assert clears_the_floor(p, hs._Image(p.grid, p.quadrature, node_values_of(p, safe)[0],
                                         family=family, coefficient=safe))
    x = [hs._Image(p.grid, p.quadrature, node_values_of(p, coefficient)[0], family=family,
                   coefficient=coefficient, floor_safe=safe)
         for coefficient in (c, 3.0 * c)]
    if bad_first is False:
        x.reverse()
    expected = first_floor_failure(p, x)
    assert expected is not None and expected[0] == (1 if bad_first else 2)
    assert (expected[1] in p.grid.nodes) == (where == "grid")
    with pytest.raises(hs.DomainFloorError) as exc:
        product_operator(p).prepare([(1, 2), (2, 1)])(x)
    assert (exc.value.component, exc.value.node) == expected
