import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedfp.funcspace import (
    Grid,
    GridFunction,
    LinearPlan,
    QuadratureRule,
    _gauss_legendre,
    format_csv,
    integrate,
    interpolate,
    load_csv,
    make_quadrature,
    pointwise_leq,
    sup_metric,
    uniform_grid,
)
from worked_example import RULES

LN2 = 0.6931471805599453


@pytest.fixture
def grid12():
    return uniform_grid(2.0, 64)


class TestGrid:
    def test_uniform_endpoints(self):
        g = uniform_grid(3.0, 10)
        assert g.nodes[0] == 1.0 and g.nodes[-1] == 3.0

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            uniform_grid(2.0, 4)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            Grid(2.0, np.array([1.0] * 10 + [2.0]))

    def test_t_must_exceed_one(self):
        with pytest.raises(ValueError):
            uniform_grid(1.0, 10)

    def test_nodes_inside_the_interval_accepted(self):
        # a grid need not touch 1 or T; a HammersteinProblem's grid must
        grid = Grid(3.0, np.linspace(1.5, 2.5, 9))
        assert grid.n == 9 and grid.T == 3.0

    @pytest.mark.parametrize("nodes", [
        np.linspace(0.5, 2.0, 9),
        np.linspace(1.0, 2.5, 9),
        [1.0, math.nan, *np.linspace(1.2, 2.0, 8)],
    ], ids=["below_1", "above_T", "nan"])
    def test_nodes_outside_the_interval_rejected(self, nodes):
        with pytest.raises(ValueError):
            Grid(2.0, nodes)

    @pytest.mark.parametrize("shape", [(64,), (66,), (1, 65)])
    def test_grid_function_of_the_wrong_shape_rejected(self, grid12, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected 65 values, got shape {shape}")):
            GridFunction(grid12, np.ones(shape))


class TestSupMetric:
    def test_identity(self, grid12):
        u = grid12.sample(lambda t: t * t)
        assert sup_metric(u, u) == 0.0

    def test_linear_pair(self, grid12):
        u = grid12.sample(lambda t: t)
        v = grid12.sample(lambda t: 2 * t)
        assert sup_metric(u, v) == pytest.approx(2.0, abs=1e-15)

    def test_grid_mismatch(self, grid12):
        u = grid12.sample(lambda t: t)
        v = uniform_grid(2.0, 32).sample(lambda t: t)
        with pytest.raises(ValueError):
            sup_metric(u, v)

    @given(st.integers(0, 1000))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        g = uniform_grid(2.0, 16)
        u, v, w = (GridFunction(g, rng.uniform(-5, 5, g.n)) for _ in range(3))
        assert sup_metric(u, v) == sup_metric(v, u) >= 0.0
        assert sup_metric(u, w) <= sup_metric(u, v) + sup_metric(v, w) + 1e-12
        assert sup_metric(u, u) == 0.0


class TestPointwiseLeq:
    def test_reflexive_exact(self, grid12):
        u = grid12.sample(lambda t: t)
        assert pointwise_leq(u, u, tol=0.0)

    def test_strict_failure(self, grid12):
        u = grid12.sample(lambda t: t)
        v = grid12.sample(lambda t: t - 1.0)
        assert not pointwise_leq(u, v, tol=0.0)
        assert pointwise_leq(v, u, tol=0.0)

    def test_antisymmetric_at_zero_tol(self, grid12):
        u = grid12.sample(lambda t: math.sin(t))
        v = grid12.sample(lambda t: math.sin(t))
        assert pointwise_leq(u, v) and pointwise_leq(v, u)
        assert np.array_equal(u.values, v.values)

    def test_tol_slack(self, grid12):
        u = grid12.sample(lambda t: t + 1e-12)
        v = grid12.sample(lambda t: t)
        assert not pointwise_leq(u, v, tol=0.0)
        assert pointwise_leq(u, v, tol=1e-10)


class TestQuadrature:
    def test_weight_sum_is_length(self):
        rule = make_quadrature(3.5, 8, 4)
        assert float(np.sum(rule.weights)) == pytest.approx(2.5, rel=1e-13)

    def test_constant(self):
        rule = make_quadrature(4.0, 8, 8)
        assert integrate(rule, np.ones(rule.nodes.size)) == pytest.approx(3.0, abs=1e-12)

    def test_log_integrand(self):
        rule = make_quadrature(2.0, 8, 8)
        assert integrate(rule, 1.0 / rule.nodes) == pytest.approx(LN2, abs=1e-10)

    def test_inverse_square(self):
        rule = make_quadrature(2.0, 8, 8)
        assert integrate(rule, rule.nodes**-2.0) == pytest.approx(0.5, abs=1e-10)

    def test_one_over_s_on_1_e(self):
        rule = make_quadrature(math.e, 8, 8)
        assert integrate(rule, 1.0 / rule.nodes) == pytest.approx(1.0, abs=1e-10)

    def test_gauss_polynomial_exactness(self):
        # 4 points per panel integrate degree-7 polynomials exactly
        rule = make_quadrature(2.0, 1, 4)
        exact = (2.0**8 - 1.0) / 8.0
        assert integrate(rule, rule.nodes**7) == pytest.approx(exact, rel=1e-14)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            make_quadrature(2.0, 4, 1)
        with pytest.raises(ValueError):
            make_quadrature(2.0, 4, 17)
        with pytest.raises(ValueError):
            make_quadrature(2.0, 0, 4)

    def test_integrand_length_mismatch(self):
        rule = make_quadrature(2.0, 4, 4)
        with pytest.raises(ValueError):
            integrate(rule, np.ones(3))

    def test_zero_integrand(self):
        rule = make_quadrature(2.0, 4, 4)
        assert integrate(rule, np.zeros(rule.nodes.size)) == 0.0

    @pytest.mark.parametrize("nodes, weights, message", [
        ([1.25, 1.75], [1.0], "nodes/weights length mismatch"),
        ([1.25, 1.75], [1.5, -0.5], "weights must be positive"),
        ([1.25, 1.75], [1.0, 0.0], "weights must be positive"),
    ], ids=["length", "negative", "zero"])
    def test_malformed_rule_rejected(self, nodes, weights, message):
        with pytest.raises(ValueError, match=message):
            QuadratureRule(np.array(nodes), np.array(weights), 2.0)

    @pytest.mark.parametrize("T", [1.0, 0.5, math.nan])
    def test_make_quadrature_refuses_T_not_above_1(self, T):
        with pytest.raises(ValueError, match="T must exceed 1"):
            make_quadrature(T, 4, 4)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([1.5]), np.array([0.5]), 2.0)

    def test_gauss_nodes_do_not_overflow(self):
        rule = make_quadrature(1e308, 32, 8)
        assert np.isfinite(rule.nodes).all()
        assert rule.nodes.min() >= 1.0 and rule.nodes.max() <= 1e308

    @pytest.mark.parametrize("T", [1.5, 2.0, math.e, 10.0, 20.0])
    def test_gauss_nodes_equal_the_a_plus_b_midpoint_form(self, T):
        # every base rule size, each from a fresh leggauss call, bit for bit
        edges = np.linspace(1.0, T, 33)
        for points in range(2, 17):
            xi, wi = np.polynomial.legendre.leggauss(points)
            old = np.concatenate([(b - a) / 2.0 * xi + (a + b) / 2.0
                                  for a, b in zip(edges[:-1], edges[1:])])
            weights = np.concatenate([(b - a) / 2.0 * wi
                                      for a, b in zip(edges[:-1], edges[1:])])
            rule = make_quadrature(T, 32, points)
            assert np.array_equal(rule.nodes, old), points
            assert np.array_equal(rule.weights, weights), points

    @pytest.mark.parametrize("points", [2, 8, 16])
    def test_cached_base_rule_is_read_only(self, points):
        make_quadrature(2.0, 4, points)
        xi, wi = _gauss_legendre(points)
        assert _gauss_legendre(points)[0] is xi
        for array in (xi, wi):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert np.array_equal(xi, np.polynomial.legendre.leggauss(points)[0])

    def test_integral_float_points_refused_whatever_the_cache_holds(self):
        make_quadrature(2.0, 4, 8)
        with pytest.raises(TypeError):
            make_quadrature(2.0, 4, 8.0)

    def test_nodes_outside_the_interval_rejected(self):
        with pytest.raises(ValueError, match=r"quadrature nodes must lie in \[1, T\]"):
            QuadratureRule(np.array([0.5, 1.5]), np.array([0.5, 0.5]), 2.0)


class TestInterpolate:
    def test_exact_at_nodes(self, grid12):
        u = grid12.sample(lambda t: math.sin(3 * t))
        for j in (0, 17, 64):
            assert interpolate(u, float(grid12.nodes[j])) == u.values[j]

    def test_reproduces_linear(self, grid12):
        u = grid12.sample(lambda t: 3 * t - 1)
        for t in (1.0, 1.111, 1.5, 1.987, 2.0):
            assert interpolate(u, t) == pytest.approx(3 * t - 1, abs=1e-12)

    def test_out_of_domain(self, grid12):
        u = grid12.sample(lambda t: t)
        with pytest.raises(ValueError):
            interpolate(u, 2.5)

    def test_monotone_data_monotone_interpolant(self, grid12):
        u = grid12.sample(lambda t: math.atan(5 * (t - 1.5)))
        ts = np.linspace(1.0, 2.0, 997)
        vals = interpolate(u, ts)
        assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("kind,points", [("gauss-legendre", 8), ("simpson", 4)])
    def test_stacked_equals_each_component(self, grid12, kind, points):
        # Simpson nodes land exactly on grid nodes, where stored values win
        fns = [grid12.sample(f) for f in (math.sin, math.exp, lambda t: t * t, math.sqrt)]
        s = RULES[kind](2.0, 16, points).nodes
        stacked = LinearPlan(grid12, s).apply(np.stack([u.values for u in fns]))
        assert stacked.shape == (len(fns), s.size)
        for j, u in enumerate(fns):
            assert np.array_equal(stacked[j], interpolate(u, s))
        if kind == "simpson":
            on_node = np.searchsorted(grid12.nodes, s)
            assert np.array_equal(grid12.nodes[on_node], s)
            assert np.array_equal(stacked, np.stack([u.values[on_node] for u in fns]))

    def test_stacked_scalar_point(self, grid12):
        fns = [grid12.sample(lambda t: t), grid12.sample(lambda t: 2 * t)]
        stacked = LinearPlan(grid12, 1.5).apply(np.stack([u.values for u in fns]))
        assert stacked[:, 0].tolist() == [interpolate(fns[0], 1.5), 3.0]

    def test_stacked_out_of_domain(self, grid12):
        with pytest.raises(ValueError):
            LinearPlan(grid12, np.array([1.5, 2.5]))


def _column(rng, kind, n):
    if kind == "monotone":
        return np.cumsum(rng.uniform(0.0, 2.0, n))
    if kind == "flat-runs":
        return np.repeat(rng.integers(-3, 4, n // 3 + 1).astype(float), 3)[:n]
    return rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n)  # sign changes


# (T, n_intervals, panels, points): the default config and 2000 x 8
# quadrature nodes on 8 intervals
TRANSFER_SHAPES = [(2.0, 200, 32, 8), (2.0, 8, 2000, 8)]


def _rough_pairs(seed, T, n_intervals, panels, points, k):
    """A plan from a grid to its quadrature nodes, then its grid nodes and T,
    and k rough rows u with k rows v >= u: equal, a tiny or a large gap, at
    random nodes."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(T, n_intervals)
    t = np.concatenate([make_quadrature(T, panels, points).nodes, grid.nodes, [T]])
    u = np.stack([_column(rng, kind, grid.n)
                  for kind in rng.choice(["monotone", "flat-runs", "sign-changes"], size=k)])
    gap = rng.choice([0.0, 1e-300, 1e-12, 1.0], size=u.shape) * rng.uniform(0.0, 2.0, u.shape)
    return grid, t, LinearPlan(grid, t), u, u + gap


class TestLinearTransfer:
    @pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=["default", "wide_quadrature"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_keeps_order_exactly(self, shape, seed, k):
        # u <= v at the nodes gives Lu <= Lv at every point, with no slack
        _, _, plan, u, v = _rough_pairs(seed, *shape, k)
        assert (u <= v).all()
        assert (plan.apply(u) <= plan.apply(v)).all()

    @pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=["default", "wide_quadrature"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_does_not_stretch_sup_distances(self, shape, seed, k):
        # |Lu - Lv| <= max |u - v| up to the rounding of two products and a sum
        _, _, plan, u, v = _rough_pairs(seed, *shape, k)
        v = v - 2.0 * (v - u) * (np.arange(u.shape[1]) % 3 == 0)  # unordered too
        d = np.abs(u - v).max(axis=1, keepdims=True)
        rounding = 4 * np.finfo(float).eps * np.maximum(np.abs(u), np.abs(v)).max(
            axis=1, keepdims=True)
        assert (np.abs(plan.apply(u) - plan.apply(v)) <= d + rounding).all()

    @pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=["default", "wide_quadrature"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_exact_at_node_hits_and_at_T(self, shape, seed, k):
        grid, t, plan, u, _ = _rough_pairs(seed, *shape, k)
        out = plan.apply(u)
        assert np.array_equal(out[:, -grid.n - 1:-1], u)
        assert np.array_equal(out[:, -1], u[:, -1])

    @pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=["default", "wide_quadrature"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_equals_the_fancy_index_formula(self, shape, seed, k):
        # the gathers by take are the fancy-index formula's arithmetic, bit
        # for bit, at the quadrature nodes, the grid nodes (1 among them) and T
        grid, t, plan, u, _ = _rough_pairs(seed, *shape, k)
        x = grid.nodes
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        theta = (t - x[idx]) / (x[idx + 1] - x[idx])
        assert np.array_equal(plan.apply(u), (1.0 - theta) * u[:, idx] + theta * u[:, idx + 1])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["uniform", "loaded"]),
        st.sampled_from(["gauss-legendre", "simpson", "random"]),
        st.integers(1, 8),
    )
    def test_stays_between_the_node_values_of_each_interval(self, seed, grid_kind, rule, k):
        # the invariant that makes a floor check of transferred values
        # redundant: every value lies between its interval's two node
        # values, up to rounding
        rng = np.random.default_rng(seed)
        T = float(rng.uniform(1.5, 12.0))
        n_intervals = int(rng.integers(8, 200))
        if grid_kind == "uniform":
            grid = uniform_grid(T, n_intervals)
        else:
            inner = np.unique(rng.uniform(1.0, T, n_intervals - 1))
            grid = Grid(T, np.concatenate([[1.0], inner, [T]]))
        if rule == "random":
            t = rng.uniform(1.0, T, int(rng.integers(1, 400)))
        else:
            t = RULES[rule](T, int(rng.integers(1, 40)), 2 * int(rng.integers(1, 9))).nodes
        kinds = rng.choice(["monotone", "flat-runs", "sign-changes"], size=k)
        y = np.stack([_column(rng, kind, grid.n) for kind in kinds])
        out = LinearPlan(grid, t).apply(y)
        x = grid.nodes
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        lo = np.minimum(y[:, idx], y[:, idx + 1])
        hi = np.maximum(y[:, idx], y[:, idx + 1])
        slack = 16 * np.finfo(float).eps * np.abs(y).max(axis=1, keepdims=True)
        assert (out >= lo - slack).all() and (out <= hi + slack).all()


class TestCsv:
    def test_round_trip(self, tmp_path, grid12):
        u = grid12.sample(lambda t: math.exp(t) / 3.0)
        path = tmp_path / "u.csv"
        path.write_text(format_csv(u))
        v = load_csv(path)
        assert np.array_equal(u.values, v.values)
        assert np.array_equal(u.grid.nodes, v.grid.nodes)

    @pytest.mark.parametrize("text", ["t,value\n1,2,3\n2,3,4\n", "t,value\n1.0,2.0\n"],
                             ids=["three_columns", "one_row"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "u.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected two columns t,value"):
            load_csv(path)

    def test_header(self, grid12):
        u = grid12.sample(lambda t: t)
        assert format_csv(u).splitlines()[0] == "t,value"

    @pytest.mark.parametrize("n", [9, 16384])
    def test_equals_the_per_row_format(self, n):
        """The one-pass format writes the bytes of the per-row f-string,
        over magnitudes 1e-308..1e308 of either sign, -0.0 and subnormals."""
        rng = np.random.default_rng(n)
        nodes = np.sort(rng.uniform(1.0, 1e300, n))
        nodes[0] = 1.0
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-308.0, 308.0, n)
        values[:4] = [-0.0, 0.0, 5e-324, -2.2250738585072e-310]
        u = GridFunction(Grid(float(nodes[-1]), nodes), values)
        reference = "t,value\n" + "".join(f"{t:.17g},{v:.17g}\n"
                                          for t, v in zip(u.grid.nodes, u.values))
        assert format_csv(u) == reference
        assert format_csv(u).count("\n") == n + 1
