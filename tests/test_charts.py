"""Charts, metric fields, Christoffel symbols, geodesics, pushforwards."""
import dataclasses

import numpy as np
import pytest

from geq.charts import (
    FD_STEP,
    Chart,
    ChartMap,
    MetricField,
    PhasePoint,
    _eval_with_fd_partials,
    _spray,
    christoffel,
    fd_partials,
    integrate_geodesic,
    integrate_geodesics,
    metric_at,
    pushforward_metric,
)
from geq.errors import (
    DegenerateJacobian,
    NotPositiveDefinite,
    OutOfChart,
    SchemaError,
)
from geq.verify import standard_pair


def constant_field(chart: Chart, matrix: np.ndarray) -> MetricField:
    matrix = np.asarray(matrix, dtype=float)

    def eval_fn(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(matrix, x.shape[:-1] + matrix.shape).copy()

    return MetricField(chart=chart, eval=eval_fn)


def flat_field(dim: int = 2, half: float = 2.0) -> MetricField:
    chart = Chart(dim, tuple((-half, half) for _ in range(dim)))
    return constant_field(chart, np.eye(dim))


def sphere_field(phi_hi: float = 7.0) -> MetricField:
    """Round 2-sphere in colatitude/longitude coordinates."""
    chart = Chart(2, ((0.2, np.pi - 0.2), (-1.0, phi_hi)))

    def eval_fn(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(x[..., 0]) ** 2
        return g

    return MetricField(chart=chart, eval=eval_fn)


class TestChart:
    def test_contains_is_batched(self):
        chart = Chart(2, ((0.0, 1.0), (0.0, 2.0)))
        pts = np.array([[0.5, 1.0], [1.5, 1.0], [0.5, -0.1]])
        assert chart.contains(pts).tolist() == [True, False, False]

    def test_margin_shrinks_the_box(self):
        chart = Chart(1, ((0.0, 1.0),))
        assert chart.contains(np.array([0.005]))
        assert not chart.contains(np.array([0.005]), margin=0.01)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Chart(1, ((1.0, 1.0),))

    def test_grid_shape(self):
        chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
        assert chart.grid(4).shape == (16, 2)

    def test_sample_respects_shrink(self):
        chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
        pts = chart.sample(np.random.default_rng(0), 500, shrink=0.6)
        assert np.all(pts >= 0.2 - 1e-12) and np.all(pts <= 0.8 + 1e-12)


class TestMetricAt:
    def test_flat_identity(self):
        field = flat_field()
        got = metric_at(field, np.array([0.3, -0.1]))
        assert np.array_equal(got, np.eye(2))

    def test_output_exactly_symmetric(self):
        chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
        asym = constant_field(chart, np.array([[2.0, 0.3], [0.1, 1.0]]))
        got = metric_at(asym, np.zeros(2))
        assert np.array_equal(got, got.T)
        assert got[0, 1] == pytest.approx(0.2)

    def test_out_of_chart(self):
        with pytest.raises(OutOfChart):
            metric_at(flat_field(), np.array([5.0, 0.0]))

    def test_not_positive_definite(self):
        chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
        bad = constant_field(chart, np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            metric_at(bad, np.zeros(2))


def coupled_field() -> MetricField:
    """A 3-D metric with off-diagonal coupling, unequal box widths and a kink
    in ``g_22`` along ``x_2 = 0.1``; evaluated entry by entry, so a stacked
    batch gives the same bits as separate calls."""
    chart = Chart(3, ((-1.0, 1.0), (-2.0, 3.0), (-0.5, 0.5)))

    def eval_fn(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., 0, 0] = 2.0 + np.sin(x[..., 0]) * x[..., 1] ** 2 / 10.0
        g[..., 1, 1] = 3.0 + np.exp(0.2 * x[..., 0] * x[..., 2])
        g[..., 2, 2] = 4.0 + np.abs(x[..., 2] - 0.1)
        g[..., 0, 1] = g[..., 1, 0] = 0.3 * x[..., 0] * x[..., 2]
        g[..., 1, 2] = g[..., 2, 1] = 0.2 * np.cos(x[..., 1])
        return g

    return MetricField(chart=chart, eval=eval_fn)


def reference_fd_partials(field: MetricField, x: np.ndarray) -> np.ndarray:
    """One axis at a time: full- and half-step central differences, with
    the Richardson combination where they disagree."""
    n = field.chart.dim
    h = FD_STEP * field.chart.widths
    out = np.empty(x.shape[:-1] + (n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h[k]
        d_full = (field.eval(x + e) - field.eval(x - e)) / (2.0 * h[k])
        d_half = (field.eval(x + 0.5 * e) - field.eval(x - 0.5 * e)) / h[k]
        mismatch = np.abs(d_full - d_half) > 1e-4 * np.maximum(1.0, np.abs(d_half))
        out[..., k, :, :] = np.where(mismatch, (4.0 * d_half - d_full) / 3.0, d_half)
    return out


def points_across_the_kink(field: MetricField, shape: tuple, seed: int) -> np.ndarray:
    """Interior points of :func:`coupled_field`, the first one close enough
    to the kink that its full-step stencil straddles it."""
    pts = field.chart.sample(np.random.default_rng(seed), int(np.prod(shape)), shrink=0.8)
    pts[0, 2] = 0.1 + 0.75 * FD_STEP * field.chart.widths[2]
    return pts.reshape(shape + (3,))


class TestPartialsAndChristoffel:
    def test_fd_matches_analytic(self):
        chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))

        def eval_fn(x):
            x = np.asarray(x, dtype=float)
            g = np.zeros(x.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0 + x[..., 0] ** 2
            g[..., 1, 1] = 2.0 + np.sin(x[..., 1])
            return g

        def partials_fn(x):
            x = np.asarray(x, dtype=float)
            d = np.zeros(x.shape[:-1] + (2, 2, 2))
            d[..., 0, 0, 0] = 2.0 * x[..., 0]
            d[..., 1, 1, 1] = np.cos(x[..., 1])
            return d

        field = MetricField(chart=chart, eval=eval_fn, jet=lambda x: (eval_fn(x), partials_fn(x)))
        pts = chart.sample(np.random.default_rng(1), 20, shrink=0.8)
        fd = fd_partials(field, pts)
        exact = partials_fn(pts)
        assert np.max(np.abs(fd - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))

    @pytest.mark.parametrize("shape", [(12,), (3, 4)])
    def test_fd_matches_a_per_axis_loop(self, shape):
        field = coupled_field()
        pts = points_across_the_kink(field, shape, seed=6)
        got = fd_partials(field, pts)
        assert got.shape == shape + (3, 3, 3)
        assert np.array_equal(got, reference_fd_partials(field, pts))

    def test_richardson_fallback_at_a_kink(self):
        field = coupled_field()
        h = FD_STEP * field.chart.widths[2]
        # The full-step stencil straddles the kink, the half-step one does not.
        x = np.array([[0.3, 0.4, 0.1 + 0.75 * h], [0.3, 0.4, 0.3]])
        e = np.array([0.0, 0.0, h])
        d_full = (field.eval(x + e) - field.eval(x - e))[:, 2, 2] / (2.0 * h)
        d_half = (field.eval(x + 0.5 * e) - field.eval(x - 0.5 * e))[:, 2, 2] / h
        got = fd_partials(field, x)[:, 2, 2, 2]
        assert got[0] == (4.0 * d_half[0] - d_full[0]) / 3.0
        assert got[0] == pytest.approx(13.0 / 12.0)
        assert got[1] == d_half[1]

    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    def test_christoffel_evaluates_once_per_batch(self, shape):
        base = coupled_field()
        seen = []

        def counted(x):
            seen.append(np.shape(x))
            return base.eval(x)

        field = MetricField(chart=base.chart, eval=counted)
        pts = points_across_the_kink(base, shape, seed=8)
        gamma = christoffel(field, pts)
        assert seen == [(13,) + shape + (3,)]
        # The same symbols from separate evaluations of the metric and its
        # per-axis differences, handed in as a jet.
        separate = MetricField(chart=base.chart, eval=base.eval,
                               jet=lambda x: (base.eval(x), reference_fd_partials(base, x)))
        assert np.array_equal(gamma, christoffel(separate, pts))

    def test_flat_christoffel_zero(self):
        got = christoffel(flat_field(), np.array([0.1, 0.2]))
        assert np.array_equal(got, np.zeros((2, 2, 2)))

    def test_sphere_christoffel_value(self):
        field = sphere_field()
        theta = np.pi / 3
        gamma = christoffel(field, np.array([theta, 0.5]))
        assert gamma[0, 1, 1] == pytest.approx(-np.sin(theta) * np.cos(theta), abs=1e-8)
        assert gamma[0, 1, 1] == pytest.approx(-0.4330127, abs=1e-6)
        assert gamma[1, 0, 1] == pytest.approx(np.cos(theta) / np.sin(theta), abs=1e-8)

    def test_christoffel_symmetric_in_lower_indices(self):
        field = sphere_field()
        pts = field.chart.sample(np.random.default_rng(2), 10, shrink=0.8)
        gamma = christoffel(field, pts)
        assert np.allclose(gamma, np.swapaxes(gamma, -1, -2), atol=1e-12)


def contracted(field: MetricField, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``Gamma^k_ij v^i v^j`` from the full symbols of :func:`christoffel`."""
    return np.einsum("bkij,bi,bj->bk", christoffel(field, x), v, v)


def assert_rows_close(got: np.ndarray, ref: np.ndarray, rel: float = 1e-12) -> None:
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.all(np.abs(got - ref) <= rel * scale)


# Analytic partials, finite differences, and a glued field.
SPRAY_FAMILIES = ["lc_nd", "three_d_axial", "product_s1_s2"]


class TestSpray:
    @pytest.mark.parametrize("name", SPRAY_FAMILIES)
    def test_spray_is_the_contracted_christoffel_symbols(self, name):
        pair = standard_pair(name)
        rng = np.random.default_rng(11)
        x = pair.chart.sample(rng, 40, shrink=0.8)
        v = rng.normal(size=x.shape)
        for field in (pair.g, pair.gbar):
            g, spray = _spray(field, x, v)
            assert np.array_equal(g, field.eval(x))
            assert_rows_close(spray, contracted(field, x, v))

    @pytest.mark.parametrize("name", SPRAY_FAMILIES)
    def test_accelerations_are_the_spray_at_the_stored_samples(self, name):
        field = standard_pair(name).g
        rng = np.random.default_rng(12)
        x = field.chart.sample(rng, 4, shrink=0.6)
        v = rng.normal(size=x.shape)
        for traj in integrate_geodesics(field, x, v, T=0.5, tol=1e-9):
            assert traj.accelerations.shape == traj.velocities.shape
            assert_rows_close(traj.accelerations,
                              -contracted(field, traj.points, traj.velocities))


def stencil_reference(field: MetricField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The metric and its partials from a stencil built on every call: the
    centre, then the +-h and +-h/2 points of each axis, concatenated, and
    each step's central differences taken by their own subtraction."""
    n = field.chart.dim
    h = FD_STEP * field.chart.widths

    def stencil(d):
        steps = np.stack([np.diag(d), -np.diag(d)], axis=1)
        return x + steps.reshape((2 * n,) + (1,) * (x.ndim - 1) + (n,))

    def central(values, d):
        return (values[0::2] - values[1::2]) / (2.0 * d).reshape((-1,) + (1,) * (values.ndim - 1))

    m = field.eval(np.concatenate([x[None], stencil(h), stencil(0.5 * h)]))
    d_full = central(m[1:2 * n + 1], h)
    d_half = central(m[2 * n + 1:], 0.5 * h)
    mismatch = np.abs(d_full - d_half) > 1e-4 * np.maximum(1.0, np.abs(d_half))
    d = np.where(mismatch, (4.0 * d_half - d_full) / 3.0, d_half)
    return m[0], np.moveaxis(d, 0, -3)


# A finite-difference base metric, a finite-difference companion next to
# closed-form base partials, and both fields of a glued pair.
STENCIL_FIELDS = [("three_d_axial", "g"), ("beltrami_3", "gbar"),
                  ("product_s1_s2", "g"), ("product_s1_s2", "gbar")]


class TestCachedStencil:
    @pytest.mark.parametrize("name, which", STENCIL_FIELDS)
    def test_partials_and_spray_equal_a_per_call_stencil(self, name, which):
        field = getattr(standard_pair(name), which)
        rng = np.random.default_rng(13)
        x = field.chart.sample(rng, 30, shrink=0.8)
        v = rng.normal(size=x.shape)
        g, dg = stencil_reference(field, x)
        assert np.array_equal(fd_partials(field, x), dg)
        # The contraction of _spray, fed the reference partials.
        dgv = np.einsum("bkij,bj->bki", dg, v)
        t = 2.0 * np.einsum("bk,bki->bi", v, dgv) - np.einsum("bki,bi->bk", dgv, v)
        got_g, got_spray = _spray(field, x, v)
        assert np.array_equal(got_g, g)
        assert np.array_equal(got_spray, 0.5 * np.linalg.solve(g, t[..., None])[..., 0])

    def test_offsets_are_cached_read_only_and_keep_the_centre(self):
        chart = Chart(2, ((-1.0, 1.0), (0.0, 4.0)))
        offsets, divisors = chart._fd_stencil
        assert offsets.shape == (9, 2) and divisors.shape == (4,)
        again = chart._fd_stencil
        assert again[0] is offsets and again[1] is divisors
        h = FD_STEP * chart.widths
        assert np.array_equal(divisors, 2.0 * np.concatenate([h, 0.5 * h]))
        for array in (offsets, divisors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        # The centre is -0.0, so even a -0.0 coordinate reaches eval unchanged.
        seen = []
        field = constant_field(chart, np.eye(2))
        counted = MetricField(chart=chart, eval=lambda xs: seen.append(xs) or field.eval(xs))
        x = np.array([[-0.0, 1.0], [0.5, 2.0]])
        _eval_with_fd_partials(counted, x)
        assert seen[0][0].tobytes() == x.tobytes()


class TestIntegrateGeodesic:
    def test_flat_straight_line(self):
        field = flat_field()
        traj = integrate_geodesic(field, PhasePoint([0.0, 0.0], [1.0, 0.0]), T=1.0, tol=1e-10)
        assert not traj.left_chart
        assert traj.end.x == pytest.approx([1.0, 0.0], abs=1e-9)
        assert traj.end.v == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_great_circle_closes(self):
        field = sphere_field()
        start = PhasePoint([np.pi / 2, 0.0], [0.0, 1.0])
        traj = integrate_geodesic(field, start, T=2 * np.pi, tol=1e-10)
        assert not traj.left_chart
        assert traj.end.x[0] == pytest.approx(np.pi / 2, abs=1e-6)
        assert traj.end.x[1] == pytest.approx(2 * np.pi, abs=1e-6)
        assert traj.end.v == pytest.approx([0.0, 1.0], abs=1e-6)

    def test_energy_drift_below_hundred_tol(self):
        field = sphere_field()
        tol = 1e-10
        start = PhasePoint([1.0, 0.0], [0.3, 0.7])
        traj = integrate_geodesic(field, start, T=1.0, tol=tol)
        g0 = metric_at(field, traj.points[0])
        g1 = metric_at(field, traj.points[-1])
        e0 = traj.velocities[0] @ g0 @ traj.velocities[0]
        e1 = traj.velocities[-1] @ g1 @ traj.velocities[-1]
        assert abs(e1 - e0) / abs(e0) < 100 * tol

    def test_times_strictly_increasing(self):
        field = sphere_field()
        traj = integrate_geodesic(field, PhasePoint([1.0, 0.0], [0.3, 0.7]), T=1.0, tol=1e-8)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(field.chart.contains(traj.points))

    def test_boundary_truncation_flag(self):
        chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
        field = constant_field(chart, np.eye(2))
        traj = integrate_geodesic(field, PhasePoint([0.5, 0.5], [1.0, 0.0]), T=2.0, tol=1e-8)
        assert traj.left_chart
        assert np.all(field.chart.contains(traj.points))
        assert traj.times[-1] < 2.0

    def test_batched_matches_single(self):
        # Trajectory 1 runs into the colatitude bound and stops early, so the
        # batch finishes its trajectories at different steps.
        field = sphere_field()
        starts_x = np.array([[1.0, 0.0], [2.7, 0.3], [1.4, 0.3]])
        starts_v = np.array([[0.3, 0.7], [1.0, 0.2], [-0.2, 0.5]])
        batch = integrate_geodesics(field, starts_x, starts_v, T=1.0, tol=1e-9)
        assert [traj.left_chart for traj in batch] == [False, True, False]
        assert len({len(traj.times) for traj in batch}) == 3
        for b in range(3):
            single = integrate_geodesic(field, PhasePoint(starts_x[b], starts_v[b]),
                                        T=1.0, tol=1e-9)
            assert np.array_equal(single.times, batch[b].times)
            assert np.array_equal(single.points, batch[b].points)
            assert np.array_equal(single.velocities, batch[b].velocities)
            assert np.array_equal(single.accelerations, batch[b].accelerations)
            assert single.left_chart == batch[b].left_chart
            assert single.stepper_stats == batch[b].stepper_stats

    def test_tol_validation(self):
        field = flat_field()
        with pytest.raises(ValueError):
            integrate_geodesic(field, PhasePoint([0.0, 0.0], [1.0, 0.0]), T=1.0, tol=1e-2)
        with pytest.raises(ValueError):
            integrate_geodesic(field, PhasePoint([0.0, 0.0], [1.0, 0.0]), T=1.0, tol=1e-14)

    def test_zero_velocity_rejected(self):
        field = flat_field()
        with pytest.raises(ValueError):
            integrate_geodesic(field, PhasePoint([0.0, 0.0], [0.0, 0.0]), T=1.0, tol=1e-9)

    def test_start_outside_chart_rejected(self):
        field = flat_field()
        with pytest.raises(OutOfChart):
            integrate_geodesic(field, PhasePoint([5.0, 0.0], [1.0, 0.0]), T=1.0, tol=1e-9)


def polar_map() -> ChartMap:
    source = Chart(2, ((-1.0, 0.0), (0.2, 1.0)))

    def forward(y):
        y = np.asarray(y, dtype=float)
        r, phi = y[..., 0], y[..., 1]
        return np.stack([np.exp(r) * np.cos(phi), np.exp(r) * np.sin(phi)], axis=-1)

    def jacobian(y):
        y = np.asarray(y, dtype=float)
        r, phi = y[..., 0], y[..., 1]
        er = np.exp(r)
        j = np.empty(y.shape[:-1] + (2, 2))
        j[..., 0, 0] = er * np.cos(phi)
        j[..., 0, 1] = -er * np.sin(phi)
        j[..., 1, 0] = er * np.sin(phi)
        j[..., 1, 1] = er * np.cos(phi)
        return j

    return ChartMap(source=source, forward=forward, jacobian=jacobian)


class TestPushforward:
    def test_identity_map_keeps_field(self):
        field = flat_field()
        ident = ChartMap(source=field.chart, forward=lambda y: np.asarray(y, dtype=float),
                         jacobian=lambda y: np.broadcast_to(np.eye(2), y.shape + (2,)))
        pushed = pushforward_metric(ident, field)
        pts = field.chart.sample(np.random.default_rng(3), 10)
        assert np.allclose(pushed.eval(pts), field.eval(pts), atol=1e-9)

    def test_flat_metric_under_polar_map(self):
        flat = Chart(2, ((-1.5, 1.5), (-1.5, 1.5)))
        field = constant_field(flat, np.eye(2))
        pushed = pushforward_metric(polar_map(), field)
        pts = pushed.chart.sample(np.random.default_rng(4), 50)
        expected = np.zeros((50, 2, 2))
        expected[:, 0, 0] = np.exp(2 * pts[:, 0])
        expected[:, 1, 1] = np.exp(2 * pts[:, 0])
        assert np.allclose(pushed.eval(pts), expected, atol=1e-12)

    def test_functoriality(self):
        flat = Chart(2, ((-3.0, 3.0), (-3.0, 3.0)))
        field = constant_field(flat, np.array([[2.0, 0.5], [0.5, 1.0]]))
        inner = polar_map()
        a = np.array([[1.0, 0.3], [-0.2, 1.1]])
        mid = Chart(2, ((-1.5, 1.5), (-1.5, 1.5)))
        outer = ChartMap(
            source=mid,
            forward=lambda y: np.asarray(y, dtype=float) @ a.T,
            jacobian=lambda y: np.broadcast_to(a, np.asarray(y).shape[:-1] + (2, 2)).copy(),
        )
        composite = ChartMap(  # outer o inner, with the chain-rule Jacobian
            source=inner.source,
            forward=lambda y: outer.forward(inner.forward(y)),
            jacobian=lambda y: outer.jacobian(inner.forward(y)) @ inner.jacobian(y),
        )
        twice = pushforward_metric(inner, pushforward_metric(outer, field))
        once = pushforward_metric(composite, field)
        pts = inner.source.sample(np.random.default_rng(6), 30)
        assert np.allclose(twice.eval(pts), once.eval(pts), rtol=1e-9, atol=1e-9)

    def test_degenerate_jacobian_rejected(self):
        source = Chart(2, ((-1.0, 1.0), (0.0, 1.0)))

        def fold(y):
            y = np.asarray(y, dtype=float)
            return np.stack([y[..., 0] ** 2 / 2.0, y[..., 1]], axis=-1)

        def fold_jacobian(y):
            j = np.zeros(y.shape + (2,))
            j[..., 0, 0], j[..., 1, 1] = y[..., 0], 1.0
            return j

        field = constant_field(Chart(2, ((-2.0, 2.0), (-2.0, 2.0))), np.eye(2))
        with pytest.raises(DegenerateJacobian):
            pushforward_metric(ChartMap(source=source, forward=fold, jacobian=fold_jacobian),
                               field)

    def test_inverted_swaps_directions(self):
        source = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
        target = Chart(2, ((0.0, 2.0), (0.0, 2.0)))
        cm = ChartMap(
            source=source,
            forward=lambda y: 2.0 * np.asarray(y, dtype=float),
            jacobian=lambda y: 2.0 * np.eye(2),
            inverse=lambda x: 0.5 * np.asarray(x, dtype=float),
            inverse_jacobian=lambda x: 0.5 * np.eye(2),
            inverse_source=target,
        )
        inv = cm.inverted()
        assert inv.source is target
        assert np.allclose(inv.forward(np.array([1.0, 2.0])), [0.5, 1.0])
        assert np.allclose(inv.inverse(np.array([0.5, 1.0])), [1.0, 2.0])
        assert np.allclose(inv.jacobian(np.array([1.0, 2.0])), 0.5 * np.eye(2))
        assert np.allclose(inv.inverse_jacobian(np.array([0.5, 1.0])), 2.0 * np.eye(2))
        with pytest.raises(SchemaError, match="inverse"):
            dataclasses.replace(cm, inverse_jacobian=None).inverted()
