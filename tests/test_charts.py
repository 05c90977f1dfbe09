"""Charts, metric fields, Christoffel symbols, geodesics, pushforwards."""
import ast
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

import geq
from geq import charts, split_glue
from geq._batch import CHUNK
from geq.charts import (
    FD_STEP,
    Chart,
    ChartMap,
    MetricField,
    PhasePoint,
    _diagonal,
    _geodesic_rhs,
    _metric_and_partials,
    _spray,
    christoffel,
    fd_partials,
    integrate_geodesic,
    integrate_geodesics,
    metric_at,
    positivity_grid_size,
    pushforward_metric,
)
from geq.constructions import beltrami_pair, scale_triple
from geq.errors import (
    DegenerateJacobian,
    NotPositiveDefinite,
    OutOfChart,
    SchemaError,
    SingularMetric,
    StepFailure,
)
from geq.normal_forms import (LeviCivitaData, ScalarFunction1D, levi_civita_pair,
                              random_levi_civita_data)
from geq.verify import standard_pair


def rhs_states(field: MetricField, rows: int, seed: int) -> np.ndarray:
    """Seeded states ``(x, v)`` of shape ``(rows, 2 dim)``, ``x`` inside the box."""
    rng = np.random.default_rng(seed)
    x = field.chart.sample(rng, rows, shrink=0.9)
    return np.concatenate([x, rng.normal(size=x.shape)], axis=1)


def rhs(field: MetricField, y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    _geodesic_rhs(field, y, out)
    return out


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_grid_pieces_are_the_grid_in_order(self, dim):
        # 64, 4096, 97,336, 83,521 and 100,000 points: only dimension 2 fills
        # its pieces exactly.  The reference is the product of the linspace
        # axes, the last axis fastest.
        chart = Chart(dim, tuple((-0.3 * k, 0.2 + k) for k in range(1, dim + 1)))
        per_axis = positivity_grid_size(dim)
        pieces = list(chart.grid_pieces(per_axis))
        assert [len(xs) for xs in pieces[:-1]] == [CHUNK] * (len(pieces) - 1)
        assert 0 < len(pieces[-1]) <= CHUNK
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in chart.box]
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert np.concatenate(pieces).tobytes() == mesh.tobytes()
        assert chart.grid(per_axis).tobytes() == mesh.tobytes()

    def test_sample_respects_shrink(self):
        chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
        pts = chart.sample(np.random.default_rng(0), 500, shrink=0.6)
        assert np.all(pts >= 0.2 - 1e-12) and np.all(pts <= 0.8 + 1e-12)

    @pytest.mark.parametrize("name, expected", [("lows", [-1.0, 0.0]), ("highs", [1.0, 4.0]),
                                                ("widths", [2.0, 4.0]), ("center", [0.0, 2.0])])
    def test_box_arrays_are_cached_and_read_only(self, name, expected):
        chart = Chart(2, ((-1.0, 1.0), (0.0, 4.0)))
        array = getattr(chart, name)
        assert getattr(chart, name) is array
        assert array.tolist() == expected
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


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

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_metric_is_refused_at_its_point(self, entry, value):
        matrix = np.eye(2)
        matrix[entry] = matrix[entry[::-1]] = value
        bad = constant_field(Chart(2, ((-1.0, 1.0), (-1.0, 1.0))), matrix)
        with pytest.raises(NotPositiveDefinite, match=r"at \[0\.25, -0\.5\]$"):
            metric_at(bad, np.array([0.25, -0.5]))


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
    """One axis at a time: the central difference of step ``h_k``."""
    n = field.chart.dim
    h = FD_STEP * field.chart.widths
    out = np.empty(x.shape[:-1] + (n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h[k]
        out[..., k, :, :] = (field.eval(x + e) - field.eval(x - e)) / (2.0 * h[k])
    return out


def points_across_the_kink(field: MetricField, shape: tuple, seed: int) -> np.ndarray:
    """Interior points of :func:`coupled_field`, the first one close enough
    to the kink that its stencil straddles it."""
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
        assert seen == [(7,) + shape + (3,)]
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


DIAGONAL_FIELDS = {
    **{f"separable_{n}_{which}": (lambda n=n, which=which: getattr(levi_civita_pair(
        random_levi_civita_data(n, np.random.default_rng(n))), which))
       for n in (2, 3, 4, 5) for which in ("g", "gbar")},
    **{f"round_{dim}": (lambda dim=dim: beltrami_pair(dim).pair.g) for dim in (1, 2, 3)},
    "round_2_scaled": lambda: scale_triple(beltrami_pair(2), 5.0).pair.g,
}


# SHA-256 prefixes of the geodesic right-hand side's bytes at 50 rows, an integrator
# batch size (states from ``rhs_states(field, 50, 23)``), recorded before the separable
# jet and the diagonal spray were rewritten for fewer numpy calls.  A change that moves
# one of them moves every geodesic integrated through that field, and must say so.  They
# hold for one numpy and BLAS build; on another, record them anew from the parent commit.
RHS_DIGESTS = {
    "separable_2_g": "89b71766e641ac10",
    "separable_2_gbar": "8b2dcf032e21a3ef",
    "separable_3_g": "c2f418574d8f4b48",
    "separable_3_gbar": "ec7cc24228855886",
    "separable_4_g": "2f4092f8cc5c8acb",
    "separable_4_gbar": "8e39d6735a3f2afb",
    "separable_5_g": "5bb677d498ff3d80",
    "separable_5_gbar": "324bd5ebe45189ec",
    "beltrami_2_g": "3ab29adccf45447c",
    "beltrami_2_gbar": "69f4caf9d8645ac1",
    "beltrami_3_g": "d0e8a70bbd533ac3",
    "beltrami_3_gbar": "ad85653ad7e67595",
}


def pinned_field(name: str) -> MetricField:
    if name in DIAGONAL_FIELDS:
        return DIAGONAL_FIELDS[name]()
    family, which = name.rsplit("_", 1)
    return getattr(standard_pair(family), which)


def dense(field: MetricField) -> MetricField:
    """``field`` with its diagonal jet embedded as a full jet."""
    return dataclasses.replace(field, diagonal_jet=None,
                               jet=lambda x: _metric_and_partials(field, x))


class TestDiagonalSpray:
    @pytest.mark.parametrize("build", DIAGONAL_FIELDS.values(), ids=DIAGONAL_FIELDS.keys())
    def test_the_diagonal_route_is_the_dense_route_row_by_row(self, build):
        field = build()
        rng = np.random.default_rng(21)
        x = field.chart.sample(rng, 50, shrink=0.9)
        v = rng.normal(size=x.shape)
        g, spray = _spray(field, x, v)
        dense_g, dense_spray = _spray(dense(field), x, v)
        assert np.array_equal(g, field.eval(x)) and np.array_equal(g, dense_g)
        assert_rows_close(spray, dense_spray, rel=1e-14)

    def test_the_diagonal_route_takes_no_dense_partials_einsum_or_solve(self, monkeypatch):
        field = DIAGONAL_FIELDS["separable_4_g"]()
        rng = np.random.default_rng(22)
        x = field.chart.sample(rng, 30, shrink=0.9)
        v = rng.normal(size=x.shape)
        reference = _spray(field, x, v)
        a, da = field.diagonal_jet(x)
        assert a.shape == (30, 4) and da.shape == (30, 4, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("called")

        for name in ("solve", "inv", "lstsq", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "einsum", refuse)
        monkeypatch.setattr(charts, "_metric_and_partials", refuse)
        for got, ref in zip(_spray(field, x, v), reference):
            assert np.array_equal(got, ref)

    def test_a_zero_diagonal_entry_is_a_singular_metric(self):
        chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))

        def diagonal_jet(x):  # g = diag(x_0^2, 1): singular on the line x_0 = 0
            x = np.asarray(x, dtype=float)
            a = np.stack([x[..., 0] ** 2, np.ones_like(x[..., 0])], axis=-1)
            da = np.zeros(x.shape + (2,))
            da[..., 0, 0] = 2.0 * x[..., 0]
            return a, da

        field = MetricField(chart=chart, eval=lambda x: _diagonal(diagonal_jet(x)[0]),
                            diagonal_jet=diagonal_jet)
        x = np.array([[0.5, 0.1], [0.0, 0.3]])
        v = np.ones_like(x)
        for route in (field, dense(field)):
            with pytest.raises(SingularMetric):
                _spray(route, x, v)
        assert np.all(np.isfinite(_spray(field, x[:1], v[:1])[1]))  # off the line

    @pytest.mark.parametrize("name", RHS_DIGESTS)
    def test_right_hand_side_bytes_are_pinned(self, name):
        field = pinned_field(name)
        digest = hashlib.sha256(rhs(field, rhs_states(field, 50, 23)).tobytes()).hexdigest()
        assert digest[:16] == RHS_DIGESTS[name]

    @pytest.mark.parametrize("name", [f"separable_{n}_{which}" for n in (2, 3, 4, 5)
                                      for which in ("g", "gbar")])
    def test_a_separable_spray_row_does_not_depend_on_its_batch(self, name):
        # Profile values are evaluated batch-last from 512 entries on (2 dim rows >= 512);
        # a row of the spray keeps its bits across that switch.
        field = DIAGONAL_FIELDS[name]()
        y = rhs_states(field, 120, 24)
        whole = rhs(field, y)
        for rows in (1, 51, 52, 63, 64, 85, 86):
            assert rhs(field, y[:rows]).tobytes() == whole[:rows].tobytes(), rows

    def test_coinciding_profiles_are_a_singular_metric(self):
        # The profiles 1 + x_0 and 2 are separated on the box and meet at x_0 = 1.
        interval = (-0.5, 0.5)
        pair = levi_civita_pair(LeviCivitaData(
            lambdas=(ScalarFunction1D((1.0, 1.0), interval), ScalarFunction1D((2.0,), interval)),
            chart=Chart(2, (interval, interval))))
        x = np.array([[0.2, 0.0], [1.0, 0.0]])
        v = np.ones_like(x)
        for field in (pair.g, pair.gbar):
            assert field.diagonal_jet(x)[0][1].tolist() == [0.0, 0.0]
            with pytest.raises(SingularMetric):
                _spray(field, x, v)
            assert np.all(np.isfinite(_spray(field, x[:1], v[:1])[1]))

    def test_a_field_carries_one_kind_of_jet(self):
        field = DIAGONAL_FIELDS["round_2"]()
        with pytest.raises(SchemaError, match="diagonal_jet"):
            dataclasses.replace(field, jet=lambda x: _metric_and_partials(field, x))


def stencil_reference(field: MetricField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The metric and its partials from a stencil built on every call: the
    centre, then the +-h points of each axis, concatenated, and the central
    differences taken by one subtraction."""
    n = field.chart.dim
    h = FD_STEP * field.chart.widths
    steps = np.stack([np.diag(h), -np.diag(h)], axis=1)
    stencil = x + steps.reshape((2 * n,) + (1,) * (x.ndim - 1) + (n,))
    m = field.eval(np.concatenate([x[None], stencil]))
    d = (m[1::2] - m[2::2]) / (2.0 * h).reshape((-1,) + (1,) * (m.ndim - 1))
    return m[0], np.moveaxis(d, 0, -3)


def _within(parents: dict, node: ast.AST, test) -> bool:
    """Whether an ancestor of ``node`` passes ``test``."""
    while node in parents:
        node = parents[node]
        if test(node):
            return True
    return False


def test_the_package_has_one_difference_quotient():
    """Every finite difference goes through ``charts._central_differences`` on a
    chart's own stencil: no other function divides a difference of two slices of
    one array, no module but ``charts.py`` reads ``_fd_stencil`` or defines a step
    constant, and a step constant is read only by ``Chart._fd_stencil`` or as a
    chart margin, so there is one step rule and no module builds stencil offsets
    of its own."""
    offenders = []
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        in_charts = path.name == "charts.py"
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
                    and isinstance(node.left.left, ast.Subscript)
                    and isinstance(node.left.right, ast.Subscript)
                    and ast.dump(node.left.left.value) == ast.dump(node.left.right.value)
                    and not (in_charts and _within(parents, node, lambda a: (
                        isinstance(a, ast.FunctionDef) and a.name == "_central_differences")))):
                offenders.append(f"{where} quotient")
            if isinstance(node, ast.Attribute) and node.attr == "_fd_stencil" and not in_charts:
                offenders.append(f"{where} _fd_stencil")
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else "")
            if not name.endswith("STEP"):
                continue
            if isinstance(node.ctx, ast.Store) and not in_charts:
                offenders.append(f"{where} defines {name}")
            if isinstance(node.ctx, ast.Load) and not _within(parents, node, lambda a: (
                    (isinstance(a, ast.keyword) and a.arg == "margin")
                    or (in_charts and isinstance(a, ast.FunctionDef) and a.name == "_fd_stencil"))):
                offenders.append(f"{where} {name}")
    assert offenders == []


def glued_factors(monkeypatch) -> list:
    """Record the factor triples of every ``glue_pair`` call from now on."""
    calls = []
    glue = split_glue.glue_pair
    monkeypatch.setattr(split_glue, "glue_pair",
                        lambda f1, f2: calls.append((f1, f2)) or glue(f1, f2))
    return calls


def product_rule_reference(factor1, factor2, which: int, x: np.ndarray):
    """A glued field's value and partials: each factor's coefficients and block
    terms, from the source the glue reads (a closed form of ``L`` or the
    congruence), differenced on a stencil of that factor's coordinates built here,
    as in :func:`stencil_reference`, and the blocks combined by the product rule."""
    r, n = factor1.pair.dim, x.shape[-1]
    parts = []
    for triple, axes, powers, negate in ((factor1, slice(0, r), n - r, r % 2 == 1),
                                         (factor2, slice(r, n), r, False)):
        xf, k = x[..., axes], triple.pair.dim
        h = FD_STEP * triple.pair.chart.widths
        steps = np.stack([np.diag(h), -np.diag(h)], axis=1).reshape(2 * k, 1, k)
        stack = np.concatenate([xf[None], xf + steps])
        coeffs, terms = split_glue._field_terms(
            which, split_glue._factor_source(triple)(stack), powers, negate)
        div = (2.0 * h)[:, None]
        parts.append((coeffs[0], terms[0], (coeffs[1::2] - coeffs[2::2]) / div[..., None],
                      (terms[1::2] - terms[2::2]) / div[..., None, None, None]))
    (c1, t1, dc1, dt1), (c2, t2, dc2, dt2) = parts

    def weighted(c, t):  # sum_j c_j t_j, in the order of j
        return sum(c[..., j, None, None] * t[..., j, :, :] for j in range(t.shape[-3]))

    value = np.zeros(x.shape[:-1] + (n, n))
    value[..., :r, :r], value[..., r:, r:] = weighted(c2, t1), weighted(c1, t2)
    d = np.zeros((n,) + value.shape)
    d[:r, ..., :r, :r], d[r:, ..., :r, :r] = weighted(c2, dt1), weighted(dc2, t1)
    d[:r, ..., r:, r:], d[r:, ..., r:, r:] = weighted(dc1, t2), weighted(c1, dt2)
    return value, np.moveaxis(d, 0, -3)


# A finite-difference base metric, a finite-difference companion next to
# closed-form base partials, and both fields of a glued pair, whose jet is
# the product rule on each factor's own stencil.
STENCIL_FIELDS = [("three_d_axial", "g"), ("beltrami_3", "gbar"),
                  ("product_s1_s2", "g"), ("product_s1_s2", "gbar")]


class TestCachedStencil:
    @pytest.mark.parametrize("name, which", STENCIL_FIELDS)
    def test_partials_and_spray_equal_a_per_call_stencil(self, monkeypatch, name, which):
        factors = glued_factors(monkeypatch)
        field = getattr(standard_pair(name), which)
        rng = np.random.default_rng(13)
        x = field.chart.sample(rng, 30, shrink=0.8)
        v = rng.normal(size=x.shape)
        g, dg = stencil_reference(field, x)
        assert np.array_equal(fd_partials(field, x), dg)
        if factors:  # the spray reads the glued jet
            g, dg = product_rule_reference(*factors[-1], ["g", "gbar"].index(which), x)
            assert np.array_equal(field.jet(x)[1], dg)
        # The contraction of _spray, fed the reference partials.
        dgv = np.einsum("bkij,bj->bki", dg, v)
        t = 2.0 * np.einsum("bk,bki->bi", v, dgv) - np.einsum("bki,bi->bk", dgv, v)
        got_g, got_spray = _spray(field, x, v)
        assert np.array_equal(got_g, g)
        assert np.array_equal(got_spray, 0.5 * np.linalg.solve(g, t[..., None])[..., 0])

    def test_offsets_are_cached_read_only_and_keep_the_centre(self):
        chart = Chart(2, ((-1.0, 1.0), (0.0, 4.0)))
        offsets, divisors = chart._fd_stencil
        assert offsets.shape == (5, 2) and divisors.shape == (2,)
        again = chart._fd_stencil
        assert again[0] is offsets and again[1] is divisors
        assert np.array_equal(divisors, 2.0 * (FD_STEP * chart.widths))
        for array in (offsets, divisors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        # The centre is -0.0, so even a -0.0 coordinate reaches eval unchanged.
        seen = []
        field = constant_field(chart, np.eye(2))
        counted = MetricField(chart=chart, eval=lambda xs: seen.append(xs) or field.eval(xs))
        x = np.array([[-0.0, 1.0], [0.5, 2.0]])
        fd_partials(counted, x)
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

    def test_rejections_exits_and_finishes_in_one_batch_match_single(self):
        # Trajectory 0 circles fast near the colatitude bound, where steps get
        # rejected; 1 has a step rejected and then leaves the box; 2 reaches T
        # first, while the others still run.
        field = sphere_field()
        starts_x = np.array([[0.35, 0.0], [2.7, 0.3], [1.4, 0.3], [1.0, 0.5]])
        starts_v = np.array([[0.0, 6.0], [1.0, 0.2], [-0.2, 0.5], [0.3, 0.7]])
        batch = integrate_geodesics(field, starts_x, starts_v, T=1.0, tol=1e-9)
        assert [traj.left_chart for traj in batch] == [False, True, False, False]
        assert batch[0].stepper_stats.rejected > 0 and batch[1].stepper_stats.rejected > 0
        assert batch[2].times[-1] == 1.0
        assert len(batch[2].times) < min(len(batch[b].times) for b in (0, 1, 3))
        for traj in batch:
            # A step after a rejection must start from the kept state's stage.
            energy = (traj.velocities[:, 0] ** 2
                      + np.sin(traj.points[:, 0]) ** 2 * traj.velocities[:, 1] ** 2)
            assert np.max(np.abs(energy - energy[0])) < 10 * 1e-9 * energy[0]
        for b in range(4):
            single = integrate_geodesic(field, PhasePoint(starts_x[b], starts_v[b]),
                                        T=1.0, tol=1e-9)
            for name in ("times", "points", "velocities", "accelerations"):
                assert np.array_equal(getattr(single, name), getattr(batch[b], name)), name
            assert single.left_chart == batch[b].left_chart
            assert single.stepper_stats == batch[b].stepper_stats

    def test_a_spray_that_turns_non_finite_is_a_step_failure(self):
        # Past x_0 = 0.25 the partials are NaN: every step that crosses the
        # line is rejected, so trajectory 1's steps shrink until they underflow.
        chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
        calls = []

        def diagonal_jet(x):
            calls.append(len(x))
            a = np.broadcast_to(1.0 + x[:, :1] ** 2, x.shape).copy()
            da = np.zeros(x.shape + x.shape[-1:])
            da[:, 0, :] = 2.0 * x[:, :1]
            da[x[:, 0] > 0.25] = np.nan
            return a, da

        field = MetricField(chart=chart, eval=lambda x: _diagonal(diagonal_jet(x)[0]),
                            diagonal_jet=diagonal_jet)
        starts_x = np.array([[0.0, 0.0], [0.0, 0.0]])
        starts_v = np.array([[-0.5, 0.1], [1.0, 0.2]])
        with pytest.raises(StepFailure, match=r"step size underflow in trajectory 1$"):
            integrate_geodesics(field, starts_x, starts_v, T=1.0, tol=1e-9)
        assert len(calls) < 2_000

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_jacobian_rejected(self, value):
        # Finite and invertible except on the grid's edge y_0 = 1.
        source = Chart(2, ((-1.0, 1.0), (0.0, 1.0)))

        def jacobian(y):
            y = np.asarray(y, dtype=float)
            return np.where(y[..., :1, None] == 1.0, value, 2.0 * np.eye(2))

        field = constant_field(Chart(2, ((-2.0, 2.0), (-2.0, 2.0))), np.eye(2))
        with pytest.raises(DegenerateJacobian, match="not finite"):
            pushforward_metric(ChartMap(source=source, forward=lambda y: 2.0 * y,
                                        jacobian=jacobian), field)

    def test_inverted_swaps_directions(self):
        source = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
        target = Chart(2, ((0.0, 2.0), (0.0, 2.0)))
        a = np.array([[2.0, 1.0], [0.0, 4.0]])
        cm = ChartMap(
            source=source,
            forward=lambda y: np.asarray(y, dtype=float) @ a.T,
            jacobian=lambda y: np.broadcast_to(a, np.shape(y)[:-1] + (2, 2)),
            inverse=lambda x: np.linalg.solve(a, np.asarray(x, dtype=float).T).T,
            inverse_source=target,
        )
        inv = cm.inverted()
        assert inv.source is target and inv.inverse_source is source
        assert np.allclose(inv.forward(np.array([3.0, 4.0])), [1.0, 1.0])
        assert np.allclose(inv.inverse(np.array([1.0, 1.0])), [3.0, 4.0])
        # The reverse Jacobian is derived: the inverse of the forward one, batched.
        ws = target.sample(np.random.default_rng(7), 5)
        assert np.allclose(inv.jacobian(ws), np.broadcast_to([[0.5, -0.125], [0.0, 0.25]],
                                                              (5, 2, 2)), rtol=0, atol=1e-15)
        assert np.allclose(inv.inverted().jacobian(source.sample(np.random.default_rng(8), 5)),
                           a, rtol=0, atol=1e-15)
        for missing in ("inverse", "inverse_source"):
            with pytest.raises(SchemaError, match="inverse"):
                dataclasses.replace(cm, **{missing: None}).inverted()

    def test_an_inverted_map_with_a_singular_forward_jacobian_is_refused(self):
        # The fold y_0 -> y_0^2 / 2 is singular on y_0 = 0, which the
        # reverse map's grid reaches at x_0 = 0.
        def fold(y):
            y = np.asarray(y, dtype=float)
            return np.stack([y[..., 0] ** 2 / 2.0, y[..., 1]], axis=-1)

        def unfold(x):
            x = np.asarray(x, dtype=float)
            return np.stack([np.sqrt(2.0 * x[..., 0]), x[..., 1]], axis=-1)

        def fold_jacobian(y):
            j = np.zeros(np.shape(y) + (2,))
            j[..., 0, 0], j[..., 1, 1] = np.asarray(y)[..., 0], 1.0
            return j

        cm = ChartMap(source=Chart(2, ((0.0, 1.0), (0.0, 1.0))), forward=fold,
                      jacobian=fold_jacobian, inverse=unfold,
                      inverse_source=Chart(2, ((0.0, 0.5), (0.0, 1.0))))
        inv = cm.inverted()
        jac = inv.jacobian(np.array([[0.0, 0.5], [0.125, 0.5]]))
        assert np.isnan(jac[0]).all()
        assert np.allclose(jac[1], [[2.0, 0.0], [0.0, 1.0]])
        field = constant_field(Chart(2, ((-2.0, 2.0), (-2.0, 2.0))), np.eye(2))
        with pytest.raises(DegenerateJacobian):
            pushforward_metric(inv, field)
        # Away from the fold the same map is accepted.
        away = dataclasses.replace(cm, inverse_source=Chart(2, ((0.125, 0.5), (0.0, 1.0))))
        pushforward_metric(away.inverted(), field)
