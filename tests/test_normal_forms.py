"""Closed-form family builders, eigenvalue formulas, and chart maps."""
import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import geq
from geq._batch import CHUNK
from geq.charts import (
    Chart,
    PhasePoint,
    _diagonal,
    fd_partials,
    integrate_geodesic,
    metric_at,
    pushforward_metric,
)
from geq.errors import NotPositive, NotRealizable, SeparationViolated
from geq.normal_forms import (
    FormKind,
    LeviCivitaData,
    ModelFormParams,
    ScalarFunction1D,
    _horner,
    _profile_table,
    _profile_values,
    _realize_on_box,
    canonical_chart_map,
    levi_civita_pair,
    model_eigenvalues,
    model_form_pair,
    random_levi_civita_data,
)
from geq.projective import l_eigen, l_tensor, nijenhuis_at
from geq.verify import STANDARD_FAMILIES, standard_form_spec, standard_pair

LAM_AFFINE = ScalarFunction1D((2.0, 1.0), (-2.0, 2.0))          # 2 + s
LAM_CUBIC = ScalarFunction1D((2.0, 1.0, 1 / 7, 0.05), (-2.0, 2.0))
F_ONE = ScalarFunction1D((1.0,), (-1.0, 1.0))
F_MILD = ScalarFunction1D((1.0, 1 / 3), (-1.0, 1.0))


def constant_lc(*levels: float, half: float = 0.5) -> LeviCivitaData:
    chart = Chart(len(levels), tuple((-half, half) for _ in levels))
    lambdas = tuple(ScalarFunction1D((v,), (-half, half)) for v in levels)
    return LeviCivitaData(lambdas=lambdas, chart=chart)


def bits(a) -> tuple:
    """The shape and bytes of a float array, so that ``-0.0`` and ``0.0`` differ."""
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def polyval(x, c):
    return np.polynomial.polynomial.polyval(x, c)


# Constant, linear, cubic and quadratic profiles, with a -0.0 and a zero
# leading coefficient among them.
INTERVAL = (-0.5, 0.5)
MIXED = (ScalarFunction1D((2.5,), INTERVAL),
         ScalarFunction1D((4.0, -0.0), INTERVAL),
         ScalarFunction1D((6.0, 0.3, -0.2, 0.1), INTERVAL),
         ScalarFunction1D((9.0, -0.25, 0.0), INTERVAL))


class TestHornerKernel:
    # Small batches, and batches of 512 entries or more (evaluated transposed).
    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 4), (200, 4), (3, 60, 4)])
    def test_profile_values_are_bitwise_per_profile_polyval(self, shape):
        rng = np.random.default_rng(21)
        xs = rng.uniform(-0.5, 0.5, size=shape)
        xs.reshape(-1, 4)[0] = [-0.0, 0.0, -0.0, -0.5]  # signed zeros, a negative end
        expected = np.stack([polyval(xs[..., i], lam.coeffs) for i, lam in enumerate(MIXED)],
                            axis=-1)
        assert bits(_profile_values(_profile_table(MIXED), xs)) == bits(expected)

    @pytest.mark.parametrize("lam", MIXED + (LAM_CUBIC,))
    def test_profile_calls_are_bitwise_polyval(self, lam):
        for s in (-0.0, 0.0, -0.3, 0.7, np.array([-1.5, -0.0, 0.25]), np.zeros((2, 3))):
            assert bits(lam(s)) == bits(polyval(np.asarray(s, dtype=float), lam.coeffs))
            tail = lam.coeffs[1:] or (0.0,)
            assert bits(lam.divided0(s)) == bits(polyval(np.asarray(s, dtype=float), tail))

    def test_a_coefficient_table_is_bitwise_tensor_polyval(self):
        rng = np.random.default_rng(22)
        coeffs = rng.normal(size=(30, 4))
        t = np.array([-2.0, -0.0, 0.5, 3.0])
        assert bits(_horner(coeffs.T[..., None], t)) == bits(polyval(t, coeffs.T))
        for ti in (-1.25, 0.0, 2.0):
            assert bits(_horner(coeffs[0], ti)) == bits(polyval(ti, coeffs[0]))


def test_the_package_has_one_polynomial_path():
    """No module calls numpy's polynomial package: every polynomial in ``t``
    or in a coordinate goes through the Horner kernel of ``normal_forms``."""
    offenders = []
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("polynomial", "polyval", "polyval2d", "polyval3d"):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


class TestScalarFunction:
    def test_eval_and_derivative(self):
        p = ScalarFunction1D((1.0, 2.0, 3.0), (-1.0, 1.0))  # 1 + 2s + 3s^2
        assert p(0.5) == pytest.approx(2.75)
        assert p.derivative()(0.5) == pytest.approx(5.0)

    def test_divided0_matches_definition_and_is_finite_at_zero(self):
        p = ScalarFunction1D((2.0, 1.0, 1 / 7), (-1.0, 1.0))
        s = 0.3
        assert p.divided0(s) == pytest.approx((p(s) - p(0.0)) / s, abs=1e-14)
        assert p.divided0(0.0) == pytest.approx(1.0)  # the slope at 0

    def test_divided2_matches_definition_and_coincidence_limit(self):
        p = LAM_CUBIC
        a, b = 0.4, -0.2
        assert p.divided2(a, b) == pytest.approx((p(a) - p(b)) / (a - b), abs=1e-13)
        assert p.divided2(0.3, 0.3) == pytest.approx(p.derivative()(0.3), abs=1e-13)


class TestLeviCivita:
    def test_constant_two_dim(self):
        pair = levi_civita_pair(constant_lc(1.0, 2.0))
        x = np.array([0.2, -0.3])
        assert np.allclose(metric_at(pair.g, x), np.eye(2), atol=1e-14)
        assert np.allclose(metric_at(pair.gbar, x), np.diag([0.5, 0.25]), atol=1e-14)
        assert np.allclose(l_tensor(pair, x), np.diag([1.0, 2.0]), atol=1e-12)

    def test_constant_three_dim(self):
        pair = levi_civita_pair(constant_lc(1.0, 2.0, 4.0))
        got = metric_at(pair.g, np.zeros(3))
        assert np.allclose(got, np.diag([3.0, 2.0, 6.0]), atol=1e-13)

    def test_one_dimensional(self):
        chart = Chart(1, ((0.0, 1.0),))
        data = LeviCivitaData((ScalarFunction1D((2.0, 1.0), (0.0, 1.0)),), chart)
        pair = levi_civita_pair(data)
        x = np.array([0.5])
        assert np.allclose(metric_at(pair.g, x), [[1.0]], atol=1e-15)
        assert np.allclose(metric_at(pair.gbar, x), [[1.0 / 6.25]], atol=1e-15)
        vals, _ = l_eigen(pair, x)
        assert vals[0] == pytest.approx(2.5, abs=1e-12)

    def test_tensor_is_diagonal_with_profile_values(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            data = random_levi_civita_data(n, rng)
            pair = levi_civita_pair(data)
            for x in data.chart.sample(rng, 25):
                expected = np.diag([lam(x[i]) for i, lam in enumerate(data.lambdas)])
                assert np.max(np.abs(l_tensor(pair, x) - expected)) < 1e-10

    def test_analytic_partials_match_finite_differences(self):
        rng = np.random.default_rng(12)
        data = random_levi_civita_data(3, rng)
        pair = levi_civita_pair(data)
        pts = data.chart.sample(rng, 10, shrink=0.8)
        for field in (pair.g, pair.gbar):
            fd = fd_partials(field, pts)
            exact = field.diagonal_jet(pts)[1]  # [..., k, i] is d_k g_ii
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(fd - _diagonal(exact))) < 1e-6 * scale

    # 12 points and, at 300, batches past the transposed-evaluation threshold.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("count", [12, 300])
    def test_jets_are_eval_and_the_stencil_partials(self, n, count):
        rng = np.random.default_rng(30 + n)
        data = random_levi_civita_data(n, rng)
        if n == 4:  # mixed degrees, down to a constant profile
            data = LeviCivitaData(MIXED, Chart(4, (INTERVAL,) * 4))
        pair = levi_civita_pair(data)
        pts = data.chart.sample(rng, count, shrink=0.8)
        for field in (pair.g, pair.gbar):
            assert field.jet is None
            value, partials = field.diagonal_jet(pts)
            assert value.shape == pts.shape and partials.shape == pts.shape + (n,)
            # The diagonal of eval, bitwise, and eval's other entries exactly 0.
            assert bits(_diagonal(value)) == bits(field.eval(pts))
            fd = fd_partials(field, pts)
            scale = max(1.0, float(np.max(np.abs(partials))))
            assert np.max(np.abs(fd - _diagonal(partials))) < 1e-6 * scale

    def test_constant_profiles_have_zero_partials(self):
        pair = levi_civita_pair(constant_lc(1.0, 2.0, 3.0))
        pts = pair.chart.sample(np.random.default_rng(5), 6)
        for field in (pair.g, pair.gbar):
            value, partials = field.diagonal_jet(pts)
            assert bits(_diagonal(value)) == bits(field.eval(pts))
            assert not np.any(partials)

    def test_separation_validation(self):
        with pytest.raises(SeparationViolated):
            constant_lc(1.0, 1.0)
        chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)))
        with pytest.raises(SeparationViolated):
            LeviCivitaData((ScalarFunction1D((1.0, 0.8), (-0.5, 0.5)),
                            ScalarFunction1D((1.2,), (-0.5, 0.5))), chart)

    def test_positivity_validation(self):
        with pytest.raises(NotPositive):
            constant_lc(-1.0, 2.0)

    def test_random_data_reproducible(self):
        a = random_levi_civita_data(4, np.random.default_rng(7))
        b = random_levi_civita_data(4, np.random.default_rng(7))
        assert all(x.coeffs == y.coeffs for x, y in zip(a.lambdas, b.lambdas))

    def test_nijenhuis_vanishes_on_equivalent_pair(self):
        rng = np.random.default_rng(13)
        pair = levi_civita_pair(random_levi_civita_data(3, rng))
        for x in pair.chart.sample(rng, 5, shrink=0.8):
            assert np.max(np.abs(nijenhuis_at(pair, x))) < 1e-6

    def test_the_data_tables_its_profiles_once_for_all_its_pairs(self, monkeypatch):
        data = random_levi_civita_data(3, np.random.default_rng(14))
        expected = _profile_table(data.lambdas)

        def refuse(lambdas):
            raise AssertionError("the profile table was built again")

        monkeypatch.setattr(geq.normal_forms, "_profile_table", refuse)
        first, second = levi_civita_pair(data), levi_civita_pair(data)
        pts = first.chart.sample(np.random.default_rng(15), 7)
        for field in (first.g, first.gbar, second.g, second.gbar):
            value, _ = field.diagonal_jet(pts)
            assert bits(_diagonal(value)) == bits(field.eval(pts))
        assert bits(model_eigenvalues(FormKind.LC_ND, data, pts)) == bits(
            np.sort(_profile_values(expected, pts), axis=-1))
        assert bits(data._table) == bits(expected)
        assert bits(data._jet_table[:, :3]) == bits(expected)


class TestEllipticFamily:
    def test_conformal_factor_example(self):
        pair = model_form_pair(FormKind.TWO_D_ELLIPTIC, ModelFormParams(lam=LAM_AFFINE))
        g = metric_at(pair.g, np.array([0.0, 0.5]))
        assert np.allclose(g, 4.0 * np.eye(2), atol=1e-12)

    def test_smooth_at_origin(self):
        pair = model_form_pair(FormKind.TWO_D_ELLIPTIC, ModelFormParams(lam=LAM_AFFINE))
        g = metric_at(pair.g, np.zeros(2))
        assert np.allclose(g, 4.0 * np.eye(2), atol=1e-12)
        gbar = metric_at(pair.gbar, np.zeros(2))
        assert np.allclose(gbar, gbar[0, 0] * np.eye(2), atol=1e-12)

    def test_eigenvalue_formula_example(self):
        vals = model_eigenvalues(FormKind.TWO_D_ELLIPTIC, ModelFormParams(lam=LAM_AFFINE),
                                 np.array([0.0, 0.5]))
        assert np.allclose(vals, [1.5, 2.5], atol=1e-13)

    def test_eigenvalues_match_tensor(self):
        params = ModelFormParams(lam=LAM_CUBIC)
        pair = model_form_pair(FormKind.TWO_D_ELLIPTIC, params)
        rng = np.random.default_rng(21)
        for x in pair.chart.sample(rng, 100):
            vals, _ = l_eigen(pair, x)
            assert np.max(np.abs(vals - model_eigenvalues(
                FormKind.TWO_D_ELLIPTIC, params, x))) < 1e-8

    def test_origin_is_proportional_point(self):
        vals = model_eigenvalues(FormKind.TWO_D_ELLIPTIC, ModelFormParams(lam=LAM_CUBIC),
                                 np.zeros(2))
        assert vals[0] == pytest.approx(vals[1], abs=1e-14)


class TestPolarFamilies:
    def test_plus_origin_example(self):
        params = ModelFormParams(f=F_ONE, lam_const=1.0)
        pair = model_form_pair(FormKind.TWO_D_POLAR_PLUS, params)
        assert np.allclose(metric_at(pair.g, np.zeros(2)), np.eye(2), atol=1e-14)
        assert np.allclose(metric_at(pair.gbar, np.zeros(2)), np.eye(2), atol=1e-14)

    def test_plus_eigenvalue_example(self):
        params = ModelFormParams(f=F_ONE, lam_const=1.0)
        vals = model_eigenvalues(FormKind.TWO_D_POLAR_PLUS, params, np.array([0.3, 0.4]))
        assert np.allclose(vals, [1.0, 1.25], atol=1e-13)

    @pytest.mark.parametrize("kind", [FormKind.TWO_D_POLAR_PLUS, FormKind.TWO_D_POLAR_MINUS])
    def test_eigenvalues_match_tensor(self, kind):
        params = ModelFormParams(f=F_MILD, lam_const=1.3)
        pair = model_form_pair(kind, params)
        rng = np.random.default_rng(22)
        for x in pair.chart.sample(rng, 100):
            vals, _ = l_eigen(pair, x)
            assert np.max(np.abs(vals - model_eigenvalues(kind, params, x))) < 1e-8

    def test_minus_requires_profile_bound(self):
        # f = 9 forces 1 - r^2 f <= 0 on every candidate box until r^2 < 1/9;
        # the builder must shrink the box rather than fail.
        params = ModelFormParams(f=ScalarFunction1D((9.0,), (-1.0, 1.0)), lam_const=1.0)
        pair = model_form_pair(FormKind.TWO_D_POLAR_MINUS, params)
        half = pair.chart.box[0][1]
        assert half < 0.5
        grid = pair.chart.grid(16)
        r2 = grid[:, 0] ** 2 + grid[:, 1] ** 2
        assert np.min(1.0 - 9.0 * r2) > 0.0

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(NotPositive):
            model_form_pair(FormKind.TWO_D_POLAR_PLUS,
                            ModelFormParams(f=F_ONE, lam_const=-1.0))


AXIAL_LAM = ScalarFunction1D((0.5, 0.1), (-0.5, 0.5))


class TestAxialFamily:
    def test_eigenvalues_match_tensor(self):
        params = ModelFormParams(lam=AXIAL_LAM, f=F_MILD)
        pair = model_form_pair(FormKind.THREE_D_AXIAL, params)
        rng = np.random.default_rng(23)
        for x in pair.chart.sample(rng, 100):
            vals, _ = l_eigen(pair, x)
            assert np.max(np.abs(vals - model_eigenvalues(
                FormKind.THREE_D_AXIAL, params, x))) < 1e-8

    def test_rotation_invariance(self):
        pair = model_form_pair(FormKind.THREE_D_AXIAL, ModelFormParams(lam=AXIAL_LAM, f=F_MILD))
        rng = np.random.default_rng(24)
        pts = pair.chart.sample(rng, 20, shrink=0.7)
        for phi in (0.3, 1.2, 2.5):
            c, s = np.cos(phi), np.sin(phi)
            rot = np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
            for field in (pair.g, pair.gbar):
                before = field.eval(pts)
                after = field.eval(pts @ rot.T)
                assert np.max(np.abs(after - rot @ before @ rot.T)) < 1e-12

    def test_symmetry_plane_totally_geodesic(self):
        pair = model_form_pair(FormKind.THREE_D_AXIAL, ModelFormParams(lam=AXIAL_LAM, f=F_MILD))
        start = PhasePoint([-0.1, 0.0, -0.15], [0.3, 0.0, 0.35])
        traj = integrate_geodesic(pair.g, start, T=1.0, tol=1e-10)
        assert not traj.left_chart
        assert np.max(np.abs(traj.points[:, 1])) < 1e-8

    def test_cluster_only_on_axis(self):
        params = ModelFormParams(lam=AXIAL_LAM, f=F_MILD)
        pair = model_form_pair(FormKind.THREE_D_AXIAL, params)
        rng = np.random.default_rng(25)
        on_axis = np.zeros((10, 3))
        on_axis[:, 0] = rng.uniform(-0.4, 0.4, size=10)
        for x in on_axis:
            vals, _ = l_eigen(pair, x)
            assert np.min(np.diff(vals)) < 1e-8  # the constant eigenvalue doubles up
        off_axis = pair.chart.sample(rng, 50, shrink=0.9)
        off_axis = off_axis[off_axis[:, 1] ** 2 + off_axis[:, 2] ** 2 > 1e-4]
        for x in off_axis:
            vals, _ = l_eigen(pair, x)
            assert np.min(np.diff(vals)) > 1e-8

    def test_plane_direction_is_eigenvector(self):
        pair = model_form_pair(FormKind.THREE_D_AXIAL, ModelFormParams(lam=AXIAL_LAM, f=F_MILD))
        rng = np.random.default_rng(26)
        for _ in range(10):
            x = np.array([rng.uniform(-0.4, 0.4), 0.0, rng.uniform(-0.4, 0.4)])
            L = l_tensor(pair, x)
            e = np.array([0.0, 1.0, 0.0])
            assert np.max(np.abs(L @ e - 1.0 * e)) < 1e-10

    def test_unrealizable_profile(self):
        bad = ScalarFunction1D((1.5,), (-0.5, 0.5))
        with pytest.raises(NotRealizable):
            model_form_pair(FormKind.THREE_D_AXIAL, ModelFormParams(lam=bad, f=F_ONE))


class TestFullFamily:
    def test_origin_proportional_example(self):
        params = ModelFormParams(lam=LAM_AFFINE, c=1.0)
        pair = model_form_pair(FormKind.THREE_D_FULL, params)
        g = metric_at(pair.g, np.zeros(3))
        gbar = metric_at(pair.gbar, np.zeros(3))
        assert np.allclose(g, 4.0 * np.eye(3), atol=1e-12)
        assert np.allclose(gbar, 0.25 * np.eye(3), atol=1e-12)
        assert np.allclose(l_tensor(pair, np.zeros(3)), 2.0 * np.eye(3), atol=1e-11)

    def test_eigenvalues_match_tensor_off_singular_locus(self):
        params = ModelFormParams(lam=LAM_CUBIC, c=4.0 / LAM_CUBIC.derivative()(0.0))
        pair = model_form_pair(FormKind.THREE_D_FULL, params)
        rng = np.random.default_rng(27)
        pts = pair.chart.sample(rng, 200)
        pts = pts[np.linalg.norm(pts, axis=1) >= 0.05][:100]
        for x in pts:
            vals, _ = l_eigen(pair, x)
            assert np.max(np.abs(vals - model_eigenvalues(
                FormKind.THREE_D_FULL, params, x))) < 1e-8

    def test_middle_eigenvalue_is_profile_at_zero(self):
        params = ModelFormParams(lam=LAM_CUBIC, c=4.0 / LAM_CUBIC.derivative()(0.0))
        vals = model_eigenvalues(FormKind.THREE_D_FULL, params, np.array([0.1, 0.2, -0.1]))
        assert np.min(np.abs(vals - LAM_CUBIC(0.0))) < 1e-12

    def test_axis_points_have_doubled_eigenvalue(self):
        params = ModelFormParams(lam=LAM_CUBIC, c=4.0 / LAM_CUBIC.derivative()(0.0))
        pair = model_form_pair(FormKind.THREE_D_FULL, params)
        x = np.array([0.2, 0.0, 0.0])
        vals, _ = l_eigen(pair, x)
        expected = np.sort([LAM_CUBIC(0.0), LAM_CUBIC(0.0), LAM_CUBIC(0.4)])
        assert np.allclose(vals, expected, atol=1e-9)

    def test_nonpositive_slope_rejected(self):
        bad = ScalarFunction1D((2.0, -1.0), (-1.0, 1.0))
        with pytest.raises(NotRealizable):
            model_form_pair(FormKind.THREE_D_FULL, ModelFormParams(lam=bad, c=1.0))


class CornerFailure:
    """Fields for :func:`_realize_on_box` in three dimensions, both metrics the
    identity, where ``which`` (``g``, ``gbar`` or ``extra``) fails only at the last
    grid point, the box's upper corner, on the first ``boxes`` boxes tried; each
    box's ``g`` calls are counted.  Box ``j`` (from 1) has the half-width ``0.5^j``,
    and a ``g`` read that starts at the next box's lower corner, its first grid
    point, opens that box's count."""

    def __init__(self, which: str, boxes: int):
        self.which, self.boxes, self.g_calls = which, boxes, []
        self.fields = self.metric("g"), self.metric("gbar")

    def at_corner(self, xs):
        failing = len(self.g_calls) <= self.boxes
        return failing & np.all(xs == 0.5 ** len(self.g_calls), axis=-1)

    def metric(self, name):
        def evaluate(xs):
            if name == "g":
                if np.all(xs[0] == -0.5 ** (len(self.g_calls) + 1)):
                    self.g_calls.append(0)
                self.g_calls[-1] += 1
            out = np.broadcast_to(np.eye(3), xs.shape[:-1] + (3, 3)).copy()
            if name == self.which:
                out[self.at_corner(xs), 2, 2] = -1.0
            return out
        return evaluate

    def extra(self, xs):
        return self.which != "extra" or not np.any(self.at_corner(xs))


class TestBoxCheck:
    PIECES = -(-46**3 // CHUNK)  # the last grid point is in piece 24

    @pytest.mark.parametrize("which", ["g", "gbar", "extra"])
    def test_a_failure_at_the_last_grid_point_halves_the_box(self, which):
        failure = CornerFailure(which, boxes=2)
        pair = _realize_on_box(FormKind.THREE_D_FULL, failure.fields, 3, extra_ok=failure.extra)
        assert pair.chart.box == ((-0.125, 0.125),) * 3
        # Both failing boxes were read to their last piece, as was the one kept.
        assert failure.g_calls == [self.PIECES] * 3

    @pytest.mark.parametrize("which", ["g", "gbar", "extra"])
    def test_a_failure_at_every_last_grid_point_is_not_realizable(self, which):
        failure = CornerFailure(which, boxes=7)
        with pytest.raises(NotRealizable, match="after six box halvings"):
            _realize_on_box(FormKind.THREE_D_FULL, failure.fields, 3, extra_ok=failure.extra)
        assert failure.g_calls == [self.PIECES] * 7

    def test_a_family_makes_its_evaluators_once_however_often_its_box_halves(
            self, monkeypatch):
        original, made = geq.normal_forms._axial_fields, []

        def axial_fields(*profiles):
            made.append(profiles)
            return original(*profiles)

        monkeypatch.setattr(geq.normal_forms, "_axial_fields", axial_fields)
        # Past |x_0| = 5 the profile 0.5 + 0.1 x_0 leaves (0, 1): boxes 16 and 8 fail.
        monkeypatch.setattr(geq.normal_forms, "START_HALF_WIDTH", 16.0)
        pair = standard_pair("three_d_axial")
        assert pair.chart.box == ((-4.0, 4.0),) * 3
        assert len(made) == 1

    def test_every_registry_closed_form_family_keeps_its_box(self):
        names = [name for name in STANDARD_FAMILIES if standard_form_spec(name) is not None]
        assert len(names) == 6
        for name in names:
            pair = standard_pair(name)
            assert pair.chart.box == ((-0.5, 0.5),) * pair.dim, name

    @pytest.mark.parametrize("name", ["three_d_axial", "three_d_full"])
    def test_a_3d_family_is_built_without_its_whole_grid(self, name):
        # tracemalloc peaks are deterministic where RSS is not.  Read in pieces
        # the builds peak at 0.9 and 1.4 MiB; the whole 46^3-point grid took 16
        # and 28 MiB.  The bound leaves about three times the measured peak.
        standard_pair(name)  # warm-up: imports and cached tables
        tracemalloc.start()
        try:
            standard_pair(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def fd_jacobian(forward, pts, h=1e-6):
    """Central differences of ``forward`` along each axis, ``(..., target, source)``:
    the reference for the analytic chart-map Jacobians."""
    steps = h * np.eye(pts.shape[-1])
    return np.stack([(forward(pts + e) - forward(pts - e)) / (2.0 * h) for e in steps], axis=-1)


class TestChartMaps:
    def test_log_polar_example(self):
        cm = canonical_chart_map(FormKind.TWO_D_POLAR_PLUS)
        assert np.allclose(cm.forward(np.array([0.0, 0.0])), [1.0, 0.0], atol=1e-15)

    def test_elliptic_inverse_example(self):
        cm = canonical_chart_map(FormKind.TWO_D_ELLIPTIC)
        assert np.allclose(cm.forward(np.array([1.0, 1.0])), [0.0, 1.0], atol=1e-15)
        assert np.allclose(cm.inverse(np.array([0.0, 1.0])), [1.0, 1.0], atol=1e-15)

    def test_cylindrical_example(self):
        cm = canonical_chart_map(FormKind.THREE_D_FULL, c=1.0)
        assert np.allclose(cm.forward(np.array([0.0, 1.0, 0.0])), [1.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("kind", [FormKind.TWO_D_ELLIPTIC, FormKind.TWO_D_POLAR_PLUS])
    def test_round_trip_and_jacobians(self, kind):
        cm = canonical_chart_map(kind)
        rng = np.random.default_rng(28)
        pts = cm.source.sample(rng, 20)
        assert np.max(np.abs(cm.inverse(cm.forward(pts)) - pts)) < 1e-12
        assert np.max(np.abs(cm.jacobian(pts) - fd_jacobian(cm.forward, pts))) < 1e-6
        inv = cm.inverted()
        wpts = inv.source.sample(rng, 20)
        assert np.max(np.abs(inv.jacobian(wpts) - fd_jacobian(inv.forward, wpts))) < 1e-6

    def test_cylindrical_round_trip(self):
        cm = canonical_chart_map(FormKind.THREE_D_FULL, c=2.0)
        rng = np.random.default_rng(29)
        pts = cm.source.sample(rng, 20)
        assert np.max(np.abs(cm.inverse(cm.forward(pts)) - pts)) < 1e-12
        assert np.max(np.abs(cm.jacobian(pts) - fd_jacobian(cm.forward, pts))) < 1e-6

    def test_axial_has_no_canonical_map(self):
        with pytest.raises(ValueError):
            canonical_chart_map(FormKind.THREE_D_AXIAL)


class TestChartMapConsistency:
    def test_elliptic_pushforward_is_conformal(self):
        lam = LAM_CUBIC
        pair = model_form_pair(FormKind.TWO_D_ELLIPTIC, ModelFormParams(lam=lam))
        cm = canonical_chart_map(FormKind.TWO_D_ELLIPTIC)
        pushed = pushforward_metric(cm, pair.g)
        pts = cm.source.sample(np.random.default_rng(30), 50)
        got = pushed.eval(pts)
        factor = 4.0 * (lam(pts[:, 1] ** 2) - lam(-pts[:, 0] ** 2))
        expected = factor[:, None, None] * np.eye(2)
        assert np.max(np.abs(got - expected)) < 1e-8 * max(1.0, float(np.max(np.abs(factor))))

    def test_log_polar_pushforward_both_metrics(self):
        f, lam1 = F_MILD, 1.3
        pair = model_form_pair(FormKind.TWO_D_POLAR_PLUS,
                               ModelFormParams(f=f, lam_const=lam1))
        cm = canonical_chart_map(FormKind.TWO_D_POLAR_PLUS)
        pts = cm.source.sample(np.random.default_rng(31), 50)
        r2 = np.exp(2.0 * pts[:, 0])
        got_g = pushforward_metric(cm, pair.g).eval(pts)
        expected_g = (r2 * f(r2))[:, None, None] * np.eye(2)
        assert np.max(np.abs(got_g - expected_g)) < 1e-8
        got_gbar = pushforward_metric(cm, pair.gbar).eval(pts)
        nu1 = lam1
        nu2 = lam1 * (1.0 + r2 * f(r2))
        expected_gbar = np.zeros_like(got_gbar)
        expected_gbar[:, 0, 0] = (nu2 - nu1) / (nu1**2 * nu2**2)
        expected_gbar[:, 1, 1] = (nu2 - nu1) / (nu1**3 * nu2)
        assert np.max(np.abs(got_gbar - expected_gbar)) < 1e-8

    def test_log_polar_pushforward_minus_companion(self):
        f, lam2 = F_MILD, 1.3
        pair = model_form_pair(FormKind.TWO_D_POLAR_MINUS,
                               ModelFormParams(f=f, lam_const=lam2))
        cm = canonical_chart_map(FormKind.TWO_D_POLAR_MINUS)
        pts = cm.source.sample(np.random.default_rng(32), 50)
        r2 = np.exp(2.0 * pts[:, 0])
        nu1 = lam2 * (1.0 - r2 * f(r2))
        nu2 = np.full_like(nu1, lam2)
        got = pushforward_metric(cm, pair.gbar).eval(pts)
        expected = np.zeros_like(got)
        expected[:, 0, 0] = (nu2 - nu1) / (nu1**2 * nu2**2)
        expected[:, 1, 1] = (nu2 - nu1) / (nu1 * nu2**3)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_cylindrical_pushforward_diagonalizes(self):
        lam = LAM_CUBIC
        c = 4.0 / lam.derivative()(0.0)
        pair = model_form_pair(FormKind.THREE_D_FULL, ModelFormParams(lam=lam, c=c))
        cm = canonical_chart_map(FormKind.THREE_D_FULL, c=c).inverted()
        pushed = pushforward_metric(cm, pair.g)
        pts = cm.source.sample(np.random.default_rng(33), 50)
        got = pushed.eval(pts)
        x0, x2 = pts[:, 0], pts[:, 2]
        mu1, mu3, lam0 = lam(-x0), lam(x2), lam(0.0)
        expected = np.zeros_like(got)
        expected[:, 0, 0] = (mu3 - mu1) / x0
        expected[:, 1, 1] = (lam0 - mu1) * (mu3 - lam0)
        expected[:, 2, 2] = (mu3 - mu1) / x2
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) < 1e-8 * scale
