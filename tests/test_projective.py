"""Tensor L, adjugate polynomial, integrals, roots, Nijenhuis torsion."""
import numpy as np
import pytest

from geq.charts import Chart, MetricField, PhasePoint
from geq.errors import (BracketFailure, DimensionMismatch, NotPositiveDefinite, OutOfChart,
                        SingularMetric)
from geq.normal_forms import levi_civita_pair, random_levi_civita_data
from geq.projective import (
    MetricPair,
    PolyTensor,
    _integral_coeffs,
    _l_frame,
    _l_from,
    _l_values,
    _roots_many,
    eigen_range,
    f_integral_2d,
    frame_weights,
    i_t,
    integral_roots,
    integral_roots_many,
    l_eigen,
    l_tensor,
    max_eigen_multiplicity,
    nijenhuis_at,
    poisson_bracket_fd,
    s_t,
)
from geq.verify import STANDARD_FAMILIES, standard_pair


def constant_pair(g_mat, gbar_mat, half=2.0) -> MetricPair:
    g_mat = np.asarray(g_mat, dtype=float)
    n = g_mat.shape[0]
    chart = Chart(n, tuple((-half, half) for _ in range(n)))

    def make(mat):
        def eval_fn(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(mat, x.shape[:-1] + mat.shape).copy()
        return MetricField(chart=chart, eval=eval_fn)

    return MetricPair(g=make(g_mat), gbar=make(np.asarray(gbar_mat, dtype=float)))


def pair_with_constant_l(l_diag) -> MetricPair:
    """Flat base metric with a prescribed constant diagonal tensor L:
    gbar = g L^{-1} / det L."""
    l_diag = np.asarray(l_diag, dtype=float)
    gbar = np.diag(1.0 / (l_diag * np.prod(l_diag)))
    return constant_pair(np.eye(l_diag.shape[0]), gbar)


def variable_pair() -> MetricPair:
    """A smooth non-constant positive-definite pair (not geodesically
    compatible; used for algebra-identity tests only)."""
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))

    def g_eval(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + np.sin(x[..., 0])
        out[..., 0, 1] = out[..., 1, 0] = 0.3 * x[..., 0] * x[..., 1]
        out[..., 1, 1] = 1.5 + 0.5 * np.cos(x[..., 1])
        return out

    def gbar_eval(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + 0.2 * x[..., 1] ** 2
        out[..., 0, 1] = out[..., 1, 0] = 0.1 * np.sin(x[..., 0] + x[..., 1])
        out[..., 1, 1] = 3.0 + 0.4 * x[..., 0]
        return out

    return MetricPair(
        g=MetricField(chart=chart, eval=g_eval),
        gbar=MetricField(chart=chart, eval=gbar_eval),
    )


class TestLTensor:
    def test_proportional_metrics(self):
        pair = constant_pair(np.eye(3), 4.0 * np.eye(3))
        L = l_tensor(pair, np.zeros(3))
        assert np.allclose(L, 4.0 ** -0.25 * np.eye(3), atol=1e-14)
        assert L[0, 0] == pytest.approx(0.70711, abs=1e-5)

    def test_constant_block_pair(self):
        pair = constant_pair(np.eye(2), np.diag([0.5, 0.25]))
        L = l_tensor(pair, np.array([0.3, -0.7]))
        assert np.allclose(L, np.diag([1.0, 2.0]), atol=1e-12)

    def test_equal_metrics_give_identity(self):
        pair = constant_pair(np.diag([2.0, 3.0]), np.diag([2.0, 3.0]))
        assert np.allclose(l_tensor(pair, np.zeros(2)), np.eye(2), atol=1e-14)

    def test_out_of_chart(self):
        pair = constant_pair(np.eye(2), np.eye(2))
        with pytest.raises(OutOfChart):
            l_tensor(pair, np.array([5.0, 0.0]))

    def test_singular_metric(self):
        pair = constant_pair(np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(SingularMetric):
            l_tensor(pair, np.zeros(2))

    def test_mismatched_charts_rejected(self):
        a = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
        b = Chart(2, ((-2.0, 2.0), (-1.0, 1.0)))
        eye = lambda x: np.broadcast_to(np.eye(2), np.asarray(x).shape[:-1] + (2, 2)).copy()
        with pytest.raises(ValueError):
            MetricPair(g=MetricField(chart=a, eval=eye), gbar=MetricField(chart=b, eval=eye))


class TestLEigen:
    def test_sorted_eigenvalues(self):
        pair = constant_pair(np.eye(2), np.diag([0.5, 0.25]))
        vals, vecs = l_eigen(pair, np.zeros(2))
        assert np.allclose(vals, [1.0, 2.0], atol=1e-12)

    def test_proportional(self):
        pair = constant_pair(np.eye(3), 4.0 * np.eye(3))
        vals, _ = l_eigen(pair, np.zeros(3))
        assert np.allclose(vals, [0.70711] * 3, atol=1e-5)

    def test_eigenvectors_diagonalize_and_are_orthonormal(self):
        pair = variable_pair()
        x = np.array([0.2, -0.4])
        L = l_tensor(pair, x)
        vals, vecs = l_eigen(pair, x)
        assert np.allclose(L @ vecs, vecs * vals[None, :], atol=1e-10)
        g = pair.g.eval(x[None, :])[0]
        assert np.allclose(vecs.T @ g @ vecs, np.eye(2), atol=1e-10)

    def test_realness_against_dense_solver(self):
        pair = variable_pair()
        pts = pair.chart.sample(np.random.default_rng(0), 50)
        for p in pts:
            dense = np.linalg.eigvals(l_tensor(pair, p))
            assert np.max(np.abs(dense.imag)) < 1e-9
            vals, _ = l_eigen(pair, p)
            assert np.allclose(np.sort(dense.real), vals, atol=1e-9)

    @staticmethod
    def changed_separable_metrics(n):
        """Both metrics of a random separable pair at 200 points, made
        non-diagonal by a random linear change of coordinates."""
        rng = np.random.default_rng(40 + n)
        pair = levi_civita_pair(random_levi_civita_data(n, rng))
        xs = pair.chart.sample(rng, 200)
        a = np.linalg.qr(rng.normal(size=(n, n)))[0] * rng.uniform(0.5, 2.0, size=n)
        return a.T @ pair.g.eval(xs) @ a, a.T @ pair.gbar.eval(xs) @ a

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_value_only_path_matches_the_eigenframe(self, n):
        g, gb = self.changed_separable_metrics(n)
        mu = _l_values(g, gb)
        # Independent reference: the general eigen solver on L itself.
        dense = np.linalg.eigvals(_l_from(g, gb))
        ref = np.sort(dense.real, axis=-1)
        assert np.max(np.abs(dense.imag) / np.abs(ref)) < 1e-13
        assert np.all(np.diff(mu, axis=-1) > 0.0)
        assert np.max(np.abs(mu - ref) / np.abs(ref)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_eigenframe_diagonalizes_and_is_orthonormal(self, n):
        g, gb = self.changed_separable_metrics(n)
        mu, vecs = _l_frame(g, gb)
        residual = _l_from(g, gb) @ vecs - vecs * mu[..., None, :]
        scale = np.abs(mu) * np.linalg.norm(vecs, axis=-2)
        assert np.max(np.linalg.norm(residual, axis=-2) / scale) < 1e-12
        gram = np.swapaxes(vecs, -1, -2) @ g @ vecs
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("which", ["base", "companion"])
    def test_value_only_path_names_an_indefinite_metric(self, which):
        indefinite, flat = np.diag([1.0, -2.0, 3.0]), np.eye(3)
        mats = (indefinite, flat) if which == "base" else (flat, indefinite)
        pair = constant_pair(*mats)
        for call in (lambda: _l_values(mats[0][None], mats[1][None]),
                     lambda: eigen_range(pair, np.zeros((4, 3)))):
            with pytest.raises(NotPositiveDefinite, match=f"^{which} metric is not") as info:
                call()
            assert not isinstance(info.value, np.linalg.LinAlgError)


class TestAdjugatePolynomial:
    def test_two_by_two_diagonal(self):
        pair = constant_pair(np.eye(2), np.diag([0.5, 0.25]))
        poly = s_t(pair, np.zeros(2))
        assert poly.degree == 1
        assert np.allclose(poly.coeffs[0], np.diag([2.0, 1.0]), atol=1e-12)
        assert np.allclose(poly.coeffs[1], -np.eye(2), atol=1e-12)
        assert np.allclose(poly.at(0.5), np.diag([1.5, 0.5]), atol=1e-12)

    def test_three_by_three_at_eigenvalue(self):
        pair = pair_with_constant_l(np.array([1.0, 2.0, 3.0]))
        poly = s_t(pair, np.zeros(3))
        assert np.allclose(poly.at(2.0), np.diag([0.0, -1.0, 0.0]), atol=1e-10)

    def test_dimension_one_is_constant_one(self):
        chart = Chart(1, ((-1.0, 1.0),))
        lam = 1.7

        def g_eval(x):
            x = np.asarray(x, dtype=float)
            return np.ones(x.shape[:-1] + (1, 1))

        def gbar_eval(x):
            x = np.asarray(x, dtype=float)
            return np.full(x.shape[:-1] + (1, 1), 1.0 / lam**2)

        pair = MetricPair(g=MetricField(chart=chart, eval=g_eval),
                          gbar=MetricField(chart=chart, eval=gbar_eval))
        assert np.allclose(l_tensor(pair, np.zeros(1)), [[lam]], atol=1e-12)
        poly = s_t(pair, np.zeros(1))
        assert poly.degree == 0
        assert np.allclose(poly.coeffs[0], [[1.0]], atol=1e-15)

    def test_adjugate_identity_random_t(self):
        pair = variable_pair()
        rng = np.random.default_rng(1)
        for x in pair.chart.sample(rng, 5):
            L = l_tensor(pair, x)
            poly = s_t(pair, x)
            for t in rng.uniform(-3, 3, size=10):
                lhs = poly.at(t) @ (L - t * np.eye(2))
                rhs = np.linalg.det(L - t * np.eye(2)) * np.eye(2)
                scale = max(1.0, abs(np.linalg.det(L - t * np.eye(2))))
                assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            PolyTensor(degree=2, coeffs=(np.eye(2),))


class TestIntegrals:
    def test_two_eigenvalue_polynomial(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        p = PhasePoint([0.0, 0.0], [1.0, 1.0])
        assert i_t(pair, p, 0.0) == pytest.approx(4.0, abs=1e-12)
        assert i_t(pair, p, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert i_t(pair, p, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_single_component(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        p = PhasePoint([0.0, 0.0], [1.0, 0.0])
        assert i_t(pair, p, 0.0) == pytest.approx(3.0, abs=1e-12)
        assert i_t(pair, p, 2.5) == pytest.approx(0.5, abs=1e-12)

    def test_leading_sign_even_dimension(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        p = PhasePoint([0.0, 0.0], [0.7, -0.4])
        expected_sign = -1.0  # (-1)^(n-1) with n = 2
        assert np.sign(i_t(pair, p, 1e6)) == expected_sign

    def test_indefinite_metric_is_singular(self):
        pair = constant_pair(np.diag([1.0, -2.0, 3.0]), np.eye(3))
        with pytest.raises(SingularMetric):
            i_t(pair, PhasePoint([0.0] * 3, [1.0, 1.0, 1.0]), 0.5)

    def test_planar_integral_equal_metrics(self):
        pair = constant_pair(np.diag([2.0, 5.0]), np.diag([2.0, 5.0]))
        p = PhasePoint([0.0, 0.0], [1.0, 1.0])
        assert f_integral_2d(pair, p) == pytest.approx(7.0, abs=1e-12)

    def test_planar_integral_value(self):
        pair = constant_pair(np.eye(2), np.diag([0.5, 0.25]))
        p = PhasePoint([0.0, 0.0], [1.0, 1.0])
        assert f_integral_2d(pair, p) == pytest.approx(3.0, abs=1e-12)

    def test_planar_integral_dimension_guard(self):
        pair = constant_pair(np.eye(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            f_integral_2d(pair, PhasePoint([0.0] * 3, [1.0, 0.0, 0.0]))

    def test_frame_weights_sum_to_energy(self):
        pair = variable_pair()
        xs = pair.chart.sample(np.random.default_rng(2), 20)
        vs = np.random.default_rng(3).normal(size=(20, 2))
        mu, w = frame_weights(pair, xs, vs)
        g = pair.g.eval(xs)
        energy = np.einsum("...i,...ij,...j->...", vs, g, vs)
        assert np.allclose(np.sum(w, axis=-1), energy, atol=1e-10)


class TestIntegralRoots:
    def test_midpoint_root(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        rs = integral_roots(pair, PhasePoint([0.0, 0.0], [1.0, 1.0]))
        assert rs.roots == pytest.approx([2.0], abs=1e-11)
        assert rs.brackets[0] == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_quadratic_roots_three_eigenvalues(self):
        pair = pair_with_constant_l(np.array([1.0, 2.0, 4.0]))
        rs = integral_roots(pair, PhasePoint([0.0] * 3, [1.0, 1.0, 1.0]))
        expected = [(7 - np.sqrt(7)) / 3, (7 + np.sqrt(7)) / 3]
        assert rs.roots == pytest.approx(expected, abs=1e-10)
        lo, hi = rs.roots
        assert 1.0 <= lo <= 2.0 <= hi <= 4.0

    def test_boundary_root(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        rs = integral_roots(pair, PhasePoint([0.0, 0.0], [1.0, 0.0]))
        assert rs.roots == pytest.approx([3.0], abs=1e-11)

    def test_pinned_root_on_eigenvalue_cluster(self):
        pair = pair_with_constant_l(np.array([2.0, 2.0, 5.0]))
        rs = integral_roots(pair, PhasePoint([0.0] * 3, [1.0, 1.0, 1.0]))
        assert rs.roots == pytest.approx([2.0, 4.0], abs=1e-10)

    def test_batched_matches_single(self):
        pair = variable_pair()
        rng = np.random.default_rng(4)
        xs = pair.chart.sample(rng, 15)
        vs = rng.normal(size=(15, 2))
        batch = integral_roots_many(pair, xs, vs)
        for i in range(15):
            rs = integral_roots(pair, PhasePoint(xs[i], vs[i]))
            assert batch[i] == pytest.approx(list(rs.roots), abs=1e-11)

    def test_points_broadcast_against_their_velocities(self):
        pair = variable_pair()
        rng = np.random.default_rng(9)
        pts = pair.chart.sample(rng, 12)
        vs = rng.normal(size=(12, 5, 2))
        full = np.broadcast_to(pts[:, None, :], vs.shape)
        roots = integral_roots_many(pair, pts[:, None, :], vs)
        assert roots.shape == (12, 5, 1)
        assert np.array_equal(roots, integral_roots_many(pair, full, vs))
        for got, expected in zip(frame_weights(pair, pts[:, None, :], vs),
                                 frame_weights(pair, full, vs)):
            assert np.array_equal(got, expected)

    def test_zero_velocity_is_a_bracket_failure(self):
        pair = pair_with_constant_l(np.array([1.0, 2.0, 4.0]))
        with pytest.raises(BracketFailure, match="velocity is zero"):
            integral_roots(pair, PhasePoint([0.0] * 3, 0.0 * np.array([1.0, 1.0, 1.0])))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_solver_interlaces_and_pins_on_random_rows(self, n):
        rng = np.random.default_rng(40 + n)
        rows = 2000
        mu = np.sort(rng.uniform(-3.0, 3.0, size=(rows, n)), axis=1)
        w = rng.uniform(0.0, 2.0, size=(rows, n)) ** 2
        # A quarter of the rows get a repeated eigenvalue, another quarter a
        # zero weight.
        quarter = rows // 4
        cut = rng.integers(0, n - 1, size=quarter)
        mu[np.arange(quarter), cut + 1] = mu[np.arange(quarter), cut]
        w[quarter + np.arange(quarter), rng.integers(0, n, size=quarter)] = 0.0
        roots = _roots_many(mu, w)
        assert roots.shape == (rows, n - 1)
        assert np.all(roots >= mu[:, :-1] - 1e-12)
        assert np.all(roots <= mu[:, 1:] + 1e-12)
        pinned = mu[:, 1:] == mu[:, :-1]
        assert np.any(pinned)
        assert np.max(np.abs(roots - mu[:, :-1])[pinned]) < 1e-12
        # On the separated rows with positive weights the roots are those of
        # R(t) = sum_j w_j prod_{a != j} (mu_a - t), found independently.
        for i in range(2 * quarter, 2 * quarter + 50):
            poly = sum(w[i, j] * np.polynomial.polynomial.polyfromroots(np.delete(mu[i], j))
                       for j in range(n))
            expected = np.sort(np.polynomial.polynomial.polyroots(poly).real)
            assert roots[i] == pytest.approx(expected, abs=1e-8)

    def test_roots_are_zeros_of_the_integral(self):
        pair = variable_pair()
        rng = np.random.default_rng(5)
        xs = pair.chart.sample(rng, 10)
        vs = rng.normal(size=(10, 2))
        for i in range(10):
            p = PhasePoint(xs[i], vs[i])
            for r in integral_roots(pair, p).roots:
                assert abs(i_t(pair, p, r)) < 1e-8
        # On every registry family, the batched roots (eigenframe path) are
        # zeros of the adjugate polynomial (L path), relative to the size of
        # its terms at the root.
        for name in STANDARD_FAMILIES:
            pair = standard_pair(name)
            xs = pair.chart.sample(rng, 200)
            vs = rng.normal(size=(200, pair.dim))
            roots = integral_roots_many(pair, xs, vs)
            coeffs = _integral_coeffs(pair, xs, vs)[:, None, :]
            terms = coeffs * roots[..., None] ** np.arange(pair.dim)
            residual = np.abs(np.sum(terms, axis=-1)) / np.sum(np.abs(terms), axis=-1)
            assert np.max(residual) < 1e-12, name


class TestNijenhuis:
    def test_constant_proportional_pair_vanishes(self):
        pair = constant_pair(np.eye(2), 3.0 * np.eye(2))
        n = nijenhuis_at(pair, np.array([0.3, 0.4]))
        assert np.max(np.abs(n)) < 1e-12

    def test_crafted_control_is_large(self):
        chart = Chart(2, ((1.0, 2.0), (1.0, 2.0)))

        def g_eval(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()

        def gbar_eval(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0 / (x[..., 0] * x[..., 1] ** 2)
            out[..., 1, 1] = 1.0 / (x[..., 0] ** 2 * x[..., 1])
            return out

        pair = MetricPair(g=MetricField(chart=chart, eval=g_eval),
                          gbar=MetricField(chart=chart, eval=gbar_eval))
        x = np.array([1.2, 1.8])
        assert np.allclose(l_tensor(pair, x), np.diag([1.8, 1.2]), atol=1e-12)
        n = nijenhuis_at(pair, x)
        assert n[0, 0, 1] == pytest.approx(1.8 - 1.2, abs=1e-6)
        assert np.max(np.abs(n)) > 0.1

    def test_antisymmetry(self):
        pair = variable_pair()
        for x in pair.chart.sample(np.random.default_rng(6), 5, shrink=0.8):
            n = nijenhuis_at(pair, x)
            assert np.allclose(n, -np.swapaxes(n, 1, 2), atol=1e-12)

    def test_interior_requirement(self):
        pair = variable_pair()
        with pytest.raises(OutOfChart):
            nijenhuis_at(pair, np.array([1.0, 0.0]))


class TestDiagnostics:
    def test_eigen_range(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        lo, hi = eigen_range(pair, pair.chart.sample(np.random.default_rng(7), 20))
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(3.0, abs=1e-10)

    def test_multiplicity_counter(self):
        distinct = pair_with_constant_l(np.array([1.0, 2.0, 3.0]))
        assert max_eigen_multiplicity(distinct, np.zeros((4, 3))) == 1
        clustered = pair_with_constant_l(np.array([2.0, 2.0, 2.0, 5.0]))
        assert max_eigen_multiplicity(clustered, np.zeros((4, 4))) == 3

    def test_poisson_bracket_constant_tensor(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        val = poisson_bracket_fd(pair, np.array([0.1, 0.2]), np.array([0.5, -0.3]),
                                 t1=0.0, t2=2.5)
        assert abs(val) < 1e-9
