"""Tensor L, the adjugate reference, integrals, roots, Nijenhuis torsion."""
import dataclasses

import numpy as np
import pytest

from geq._batch import CHUNK, cholesky_inverse
from geq.charts import FD_STEP, Chart, MetricField
from geq.errors import BracketFailure, NotPositiveDefinite, OutOfChart, SingularMetric
from geq.normal_forms import (FormKind, ModelFormParams, ScalarFunction1D, levi_civita_pair,
                              model_form_pair, random_levi_civita_data)
from geq.projective import (
    BATCH_KERNEL_MIN,
    MetricPair,
    _char_scale,
    _congruent,
    _frame_weights,
    _integrals,
    _l_frame,
    _l_from,
    _l_partials,
    _l_values,
    _roots_many,
    eigen_range,
    frame_weights,
    integral_roots_many,
    l_eigen,
    l_tensor,
    max_eigen_multiplicity,
    nijenhuis_at,
    poisson_bracket_fd,
)
from geq.split_glue import EquivTriple, glue_pair
from geq.verify import (CONTROL_FAMILIES, EQUIVALENT_FAMILIES, STANDARD_FAMILIES,
                        seeded_starts, standard_pair)
from test_verify import counted


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


def l_many(pair, xs):
    """``L`` at a batch of points, from one read of each metric."""
    return _l_from(pair.g.eval(xs), pair.gbar.eval(xs))


def _char_and_adjugate(L):
    """The reference: characteristic and adjugate coefficients of ``L - t I``,
    batched.

    Returns ``(char, adj)`` where ``char[..., k]`` is the coefficient of
    ``t^k`` in ``det(L - t I)`` and ``adj[..., k, :, :]`` that of
    ``adj(L - t I)``, computed by the trace-driven adjugate recursion so
    the result stays well defined at repeated eigenvalues.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[-1]
    eye = np.broadcast_to(np.eye(n), L.shape)
    c = np.zeros(L.shape[:-2] + (n + 1,))
    c[..., n] = 1.0
    ms = []
    m = np.zeros_like(L)
    for k in range(1, n + 1):
        m = L @ m + c[..., n - k + 1, None, None] * eye
        ms.append(m)
        c[..., n - k] = -np.einsum("...ii->...", L @ m) / k
    sign = (-1.0) ** (n - 1)
    adj = np.stack([sign * ms[n - 1 - k] for k in range(n)], axis=-3)
    char = (-1.0) ** n * c
    return char, adj


def adjugate_integral_coeffs(g, gb, vs):
    """The reference route to the integrals: coefficients ``(..., n)`` of
    ``t -> g(adj(L - t I) v, v)``, with ``L`` from determinants and a solve."""
    _, adj = _char_and_adjugate(_l_from(g, gb))
    return np.einsum("...i,...ij,...kjl,...l->...k", vs, g, adj, vs)


def integral_at(pair, x, v, ts):
    """``I_t`` at one phase point for each ``t`` of ``ts``, on the library's
    route: the eigenframe weights of a batch of one point, then :func:`_integrals`."""
    mu, w = frame_weights(pair, np.asarray(x, dtype=float)[None], np.asarray(v, dtype=float)[None])
    return _integrals(mu, w, np.atleast_1d(np.asarray(ts, dtype=float)))[0]


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
        with pytest.raises(NotPositiveDefinite, match="^companion metric is not positive"):
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


def adjugate(pair, x):
    """Coefficients of ``adj(L - t I)`` at one point, ``t^k`` at index ``k``."""
    return _char_and_adjugate(l_tensor(pair, x))[1]


def at(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


class TestAdjugateReference:
    def test_two_by_two_diagonal(self):
        pair = constant_pair(np.eye(2), np.diag([0.5, 0.25]))
        coeffs = adjugate(pair, np.zeros(2))
        assert len(coeffs) == 2  # degree n - 1
        assert np.allclose(coeffs[0], np.diag([2.0, 1.0]), atol=1e-12)
        assert np.allclose(coeffs[1], -np.eye(2), atol=1e-12)
        assert np.allclose(at(coeffs, 0.5), np.diag([1.5, 0.5]), atol=1e-12)

    def test_three_by_three_at_eigenvalue(self):
        pair = pair_with_constant_l(np.array([1.0, 2.0, 3.0]))
        coeffs = adjugate(pair, np.zeros(3))
        assert np.allclose(at(coeffs, 2.0), np.diag([0.0, -1.0, 0.0]), atol=1e-10)

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
        coeffs = adjugate(pair, np.zeros(1))
        assert len(coeffs) == 1
        assert np.allclose(coeffs[0], [[1.0]], atol=1e-15)
        assert integral_at(pair, [0.0], [2.0], [0.3, 7.0]) == pytest.approx([4.0, 4.0],
                                                                           abs=1e-12)

    def test_adjugate_identity_random_t(self):
        pair = variable_pair()
        rng = np.random.default_rng(1)
        for x in pair.chart.sample(rng, 5):
            L = l_tensor(pair, x)
            coeffs = adjugate(pair, x)
            for t in rng.uniform(-3, 3, size=10):
                lhs = at(coeffs, t) @ (L - t * np.eye(2))
                rhs = np.linalg.det(L - t * np.eye(2)) * np.eye(2)
                scale = max(1.0, abs(np.linalg.det(L - t * np.eye(2))))
                assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


class TestIntegrals:
    def test_two_eigenvalue_polynomial(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        assert integral_at(pair, [0.0, 0.0], [1.0, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(
            [4.0, 2.0, 0.0], abs=1e-12)

    def test_single_component(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        assert integral_at(pair, [0.0, 0.0], [1.0, 0.0], [0.0, 2.5]) == pytest.approx(
            [3.0, 0.5], abs=1e-12)

    def test_leading_sign_even_dimension(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        expected_sign = -1.0  # (-1)^(n-1) with n = 2
        assert np.sign(integral_at(pair, [0.0, 0.0], [0.7, -0.4], 1e6)[0]) == expected_sign

    def test_indefinite_metric_is_not_positive_definite(self):
        # The integrals come from the eigenframe, whose congruence names the
        # indefinite base metric; the determinant route raised SingularMetric.
        pair = constant_pair(np.diag([1.0, -2.0, 3.0]), np.eye(3))
        with pytest.raises(NotPositiveDefinite, match="^base metric is not positive definite"):
            poisson_bracket_fd(pair, np.zeros(3), np.ones(3), 0.5, 0.7)

    @staticmethod
    def planar_form(pair, n_traj=6, seed=0):
        """The quadratic form ``M`` with ``I_0(v) = v^T M v``, fitted to ``I_0`` at
        seeded phase points; in dimension two ``I_0`` is the quadratic integral
        ``(det g / det gbar)^(2/3) gbar(v, v)``."""
        xs, v = seeded_starts(pair, n_traj, np.random.default_rng(seed))
        f = _integrals(*frame_weights(pair, xs, v), np.zeros(1))[:, 0]
        basis = np.stack([v[:, 0] ** 2, 2.0 * v[:, 0] * v[:, 1], v[:, 1] ** 2], axis=1)
        (a, b, c), *_ = np.linalg.lstsq(basis, f, rcond=None)
        assert np.allclose(basis @ [a, b, c], f, rtol=0.0, atol=1e-13)  # F is that form
        return np.array([[a, b], [b, c]])

    def test_planar_integral_equal_metrics(self):
        form = self.planar_form(constant_pair(np.diag([2.0, 5.0]), np.diag([2.0, 5.0])))
        assert np.ones(2) @ form @ np.ones(2) == pytest.approx(7.0, abs=1e-12)

    def test_planar_integral_value(self):
        form = self.planar_form(constant_pair(np.eye(2), np.diag([0.5, 0.25])))
        assert np.ones(2) @ form @ np.ones(2) == pytest.approx(3.0, abs=1e-12)

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
        roots = integral_roots_many(pair, np.zeros(2), [1.0, 1.0])
        assert roots == pytest.approx([2.0], abs=1e-11)
        mu = frame_weights(pair, np.zeros(2), [1.0, 1.0])[0]
        assert mu == pytest.approx([1.0, 3.0], abs=1e-12)  # the root's bracket

    def test_quadratic_roots_three_eigenvalues(self):
        pair = pair_with_constant_l(np.array([1.0, 2.0, 4.0]))
        roots = integral_roots_many(pair, np.zeros(3), [1.0, 1.0, 1.0])
        expected = [(7 - np.sqrt(7)) / 3, (7 + np.sqrt(7)) / 3]
        assert roots == pytest.approx(expected, abs=1e-10)
        lo, hi = roots
        assert 1.0 <= lo <= 2.0 <= hi <= 4.0

    def test_boundary_root(self):
        pair = pair_with_constant_l(np.array([1.0, 3.0]))
        roots = integral_roots_many(pair, np.zeros(2), [1.0, 0.0])
        assert roots == pytest.approx([3.0], abs=1e-11)

    def test_pinned_root_on_eigenvalue_cluster(self):
        pair = pair_with_constant_l(np.array([2.0, 2.0, 5.0]))
        roots = integral_roots_many(pair, np.zeros(3), [1.0, 1.0, 1.0])
        assert roots == pytest.approx([2.0, 4.0], abs=1e-10)

    def test_batched_matches_single(self):
        pair = variable_pair()
        rng = np.random.default_rng(4)
        xs = pair.chart.sample(rng, 15)
        vs = rng.normal(size=(15, 2))
        batch = integral_roots_many(pair, xs, vs)
        for i in range(15):
            assert batch[i] == pytest.approx(integral_roots_many(pair, xs[i], vs[i]), abs=1e-11)

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
            integral_roots_many(pair, np.zeros(3), 0.0 * np.array([1.0, 1.0, 1.0]))

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
        coeffs = adjugate_integral_coeffs(pair.g.eval(xs), pair.gbar.eval(xs), vs)
        for i in range(10):
            for r in integral_roots_many(pair, xs[i], vs[i]):
                assert abs(np.polynomial.polynomial.polyval(r, coeffs[i])) < 1e-8
        # On every registry family, the batched roots (eigenframe path) are
        # zeros of the adjugate polynomial (L path), relative to the size of
        # its terms at the root.
        for name in STANDARD_FAMILIES:
            pair = standard_pair(name)
            xs = pair.chart.sample(rng, 200)
            vs = rng.normal(size=(200, pair.dim))
            roots = integral_roots_many(pair, xs, vs)
            coeffs = adjugate_integral_coeffs(pair.g.eval(xs), pair.gbar.eval(xs), vs)
            terms = coeffs[:, None, :] * roots[..., None] ** np.arange(pair.dim)
            residual = np.abs(np.sum(terms, axis=-1)) / np.sum(np.abs(terms), axis=-1)
            assert np.max(residual) < 1e-12, name


def einsum_frame_weights(g, gb, vs):
    """The squared frame coordinates by one three-operand einsum, which forms
    ``V^T g`` again for every vector: the reference for :func:`_frame_weights`."""
    vecs = _l_frame(g, gb)[1]
    return np.einsum("...ji,...jk,...k->...i", vecs, g, vs) ** 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frame_weights_agree_with_the_einsum_reference(n):
    g, gb = TestLEigen.changed_separable_metrics(n)
    vs = np.random.default_rng(n).normal(size=(len(g), 10, n))
    # check_interlacing's broadcast shape, then check_conservation's stacked one
    for args in ((g[:, None], gb[:, None], vs), (g, gb, vs[:, 0])):
        mu, w = _frame_weights(*args)
        ref = einsum_frame_weights(*args)
        assert w.shape == mu.shape == ref.shape
        assert np.max(np.abs(w - ref)) <= 1e-15 * np.max(ref)


@pytest.mark.parametrize("name", EQUIVALENT_FAMILIES)
def test_a_point_has_the_same_frame_weights_alone_and_in_a_batch_of_one(name):
    pair = standard_pair(name)
    rng = np.random.default_rng(12)
    for x, v in zip(pair.chart.sample(rng, 50), rng.normal(size=(50, pair.dim))):
        mu, w = frame_weights(pair, x, v)
        batch_mu, batch_w = frame_weights(pair, x[None], v[None])
        assert np.array_equal(mu, batch_mu[0]) and np.array_equal(w, batch_w[0])


@pytest.mark.parametrize("name", STANDARD_FAMILIES)
def test_the_frame_route_integrals_agree_with_the_adjugate_reference(name):
    pair = standard_pair(name)
    rng = np.random.default_rng(17)
    xs = pair.chart.sample(rng, 200)
    vs = rng.normal(size=(200, pair.dim))
    g, gb = pair.g.eval(xs), pair.gbar.eval(xs)
    mu, w = _frame_weights(g, gb, vs)
    coeffs = adjugate_integral_coeffs(g, gb, vs)
    random_t = rng.uniform(np.min(mu) - 1.0, np.max(mu) + 1.0, size=(200, 7))
    for ts in (random_t, _roots_many(mu, w)):  # the second: each point's own roots
        terms = coeffs[:, None, :] * ts[..., None] ** np.arange(pair.dim)
        gap = np.abs(_integrals(mu, w, ts) - np.sum(terms, axis=-1))
        assert np.max(gap / np.sum(np.abs(terms), axis=-1)) < 1e-12, name


class TestNijenhuis:
    @pytest.mark.parametrize("name", ["three_d_full", "product_s1_s2", "control_torsion"])
    def test_l_partials_are_one_stacked_call_equal_to_a_per_axis_loop(self, name):
        pair = standard_pair(name)
        x = pair.chart.sample(np.random.default_rng(14), 6, shrink=0.8)
        centre, got = _l_partials(pair, x)
        assert np.array_equal(centre, l_many(pair, x))
        h = FD_STEP * pair.chart.widths
        for k in range(pair.dim):
            e = np.zeros(pair.dim)
            e[k] = h[k]
            column = (l_many(pair, x + e) - l_many(pair, x - e)) / (2.0 * h[k])
            assert np.array_equal(got[..., k, :, :], column)

    @pytest.mark.parametrize("name", STANDARD_FAMILIES)
    def test_torsion_equals_l_tensor_with_the_stencil_differences(self, name):
        # The reference is the former path: L from its own l_tensor call, the
        # differences from _l_partials.
        pair = standard_pair(name)
        for x in pair.chart.sample(np.random.default_rng(15), 5, shrink=0.9):
            L = l_tensor(pair, x)
            dL = _l_partials(pair, x[None, :])[1][0]
            ref = (np.einsum("mi,mkj->kij", L, dL) - np.einsum("mj,mki->kij", L, dL)
                   + np.einsum("km,jmi->kij", L, dL) - np.einsum("km,imj->kij", L, dL))
            assert np.array_equal(nijenhuis_at(pair, x), ref)

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


def flat_probe_pair():
    return model_form_pair(FormKind.TWO_D_POLAR_PLUS,
                           ModelFormParams(f=ScalarFunction1D((1.0,), (0.0, 1.0)),
                                           lam_const=1.0))


def bracket_phase_points(pair):
    """Five seeded phase points and parameter pairs ``(x, p, t1, t2)``."""
    rng = np.random.default_rng(5)
    for x in pair.chart.sample(rng, 5, shrink=0.8):
        p = rng.normal(size=pair.dim)
        t1, t2 = rng.uniform(-1.0, 3.0, size=2)
        yield x, p, t1, t2


def bracket_gradients_reference(pair, x, p, ts):
    """The gradients ``(n, T)`` of the integrals in position and in momentum, built
    by hand: the position part from the centre and the points ``x +- h_k e_k`` at
    fixed ``p``, stacked centre first, each metric evaluated once on them and the
    integrals read off the squared frame coordinates ``V^T p`` of ``v = g^-1 p``;
    the momentum part in closed form at the centre, ``2 V (c(t) * V^T p)``."""
    n = pair.dim
    h = FD_STEP * pair.chart.widths
    xs = np.concatenate([x[None], x + np.stack([np.diag(h), -np.diag(h)], axis=1).reshape(2 * n, n)])
    mu, vecs = _l_frame(pair.g.eval(xs), pair.gbar.eval(xs))
    values = _integrals(mu, (p @ vecs) ** 2, ts)
    dx = (values[1::2] - values[2::2]) / (2.0 * h)[:, None]
    c = _integrals(mu[0], np.eye(n), ts)  # c_i(t) = prod_{j != i} (mu_j - t)
    return dx, 2.0 * vecs[0] @ (c * (p @ vecs[0])[:, None])


def bracket_by_phase_stencil(pair, x, p, t1, t2, step=1e-5):
    """The former bracket: central differences of absolute step ``step`` in every
    phase coordinate, ``(x +- h e_k, p)`` then ``(x, p +- h e_k)``, both metrics and
    the frame weights evaluated once on that stencil."""
    x, p, n = np.asarray(x, dtype=float), np.asarray(p, dtype=float), pair.dim
    shift = step * np.eye(n)
    xs = np.concatenate([x + shift, x - shift, np.broadcast_to(x, (2 * n, n))])
    ps = np.concatenate([np.broadcast_to(p, (2 * n, n)), p + shift, p - shift])
    g = pair.g.eval(xs)
    vs = np.linalg.solve(g, ps[..., None])[..., 0]
    values = _integrals(*_frame_weights(g, pair.gbar.eval(xs), vs), np.array([t1, t2]))
    values = values.T.reshape(2, 2, 2, n)  # (t, x|p, +|-, k)
    (dx1, dp1), (dx2, dp2) = (values[:, :, 0] - values[:, :, 1]) / (2 * step)
    return float(dx1 @ dp2 - dp1 @ dx2)


@pytest.mark.parametrize("name", STANDARD_FAMILIES)
def test_the_bracket_is_the_stencil_position_gradient_and_the_exact_momentum_gradient(name):
    pair = standard_pair(name)
    for x, p, t1, t2 in bracket_phase_points(pair):
        (dx1, dx2), (dp1, dp2) = (d.T for d in bracket_gradients_reference(
            pair, x, p, np.array([t1, t2])))
        assert poisson_bracket_fd(pair, x, p, t1, t2) == float(dx1 @ dp2 - dp1 @ dx2)


@pytest.mark.parametrize("name", STANDARD_FAMILIES)
def test_the_closed_form_momentum_gradient_is_a_central_difference_in_p(name):
    # I_t is quadratic in p, so its central difference is exact up to rounding.
    pair = standard_pair(name)
    n, step = pair.dim, 1e-3
    for x, p, t1, t2 in bracket_phase_points(pair):
        ts = np.array([t1, t2])
        g = pair.g.eval(x[None])[0]
        fd = np.stack([(integral_at(pair, x, np.linalg.solve(g, p + step * e), ts)
                        - integral_at(pair, x, np.linalg.solve(g, p - step * e), ts)) / (2 * step)
                       for e in np.eye(n)])
        exact = bracket_gradients_reference(pair, x, p, ts)[1]
        assert np.max(np.abs(exact - fd)) <= 1e-9 * np.max(np.abs(exact)), name


@pytest.mark.parametrize("name", EQUIVALENT_FAMILIES)
def test_the_integrals_of_an_equivalent_pair_commute(name):
    pair = standard_pair(name)
    for x, p, t1, t2 in bracket_phase_points(pair):
        assert abs(poisson_bracket_fd(pair, x, p, t1, t2)) < 1e-7, name


@pytest.mark.parametrize("name", CONTROL_FAMILIES)
def test_the_bracket_of_a_control_agrees_with_the_former_phase_stencil(name):
    pair = standard_pair(name)
    for x, p, t1, t2 in bracket_phase_points(pair):
        former = bracket_by_phase_stencil(pair, x, p, t1, t2)
        assert poisson_bracket_fd(pair, x, p, t1, t2) == pytest.approx(former, rel=1e-6)


def test_the_bracket_vanishes_on_the_flat_probe():
    # The weak commutation probe: I_0.3 and I_0.7 on a flat-chart pair.
    assert abs(poisson_bracket_fd(flat_probe_pair(), [0.1, -0.2], [0.3, 0.4], 0.3, 0.7)) < 1e-5


@pytest.mark.parametrize("name", ["lc_nd", "three_d_axial", "product_s1_s2"])
def test_torsion_and_bracket_evaluate_each_metric_once(name):
    pair = standard_pair(name)
    log, points = [], []
    g = counted(pair.g, log, "g")
    pair = dataclasses.replace(
        pair, g=dataclasses.replace(g, eval=lambda xs: points.append(xs) or g.eval(xs)),
        gbar=counted(pair.gbar, log, "gbar"))
    n = pair.dim
    x = pair.chart.sample(np.random.default_rng(16), 1, shrink=0.8)[0]
    nijenhuis_at(pair, x)
    poisson_bracket_fd(pair, x, np.ones(n), 0.3, 0.7)
    # Each call evaluates each metric once, on the centre and the chart's
    # stencil: the bracket's momentum gradient is exact, and its position
    # gradient differences at fixed p.
    assert log == 2 * [("g", "eval", 2 * n + 1), ("gbar", "eval", 2 * n + 1)]
    stencil = x + pair.chart._fd_stencil[0]
    assert len(points) == 2  # the torsion reads a batch of one point, the bracket one point
    assert all(np.array_equal(xs.reshape(stencil.shape), stencil) for xs in points)


NON_FINITE = {"nan-diagonal": (np.nan, 0), "nan-off-diagonal": (np.nan, -1),
              "inf-diagonal": (np.inf, 0), "inf-off-diagonal": (np.inf, -1)}


@pytest.mark.parametrize("which", ["g", "gbar"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("value, column", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_a_non_finite_metric_fails_the_same_way_at_every_batch_size(value, column, n, which):
    # Batch size 1 runs LAPACK's Cholesky and 200 the batch kernel; a warning
    # would be raised as an error here.
    bad = np.eye(n)
    bad[0, column] = bad[column, 0] = value
    pair = constant_pair(*((bad, np.eye(n)) if which == "g" else (np.eye(n), bad)))
    calls = [lambda: l_eigen(pair, np.zeros(n)), lambda: l_tensor(pair, np.zeros(n)),
             lambda: nijenhuis_at(pair, np.zeros(n)),
             lambda: frame_weights(pair, np.zeros((200, n)), np.ones(n))]
    calls += [lambda m=m: eigen_range(pair, np.zeros((m, n))) for m in (1, 200)]
    for call in calls:
        with pytest.raises(NotPositiveDefinite, match="^a metric has non-finite entries$"):
            call()


@pytest.mark.parametrize("which", ["base", "companion"])
@pytest.mark.parametrize("read", [l_tensor, nijenhuis_at, l_eigen])
def test_an_indefinite_metric_with_positive_determinant_is_refused(read, which):
    # det = 1 > 0: a determinant alone let either metric pass.
    bad = np.diag([-1.0, -1.0, 1.0])
    pair = constant_pair(*((bad, np.eye(3)) if which == "base" else (np.eye(3), bad)))
    with pytest.raises(NotPositiveDefinite, match=f"^{which} metric is not positive definite"):
        read(pair, np.zeros(3))


def l_with_char(g, gb):
    """``L = ratio K^-T (K^-1 g)`` and its characteristic coefficients from one
    congruence, with ``K^-T`` from the batch kernel at every size, as the glue
    reads it: the coefficient reader (:func:`_char_scale`) on ``B``."""
    k_inv_t = cholesky_inverse(gb)
    kg, b = _congruent(g, k_inv_t)
    ratio, char = _char_scale(b)
    return ratio[..., None, None] * (k_inv_t @ kg), char


def spd(m, n, seed):
    x = np.random.default_rng(seed).normal(size=(m, n, n))
    return x @ np.swapaxes(x, -1, -2) + n * np.eye(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_l_and_char_from_one_congruence_agree_with_the_determinant_route(n):
    g, gb = spd(300, n, 1), spd(300, n, 2)
    L, char = l_with_char(g, gb)
    ref = _l_from(g, gb)
    ref_char = _char_and_adjugate(ref)[0]
    scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(L - ref) <= 1e-13 * scale)
    # L has positive eigenvalues, so no coefficient is small by cancellation.
    assert np.all(np.abs(char - ref_char) <= 1e-13 * np.abs(ref_char))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", [BATCH_KERNEL_MIN - 1, BATCH_KERNEL_MIN, BATCH_KERNEL_MIN + 1,
                               CHUNK + 3])
def test_l_and_char_of_a_point_do_not_depend_on_its_batch(n, m):
    g, gb = spd(m, n, 3), spd(m, n, 4)
    L, char = l_with_char(g, gb)
    for i in (0, m // 2, m - 1):  # the last one lies in the kernel's second chunk at 4099
        alone = l_with_char(g[i:i + 1], gb[i:i + 1])
        assert np.array_equal(alone[0][0], L[i]) and np.array_equal(alone[1][0], char[i])
        unbatched = l_with_char(g[i], gb[i])
        assert np.array_equal(unbatched[0], L[i]) and np.array_equal(unbatched[1], char[i])


@pytest.mark.parametrize("m", [1, BATCH_KERNEL_MIN])
def test_an_indefinite_companion_fails_at_its_pivot(m):
    # det = 1 > 0: the determinant route let this companion pass.
    gb = spd(m, 3, 1)
    gb[-1] = np.diag([1.0, -1.0, -1.0])
    with pytest.raises(NotPositiveDefinite, match="^companion metric is not positive"):
        l_with_char(spd(m, 3, 2), gb)
    factor = EquivTriple(pair=constant_pair(np.eye(3), gb[-1]), eigen_range=(1.0, 1.0))
    glued = glue_pair(EquivTriple(pair=constant_pair([[1.0]], [[1.0]]), eigen_range=(0.5, 0.5)),
                      factor).pair
    with pytest.raises(NotPositiveDefinite, match="^companion metric is not positive"):
        glued.g.eval(np.zeros((m, 4)))


@pytest.mark.parametrize("g_bad", [np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3))],
                         ids=["negative", "zero"])
def test_a_base_metric_without_positive_determinant_is_singular(g_bad):
    g = spd(5, 3, 1)
    g[2] = g_bad
    with pytest.raises(SingularMetric):
        l_with_char(g, spd(5, 3, 2))
