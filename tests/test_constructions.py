"""Tests for the sphere constructions: stereographic charts, pulled-back
pairs, rescaling, and products of spheres."""
import hashlib

import numpy as np
import pytest

import geq.constructions as constructions
import geq.projective as projective
from geq._batch import positive_definite
from geq.charts import (Chart, MetricField, PhasePoint, _diagonal, fd_partials,
                        integrate_geodesic, positivity_grid_size)
from geq.constructions import (LinearMap, SphereChart, beltrami_pair, scale_triple,
                               sphere_chart, spheres_product)
from geq.errors import (DegenerateMap, EigenOrderViolated, NotPositive, NotPositiveDefinite,
                        SchemaError)
from geq.normal_forms import LeviCivitaData, ScalarFunction1D, levi_civita_pair
from geq.projective import _l_values, l_eigen, max_eigen_multiplicity
from geq.split_glue import _factor_pass, _field_terms, make_triple
from geq.verify import circle_planarity, standard_pair

INTERVAL = (-0.5, 0.5)


def lc_triple(*coeff_rows):
    lams = tuple(ScalarFunction1D(row, INTERVAL) for row in coeff_rows)
    box = tuple(INTERVAL for _ in coeff_rows)
    return make_triple(
        levi_civita_pair(LeviCivitaData(lambdas=lams, chart=Chart(len(lams), box))))


def test_linear_map_validation():
    with pytest.raises(DegenerateMap):
        LinearMap(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        LinearMap(np.ones((2, 3)))
    with pytest.raises(SchemaError, match="non-empty square"):
        LinearMap(np.zeros((0, 0)))
    ident = LinearMap.identity(3)
    assert ident.apply(np.array([1.0, 2.0, 3.0])) == pytest.approx([1.0, 2.0, 3.0])
    diag = LinearMap.diagonal([1.0, 2.0, 3.0])
    assert diag.apply(np.array([1.0, 1.0, 1.0])) == pytest.approx([1.0, 2.0, 3.0])
    assert diag.ambient_dim == 3


@pytest.mark.parametrize("values, degenerate", [
    ((1e-5, 1e-5, 1e-5), False),  # small, but x -> Ax/|Ax| is the identity
    ((1.0, 1e5, 1e10), False),  # condition number 1e10
    ((1e7, 1e7, 1e-6), True),  # condition number 1e13, though det A = 1e8
    ((1.0, 1.0, 0.0), True),
])
def test_linear_map_singularity_is_judged_by_conditioning(values, degenerate):
    if degenerate:
        with pytest.raises(DegenerateMap, match="singular"):
            LinearMap.diagonal(values)
    else:
        assert LinearMap.diagonal(values).ambient_dim == 3


def test_sphere_chart_embedding_is_on_the_sphere():
    sphere = sphere_chart(2)
    rng = np.random.default_rng(0)
    ys = sphere.chart.sample(rng, 50)
    pts = sphere.embed(ys)
    assert np.linalg.norm(pts, axis=-1) == pytest.approx(np.ones(50), abs=1e-14)
    # Distance to the pole is 2 / sqrt(1 + |y|^2), bounded away from zero.
    dist = np.linalg.norm(pts - sphere.pole, axis=-1)
    expected = 2.0 / np.sqrt(1.0 + np.sum(ys * ys, axis=-1))
    assert dist == pytest.approx(expected, abs=1e-12)
    assert dist.min() > 0.1


def test_sphere_chart_custom_pole():
    pole = np.array([1.0, 0.0, 0.0])
    sphere = SphereChart(dim=2, chart=Chart(2, ((-0.5, 0.5),) * 2), pole=pole)
    pts = sphere.embed(sphere.chart.grid(3))
    assert np.linalg.norm(pts, axis=-1) == pytest.approx(np.ones(9), abs=1e-14)
    dist = np.linalg.norm(pts - pole, axis=-1)
    assert dist.min() > 0.1
    origin_image = sphere.embed(np.zeros(2))
    assert np.linalg.norm(origin_image - pole) == pytest.approx(2.0, abs=1e-14)


def test_sphere_chart_rejects_boxes_reaching_the_pole():
    with pytest.raises(ValueError):
        SphereChart(dim=1, chart=Chart(1, ((-25.0, 25.0),)), pole=np.array([0.0, 1.0]))


def test_embedding_jacobian_matches_finite_differences():
    sphere = sphere_chart(3)
    rng = np.random.default_rng(1)
    ys = sphere.chart.sample(rng, 10)
    jac = sphere.embedding_jacobian(ys)
    step = 1e-6
    for j in range(3):
        bump = np.zeros(3)
        bump[j] = step
        fd = (sphere.embed(ys + bump) - sphere.embed(ys - bump)) / (2 * step)
        assert fd == pytest.approx(jac[..., j], abs=1e-8)


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_map_reproduces_the_round_metric(dim):
    triple = beltrami_pair(dim)
    rng = np.random.default_rng(2)
    xs = triple.pair.chart.sample(rng, 100)
    g = triple.pair.g.eval(xs)
    gbar = triple.pair.gbar.eval(xs)
    assert np.max(np.abs(g - gbar)) < 1e-14
    assert triple.eigen_range == pytest.approx((1.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_round_metric_partials_match_finite_differences(dim):
    triple = beltrami_pair(dim)
    g = triple.pair.g
    xs = g.chart.sample(np.random.default_rng(3), 50, shrink=0.9)
    bare = MetricField(chart=g.chart, eval=g.eval)
    assert np.max(np.abs(_diagonal(g.diagonal_jet(xs)[1]) - fd_partials(bare, xs))) < 1e-8
    scaled = scale_triple(triple, 5.0)
    assert np.allclose(scaled.pair.g.diagonal_jet(xs)[1], 5.0 * g.diagonal_jet(xs)[1],
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_round_and_scaled_jets_are_eval_and_the_stencil_partials(dim):
    triple = beltrami_pair(dim)
    xs = triple.pair.chart.sample(np.random.default_rng(4), 40, shrink=0.9)
    for field in (triple.pair.g, scale_triple(triple, 5.0).pair.g):
        assert field.jet is None
        value, partials = field.diagonal_jet(xs)
        # The diagonal of eval, bitwise, and eval's other entries exactly 0.
        assert _diagonal(value).tobytes() == field.eval(xs).tobytes()
        bare = MetricField(chart=field.chart, eval=field.eval)
        assert np.max(np.abs(_diagonal(partials) - fd_partials(bare, xs))) < 1e-8


def test_a_scaled_glued_base_scales_its_full_jet():
    triple = spheres_product([(1, None), (2, None)])
    xs = triple.pair.chart.sample(np.random.default_rng(5), 20, shrink=0.8)
    scaled = scale_triple(triple, 3.0).pair.g
    assert scaled.diagonal_jet is None
    for got, base in zip(scaled.jet(xs), triple.pair.g.jet(xs)):
        assert np.array_equal(got, 3.0 * base)


def projector_companion(sphere, a_map):
    """The companion by its former formula: the Gram matrix of
    ``P A J / |A x|``, with the ambient projector ``P = I - u u^T``."""
    def gbar(ys):
        jac = sphere.embedding_jacobian(ys)
        w = sphere.embed(ys) @ a_map.matrix.T
        norm = np.linalg.norm(w, axis=-1)
        unit = w / norm[..., None]
        proj = np.eye(sphere.dim + 1) - unit[..., :, None] * unit[..., None, :]
        dmap = (proj / norm[..., None, None]) @ a_map.matrix @ jac
        out = np.swapaxes(dmap, -1, -2) @ dmap
        return 0.5 * (out + np.swapaxes(out, -1, -2))
    return gbar


@pytest.mark.parametrize("pole", ["default", "tilted"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_gram_companion_equals_the_projector_formula(dim, pole):
    rng = np.random.default_rng(dim)
    a_map = LinearMap(rng.normal(size=(dim + 1, dim + 1)) + 3.0 * np.eye(dim + 1))
    tilt = None if pole == "default" else np.append(0.3 * np.ones(dim), 1.0)
    sphere = sphere_chart(dim, pole=tilt)
    ys = sphere.chart.sample(rng, 200)
    got = beltrami_pair(dim, a_map, sphere).pair.gbar.eval(ys)
    ref = projector_companion(sphere, a_map)(ys)
    scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("name", ["beltrami_2", "beltrami_3", "product_s1_s2", "product_s2_s2"])
def test_the_sphere_companions_need_no_symmetrization(name):
    # The Gram product is symmetric bit for bit, so the mean of it and its
    # transpose, which the companion once returned, keeps every bit of it.
    pair = standard_pair(name)
    gbar = pair.gbar.eval(pair.chart.sample(np.random.default_rng(4), 2000))
    assert np.array_equal(gbar, 0.5 * (gbar + np.swapaxes(gbar, -1, -2)))


def test_the_steep_sphere_companion_stays_positive_definite():
    # Condition number about 1e14 on the chart: the Gram product keeps it
    # positive definite, where the expanded M - z z^T form did not.
    pair = beltrami_pair(2, LinearMap.diagonal([1.0, 1e5, 1e10])).pair
    grid = pair.chart.grid(positivity_grid_size(2))
    assert positive_definite(pair.gbar.eval(grid))


def closed_form_triple(dim: int, kind: str, pole: str, c: float):
    """A Beltrami triple with a diagonal or a general ``A``, the default or an
    off-axis pole, and its base metric scaled by ``c``."""
    rng = np.random.default_rng(20 + dim)
    a_map = (LinearMap.diagonal(np.arange(1.0, dim + 2.0)) if kind == "diagonal" else
             LinearMap(rng.normal(size=(dim + 1, dim + 1)) + 2.0 * np.eye(dim + 1)))
    tilt = None if pole == "default" else np.append(0.3 * np.ones(dim), 1.0)
    return scale_triple(beltrami_pair(dim, a_map, sphere_chart(dim, pole=tilt)), c)


@pytest.mark.parametrize("c", [1.0, 7.3])
@pytest.mark.parametrize("pole", ["default", "off-axis"])
@pytest.mark.parametrize("kind", ["diagonal", "general"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_closed_form_terms_match_the_congruence_route(dim, kind, pole, c):
    triple = closed_form_triple(dim, kind, pole, c)
    pair, form = triple.pair, triple.closed_l
    assert form.g is pair.g and form.gbar is pair.gbar
    ys = pair.chart.sample(np.random.default_rng(22), 60)
    for powers in (1, 2, 3):
        for which in (0, 1):
            for negate in (False, True):
                got = _field_terms(which, form.read(ys), powers, negate)
                ref = _field_terms(which, _factor_pass(pair, ys), powers, negate)
                for a, b, axes in zip(got, ref, ((-1,), (-2, -1))):
                    scale = np.max(np.abs(b), axis=axes, keepdims=True)
                    assert np.all(np.abs(a - b) <= 1e-13 * scale), (powers, which)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_point_is_refused_by_the_closed_form(value):
    # The message of the congruence route, which reads the metrics there.
    triple = beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0]))
    product = spheres_product([(1, None), (2, LinearMap.diagonal([1.0, 2.0, 3.0]))])
    for read, points in ((triple.closed_l.read, [[0.1, 0.2], [value, 0.0]]),
                         (product.pair.g.eval, [[0.1, 0.2, 0.0], [0.1, 0.0, value]])):
        with pytest.raises(NotPositiveDefinite, match="^a metric has non-finite entries$"):
            read(np.array(points))


def test_a_scaled_triple_carries_a_closed_form_for_its_own_fields():
    triple = beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0]))
    scaled = scale_triple(triple, 7.3)
    assert scaled.closed_l.g is scaled.pair.g and scaled.closed_l.gbar is triple.pair.gbar
    assert (scaled.closed_l.c, triple.closed_l.c) == (7.3, 1.0)
    assert scale_triple(lc_triple((2.0,)), 4.0).closed_l is None


def test_diagonal_map_gives_distinct_eigenvalues():
    triple = beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(3)
    xs = triple.pair.chart.sample(rng, 1000)
    gaps = []
    for x in xs:
        mu, _ = l_eigen(triple.pair, x)
        gaps.append(mu[1] - mu[0])
    assert min(gaps) > 0.0
    assert triple.eigen_range[0] > 0.0


def test_great_circles_stay_planar_under_the_sphere_map():
    before, after = circle_planarity(sphere_chart(2),
                                     LinearMap.diagonal([1.0, 2.0, 3.0]),
                                     n_circles=5, seed=11, tol=1e-13)
    assert before < 1e-10
    assert after < 1e-10


def test_the_planarity_probe_integrates_the_round_metric_and_scans_no_gap(monkeypatch):
    def refuse(chart):
        raise AssertionError("gap scan")

    monkeypatch.setattr(projective, "_scan_grid", refuse)
    before, after = circle_planarity(sphere_chart(3), LinearMap.diagonal([1.0, 2.0, 3.0, 4.0]),
                                     n_circles=4, seed=3)
    assert before < 1e-10 and after < 1e-10


def test_every_curve_on_a_circle_is_planar():
    # Ambient R^2 has no third singular value: the probe reads 0.
    assert circle_planarity(sphere_chart(1), LinearMap.diagonal([1.0, 2.0]),
                            n_circles=3, seed=2) == (0.0, 0.0)


def test_scale_triple_examples():
    t1 = lc_triple((2.0,))
    assert scale_triple(t1, 1.0) is t1
    scaled = scale_triple(t1, 16.0)
    assert scaled.eigen_range == pytest.approx((8.0, 8.0), abs=1e-12)

    t3 = lc_triple((0.5,), (1.0,), (2.0,))
    scaled3 = scale_triple(t3, 16.0)
    assert scaled3.eigen_range == pytest.approx((1.0, 4.0), abs=1e-12)
    xs = t3.pair.chart.grid(3)
    assert scaled3.pair.g.eval(xs) == pytest.approx(16.0 * t3.pair.g.eval(xs))
    assert scaled3.pair.gbar.eval(xs) == pytest.approx(t3.pair.gbar.eval(xs))


def test_scale_triple_requires_positive_constant():
    t1 = lc_triple((2.0,))
    with pytest.raises(NotPositive):
        scale_triple(t1, 0.0)
    with pytest.raises(NotPositive):
        scale_triple(t1, -2.0)


def test_scaling_preserves_unparametrized_geodesics():
    triple = lc_triple((0.5, 0.2), (1.0, 0.3))
    factor = 9.0
    scaled = scale_triple(triple, factor)
    start = np.array([0.05, -0.1])
    vel = np.array([0.4, 0.3])
    root = np.sqrt(factor)
    base = integrate_geodesic(triple.pair.g, PhasePoint(start, vel),
                              1.0 / root, 1e-11)
    rescaled = integrate_geodesic(scaled.pair.g, PhasePoint(start, vel / root),
                                  1.0, 1e-11)
    assert np.linalg.norm(base.end.x - rescaled.end.x) < 1e-8


def test_product_single_factor_is_the_sphere_triple():
    product = spheres_product([(2, LinearMap.diagonal([1.0, 2.0, 3.0]))])
    direct = beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0]))
    assert product.eigen_range == direct.eigen_range
    xs = product.pair.chart.grid(4)
    assert product.pair.g.eval(xs) == pytest.approx(direct.pair.g.eval(xs))


def test_circle_times_sphere_has_three_distinct_eigenvalues():
    product = spheres_product([(1, None), (2, LinearMap.diagonal([1.0, 2.0, 3.0]))])
    assert product.pair.dim == 3
    rng = np.random.default_rng(5)
    xs = product.pair.chart.sample(rng, 50)
    for x in xs:
        mu, _ = l_eigen(product.pair, x)
        assert np.min(np.diff(mu)) > 1e-6


def test_sphere_times_sphere_requires_and_survives_rescaling():
    a = LinearMap.diagonal([1.0, 2.0, 3.0])
    factor = beltrami_pair(2, a)
    # The unscaled ranges coincide, so the ordering precondition fails
    # without rescaling.
    assert factor.eigen_range[1] >= factor.eigen_range[0]
    product = spheres_product([(2, a), (2, a)])
    assert product.pair.dim == 4
    rng = np.random.default_rng(6)
    xs = product.pair.chart.sample(rng, 30)
    assert max_eigen_multiplicity(product.pair, xs) < 4
    lo, hi = product.eigen_range
    assert lo > 0.0 and hi > lo


@pytest.mark.parametrize("factors", [
    [(1, None), (2, LinearMap.diagonal([1.0, 2.0, 3.0]))],
    [(2, LinearMap.diagonal([1.0, 2.0, 3.0]))] * 2,
], ids=["product_s1_s2", "product_s2_s2"])
def test_product_scaling_places_the_second_range_at_the_gap(monkeypatch, factors):
    folded = []
    monkeypatch.setattr(constructions, "oplus", folded.extend)
    spheres_product(factors)
    first, second = folded
    target = (1.0 + constructions.RELATIVE_GAP) * first.eigen_range[1]
    assert second.eigen_range[0] == pytest.approx(target, rel=1e-12)


def _random_sphere_chart(rng, dim):
    centre, half = rng.uniform(-0.5, 0.5, size=dim), rng.uniform(0.05, 0.6, size=dim)
    box = tuple((c - h, c + h) for c, h in zip(centre, half))
    return SphereChart(dim=dim, chart=Chart(dim, box), pole=rng.normal(size=dim + 1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_chart_eigen_bounds_enclose_the_sampled_spectrum(dim):
    rng = np.random.default_rng(dim)
    for sphere in [sphere_chart(dim)] + [_random_sphere_chart(rng, dim) for _ in range(4)]:
        triple = beltrami_pair(dim, LinearMap(rng.normal(size=(dim + 1, dim + 1))), sphere)
        pair = triple.pair
        xs = pair.chart.sample(rng, 2000)
        mu = _l_values(pair.g.eval(xs), pair.gbar.eval(xs))
        low, high = constructions._chart_eigen_bounds(triple.closed_l)
        assert low * (1.0 - 1e-9) <= np.min(mu) and np.max(mu) <= high * (1.0 + 1e-9)


def test_chart_eigen_bounds_are_the_range_on_a_circle():
    rng = np.random.default_rng(5)
    for sphere in [sphere_chart(1)] + [_random_sphere_chart(rng, 1) for _ in range(4)]:
        triple = beltrami_pair(1, LinearMap(rng.normal(size=(2, 2))), sphere)
        pair = triple.pair
        xs = pair.chart.grid(20_001)
        mu = _l_values(pair.g.eval(xs), pair.gbar.eval(xs))
        low, high = constructions._chart_eigen_bounds(triple.closed_l)
        assert low == pytest.approx(np.min(mu), rel=1e-6)
        assert high == pytest.approx(np.max(mu), rel=1e-6)


def test_chart_eigen_bounds_read_the_frame_of_the_closed_form(monkeypatch):
    triple = beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0]),
                           sphere_chart(2, pole=[0.3, -0.4, 1.0]))

    def refuse(*args, **kwargs):
        raise AssertionError("the bounds solved an eigenproblem")

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    low, high = constructions._chart_eigen_bounds(triple.closed_l)
    assert 0.0 < low <= triple.eigen_range[0] and triple.eigen_range[1] <= high


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


# SHA-256 prefixes of the sphere closed form's bytes, recorded before its set-up was
# shared with the chart bounds: each factor's frame (:class:`_SphereL`), with the default
# pole and an oblique one, and the glued registry products' fields and jets.  A change
# that moves one must say so.  They hold for one numpy and BLAS build; on another,
# record them anew from a commit before any change that moves them.
FRAME_DIGESTS = {
    (1, 1.0): "c03ec7f4c81e613a",
    (1, 7.5): "0a0038ac0077f771",
    (2, 1.0): "14bfc3864c5c196e",
    (2, 7.5): "565aa53aa9a14550",
    (3, 1.0): "7a430386543785e7",
    (3, 7.5): "8c939201b427d0aa",
}


@pytest.mark.parametrize("dim, c", FRAME_DIGESTS)
def test_sphere_frame_bytes_are_pinned(dim, c):
    rng = np.random.default_rng(40 + dim)
    a_map = LinearMap(rng.normal(size=(dim + 1, dim + 1)))
    frames = []
    for pole in (None, rng.normal(size=dim + 1)):
        form = scale_triple(beltrami_pair(dim, a_map, sphere_chart(dim, pole)), c).closed_l
        frames += form._frame
    assert _digest(*frames) == FRAME_DIGESTS[dim, c]


PRODUCT_DIGESTS = {"product_s1_s2": "0724c3f3510b811b", "product_s2_s2": "75bbc45dfd965b9c"}


@pytest.mark.parametrize("name", PRODUCT_DIGESTS)
def test_glued_sphere_product_bytes_are_pinned(name):
    pair = standard_pair(name)
    xs = pair.chart.sample(np.random.default_rng(41), 50)
    assert _digest(pair.g.eval(xs), pair.gbar.eval(xs), *pair.g.jet(xs),
                   *pair.gbar.jet(xs)) == PRODUCT_DIGESTS[name]


def test_product_with_a_steep_circle_off_its_chart_still_builds():
    # On the whole circle the second factor reaches 0.1, below the first
    # factor's 1; on its chart it stays within [0.876, 10], which the
    # scaling lifts clear.
    product = spheres_product([(1, None), (1, LinearMap.diagonal([1.0, 10.0]))])
    xs = product.pair.chart.grid(64)
    mu = _l_values(product.pair.g.eval(xs), product.pair.gbar.eval(xs))
    assert np.max(mu[..., 0]) < np.min(mu[..., 1])


def test_product_whose_scaled_factor_can_reach_below_the_previous_is_refused():
    # The grid samples the steep second factor's range from 2.0e-4, but on
    # the sphere it reaches 1e-4, so c = (1.1 / 2.0e-4)^3 does not clear the
    # circle's eigenvalue 1 and the glued companion would be indefinite.
    factors = [(1, None), (2, LinearMap.diagonal([1.0, 1e2, 1e4]))]
    with pytest.raises(EigenOrderViolated, match=r"factor 1 \(sampled eigenvalue range "
                       r"\[0\.0001999.*c = 1\.66444e\+11.*factor 0 \(range \[0\.99999"):
        spheres_product(factors)


def test_product_requires_a_factor():
    with pytest.raises(ValueError):
        spheres_product([])
