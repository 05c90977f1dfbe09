"""Tests for splitting pairs into block factors and gluing them back."""
import dataclasses
import functools

import numpy as np
import pytest

from geq import STANDARD_FAMILIES, _batch, constructions, projective, split_glue
from geq._batch import CHUNK
from geq.charts import Chart, MetricField, _spray
from geq.constructions import LinearMap, sphere_chart, spheres_product
from geq.errors import EigenOrderViolated, GapViolated, NotPositive, NotPositiveDefinite
from geq.normal_forms import (FormKind, LeviCivitaData, ModelFormParams, ScalarFunction1D,
                              levi_civita_pair, model_form_pair)
from geq.projective import (MetricPair, _l_partials, _l_values, _scan_grid, l_eigen, l_tensor,
                            max_eigen_multiplicity)
from geq.split_glue import (EquivTriple, glue_pair, make_triple, oplus,
                            split_factors, split_pair, split_tensors)
from geq.verify import check_conservation, check_equivalence, standard_form_spec, standard_pair
from test_charts import stencil_reference

INTERVAL = (-0.5, 0.5)


def lc_pair(*coeff_rows):
    lams = tuple(ScalarFunction1D(row, INTERVAL) for row in coeff_rows)
    box = tuple(INTERVAL for _ in coeff_rows)
    return levi_civita_pair(LeviCivitaData(lambdas=lams, chart=Chart(len(lams), box)))


def lc_triple(*coeff_rows):
    return make_triple(lc_pair(*coeff_rows))


def diag_tensor_pair(diag_fn, dim, box):
    """Pair with base metric the identity and compatibility tensor the
    given diagonal field."""
    chart = Chart(dim, box)

    def g_eval(xs):
        return np.broadcast_to(np.eye(dim), np.shape(xs)[:-1] + (dim, dim)).copy()

    def gbar_eval(xs):
        vals = diag_fn(np.asarray(xs, dtype=float))
        det = np.prod(vals, axis=-1)
        out = np.zeros(vals.shape[:-1] + (dim, dim))
        idx = np.arange(dim)
        out[..., idx, idx] = 1.0 / (det[..., None] * vals)
        return out

    return MetricPair(g=MetricField(chart=chart, eval=g_eval),
                      gbar=MetricField(chart=chart, eval=gbar_eval))


@pytest.mark.parametrize("r", [1, 2])
def test_a_cut_across_the_bifurcation_locus_is_refused(r):
    # All three eigenvalues of three_d_full meet at the chart centre, a
    # point of no 16-per-axis grid; the gap scan holds the centre as well.
    pair = standard_pair("three_d_full")
    with pytest.raises(GapViolated, match="^eigenvalue ranges overlap across the cut"):
        split_pair(pair, r)
    # A read of the splitting tensors at the centre names it.
    xs = np.concatenate([pair.chart.sample(np.random.default_rng(3), 4), np.zeros((1, 3))])
    with pytest.raises(GapViolated, match=rf"^eigenvalues {r} and {r + 1} of L meet across "
                       r"the cut at \[0\.0, 0\.0, 0\.0\]$"):
        split_tensors(pair, xs, r)


def test_split_tensors_constant_example():
    pair = diag_tensor_pair(
        lambda xs: np.broadcast_to(np.array([1.0, 2.0, 4.0]), xs.shape[:-1] + (3,)),
        3, (INTERVAL,) * 3)
    conv, conv_bar = split_tensors(pair, np.zeros(3), 1)
    assert conv == pytest.approx(np.diag([3.0, 1.0, 3.0]), abs=1e-12)
    assert conv_bar == pytest.approx(np.diag([3.0 / 8.0, 1.0, 3.0]), abs=1e-12)


def test_split_tensor_companion_matches_eigenframe_route():
    # Independent route: assemble the companion tensor from its action on
    # the eigenframe (lower block scaled by the upper characteristic
    # polynomial over the upper determinant, and symmetrically).
    pair = lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))
    rng = np.random.default_rng(7)
    xs = pair.chart.sample(rng, 64)
    for r in (1, 2):
        _, conv_bar = split_tensors(pair, xs, r)
        mu, vecs = l_eigen(pair, xs[0])  # noqa: F841 - shape probe
        for x, cb in zip(xs, conv_bar):
            w, v = np.linalg.eigh(l_tensor(pair, x))
            low, high = w[:r], w[r:]
            d = np.empty(3)
            for i in range(3):
                if i < r:
                    d[i] = np.prod(high - w[i]) / np.prod(high)
                else:
                    d[i] = np.prod(w[i] - low) / np.prod(low)
            rebuilt = v @ np.diag(d) @ v.T
            assert cb == pytest.approx(rebuilt, abs=1e-10)


def test_split_two_dim_constant():
    pair = lc_pair((1.0,), (2.0,))
    res = split_pair(pair, 1)
    x = np.array([0.1, -0.2])
    assert res.h.eval(x) == pytest.approx(np.eye(2), abs=1e-12)
    assert res.hbar.eval(x) == pytest.approx(np.diag([1.0, 0.25]), abs=1e-12)
    assert res.index_split == ((0,), (1,))


def test_split_blocks_match_sub_family_metrics():
    lam1 = (0.5, 0.2)
    lam2 = (1.0, 0.3)
    lam3 = (2.0, 0.4)
    pair = lc_pair(lam1, lam2, lam3)
    res = split_pair(pair, 1)
    sub1 = lc_pair(lam1)
    sub23 = lc_pair(lam2, lam3)
    rng = np.random.default_rng(11)
    xs = pair.chart.sample(rng, 200)
    h = res.h.eval(xs)
    hbar = res.hbar.eval(xs)
    assert np.max(np.abs(h[:, 0, 1:])) < 1e-10
    assert np.max(np.abs(hbar[:, 0, 1:])) < 1e-10
    assert h[:, :1, :1] == pytest.approx(sub1.g.eval(xs[:, :1]), abs=1e-10)
    assert hbar[:, :1, :1] == pytest.approx(sub1.gbar.eval(xs[:, :1]), abs=1e-10)
    assert h[:, 1:, 1:] == pytest.approx(sub23.g.eval(xs[:, 1:]), abs=1e-10)
    assert hbar[:, 1:, 1:] == pytest.approx(sub23.gbar.eval(xs[:, 1:]), abs=1e-10)


def test_split_blocks_depend_only_on_own_coordinates():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))
    res = split_pair(pair, 2)
    x = np.array([0.05, -0.1, 0.2])
    step = 1e-5
    for field in (res.h, res.hbar):
        bumped = x.copy()
        bumped[2] += step
        d_front = (field.eval(bumped)[:2, :2] - field.eval(x)[:2, :2]) / step
        assert np.max(np.abs(d_front)) < 1e-6
        bumped = x.copy()
        bumped[0] += step
        d_back = (field.eval(bumped)[2:, 2:] - field.eval(x)[2:, 2:]) / step
        assert np.max(np.abs(d_back)) < 1e-6


def test_split_gap_violated():
    def diag_fn(xs):
        out = np.empty(xs.shape[:-1] + (3,))
        out[..., 0] = 1.0 + xs[..., 0] ** 2
        out[..., 1] = 1.2
        out[..., 2] = 3.0
        return out

    pair = diag_tensor_pair(diag_fn, 3, ((-0.6, 0.6),) + (INTERVAL,) * 2)
    with pytest.raises(GapViolated):
        split_pair(pair, 1)
    split_pair(pair, 2)  # the upper cut has a genuine gap


def test_split_block_size_validation():
    pair = lc_pair((1.0,), (2.0,))
    with pytest.raises(ValueError):
        split_pair(pair, 0)
    with pytest.raises(ValueError):
        split_pair(pair, 2)


def test_glue_one_dimensional_factors():
    glued = glue_pair(lc_triple((2.0,)), lc_triple((3.0,)))
    assert glued.eigen_range == (2.0, 3.0)
    xs = glued.pair.chart.grid(5)
    expected = lc_pair((2.0,), (3.0,))
    assert glued.pair.g.eval(xs) == pytest.approx(expected.g.eval(xs), abs=1e-12)
    assert glued.pair.gbar.eval(xs) == pytest.approx(expected.gbar.eval(xs), abs=1e-12)
    mats = glued.pair.gbar.eval(xs)
    assert mats[0] == pytest.approx(np.diag([1.0 / 12.0, 1.0 / 18.0]), abs=1e-12)


def test_glue_requires_ordered_ranges():
    with pytest.raises(EigenOrderViolated):
        glue_pair(lc_triple((2.0,)), lc_triple((2.0,)))
    with pytest.raises(EigenOrderViolated):
        glue_pair(lc_triple((3.0,)), lc_triple((2.0,)))


def test_glue_chart_is_product_box():
    t1 = lc_triple((1.0,))
    t2 = lc_triple((2.0,), (3.0,))
    glued = glue_pair(t1, t2)
    assert glued.pair.chart.box == (INTERVAL,) * 3


def test_glued_eigenvalues_are_union_of_factors():
    t1 = lc_triple((0.5, 0.2))
    t2 = lc_triple((1.0, 0.3), (2.0, 0.4))
    glued = glue_pair(t1, t2)
    rng = np.random.default_rng(3)
    xs = glued.pair.chart.sample(rng, 100)
    vals = np.stack([l_eigen(glued.pair, x)[0] for x in xs])
    lam1 = np.array([l_eigen(t1.pair, x[:1])[0][0] for x in xs])
    lam23 = np.stack([l_eigen(t2.pair, x[1:])[0] for x in xs])
    expected = np.sort(np.concatenate([lam1[:, None], lam23], axis=1), axis=1)
    assert vals == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("r", [1, 2])
def test_split_then_glue_roundtrip(r):
    pair = lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))
    res = split_pair(pair, r)
    f1, f2 = split_factors(res)
    glued = glue_pair(f1, f2)
    rng = np.random.default_rng(17)
    xs = pair.chart.sample(rng, 1000)
    assert glued.pair.g.eval(xs) == pytest.approx(pair.g.eval(xs), abs=1e-12)
    assert glued.pair.gbar.eval(xs) == pytest.approx(pair.gbar.eval(xs), abs=1e-12)


# Cuts in coordinates adapted to the splitting, where the split fields are
# block-diagonal: a separable pair's, the axial form's, whose upper block holds
# the bifurcation locus, and each product's between its factors.
ADAPTED_CUTS = {"lc_nd-1": ("lc_nd", 1), "lc_nd-2": ("lc_nd", 2),
                "three_d_axial-1": ("three_d_axial", 1),
                "product_s1_s2-1": ("product_s1_s2", 1), "product_s2_s2-2": ("product_s2_s2", 2)}


@pytest.mark.parametrize("name, r", ADAPTED_CUTS.values(), ids=ADAPTED_CUTS.keys())
def test_an_adapted_registry_cut_round_trips_at_the_guarantees_bound(name, r):
    # The relative bound of the acceptance guarantee on split and glue (1e-12).
    pair = standard_pair(name)
    res = split_pair(pair, r)
    glued = glue_pair(*split_factors(res)).pair
    xs = pair.chart.sample(np.random.default_rng(23), 500)
    for original, rebuilt, field in ((pair.g, glued.g, res.h), (pair.gbar, glued.gbar, res.hbar)):
        assert np.all(field.eval(xs)[:, :r, r:] == 0.0)
        reference = original.eval(xs)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(rebuilt.eval(xs) - reference)) <= 1e-12 * scale


def test_the_axial_form_is_a_line_glued_to_the_polar_form():
    """Near its axis, ``three_d_axial`` is the 1-D separable block ``lam(x_0)``
    glued to ``two_d_polar_plus`` with the same ``f`` and ``lam_const = 1``, whose
    centre carries the two coinciding eigenvalues: the picture of a pair split
    across a bifurcation locus.  The closed form (``normal_forms._axial_fields``)
    stays, being the faster build: on a 2-core host, one ``check_equivalence`` of 50
    trajectories takes about 4x as long on the glued pair, and ``l_eigen`` about 3x."""
    kind, params = standard_form_spec("three_d_axial")
    axial = model_form_pair(kind, params)
    box = axial.chart.box
    line = levi_civita_pair(LeviCivitaData(lambdas=(params.lam,), chart=Chart(1, box[:1])))
    disc = model_form_pair(FormKind.TWO_D_POLAR_PLUS, ModelFormParams(f=params.f, lam_const=1.0))
    assert disc.chart.box == box[1:]
    assert max_eigen_multiplicity(disc, disc.chart.center[None, :]) == 2
    glued = glue_pair(make_triple(line), make_triple(disc)).pair
    xs = axial.chart.sample(np.random.default_rng(29), 2000)
    for original, rebuilt in ((axial.g, glued.g), (axial.gbar, glued.gbar)):
        reference = original.eval(xs)
        assert np.max(np.abs(rebuilt.eval(xs) - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert check_equivalence(glued, n_traj=50, seed=1).max_tangential_defect < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_ranges_match_the_leaf_triples(n):
    # Monotone profiles take their extremes at the box corners, which both
    # the gap scan's grid and each leaf's grid contain.
    pair = lc_pair(*((0.5 * (k + 1), 0.2) for k in range(n)))
    for r in range(1, n):
        res = split_pair(pair, r)
        for factor, eig_range in zip(split_factors(res), res.factor_ranges):
            assert factor.eigen_range == eig_range
            assert eig_range == pytest.approx(make_triple(factor.pair).eigen_range,
                                              rel=0.0, abs=1e-12)


def counted(pair):
    """The pair with evaluation counters on both metrics."""
    counts = {"g": 0, "gbar": 0}

    def wrap(field, key):
        def eval_fn(xs):
            counts[key] += 1
            return field.eval(xs)
        return MetricField(chart=field.chart, eval=eval_fn, jet=field.jet)

    return MetricPair(g=wrap(pair.g, "g"), gbar=wrap(pair.gbar, "gbar")), counts


def scan_reads(pair):
    """Evaluations of each metric in one gap scan: one per chunk of its grid,
    which holds the chart centre as well."""
    return -(-(len(_scan_grid(pair.chart)) + 1) // CHUNK)


def test_each_point_batch_evaluates_the_base_pair_once():
    pair, counts = counted(lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4)))
    scan = scan_reads(pair)
    assert scan == 2  # 16^3 grid points and the centre
    res = split_pair(pair, 1)
    assert counts == {"g": scan, "gbar": scan}  # the gap scan
    f1, f2 = split_factors(res)
    assert counts == {"g": scan, "gbar": scan}  # the ranges come from the gap scan
    glued = glue_pair(f1, f2).pair
    xs = pair.chart.sample(np.random.default_rng(2), 50)
    glued.g.eval(xs)
    glued.gbar.eval(xs)
    assert counts == {"g": scan + 2, "gbar": scan + 2}  # one per leaf at xs


def test_every_cut_of_a_pair_reads_one_gap_scan():
    n = 5
    pair, counts = counted(lc_pair(*((0.5 * (k + 1), 0.2) for k in range(n))))
    results = [split_pair(pair, r) for r in range(1, n)]
    scan = scan_reads(pair)
    assert scan == 5  # 7^5 grid points and the centre
    assert counts == {"g": scan, "gbar": scan}
    ranges = vars(pair)["_eigen_ranges"]
    # 2 n floats, and nothing grid-sized held on the pair
    assert len(ranges) == n and all(len(bounds) == 2 for bounds in ranges)
    assert all(type(value) is float for bounds in ranges for value in bounds)
    assert not any(isinstance(value, np.ndarray) for value in vars(pair).values())
    for r, res in enumerate(results, start=1):
        assert res.factor_ranges == ((ranges[0][0], ranges[r - 1][1]),
                                     (ranges[r][0], ranges[-1][1]))


def test_a_replaced_companion_is_scanned_again():
    pair, counts = counted(lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4)))
    before = split_pair(pair, 1).factor_ranges
    gbar = pair.gbar
    scaled = MetricField(chart=gbar.chart, eval=lambda xs: 16.0 * gbar.eval(xs))
    after = split_pair(dataclasses.replace(pair, gbar=scaled), 1).factor_ranges
    scan = scan_reads(pair)
    assert counts == {"g": 2 * scan, "gbar": 2 * scan}
    # In dimension 3, gbar -> 16 gbar takes L to 16^(-1/4) L = L / 2.
    assert np.array(after) == pytest.approx(0.5 * np.array(before), rel=1e-14)
    assert after == split_pair(MetricPair(g=pair.g, gbar=scaled), 1).factor_ranges
    assert split_pair(pair, 1).factor_ranges == before
    assert counts == {"g": 3 * scan, "gbar": 3 * scan}  # the fresh pair's scan; the old
    # pair kept its own


def test_a_scan_that_raises_is_not_kept():
    chart = Chart(3, (INTERVAL,) * 3)

    def constant(mat):
        return MetricField(chart=chart, eval=lambda xs: np.broadcast_to(
            mat, np.shape(xs)[:-1] + (3, 3)).copy())

    pair, counts = counted(MetricPair(g=constant(np.diag([1.0, -2.0, 3.0])),
                                      gbar=constant(np.eye(3))))
    for calls in (1, 2):
        with pytest.raises(NotPositiveDefinite, match="^base metric is not positive definite$"):
            split_pair(pair, calls)
        assert counts["g"] == calls and "_eigen_ranges" not in vars(pair)


def unchunked_ranges(pair):
    """The gap scan as one batch over the whole grid."""
    grid = np.concatenate([_scan_grid(pair.chart), pair.chart.center[None, :]])
    mu = _l_values(pair.g.eval(grid), pair.gbar.eval(grid))
    return tuple((float(lo), float(hi)) for lo, hi in zip(mu.min(axis=0), mu.max(axis=0)))


SCANNED = {"lc_5d": lambda: lc_pair(*((0.5 * (k + 1), 0.2) for k in range(5))),  # 16,808 points
           **{name: functools.partial(standard_pair, name) for name in sorted(STANDARD_FAMILIES)}}


@pytest.mark.parametrize("build", SCANNED.values(), ids=SCANNED.keys())
def test_a_chunked_gap_scan_has_the_bits_of_one_batch(build):
    pair = build()
    assert pair._eigen_ranges == unchunked_ranges(pair)


def counting_factorizations(monkeypatch) -> list:
    """Record every call of LAPACK's solve, Cholesky and symmetric eigen solve,
    and of the batch kernel as the split reads it."""
    calls = []
    for module, name in [(np.linalg, "solve"), (np.linalg, "cholesky"), (np.linalg, "eigh"),
                         (projective, "cholesky_inverse")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _name=name: calls.append(
            _name) or _f(*args))
    return calls


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_fields_are_gram_products_without_a_solve(monkeypatch, n):
    pair = lc_pair(*((0.5 * (k + 1), 0.2) for k in range(n)))
    xs = pair.chart.sample(np.random.default_rng(n), 200)
    metrics = pair.g.eval(xs), pair.gbar.eval(xs)
    for r in range(1, n):
        res = split_pair(pair, r)
        calls = counting_factorizations(monkeypatch)
        fields = res.h.eval(xs), res.hbar.eval(xs)
        monkeypatch.undo()
        # Both fields off one frame: one kernel call and one eigh for the batch.
        assert sorted(calls) == ["cholesky_inverse", "eigh"]
        for h, m, conv in zip(fields, metrics, split_tensors(pair, xs, r)):
            assert np.array_equal(h, np.swapaxes(h, -1, -2))
            assert np.all(np.linalg.eigvalsh(h) > 0.0)
            # h = conv^-T m
            assert np.allclose(np.swapaxes(conv, -1, -2) @ h, m, rtol=0.0, atol=1e-12)


def split_fields(pair):
    res = split_pair(pair, 1)
    return res.h, res.hbar


def glued_fields(pair):
    glued = glue_pair(*split_factors(split_pair(pair, 1))).pair
    return glued.g, glued.gbar


READ_ORDERS = {
    "companion-first": [(1, "a"), (0, "a")],
    "base-twice": [(0, "a"), (0, "a"), (1, "a")],
    "interleaved": [(0, "a"), (0, "b"), (1, "a"), (1, "b")],
    "mutated-points": [(0, "a"), "mutate", (1, "a"), (0, "a")],
}


@pytest.mark.parametrize("build", [split_fields, glued_fields], ids=["split", "glue"])
@pytest.mark.parametrize("reads", READ_ORDERS.values(), ids=READ_ORDERS.keys())
def test_twin_fields_never_serve_a_stale_matrix(build, reads):
    # Each read must equal the same read on freshly built fields.
    pair = lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))
    rng = np.random.default_rng(5)
    points = {"a": pair.chart.sample(rng, 20), "b": pair.chart.sample(rng, 20)}
    fields = build(pair)
    for read in reads:
        if read == "mutate":
            points["a"][3] += 0.01  # in place, after the read that filled the slot
            continue
        which, name = read
        got = fields[which].eval(points[name])
        assert np.array_equal(got, build(pair)[which].eval(points[name].copy()))


@pytest.mark.parametrize("build, evaluator, per_read",
                         [(split_fields, "_split", 1), (glued_fields, "_factor_pass", 2)],
                         ids=["split", "glued"])
def test_only_a_base_read_keeps_the_intermediates_for_its_partner(monkeypatch, build,
                                                                 evaluator, per_read):
    pair = lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))
    g, gbar = build(pair)
    calls = []
    evaluate = getattr(split_glue, evaluator)
    monkeypatch.setattr(split_glue, evaluator, lambda *args: calls.append(1) or evaluate(*args))
    xs = pair.chart.sample(np.random.default_rng(6), 20)
    g.eval(xs)
    gbar.eval(xs)
    assert len(calls) == per_read  # the companion read pops what the base read kept
    calls.clear()
    gbar.eval(xs)
    g.eval(xs)
    assert len(calls) == 2 * per_read  # a companion read keeps nothing


# Sphere products beyond the registry's: three factors, where the outer glue
# reads its glued first factor by congruence and the others in closed form, and
# a non-diagonal map on a sphere chart projected from an off-axis pole.
SPHERE_PRODUCTS = {
    "spheres-1-2-1": lambda: spheres_product([
        (1, None), (2, LinearMap.diagonal([1.0, 2.0, 3.0])),
        (1, LinearMap.diagonal([1.0, 2.0]))]).pair,
    "spheres-tilted": lambda: spheres_product([
        (1, None), (2, LinearMap(np.array([[1.0, 0.3, 0.0], [0.2, 2.0, 0.4], [0.0, -0.3, 3.0]])),
                    sphere_chart(2, pole=[0.3, 0.3, 1.0]))]).pair,
}

GLUED_PAIRS = {
    "product_s1_s2": lambda: standard_pair("product_s1_s2"),
    "product_s2_s2": lambda: standard_pair("product_s2_s2"),
    **SPHERE_PRODUCTS,
    "split-lc": lambda: glue_pair(*split_factors(split_pair(
        lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4)), 1))).pair,
    # A non-diagonal split: its block factors come from K^-1 of the companion,
    # which must be the same bits at every batch size.
    "split-beltrami_3": lambda: glue_pair(*split_factors(split_pair(
        standard_pair("beltrami_3"), 1))).pair,
}


@pytest.mark.parametrize("build", GLUED_PAIRS.values(), ids=GLUED_PAIRS.keys())
def test_a_glued_stencil_read_equals_its_per_slice_reads(build):
    # The stacked read evaluates each factor only on the slices that move
    # its coordinates; every slice must still carry the bits of its own read.
    pair = build()
    x = pair.chart.sample(np.random.default_rng(8), 25, shrink=0.8)
    stack = x + pair.chart._fd_stencil[0][:, None]
    for field in (pair.g, pair.gbar):
        got = field.eval(stack)
        for s, points in enumerate(stack):
            assert np.array_equal(got[s], field.eval(points.copy()))


def _count_factor_rows(monkeypatch) -> dict:
    """Patch gluing so that every factor read records its row count by
    factor and field.  The counting triples carry no closed form of ``L``, so
    a sphere product's factors are read by congruence (:func:`_factor_pass`)."""
    rows = {}

    def counted_triple(triple, tag):
        def wrap(field, key):
            def eval_fn(xs):
                rows.setdefault((tag, key), []).append(int(np.prod(np.shape(xs)[:-1])))
                return field.eval(xs)
            return MetricField(chart=field.chart, eval=eval_fn, jet=field.jet)
        pair = triple.pair
        return EquivTriple(pair=MetricPair(g=wrap(pair.g, "g"), gbar=wrap(pair.gbar, "gbar")),
                           eigen_range=triple.eigen_range)

    glue = split_glue.glue_pair
    monkeypatch.setattr(split_glue, "glue_pair", lambda f1, f2: glue(
        counted_triple(f1, "factor1"), counted_triple(f2, "factor2")))
    return rows


def test_a_spray_of_the_glued_base_evaluates_each_factor_on_its_own_slices(monkeypatch):
    rows = _count_factor_rows(monkeypatch)
    pair = standard_pair("product_s2_s2")
    passes, reads = [], []
    factor_pass, field_terms = split_glue._factor_pass, split_glue._field_terms
    monkeypatch.setattr(split_glue, "_factor_pass", lambda p, xs: passes.append(
        np.shape(xs)[:-1]) or factor_pass(p, xs))
    monkeypatch.setattr(split_glue, "_field_terms", lambda which, *args: reads.append(
        which) or field_terms(which, *args))
    B = 11
    rng = np.random.default_rng(9)
    x = pair.chart.sample(rng, B, shrink=0.8)
    _spray(pair.g, x, rng.normal(size=x.shape))
    # One pass per factor, on the 2 * 2 + 1 rows of a 2-dimensional factor's
    # own stencil, and only the terms of the base metric.
    assert passes == [(5, B), (5, B)]
    assert rows == {(tag, key): [5 * B] for tag in ("factor1", "factor2")
                    for key in ("g", "gbar")}
    assert reads == [0, 0]


def test_l_partials_of_a_glued_pair_evaluate_each_factor_once_on_the_stencil(monkeypatch):
    rows = _count_factor_rows(monkeypatch)
    pair = standard_pair("product_s2_s2")
    B = 7
    x = pair.chart.sample(np.random.default_rng(10), B, shrink=0.8)
    _l_partials(pair, x)
    # L is differenced as a whole, so each factor is read on all 2 * 4 + 1
    # slices of the product chart's stencil, once per metric.
    assert rows == {(tag, key): [9 * B] for tag in ("factor1", "factor2")
                    for key in ("g", "gbar")}


def product_factors(monkeypatch, name: str) -> list:
    """The scaled factor triples that :func:`spheres_product` folds for a registry
    product."""
    folded = []
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "oplus",
                      lambda triples: folded.extend(triples) or triples[0])
        standard_pair(name)
    return folded


def bare(field):
    return MetricField(chart=field.chart, eval=field.eval, jet=field.jet)


REBUILT = {
    # A new pair with the same evaluators: the closed form is not its own.
    "replaced-pair": lambda t: dataclasses.replace(
        t, pair=MetricPair(g=bare(t.pair.g), gbar=bare(t.pair.gbar))),
    # The closed form handed on explicitly, with wrapped fields.
    "wrapped-fields": lambda t: EquivTriple(
        pair=MetricPair(g=bare(t.pair.g), gbar=t.pair.gbar), eigen_range=t.eigen_range,
        closed_l=t.closed_l),
}


@pytest.mark.parametrize("name", ["product_s1_s2", "product_s2_s2"])
@pytest.mark.parametrize("rebuild", REBUILT.values(), ids=REBUILT.keys())
def test_a_rebuilt_sphere_triple_is_glued_by_congruence(monkeypatch, name, rebuild):
    factors = product_factors(monkeypatch, name)
    assert all(t.closed_l is not None for t in factors)
    rebuilt = [rebuild(t) for t in factors]
    assert all(t.closed_l is None for t in rebuilt)
    # The congruence route: the same factors without their closed forms.
    congruence = glue_pair(*(EquivTriple(pair=t.pair, eigen_range=t.eigen_range)
                             for t in factors)).pair
    closed, got = glue_pair(*factors).pair, glue_pair(*rebuilt).pair
    x = congruence.chart.sample(np.random.default_rng(17), 30, shrink=0.8)
    for which in ("g", "gbar"):
        ref = getattr(congruence, which)
        assert np.array_equal(getattr(got, which).eval(x), ref.eval(x))
        for a, b in zip(getattr(got, which).jet(x), ref.jet(x)):
            assert np.array_equal(a, b)
        # The closed form gives other bits, so a stale read would show.
        assert not np.array_equal(getattr(closed, which).eval(x), ref.eval(x))


def test_a_triple_drops_a_closed_form_built_for_other_fields():
    triple = constructions.beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0]))
    other = constructions.beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 4.0]))
    assert dataclasses.replace(triple, eigen_range=(0.5, 9.0)).closed_l is triple.closed_l
    assert dataclasses.replace(triple, pair=dataclasses.replace(triple.pair)).closed_l \
        is triple.closed_l  # the same two fields
    for pair in (other.pair, dataclasses.replace(triple.pair, gbar=other.pair.gbar),
                 dataclasses.replace(triple.pair, g=bare(triple.pair.g))):
        assert dataclasses.replace(triple, pair=pair).closed_l is None


def test_a_base_spray_of_a_sphere_product_reads_no_companion_and_no_cholesky(monkeypatch):
    pair = standard_pair("product_s2_s2")
    calls = []
    for module, name in [(_batch, "cholesky_inverse"), (projective, "cholesky_inverse"),
                         (constructions, "_gram_companion"), (split_glue, "_factor_pass")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _name=name: calls.append(
            _name) or _f(*args))
    rng = np.random.default_rng(18)
    x = pair.chart.sample(rng, 11, shrink=0.8)
    _spray(pair.g, x, rng.normal(size=x.shape))
    assert calls == []
    # A companion read takes one Gram companion per factor, on its stencil.
    pair.gbar.jet(x)
    assert calls == ["_gram_companion", "_gram_companion"]


JET_PAIRS = {
    "product_s1_s2": lambda: standard_pair("product_s1_s2"),
    "product_s2_s2": lambda: standard_pair("product_s2_s2"),
    **SPHERE_PRODUCTS,
    # Three factors: the outer glue's first factor is itself glued.
    "oplus-1-2-1": lambda: oplus([lc_triple((0.5, 0.1)), lc_triple((1.0, 0.1), (1.4, 0.1)),
                                  lc_triple((2.0, 0.2))]).pair,
}


@pytest.mark.parametrize("build", JET_PAIRS.values(), ids=JET_PAIRS.keys())
def test_a_glued_jet_is_its_eval_and_the_stencil_partials(build):
    pair = build()
    x = pair.chart.sample(np.random.default_rng(14), 40, shrink=0.8)
    for field in (pair.g, pair.gbar):
        value, partials = field.jet(x)
        assert np.array_equal(value, field.eval(x))
        reference = stencil_reference(field, x)[1]
        assert np.max(np.abs(partials - reference)) <= 1e-8 * np.max(np.abs(reference))
        assert np.array_equal(partials, np.swapaxes(partials, -1, -2))


@pytest.mark.parametrize("name", ["product_s1_s2", "product_s2_s2"])
def test_the_glued_products_conserve_their_integrals(name):
    # The defect check alone passes a glued jet whose first block carries the
    # sign (-1)^r in its partials; the integrals' drift does not.
    report = check_conservation(standard_pair(name), n_traj=10, duration=1.0, tol=1e-10,
                                seed=3)
    assert report.max_drift < 1e-6


def test_oplus_is_associative():
    a = lc_triple((1.0,))
    b = lc_triple((2.0,))
    c = lc_triple((3.0,))
    left = oplus([a, b, c])
    right = glue_pair(a, glue_pair(b, c))
    xs = left.pair.chart.grid(4)
    assert left.pair.g.eval(xs) == pytest.approx(right.pair.g.eval(xs), abs=1e-12)
    assert left.pair.gbar.eval(xs) == pytest.approx(right.pair.gbar.eval(xs), abs=1e-12)
    assert left.eigen_range == right.eigen_range == (1.0, 3.0)


def test_oplus_singleton_and_errors():
    t = lc_triple((2.0,))
    assert oplus([t]) is t
    with pytest.raises(ValueError):
        oplus([])
    bad = [lc_triple((1.0,)), lc_triple((3.0,)), lc_triple((2.0,))]
    with pytest.raises(EigenOrderViolated, match="factors 1 and 2"):
        oplus(bad)


def test_make_triple_range_and_positivity():
    t = lc_triple((0.5, 0.2), (1.0, 0.3))
    lo, hi = t.eigen_range
    assert lo == pytest.approx(0.4, abs=1e-12)
    assert hi == pytest.approx(1.15, abs=1e-12)
    with pytest.raises(NotPositive):
        EquivTriple(pair=t.pair, eigen_range=(-1.0, 2.0))
