"""Tests for the verification procedures and the family registry."""
import dataclasses

import numpy as np
import pytest

import geq.projective as projective
import geq.verify as verify

from geq.charts import Chart, _spray, integrate_geodesics
from geq.constructions import beltrami_pair
from geq.normal_forms import (FormKind, LeviCivitaData, ModelFormParams,
                              ScalarFunction1D, levi_civita_pair,
                              model_form_pair, random_levi_civita_data)
from geq.projective import _integrals, eigen_range, frame_weights, integral_roots_many
from geq.verify import (CONTROL_FAMILIES, EQUIVALENT_FAMILIES,
                        STANDARD_FAMILIES, check_conservation,
                        check_equivalence, check_interlacing,
                        control_conformal_pair, nijenhuis_control_pair,
                        seeded_starts, standard_pair)

INTERVAL = (-0.5, 0.5)


def lc_pair(*coeff_rows):
    lams = tuple(ScalarFunction1D(row, INTERVAL) for row in coeff_rows)
    box = tuple(INTERVAL for _ in coeff_rows)
    return levi_civita_pair(LeviCivitaData(lambdas=lams, chart=Chart(len(lams), box)))


def test_seeded_starts_are_interior_and_unit_speed():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3))
    rng = np.random.default_rng(0)
    starts, vels = seeded_starts(pair, 50, rng)
    assert np.max(np.abs(starts)) <= 0.3 + 1e-12  # middle 60% of the box
    g = pair.g.eval(starts)
    speeds = np.einsum("bi,bij,bj->b", vels, g, vels)
    assert speeds == pytest.approx(np.ones(50), abs=1e-12)


def test_equivalence_identical_metrics_has_zero_defect():
    pair = beltrami_pair(2).pair  # companion equals the base metric
    report = check_equivalence(pair, n_traj=10, duration=1.0, tol=1e-10, seed=1)
    assert report.max_tangential_defect < 1e-9
    assert report.trajectories == 10
    assert len(report.defect_histogram) == 7
    assert sum(report.defect_histogram) > 0


def test_equivalence_constructed_pair_passes():
    report = check_equivalence(lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4)),
                               n_traj=20, duration=1.0, tol=1e-10, seed=2)
    assert report.max_tangential_defect < 1e-6


def test_equivalence_control_pair_fails():
    report = check_equivalence(control_conformal_pair(), n_traj=10,
                               duration=1.0, tol=1e-10, seed=3)
    assert report.max_tangential_defect > 1e-3


def test_equivalence_is_deterministic():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3))
    a = check_equivalence(pair, n_traj=5, duration=0.5, tol=1e-10, seed=4)
    b = check_equivalence(pair, n_traj=5, duration=0.5, tol=1e-10, seed=4)
    assert a == b


def test_equivalence_counts_truncated_trajectories():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3))
    report = check_equivalence(pair, n_traj=10, duration=10.0, tol=1e-8, seed=5)
    assert report.truncated > 0
    assert report.max_tangential_defect < 1e-6


def test_equivalence_validates_trajectory_count():
    with pytest.raises(ValueError):
        check_equivalence(lc_pair((1.0,), (2.0,)), n_traj=0)


def counted(field, log: list, name: str):
    """``field`` with every evaluator call logged as ``(name, kind, rows)``."""
    def wrap(fn, kind):
        def inner(xs):
            log.append((name, kind, int(np.prod(np.shape(xs)[:-1]))))
            return fn(xs)
        return inner

    return dataclasses.replace(
        field, eval=wrap(field.eval, "eval"),
        jet=None if field.jet is None else wrap(field.jet, "jet"))


@pytest.mark.parametrize("n", [2, 4])
def test_a_separable_spray_is_one_jet_call(n):
    pair = levi_civita_pair(random_levi_civita_data(n, np.random.default_rng(n)))
    log = []
    field = counted(pair.g, log, "g")
    rng = np.random.default_rng(1)
    x = pair.chart.sample(rng, 9)
    v = rng.normal(size=x.shape)
    g, _ = _spray(field, x, v)
    assert log == [("g", "jet", 9)]
    assert np.array_equal(g, pair.g.eval(x))


@pytest.mark.parametrize("name", ["beltrami_2", "three_d_axial", "product_s1_s2"])
def test_equivalence_reads_the_base_metric_only_to_integrate(monkeypatch, name):
    pair = standard_pair(name)
    log = []
    pair = dataclasses.replace(pair, g=counted(pair.g, log, "g"),
                               gbar=counted(pair.gbar, log, "gbar"))
    integrate = verify.integrate_geodesics
    samples = []

    def integrate_then_mark(*args):
        trajectories = integrate(*args)
        samples.append(sum(len(t.points) for t in trajectories))
        log.append("integrated")
        return trajectories

    monkeypatch.setattr(verify, "integrate_geodesics", integrate_then_mark)
    report = check_equivalence(pair, n_traj=6, duration=0.5, tol=1e-9, seed=3)
    assert report.max_tangential_defect < 1e-6
    # After the integrator, only the companion is read: once, on the
    # samples and their (4n + 1)-point stencil stacked.
    after = log[log.index("integrated") + 1:]
    assert after == [("gbar", "eval", (4 * pair.dim + 1) * samples[0])]
    assert [entry for entry in log if entry[0] == "gbar"] == after


@pytest.mark.parametrize("name", ["lc_nd", "two_d_elliptic", "product_s1_s2"])
def test_conservation_reads_each_metric_once_after_integrating(monkeypatch, name):
    pair = standard_pair(name)
    log = []
    pair = dataclasses.replace(pair, g=counted(pair.g, log, "g"),
                               gbar=counted(pair.gbar, log, "gbar"))
    integrate = verify.integrate_geodesics
    samples = []

    def integrate_then_mark(*args):
        trajectories = integrate(*args)
        samples.append(sum(len(t.points) for t in trajectories))
        log.append("integrated")
        return trajectories

    monkeypatch.setattr(verify, "integrate_geodesics", integrate_then_mark)
    report = check_conservation(pair, n_traj=4, duration=0.5, tol=1e-9, seed=2)
    assert report.max_drift < 1e-6
    after = log[log.index("integrated") + 1:]
    assert after == [("g", "eval", samples[0]), ("gbar", "eval", samples[0])]


def test_conservation_on_a_constructed_pair():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))
    report = check_conservation(pair, n_traj=10, duration=1.0, tol=1e-10, seed=6)
    assert report.max_drift < 1e-6
    assert len(report.t_values) == 5
    # The parameter values span one unit beyond the eigenvalue range over
    # the same trajectories' samples, which lies inside the box's [0.4, 2.2].
    starts, vels = seeded_starts(pair, 10, np.random.default_rng(6))
    trajectories = integrate_geodesics(pair.g, starts, vels, 1.0, 1e-10)
    lo, hi = eigen_range(pair, np.concatenate([t.points for t in trajectories]))
    assert report.t_values[0] == lo - 1.0
    assert report.t_values[-1] == hi + 1.0
    assert 0.4 <= lo < hi <= 2.2
    # Five parameter values plus two roots per trajectory.
    assert len(report.rows) == 10 * 7
    ids = {row.integral_id for row in report.rows}
    assert "root_0" in ids and "root_1" in ids


def test_conservation_identical_metrics_is_tight():
    pair = beltrami_pair(2).pair
    report = check_conservation(pair, n_traj=5, duration=1.0, tol=1e-10, seed=7)
    assert report.max_drift < 1e-9


def test_conservation_planar_integral_drift():
    pair = model_form_pair(FormKind.TWO_D_ELLIPTIC, ModelFormParams(
        lam=ScalarFunction1D((2.0, 1.0), (-2.0, 2.0))))
    report = check_conservation(pair, n_traj=10, duration=1.0, tol=1e-10, seed=8)
    assert report.max_drift < 1e-6
    # In dimension two I_t is linear in t, so the five conserved integrals fix the
    # quadratic integral I_0: at each end of a trajectory their values lie on a line.
    for side in ("start_value", "end_value"):
        values = np.array([[getattr(row, side) for row in report.rows
                            if row.index == idx and row.integral_id.startswith("integral_t=")]
                           for idx in range(10)])
        assert values.shape == (10, 5)
        assert np.all(np.abs(np.diff(values, 2, axis=1)) <= 1e-13 * np.max(np.abs(values)))


def test_conservation_drift_scales_with_tolerance():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3))
    coarse = check_conservation(pair, n_traj=5, duration=1.0, tol=1e-10, seed=9)
    fine = check_conservation(pair, n_traj=5, duration=1.0, tol=5e-11, seed=9)
    assert fine.max_drift <= 2.0 * coarse.max_drift + 1e-12


def test_conservation_rows_match_a_per_trajectory_recomputation():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3))
    report = check_conservation(pair, n_traj=8, duration=10.0, tol=1e-8, seed=5)
    starts, vels = seeded_starts(pair, 8, np.random.default_rng(5))
    trajectories = integrate_geodesics(pair.g, starts, vels, 10.0, 1e-8)
    # Some trajectories hit the chart boundary, so the segments differ in length.
    assert any(t.left_chart for t in trajectories)
    assert len({len(t.points) for t in trajectories}) > 1
    expected = []
    for idx, traj in enumerate(trajectories):
        xs, vs = traj.points, traj.velocities
        integrals = _integrals(*frame_weights(pair, xs, vs), np.array(report.t_values))
        series = [(f"integral_t={t:.9g}", integrals[:, j])
                  for j, t in enumerate(report.t_values)]
        roots = integral_roots_many(pair, xs, vs)
        series += [(f"root_{i}", roots[:, i]) for i in range(roots.shape[1])]
        for name, values in series:
            drift = np.max(np.abs(values - values[0])) / max(1.0, abs(values[0]))
            expected.append((idx, name, values[0], values[-1], drift))
    assert len(report.rows) == len(expected)
    for row, (idx, name, start, end, drift) in zip(report.rows, expected):
        assert (row.index, row.integral_id) == (idx, name)
        assert row.start_value == pytest.approx(start, abs=1e-12)
        assert row.end_value == pytest.approx(end, abs=1e-12)
        assert row.rel_drift == pytest.approx(drift, abs=1e-12)
    assert report.max_drift == max(row.rel_drift for row in report.rows)


@pytest.mark.parametrize("kwargs", [{"n_points": 0}, {"n_points": -3}, {"n_vectors": 0},
                                    {"points": np.empty((0, 2))}])
def test_interlacing_rejects_an_empty_scan(kwargs):
    with pytest.raises(ValueError, match=r"^(n_points|n_vectors|points): "):
        check_interlacing(lc_pair((0.5, 0.2), (1.0, 0.3)), **kwargs)


def test_interlacing_scan_is_clean():
    pair = lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))
    report = check_interlacing(pair, n_points=100, n_vectors=10, seed=10)
    assert report.samples == 1000
    assert report.violations == 0


def test_interlacing_pins_roots_at_a_coincidence_point():
    pair = model_form_pair(FormKind.TWO_D_POLAR_PLUS, ModelFormParams(
        f=ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0)), lam_const=1.0))
    report = check_interlacing(pair, n_vectors=25, seed=11,
                               points=np.zeros((1, 2)))
    assert report.violations == 0
    assert report.max_pin_deviation < 1e-9


def test_conservation_takes_integrals_range_and_roots_from_one_congruence(monkeypatch):
    calls = []

    def counting(g, gb):
        calls.append(g.shape)
        return congruence(g, gb)

    congruence = projective._congruence
    monkeypatch.setattr(projective, "_congruence", counting)
    check_conservation(lc_pair((0.5, 0.2), (1.0, 0.3), (2.0, 0.4)), n_traj=3, seed=4)
    assert len(calls) == 1


@pytest.mark.parametrize("name", STANDARD_FAMILIES)
def test_standard_families_build(name):
    pair = standard_pair(name)
    center = pair.chart.center
    mats = pair.g.eval(center[None, :])
    assert np.all(np.isfinite(mats))


def test_standard_family_registry():
    assert set(CONTROL_FAMILIES).isdisjoint(EQUIVALENT_FAMILIES)
    with pytest.raises(ValueError):
        standard_pair("no_such_family")
    assert nijenhuis_control_pair().dim == 2
