"""Numerical verification procedures: the unparametrized-geodesic test,
conservation of the integral family along geodesics, interlacing scans,
the great-circle planarity probe of the sphere pairs, and a registry of
ready-made families for the CLI and the acceptance suite.

The equivalence criterion is residual parallelism: along a geodesic of
the base metric, the second metric's geodesic residual
``w^k = dv^k/dt + Gbar^k_ij v^i v^j`` must stay parallel to the velocity.
The acceleration ``dv/dt = -G(v, v)`` at each stored sample is the
integrator's first-same-as-last stage (``Trajectory.accelerations``), so
the residual is ``w = Gbar(v, v) + dv/dt`` with only the contraction
``Gbar(v, v)`` formed anew; the defect is the norm of the component of
``w`` orthogonal to ``v``, normalized by the squared speed, both measured
in the second metric.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from ._batch import positive_definite
from ._validate import as_floats, expect_instance, expect_int, expect_number, fail
from .charts import Chart, MetricField, _spray, integrate_geodesics
from .constructions import (LinearMap, SphereChart, _round_metric, beltrami_pair,
                            spheres_product)
from .errors import NotPositiveDefinite
from .normal_forms import (FormKind, LeviCivitaData, ModelFormParams,
                           ScalarFunction1D, model_form_pair)
from .projective import (CLUSTER_RADIUS, MetricPair, _frame_weights, _integrals, _roots_many,
                         frame_weights)

Array = np.ndarray

HISTOGRAM_EDGES = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
START_SHRINK = 0.6


@dataclasses.dataclass(frozen=True)
class EquivalenceReport:
    """Result of the unparametrized-geodesic test."""

    trajectories: int
    truncated: int
    max_tangential_defect: float
    defect_histogram: tuple[int, ...]
    integrator_tol: float
    seed: int


@dataclasses.dataclass(frozen=True)
class DriftRow:
    """Drift of one conserved quantity along one trajectory."""

    index: int
    integral_id: str
    start_value: float
    end_value: float
    rel_drift: float


@dataclasses.dataclass(frozen=True)
class ConservationReport:
    """Relative drift of the integral family along geodesics."""

    t_values: tuple[float, ...]
    rows: tuple[DriftRow, ...]
    max_drift: float
    integrator_tol: float
    seed: int


@dataclasses.dataclass(frozen=True)
class InterlacingReport:
    """Bracket violations of the integral roots against the eigenvalues."""

    samples: int
    violations: int
    max_excess: float
    max_pin_deviation: float
    epsilon: float
    seed: int


def seeded_starts(pair: MetricPair, count: int, rng: np.random.Generator
                  ) -> tuple[Array, Array]:
    """Base points uniform in the middle portion of the chart box and
    velocities uniform in direction, normalized to unit speed in the base
    metric.  A start where that metric has a non-finite entry, or is not
    positive definite (a Cholesky pivot fails), raises
    :class:`NotPositiveDefinite` naming the first one."""
    starts = pair.chart.sample(rng, count, shrink=START_SHRINK)
    vels = rng.normal(size=(count, pair.dim))
    g = pair.g.eval(starts)
    finite = np.isfinite(g).all(axis=(-2, -1))
    if not finite.all():
        raise NotPositiveDefinite(f"base metric has non-finite entries at the start "
                                  f"{starts[np.argmin(finite)].tolist()}")
    if not positive_definite(g):
        point = next(x for x, g_x in zip(starts, g) if not positive_definite(g_x[None]))
        raise NotPositiveDefinite(f"base metric is not positive definite at the start "
                                  f"{point.tolist()}")
    speed = np.sqrt(np.einsum("bi,bij,bj->b", vels, g, vels))
    return starts, vels / speed[:, None]


def _geodesic_samples(pair: MetricPair, n_traj, duration, tol, seed
                      ) -> tuple[list, Array, Array]:
    """Validate a check's run arguments, integrate ``n_traj`` seeded geodesics
    of the base metric, and stack their stored points and velocities."""
    expect_instance(pair, MetricPair, "pair")
    n_traj = expect_int(n_traj, "n_traj", 1)
    duration = expect_number(duration, "duration", positive=True)
    rng = np.random.default_rng(expect_int(seed, "seed", 0))
    starts, vels = seeded_starts(pair, n_traj, rng)
    trajectories = integrate_geodesics(pair.g, starts, vels, duration, tol)
    return (trajectories, np.concatenate([t.points for t in trajectories]),
            np.concatenate([t.velocities for t in trajectories]))


def check_equivalence(pair: MetricPair, n_traj: int = 100, duration: float = 1.0,
                      tol: float = 1e-10, seed: int = 0) -> EquivalenceReport:
    """Integrate geodesics of the base metric and measure the worst
    tangential defect of the companion metric's geodesic residual
    ``Gbar(v, v)`` plus the integrator's acceleration at each sample; the
    base metric is not read once the integrator returns."""
    trajectories, xs, vs = _geodesic_samples(pair, n_traj, duration, tol, seed)
    gb, spray_bar = _spray(pair.gbar, xs, vs)
    w = spray_bar + np.concatenate([t.accelerations for t in trajectories])
    gvv = np.einsum("bi,bij,bj->b", vs, gb, vs)
    gwv = np.einsum("bi,bij,bj->b", w, gb, vs)
    ortho = w - (gwv / gvv)[:, None] * vs
    sq = np.einsum("bi,bij,bj->b", ortho, gb, ortho)
    defects = np.sqrt(np.maximum(sq, 0.0)) / gvv
    edges = np.concatenate([[0.0], HISTOGRAM_EDGES, [np.inf]])
    counts, _ = np.histogram(defects, bins=edges)
    return EquivalenceReport(
        trajectories=n_traj,
        truncated=int(sum(t.left_chart for t in trajectories)),
        max_tangential_defect=float(np.max(defects)),
        defect_histogram=tuple(int(c) for c in counts),
        integrator_tol=tol,
        seed=seed,
    )


def check_conservation(pair: MetricPair, n_traj: int = 20, duration: float = 1.0,
                       tol: float = 1e-10, seed: int = 0) -> ConservationReport:
    """Measure the relative drift, along geodesics of the base metric, of
    the polynomial integral at five parameter values and of each of its
    roots.  In dimension two this covers the classical quadratic integral
    ``(det g / det gbar)^(2/3) gbar(v, v)``: it is ``I_0``, and ``I_t`` is
    linear in ``t`` there.

    The parameter values span one unit beyond the eigenvalue range of
    ``L`` over the stored trajectory samples.  The drift of a series is
    ``max_j |s_j - s_0| / max(1, |s_0|)`` over the stored samples; start
    and end values are reported alongside.  Each metric is evaluated once,
    on the stacked samples, after the integrator returns, and one eigenframe
    solve (:func:`~geq.projective._frame_weights`) gives the parameter range,
    the integrals and their roots.
    """
    trajectories, xs, vs = _geodesic_samples(pair, n_traj, duration, tol, seed)
    mu, w = _frame_weights(pair.g.eval(xs), pair.gbar.eval(xs), vs)
    t_values = np.linspace(float(np.min(mu)) - 1.0, float(np.max(mu)) + 1.0, 5)
    roots = _roots_many(mu, w)
    names = [f"integral_t={t:.9g}" for t in t_values]
    names += [f"root_{i}" for i in range(roots.shape[-1])]
    # Columns are series; trajectory idx owns rows first[idx] to first[idx] + lengths[idx] - 1.
    values = np.concatenate([_integrals(mu, w, t_values), roots], axis=1)
    lengths = np.array([len(t.points) for t in trajectories])
    first = np.cumsum(lengths) - lengths
    start = values[first]
    end = values[first + lengths - 1]
    deviation = np.abs(values - np.repeat(start, lengths, axis=0))
    drift = np.maximum.reduceat(deviation, first, axis=0) / np.maximum(1.0, np.abs(start))
    rows = tuple(DriftRow(idx, name, s, e, d)
                 for idx, row in enumerate(zip(start.tolist(), end.tolist(), drift.tolist()))
                 for name, s, e, d in zip(names, *row))
    return ConservationReport(
        t_values=tuple(float(t) for t in t_values),
        rows=rows,
        max_drift=float(np.max(drift)),
        integrator_tol=tol,
        seed=seed,
    )


def check_interlacing(pair: MetricPair, n_points: int = 100, n_vectors: int = 10,
                      seed: int = 0, epsilon: float = 1e-9,
                      points: Array | None = None) -> InterlacingReport:
    """Scan random phase samples for violations of the eigenvalue
    bracketing of the integral roots, and measure how exactly roots are
    pinned where neighboring eigenvalues coincide.  A one-dimensional pair has
    no roots, so it holds vacuously: 0 violations, every maximum 0."""
    expect_instance(pair, MetricPair, "pair")
    n_vectors = expect_int(n_vectors, "n_vectors", 1)
    epsilon = expect_number(epsilon, "epsilon", positive=True)
    rng = np.random.default_rng(expect_int(seed, "seed", 0))
    if points is None:
        pts = pair.chart.sample(rng, expect_int(n_points, "n_points", 1))
    else:
        pts = pair.chart.points(np.atleast_2d(as_floats(points, "points")), "points")
    count = pts.shape[0]
    vecs = rng.normal(size=(count, n_vectors, pair.dim))
    mu, w = frame_weights(pair, pts[:, None, :], vecs)
    roots = _roots_many(mu, w)
    lo = mu[..., :-1]
    hi = mu[..., 1:]
    excess = np.maximum(lo - roots - epsilon, roots - hi - epsilon)
    violations = int(np.count_nonzero(excess > 0.0))
    max_excess = float(np.max(excess + epsilon, initial=0.0))
    pinned = (hi - lo) < CLUSTER_RADIUS
    deviation = np.minimum(np.abs(roots - lo), np.abs(roots - hi))
    max_pin = float(np.max(deviation[pinned], initial=0.0))
    return InterlacingReport(
        samples=count * n_vectors,
        violations=violations,
        max_excess=max_excess,
        max_pin_deviation=max_pin,
        epsilon=epsilon,
        seed=seed,
    )


def _flat_metric(xs: Array) -> Array:
    """The flat metric of the plane, the base metric of both controls."""
    xs = np.asarray(xs, dtype=float)
    return np.broadcast_to(np.eye(2), xs.shape[:-1] + (2, 2)).copy()


def control_conformal_pair() -> MetricPair:
    """Flat metric paired with a conformal rescaling that is *not*
    projectively equivalent to it — the designated failing control."""
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)))

    def gbar_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        factor = 1.0 + xs[..., 0] ** 2
        return factor[..., None, None] * np.eye(2)

    return MetricPair(g=MetricField(chart=chart, eval=_flat_metric),
                      gbar=MetricField(chart=chart, eval=gbar_eval))


def nijenhuis_control_pair() -> MetricPair:
    """Pair whose compatibility tensor swaps the coordinates — its torsion
    is nonzero, the designated failing control for the torsion test."""
    chart = Chart(2, ((1.0, 2.0), (1.0, 2.0)))

    def gbar_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        a, b = xs[..., 0], xs[..., 1]
        out = np.zeros(xs.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 / (a * b * b)
        out[..., 1, 1] = 1.0 / (a * a * b)
        return out

    return MetricPair(g=MetricField(chart=chart, eval=_flat_metric),
                      gbar=MetricField(chart=chart, eval=gbar_eval))


def circle_planarity(sphere: SphereChart, a_map: LinearMap, n_circles: int,
                     seed: int, tol: float = 1e-12) -> tuple[float, float]:
    """Geodesy oracle: integrate geodesics of the round chart metric for unit
    time, embed the sampled points into the ambient space, and measure how far
    they are from lying on a plane through the origin — before and after
    the normalized linear self-map.

    Returns the largest third singular value of the centered point matrix
    over all circles, for the original points and for their images; 0.0
    on a circle (ambient R^2), where every curve lies in one plane.
    """
    n_circles = expect_int(n_circles, "n_circles", 1)
    g = _round_metric(expect_instance(sphere, SphereChart, "sphere"))
    rng = np.random.default_rng(expect_int(seed, "seed", 0))
    starts, vels = seeded_starts(MetricPair(g=g, gbar=g), n_circles, rng)  # reads only g
    trajectories = integrate_geodesics(g, starts, vels, 1.0, tol)

    def off_plane(points: Array) -> float:
        sv = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
        return float(np.max(sv[2:], initial=0.0))

    worst_before = 0.0
    worst_after = 0.0
    for traj in trajectories:
        points = sphere.embed(traj.points)
        worst_before = max(worst_before, off_plane(points))
        mapped = a_map.apply(points)
        worst_after = max(worst_after, off_plane(
            mapped / np.linalg.norm(mapped, axis=-1, keepdims=True)))
    return worst_before, worst_after


# --- Ready-made families -------------------------------------------------
#
# One table per kind of family, each name written once; the registry tuples
# are read off the tables, in their order.

INTERVAL = (-0.5, 0.5)

# Closed forms, named by their FormKind's value: each entry makes the params.
_FORMS = {
    "lc_nd": lambda: LeviCivitaData(
        lambdas=tuple(ScalarFunction1D(row, INTERVAL)
                      for row in ((0.5, 0.2), (1.0, 0.3), (2.0, 0.4))),
        chart=Chart(3, (INTERVAL,) * 3)),
    # A quadratic profile keeps the base metric genuinely curved.
    "two_d_elliptic": lambda: ModelFormParams(
        lam=ScalarFunction1D((2.0, 1.0, 0.25), (-2.0, 2.0))),
    "two_d_polar_plus": lambda: ModelFormParams(
        f=ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0)), lam_const=1.0),
    "two_d_polar_minus": lambda: ModelFormParams(
        f=ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0)), lam_const=1.0),
    "three_d_axial": lambda: ModelFormParams(
        lam=ScalarFunction1D((0.5, 0.1), INTERVAL),
        f=ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0))),
    "three_d_full": lambda: ModelFormParams(
        lam=ScalarFunction1D((0.6, 0.2), (-1.5, 1.5)), c=20.0),
}

# Sphere pairs: each entry builds its triple.
_SPHERE_PAIRS = {
    "beltrami_2": lambda: beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0])),
    "beltrami_3": lambda: beltrami_pair(3, LinearMap.diagonal([1.0, 2.0, 3.0, 4.0])),
    "product_s1_s2": lambda: spheres_product(
        [(1, None), (2, LinearMap.diagonal([1.0, 2.0, 3.0]))]),
    "product_s2_s2": lambda: spheres_product(
        [(2, LinearMap.diagonal([1.0, 2.0, 3.0]))] * 2),
}

_CONTROLS = {"control_conformal": control_conformal_pair,
             "control_torsion": nijenhuis_control_pair}

EQUIVALENT_FAMILIES = (*_FORMS, *_SPHERE_PAIRS)
CONTROL_FAMILIES = tuple(_CONTROLS)
STANDARD_FAMILIES = EQUIVALENT_FAMILIES + CONTROL_FAMILIES


def standard_form_spec(name: str):
    """The closed-form family and parameters behind a registry name
    (``(FormKind, params)``), or None when the name is not a closed-form
    family.  The separable family's params are its profile data."""
    make = _FORMS.get(name) if isinstance(name, str) else None
    return None if make is None else (FormKind(name), make())


def standard_pair(name: str) -> MetricPair:
    """Build one of the named ready-made pairs (used by the CLI and the
    acceptance suite)."""
    if name not in STANDARD_FAMILIES:
        fail("name", f"unknown family {name!r}; known: {', '.join(STANDARD_FAMILIES)}")
    form = standard_form_spec(name)
    if form is not None:
        return model_form_pair(*form)
    return _SPHERE_PAIRS[name]().pair if name in _SPHERE_PAIRS else _CONTROLS[name]()
