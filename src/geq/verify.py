"""Numerical verification procedures: the unparametrized-geodesic test,
conservation of the integral family along geodesics, interlacing scans,
and a registry of ready-made families for the CLI and the acceptance
suite.

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

from ._validate import (as_floats, expect_instance, expect_int, expect_number, expect_points,
                        fail)
from .charts import Chart, MetricField, _spray, integrate_geodesics
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
    metric."""
    starts = pair.chart.sample(rng, count, shrink=START_SHRINK)
    vels = rng.normal(size=(count, pair.dim))
    g = pair.g.eval(starts)
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
    rows = tuple(DriftRow(index=idx, integral_id=name, start_value=float(start[idx, j]),
                          end_value=float(end[idx, j]), rel_drift=float(drift[idx, j]))
                 for idx in range(n_traj) for j, name in enumerate(names))
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
    pinned where neighboring eigenvalues coincide."""
    expect_instance(pair, MetricPair, "pair")
    n_vectors = expect_int(n_vectors, "n_vectors", 1)
    epsilon = expect_number(epsilon, "epsilon", positive=True)
    rng = np.random.default_rng(expect_int(seed, "seed", 0))
    if points is None:
        pts = pair.chart.sample(rng, expect_int(n_points, "n_points", 1))
    else:
        pts = expect_points(np.atleast_2d(as_floats(points, "points")), pair.dim, "points")
    count = pts.shape[0]
    vecs = rng.normal(size=(count, n_vectors, pair.dim))
    mu, w = frame_weights(pair, pts[:, None, :], vecs)
    roots = _roots_many(mu, w)
    lo = mu[..., :-1]
    hi = mu[..., 1:]
    excess = np.maximum(lo - roots - epsilon, roots - hi - epsilon)
    violations = int(np.count_nonzero(excess > 0.0))
    max_excess = float(np.max(np.maximum(excess + epsilon, 0.0)))
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


def control_conformal_pair() -> MetricPair:
    """Flat metric paired with a conformal rescaling that is *not*
    projectively equivalent to it — the designated failing control."""
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)))

    def g_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        return np.broadcast_to(np.eye(2), xs.shape[:-1] + (2, 2)).copy()

    def gbar_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        factor = 1.0 + xs[..., 0] ** 2
        return factor[..., None, None] * np.eye(2)

    return MetricPair(g=MetricField(chart=chart, eval=g_eval),
                      gbar=MetricField(chart=chart, eval=gbar_eval))


def nijenhuis_control_pair() -> MetricPair:
    """Pair whose compatibility tensor swaps the coordinates — its torsion
    is nonzero, the designated failing control for the torsion test."""
    chart = Chart(2, ((1.0, 2.0), (1.0, 2.0)))

    def g_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        return np.broadcast_to(np.eye(2), xs.shape[:-1] + (2, 2)).copy()

    def gbar_eval(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        a, b = xs[..., 0], xs[..., 1]
        out = np.zeros(xs.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 / (a * b * b)
        out[..., 1, 1] = 1.0 / (a * a * b)
        return out

    return MetricPair(g=MetricField(chart=chart, eval=g_eval),
                      gbar=MetricField(chart=chart, eval=gbar_eval))


# --- Ready-made families -------------------------------------------------

INTERVAL = (-0.5, 0.5)

EQUIVALENT_FAMILIES = (
    "lc_nd", "two_d_elliptic", "two_d_polar_plus", "two_d_polar_minus",
    "three_d_axial", "three_d_full", "beltrami_2", "beltrami_3",
    "product_s1_s2", "product_s2_s2",
)
CONTROL_FAMILIES = ("control_conformal", "control_torsion")
STANDARD_FAMILIES = EQUIVALENT_FAMILIES + CONTROL_FAMILIES


def standard_form_spec(name: str):
    """The closed-form family and parameters behind a registry name
    (``(FormKind, params)``), or None when the name is not a closed-form
    family.  The separable family's params are its profile data."""
    if name == "lc_nd":
        lams = tuple(ScalarFunction1D(row, INTERVAL)
                     for row in ((0.5, 0.2), (1.0, 0.3), (2.0, 0.4)))
        data = LeviCivitaData(lambdas=lams, chart=Chart(3, (INTERVAL,) * 3))
        return FormKind.LC_ND, data
    if name == "two_d_elliptic":
        # A quadratic profile keeps the base metric genuinely curved.
        return FormKind.TWO_D_ELLIPTIC, ModelFormParams(
            lam=ScalarFunction1D((2.0, 1.0, 0.25), (-2.0, 2.0)))
    if name == "two_d_polar_plus":
        return FormKind.TWO_D_POLAR_PLUS, ModelFormParams(
            f=ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0)), lam_const=1.0)
    if name == "two_d_polar_minus":
        return FormKind.TWO_D_POLAR_MINUS, ModelFormParams(
            f=ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0)), lam_const=1.0)
    if name == "three_d_axial":
        return FormKind.THREE_D_AXIAL, ModelFormParams(
            lam=ScalarFunction1D((0.5, 0.1), INTERVAL),
            f=ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0)))
    if name == "three_d_full":
        return FormKind.THREE_D_FULL, ModelFormParams(
            lam=ScalarFunction1D((0.6, 0.2), (-1.5, 1.5)), c=20.0)
    return None


def standard_pair(name: str) -> MetricPair:
    """Build one of the named ready-made pairs (used by the CLI and the
    acceptance suite)."""
    from .constructions import LinearMap, beltrami_pair, spheres_product

    form = standard_form_spec(name)
    if form is not None:
        return model_form_pair(*form)
    if name == "beltrami_2":
        return beltrami_pair(2, LinearMap.diagonal([1.0, 2.0, 3.0])).pair
    if name == "beltrami_3":
        return beltrami_pair(3, LinearMap.diagonal([1.0, 2.0, 3.0, 4.0])).pair
    if name == "product_s1_s2":
        return spheres_product(
            [(1, None), (2, LinearMap.diagonal([1.0, 2.0, 3.0]))]).pair
    if name == "product_s2_s2":
        diag = LinearMap.diagonal([1.0, 2.0, 3.0])
        return spheres_product([(2, diag), (2, diag)]).pair
    if name == "control_conformal":
        return control_conformal_pair()
    if name == "control_torsion":
        return nijenhuis_control_pair()
    fail("name", f"unknown family {name!r}; known: {', '.join(STANDARD_FAMILIES)}")
