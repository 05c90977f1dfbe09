"""Coordinate charts, metric fields, Christoffel symbols, geodesic
integration, and pushforward of metrics under chart maps.

All heavy entry points are batched: a metric field maps an array of points
with shape ``(..., dim)`` to matrices of shape ``(..., dim, dim)``, and the
geodesic integrator advances a whole batch of trajectories in lockstep with
per-trajectory adaptive steps.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateJacobian,
    NotPositiveDefinite,
    OutOfChart,
    SingularMetric,
    StepFailure,
)

Array = np.ndarray

# Relative finite-difference step (scaled by the per-axis box width).
FD_STEP = 1e-5
# The integrator tolerances accepted by the library and by config/flag schemas.
TOL_RANGE = (1e-13, 1e-3)


@dataclasses.dataclass(frozen=True)
class Chart:
    """A coordinate box: ``dim`` closed intervals."""

    dim: int
    box: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        if len(self.box) != self.dim:
            raise ValueError("box must list one interval per dimension")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate interval ({lo}, {hi})")

    @property
    def lows(self) -> Array:
        return np.array([lo for lo, _ in self.box])

    @property
    def highs(self) -> Array:
        return np.array([hi for _, hi in self.box])

    @property
    def widths(self) -> Array:
        return self.highs - self.lows

    @property
    def center(self) -> Array:
        return 0.5 * (self.lows + self.highs)

    def contains(self, x: Array, margin: float = 0.0) -> Array:
        """Batched membership test; ``margin`` shrinks the box (in units of
        the per-axis width) for strict-interior queries."""
        x = np.asarray(x, dtype=float)
        pad = margin * self.widths
        return np.all((x >= self.lows + pad) & (x <= self.highs - pad), axis=-1)

    def grid(self, per_axis: int) -> Array:
        """Regular grid of shape ``(per_axis**dim, dim)``."""
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def sample(self, rng: np.random.Generator, count: int, shrink: float = 1.0) -> Array:
        """Uniform points in the centrally rescaled box (``shrink=0.6`` keeps
        the middle 60% per axis)."""
        half = 0.5 * shrink * self.widths
        return rng.uniform(self.center - half, self.center + half, size=(count, self.dim))


def positivity_grid_size(dim: int, per_axis_cap: int = 64, total_cap: int = 100_000) -> int:
    """Points per axis for dense positivity sampling: ``per_axis_cap`` per
    axis, capped so the full grid stays below ``total_cap`` points."""
    return max(2, min(per_axis_cap, int(total_cap ** (1.0 / dim))))


@dataclasses.dataclass(frozen=True)
class MetricField:
    """A chart-local Riemannian metric.

    ``eval`` maps points ``(..., dim)`` to symmetric matrices
    ``(..., dim, dim)``; ``partials``, when present, maps points to
    ``(..., dim, dim, dim)`` arrays whose ``[k, i, j]`` entry is
    ``d g_ij / d x_k``.
    """

    chart: Chart
    eval: Callable[[Array], Array]
    partials: Optional[Callable[[Array], Array]] = None
    provenance: str = ""


def metric_at(field: MetricField, x: Array) -> Array:
    """Metric matrix at a single point, symmetrized; raises
    :class:`OutOfChart` outside the box and :class:`NotPositiveDefinite`
    when the minimum eigenvalue is not positive."""
    x = np.asarray(x, dtype=float)
    if x.shape != (field.chart.dim,):
        raise ValueError(f"expected a point of dimension {field.chart.dim}")
    if not field.chart.contains(x):
        raise OutOfChart(f"point {x.tolist()} outside chart box")
    m = field.eval(x[None, :])[0]
    m = 0.5 * (m + m.T)
    if np.linalg.eigvalsh(m)[0] <= 0.0:
        raise NotPositiveDefinite(f"metric not positive definite at {x.tolist()}")
    return m


def _stencil(x: Array, h: Array) -> Array:
    """The points ``x + h_k e_k`` and ``x - h_k e_k`` for every axis ``k``,
    stacked in that order on a new leading axis of length ``2 dim``."""
    n = h.shape[0]
    steps = np.stack([np.diag(h), -np.diag(h)], axis=1)
    return x + steps.reshape((2 * n,) + (1,) * (x.ndim - 1) + (n,))


def _central(values: Array, h: Array) -> Array:
    """Central difference quotients ``(f(x + h_k e_k) - f(x - h_k e_k)) / 2 h_k``
    from the values at a :func:`_stencil`, with the axis ``k`` leading."""
    scale = (2.0 * h).reshape((-1,) + (1,) * (values.ndim - 1))
    return (values[0::2] - values[1::2]) / scale


def _eval_with_fd_partials(field: MetricField, x: Array, step: float = FD_STEP
                           ) -> tuple[Array, Array]:
    """The metric and its central differences from one ``field.eval`` call
    on the centre and the full- and half-step stencils, stacked."""
    h = step * field.chart.widths
    m = field.eval(np.concatenate([x[None], _stencil(x, h), _stencil(x, 0.5 * h)]))
    n = field.chart.dim
    d_full = _central(m[1:2 * n + 1], h)
    d_half = _central(m[2 * n + 1:], 0.5 * h)
    mismatch = np.abs(d_full - d_half) > 1e-4 * np.maximum(1.0, np.abs(d_half))
    d = np.where(mismatch, (4.0 * d_half - d_full) / 3.0, d_half)
    return m[0], np.moveaxis(d, 0, -3)


def fd_partials(field: MetricField, x: Array, step: float = FD_STEP) -> Array:
    """Central finite differences of the metric, batched, from one
    ``field.eval`` call per batch.

    Returns ``(..., dim, dim, dim)`` with axis ``-3`` indexing the
    differentiation direction.  Each derivative is cross-checked against a
    half-step estimate; where the two disagree by more than ``1e-4``
    relative, the Richardson-extrapolated combination is used instead.
    """
    return _eval_with_fd_partials(field, np.asarray(x, dtype=float), step)[1]


def christoffel(field: MetricField, x: Array) -> Array:
    """Batched Christoffel symbols ``Gamma^k_ij`` of shape
    ``(..., dim, dim, dim)`` with the upper index first.

    A field without analytic partials is evaluated once per batch, on the
    point batch and its finite-difference stencil together."""
    x = np.asarray(x, dtype=float)
    n = field.chart.dim
    if field.partials is None:
        g, dg = _eval_with_fd_partials(field, x)
    else:
        g, dg = field.eval(x), field.partials(x)
    # T_{l i j} = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    t = (np.moveaxis(dg, (-3, -2, -1), (-2, -1, -3))
         + np.moveaxis(dg, (-3, -2, -1), (-1, -2, -3))
         - dg)
    flat = t.reshape(t.shape[:-2] + (n * n,))
    try:
        gamma = 0.5 * np.linalg.solve(g, flat)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("metric inversion failed while forming Christoffel symbols") from exc
    return gamma.reshape(t.shape)


def christoffel_at(field: MetricField, x: Array) -> Array:
    """Christoffel symbols at a single strictly interior point."""
    x = np.asarray(x, dtype=float)
    if not field.chart.contains(x, margin=2.0 * FD_STEP):
        raise OutOfChart(
            f"point {x.tolist()} is not strictly interior (finite-difference stencil must fit)")
    return christoffel(field, x[None, :])[0]


@dataclasses.dataclass(frozen=True)
class PhasePoint:
    """A tangent-bundle point: base coordinates plus velocity components."""

    x: Array
    v: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclasses.dataclass(frozen=True)
class StepperStats:
    accepted: int
    rejected: int
    tol: float


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A geodesic trajectory: sample arrays plus integrator bookkeeping.

    ``left_chart`` is set when integration stopped at the box boundary; the
    stored samples all lie inside the box.
    """

    times: Array
    points: Array
    velocities: Array
    left_chart: bool
    stepper_stats: StepperStats

    @property
    def end(self) -> PhasePoint:
        return PhasePoint(self.points[-1], self.velocities[-1])


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4

_MAX_STEPS = 1_000_000


def _geodesic_rhs(field: MetricField, y: Array) -> Array:
    """Right-hand side of the first-order geodesic system on states
    ``y = (x, v)`` of shape ``(B, 2 dim)``."""
    n = field.chart.dim
    x, v = y[:, :n], y[:, n:]
    gamma = christoffel(field, x)
    acc = -np.einsum("bkij,bi,bj->bk", gamma, v, v)
    return np.concatenate([v, acc], axis=1)


def integrate_geodesics(
    field: MetricField,
    starts_x: Array,
    starts_v: Array,
    T: float,
    tol: float,
) -> list[Trajectory]:
    """Integrate a batch of geodesics of ``field`` up to time ``T``.

    Adaptive embedded Runge-Kutta 5(4) with per-trajectory step control and
    first-same-as-last stage reuse.  Trajectories that reach the chart
    boundary are truncated and flagged.
    """
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValueError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"the duration T must be positive and finite, got {T}")
    starts_x = np.atleast_2d(np.asarray(starts_x, dtype=float))
    starts_v = np.atleast_2d(np.asarray(starts_v, dtype=float))
    n = field.chart.dim
    B = starts_x.shape[0]
    if starts_x.shape != (B, n) or starts_v.shape != (B, n):
        raise ValueError("start arrays must have shape (batch, dim)")
    if not bool(np.all(field.chart.contains(starts_x))):
        raise OutOfChart("a trajectory start lies outside the chart box")
    if not np.all(np.isfinite(starts_v)) or np.any(np.all(starts_v == 0.0, axis=1)):
        raise ValueError("trajectory start velocities must be finite and nonzero")

    y = np.concatenate([starts_x, starts_v], axis=1)
    t = np.zeros(B)
    dt = np.full(B, min(0.05, T / 4.0))
    active = np.ones(B, dtype=bool)
    left = np.zeros(B, dtype=bool)
    accepted = np.zeros(B, dtype=int)
    rejected = np.zeros(B, dtype=int)
    # Kept samples, one (owner, t, state) block per step.
    owners, ts, ys = [np.arange(B)], [t.copy()], [y.copy()]

    k1 = _geodesic_rhs(field, y)
    total_steps = 0
    while active.any():
        total_steps += 1
        if total_steps > _MAX_STEPS:
            raise StepFailure("step cap exceeded")
        idx = np.nonzero(active)[0]
        ya, dta, k1a = y[idx], np.minimum(dt[idx], T - t[idx]), k1[idx]
        k = np.empty((7, len(idx), ya.shape[1]))
        k[0] = k1a
        for s in range(1, 7):
            incr = np.tensordot(_DP_A[s], k[:s], axes=(0, 0))
            k[s] = _geodesic_rhs(field, ya + dta[:, None] * incr)
        y5 = ya + dta[:, None] * np.tensordot(_DP_B5, k, axes=(0, 0))
        err_vec = dta[:, None] * np.tensordot(_DP_E, k, axes=(0, 0))
        scale = tol + tol * np.maximum(np.abs(ya), np.abs(y5))
        err = np.sqrt(np.mean((err_vec / scale) ** 2, axis=1))
        err = np.where(np.isfinite(err), err, np.inf)

        ok = err <= 1.0
        factor = np.where(err > 0, 0.9 * err ** -0.2, 5.0)
        factor = np.clip(np.where(np.isfinite(factor), factor, 0.2), 0.2, 5.0)

        stepped = idx[ok]
        accepted[stepped] += 1
        rejected[idx[~ok]] += 1
        t[stepped] += dta[ok]
        y[stepped] = y5[ok]
        k1[stepped] = k[6, ok]
        inside = field.chart.contains(y[stepped, :n])
        kept, out = stepped[inside], stepped[~inside]
        owners.append(kept)
        ts.append(t[kept])
        ys.append(y[kept])
        active[kept[t[kept] >= T - 1e-14]] = False
        left[out] = True
        active[out] = False
        dt[idx] = dta * factor
        small = idx[active[idx] & (dt[idx] < 1e-14 * max(T, 1.0))]
        if small.size:
            raise StepFailure(f"step size underflow in trajectory {small[0]}")

    # A stable sort keeps each trajectory's samples in step order.
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    cuts = np.cumsum(np.bincount(owner, minlength=B))[:-1]
    states = np.concatenate(ys)
    return [
        Trajectory(
            times=times,
            points=points,
            velocities=velocities,
            left_chart=bool(left[b]),
            stepper_stats=StepperStats(int(accepted[b]), int(rejected[b]), tol),
        )
        for b, (times, points, velocities) in enumerate(zip(
            np.split(np.concatenate(ts)[order], cuts),
            np.split(states[order, :n], cuts),
            np.split(states[order, n:], cuts)))
    ]


def integrate_geodesic(
    field: MetricField,
    start: PhasePoint,
    T: float,
    tol: float,
) -> Trajectory:
    """Single-trajectory convenience wrapper around
    :func:`integrate_geodesics`."""
    return integrate_geodesics(field, start.x[None, :], start.v[None, :], T, tol)[0]


@dataclasses.dataclass(frozen=True)
class ChartMap:
    """A differentiable map between charts.

    ``forward`` maps points of ``source`` into the target chart;
    ``jacobian`` returns ``(..., target_dim, source_dim)`` arrays (computed
    by finite differences when absent).  ``inverse`` and
    ``inverse_jacobian`` describe the reverse direction when available;
    ``inverse_source`` is the chart on which the inverse is defined.
    """

    source: Chart
    forward: Callable[[Array], Array]
    jacobian: Optional[Callable[[Array], Array]] = None
    inverse: Optional[Callable[[Array], Array]] = None
    inverse_jacobian: Optional[Callable[[Array], Array]] = None
    inverse_source: Optional[Chart] = None

    def jacobian_at(self, y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        if self.jacobian is not None:
            return self.jacobian(y)
        h = FD_STEP * self.source.widths
        return np.moveaxis(_central(self.forward(_stencil(y, h)), h), 0, -1)

    def inverted(self) -> "ChartMap":
        if self.inverse is None or self.inverse_source is None:
            raise ValueError("this chart map does not carry an inverse")
        return ChartMap(
            source=self.inverse_source,
            forward=self.inverse,
            jacobian=self.inverse_jacobian,
            inverse=self.forward,
            inverse_jacobian=self.jacobian,
            inverse_source=self.source,
        )


def compose_maps(outer: ChartMap, inner: ChartMap) -> ChartMap:
    """The composite map ``outer o inner`` with chain-rule Jacobian."""

    def forward(y: Array) -> Array:
        return outer.forward(inner.forward(y))

    def jacobian(y: Array) -> Array:
        ji = inner.jacobian_at(y)
        jo = outer.jacobian_at(inner.forward(y))
        return jo @ ji

    return ChartMap(source=inner.source, forward=forward, jacobian=jacobian)


def pushforward_metric(chart_map: ChartMap, field: MetricField,
                       validation_points: int = 5) -> MetricField:
    """The metric of ``field`` expressed in the coordinates of
    ``chart_map.source``: ``J^T g(map(y)) J``.

    The Jacobian is validated on a small grid; a sampled
    ``|det J| < 1e-12`` raises :class:`DegenerateJacobian`.
    """
    grid = chart_map.source.grid(validation_points)
    dets = np.linalg.det(chart_map.jacobian_at(grid))
    if np.any(np.abs(dets) < 1e-12):
        raise DegenerateJacobian("chart map Jacobian is numerically singular on the source box")

    def eval_fn(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        j = chart_map.jacobian_at(y)
        g = field.eval(chart_map.forward(y))
        out = np.swapaxes(j, -1, -2) @ g @ j
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    return MetricField(chart=chart_map.source, eval=eval_fn, partials=None,
                       provenance=f"pushforward({field.provenance})")
