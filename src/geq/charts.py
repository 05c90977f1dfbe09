"""Coordinate charts, metric fields, Christoffel symbols, geodesic
integration, and pushforward of metrics under chart maps.

All heavy entry points are batched: a metric field maps an array of points
with shape ``(..., dim)`` to matrices of shape ``(..., dim, dim)``, and the
geodesic integrator advances a whole batch of trajectories in lockstep with
per-trajectory adaptive steps.
"""
from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional

import numpy as np

from ._validate import (as_floats, expect_finite, expect_instance, expect_int, expect_interval,
                        expect_number, expect_points, expect_tol, expect_vector, fail)
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


@dataclasses.dataclass(frozen=True)
class Chart:
    """A coordinate box: ``dim`` closed intervals."""

    dim: int
    box: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        expect_int(self.dim, "dim", 1)
        if not isinstance(self.box, (tuple, list)) or len(self.box) != self.dim:
            fail("box", f"expected {self.dim} intervals, one per dimension")
        for i, interval in enumerate(self.box):
            expect_interval(interval, f"box[{i}]")

    @functools.cached_property
    def _fd_stencil(self) -> tuple[Array, Array]:
        """The read-only finite-difference stencil, built on first use: offsets
        ``(4 dim + 1, dim)`` (the centre ``-0.0``, which leaves coordinates
        bitwise as they are, ``+-h_k e_k`` for every axis ``k``, then the same
        at ``h / 2``; ``h =`` :data:`FD_STEP` times the box widths) and the
        divisors ``(2 dim,)`` of their central differences."""
        n = self.dim
        h = FD_STEP * self.widths
        axes = [np.stack([np.diag(d), -np.diag(d)], axis=1).reshape(2 * n, n)
                for d in (h, 0.5 * h)]
        offsets = np.concatenate([np.full((1, n), -0.0)] + axes)
        divisors = 2.0 * np.concatenate([h, 0.5 * h])
        offsets.flags.writeable = divisors.flags.writeable = False
        return offsets, divisors

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

    def point(self, x: Array, margin: float = 0.0) -> Array:
        """``x`` as one float point of this chart; :class:`OutOfChart` unless it
        lies in the box shrunk by ``margin`` (:meth:`contains`), as NaN never does."""
        x = as_floats(x, "x")
        if x.shape != (self.dim,):
            fail("x", f"expected a point of dimension {self.dim}")
        if not self.contains(x, margin):
            raise OutOfChart(f"point {x.tolist()} is not {'strictly ' if margin else ''}"
                             "inside the chart box")
        return x

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
    ``(..., dim, dim)``.  ``jet``, where a builder can share work, maps points to
    ``(value, partials)``: ``value`` bitwise equal to ``eval``, ``partials[..., k, i, j]``
    equal to ``d g_ij / d x_k``.  A field without one is differentiated by
    finite differences (:func:`fd_partials`).
    """

    chart: Chart
    eval: Callable[[Array], Array]
    jet: Optional[Callable[[Array], tuple[Array, Array]]] = None


def metric_at(field: MetricField, x: Array) -> Array:
    """Metric matrix at a single point, symmetrized; raises
    :class:`OutOfChart` outside the box and :class:`NotPositiveDefinite`
    when the minimum eigenvalue is not positive."""
    x = field.chart.point(x)
    m = field.eval(x[None, :])[0]
    m = 0.5 * (m + m.T)
    if np.linalg.eigvalsh(m)[0] <= 0.0:
        raise NotPositiveDefinite(f"metric not positive definite at {x.tolist()}")
    return m


def _on_stencil(x: Array, offsets: Array) -> Array:
    """The points ``x + offsets[s]`` stacked on a new leading axis, in one
    broadcast add."""
    return x + offsets.reshape(offsets.shape[:1] + (1,) * (x.ndim - 1) + offsets.shape[1:])


def _differences(values: Array, divisors: Array) -> Array:
    """Central difference quotients of values stacked as ``(+, -)`` pairs on
    the leading axis, one per pair, in one subtraction."""
    return (values[0::2] - values[1::2]) / divisors.reshape((-1,) + (1,) * (values.ndim - 1))


def _full_step_differences(fn: Callable, chart: Chart, x: Array) -> tuple[Array, Array]:
    """``fn`` at ``x`` and its central differences along every axis of
    ``chart``, axis leading, from one call of ``fn`` on the full-step stencil.

    The unshifted point leads the stack, so its row is ``fn(x)``, and a glued
    field sees which slices leave each factor's coordinates as they are, and
    evaluates each factor on those only."""
    offsets, divisors = chart._fd_stencil
    values = fn(_on_stencil(x, offsets[:2 * chart.dim + 1]))
    return values[0], _differences(values[1:], divisors[:chart.dim])


def _eval_with_fd_partials(field: MetricField, x: Array) -> tuple[Array, Array]:
    """The metric and its central differences from one ``field.eval`` call
    on the centre and the full- and half-step stencils, stacked.

    The stencil is the centre plus the cached offsets of
    :attr:`Chart._fd_stencil` in one broadcast add, and the full- and
    half-step differences come from one subtraction of its ``(+, -)`` pairs.
    Where the two estimates disagree by more than ``1e-4`` relative, the
    Richardson combination replaces the half-step one."""
    offsets, divisors = field.chart._fd_stencil
    m = field.eval(_on_stencil(x, offsets))
    n = field.chart.dim
    d = _differences(m[1:], divisors)
    d_full, d_half = d[:n], d[n:]
    mismatch = np.abs(d_full - d_half) > 1e-4 * np.maximum(1.0, np.abs(d_half))
    d = np.where(mismatch, (4.0 * d_half - d_full) / 3.0, d_half)
    return m[0], np.moveaxis(d, 0, -3)


def fd_partials(field: MetricField, x: Array) -> Array:
    """Central finite differences of the metric, batched, from one
    ``field.eval`` call per batch.

    Returns ``(..., dim, dim, dim)`` with axis ``-3`` indexing the
    differentiation direction.  Each derivative is cross-checked against a
    half-step estimate; where the two disagree by more than ``1e-4``
    relative, the Richardson-extrapolated combination is used instead.
    """
    x = expect_points(x, expect_instance(field, MetricField, "field").chart.dim, "x")
    return _eval_with_fd_partials(field, x)[1]


def _metric_and_partials(field: MetricField, x: Array) -> tuple[Array, Array]:
    """The metric and its partials: one ``field.jet`` call, else one stacked FD evaluation."""
    if field.jet is None:
        return _eval_with_fd_partials(field, x)
    return field.jet(x)


def _solve(g: Array, rhs: Array) -> Array:
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("metric inversion failed while forming Christoffel symbols") from exc


def christoffel(field: MetricField, x: Array) -> Array:
    """Batched Christoffel symbols ``Gamma^k_ij`` of shape
    ``(..., dim, dim, dim)`` with the upper index first.

    A field without a ``jet`` is evaluated once per batch, on the
    point batch and its finite-difference stencil together."""
    n = expect_instance(field, MetricField, "field").chart.dim
    x = expect_points(x, n, "x")
    g, dg = _metric_and_partials(field, x)
    # T_{l i j} = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    t = (np.moveaxis(dg, (-3, -2, -1), (-2, -1, -3))
         + np.moveaxis(dg, (-3, -2, -1), (-1, -2, -3))
         - dg)
    gamma = 0.5 * _solve(g, t.reshape(t.shape[:-2] + (n * n,)))
    return gamma.reshape(t.shape)


def _spray(field: MetricField, x: Array, v: Array) -> tuple[Array, Array]:
    """The metric and the contraction ``Gamma^k_ij v^i v^j`` on batches
    ``(B, dim)`` of points and velocities, from one solve with a single
    right-hand side per point."""
    g, dg = _metric_and_partials(field, x)
    # T_l = 2 v^k v^j d_k g_{jl} - v^i v^j d_l g_{ij}
    dgv = np.einsum("bkij,bj->bki", dg, v)
    t = 2.0 * np.einsum("bk,bki->bi", v, dgv) - np.einsum("bki,bi->bk", dgv, v)
    return g, 0.5 * _solve(g, t[..., None])[..., 0]


@dataclasses.dataclass(frozen=True)
class PhasePoint:
    """A tangent-bundle point: base coordinates plus velocity components."""

    x: Array
    v: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_floats(self.x, "x"))
        object.__setattr__(self, "v", expect_vector(self.v, self.x.shape, "v"))


@dataclasses.dataclass(frozen=True)
class StepperStats:
    accepted: int
    rejected: int


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A geodesic trajectory: sample arrays plus integrator bookkeeping.

    ``accelerations`` holds ``-Gamma(v, v)`` at each stored sample: the
    integrator's first-same-as-last stage there, so reading it costs no
    evaluation.  ``left_chart`` is set when integration stopped at the box
    boundary; the stored samples all lie inside the box.
    """

    times: Array
    points: Array
    velocities: Array
    accelerations: Array
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
    v = y[:, n:]
    return np.concatenate([v, -_spray(field, y[:, :n], v)[1]], axis=1)


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
    tol = expect_tol(tol)
    T = expect_number(T, "T", positive=True)
    starts_x = np.atleast_2d(as_floats(starts_x, "starts_x"))
    starts_v = np.atleast_2d(expect_finite(starts_v, "starts_v"))
    n = field.chart.dim
    B = starts_x.shape[0]
    if starts_x.shape != (B, n) or starts_v.shape != (B, n):
        fail("starts_x", f"expected shape (batch, {n}) for both start arrays")
    if not bool(np.all(field.chart.contains(starts_x))):
        raise OutOfChart("a trajectory start lies outside the chart box")
    if np.any(np.all(starts_v == 0.0, axis=1)):
        fail("starts_v", "every start velocity must be nonzero")

    y = np.concatenate([starts_x, starts_v], axis=1)
    t = np.zeros(B)
    dt = np.full(B, min(0.05, T / 4.0))
    active = np.ones(B, dtype=bool)
    left = np.zeros(B, dtype=bool)
    accepted = np.zeros(B, dtype=int)
    rejected = np.zeros(B, dtype=int)
    k1 = _geodesic_rhs(field, y)
    # Kept samples, one (owner, t, state, acceleration) block per step.
    owners, ts, ys, ks = [np.arange(B)], [t.copy()], [y.copy()], [k1[:, n:].copy()]
    total_steps = 0
    while active.any():
        total_steps += 1
        if total_steps > _MAX_STEPS:
            raise StepFailure("step cap exceeded")
        idx = np.nonzero(active)[0]
        ya, dta, k1a = y[idx], np.minimum(dt[idx], T - t[idx]), k1[idx]
        k = np.empty((7, len(idx), ya.shape[1]))
        stages = k.reshape(7, -1)  # a view: the stage sums are one matrix product each
        k[0] = k1a
        for s in range(1, 7):
            incr = (_DP_A[s] @ stages[:s]).reshape(ya.shape)
            k[s] = _geodesic_rhs(field, ya + dta[:, None] * incr)
        y5 = ya + dta[:, None] * (_DP_B5 @ stages).reshape(ya.shape)
        err_vec = dta[:, None] * (_DP_E @ stages).reshape(ya.shape)
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
        ks.append(k1[kept, n:])
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
            accelerations=accelerations,
            left_chart=bool(left[b]),
            stepper_stats=StepperStats(int(accepted[b]), int(rejected[b])),
        )
        for b, (times, points, velocities, accelerations) in enumerate(zip(
            np.split(np.concatenate(ts)[order], cuts),
            np.split(states[order, :n], cuts),
            np.split(states[order, n:], cuts),
            np.split(np.concatenate(ks)[order], cuts)))
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
    ``jacobian`` returns ``(..., target_dim, source_dim)`` arrays.
    ``inverse`` and ``inverse_jacobian`` describe the reverse direction when
    available; ``inverse_source`` is the chart on which the inverse is
    defined.
    """

    source: Chart
    forward: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    inverse: Optional[Callable[[Array], Array]] = None
    inverse_jacobian: Optional[Callable[[Array], Array]] = None
    inverse_source: Optional[Chart] = None

    def inverted(self) -> "ChartMap":
        if self.inverse is None or self.inverse_jacobian is None or self.inverse_source is None:
            fail("inverse", "this chart map does not carry one")
        return ChartMap(
            source=self.inverse_source,
            forward=self.inverse,
            jacobian=self.inverse_jacobian,
            inverse=self.forward,
            inverse_jacobian=self.jacobian,
            inverse_source=self.source,
        )


def pushforward_metric(chart_map: ChartMap, field: MetricField) -> MetricField:
    """The metric of ``field`` expressed in the coordinates of
    ``chart_map.source``: ``J^T g(map(y)) J``.

    The Jacobian is validated on a grid of 5 points per axis; a sampled
    ``|det J| < 1e-12`` raises :class:`DegenerateJacobian`.
    """
    grid = chart_map.source.grid(5)
    dets = np.linalg.det(chart_map.jacobian(grid))
    if np.any(np.abs(dets) < 1e-12):
        raise DegenerateJacobian("chart map Jacobian is numerically singular on the source box")

    def eval_fn(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        j = chart_map.jacobian(y)
        g = field.eval(chart_map.forward(y))
        out = np.swapaxes(j, -1, -2) @ g @ j
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    return MetricField(chart=chart_map.source, eval=eval_fn)
