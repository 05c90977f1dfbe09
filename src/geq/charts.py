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
from typing import Callable, Iterator, Optional

import numpy as np

from ._batch import CHUNK, transposed
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
FD_STEP = 5e-6


def _read_only(array: Array) -> Array:
    array.flags.writeable = False
    return array


@dataclasses.dataclass(frozen=True)
class Chart:
    """A coordinate box: ``dim`` closed intervals.  Its bounds, widths and
    centre are read-only arrays, built on first use."""

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
        """The read-only offsets ``(2 dim + 1, dim)`` of the centre-first stencil of
        steps ``h``, :data:`FD_STEP` times the box widths, built on first use: the
        centre ``-0.0``, which leaves coordinates bitwise as they are, then ``+h_k e_k``
        and ``-h_k e_k`` for every axis ``k``; and the divisors ``2 h`` of its central
        differences."""
        h, m = FD_STEP * self.widths, self.dim
        axes = np.stack([np.diag(h), -np.diag(h)], axis=1).reshape(2 * m, m)
        return (_read_only(np.concatenate([np.full((1, m), -0.0), axes])),
                _read_only(2.0 * h))

    @functools.cached_property
    def lows(self) -> Array:
        return _read_only(np.array([lo for lo, _ in self.box]))

    @functools.cached_property
    def highs(self) -> Array:
        return _read_only(np.array([hi for _, hi in self.box]))

    @functools.cached_property
    def widths(self) -> Array:
        return _read_only(self.highs - self.lows)

    @functools.cached_property
    def center(self) -> Array:
        return _read_only(0.5 * (self.lows + self.highs))

    def contains(self, x: Array, margin: float = 0.0) -> Array:
        """Batched membership test; ``margin`` shrinks the box (in units of
        the per-axis width) for strict-interior queries."""
        x = np.asarray(x, dtype=float)
        lows, highs = self.lows, self.highs
        if margin:
            pad = margin * self.widths
            lows, highs = lows + pad, highs - pad
        return ((x >= lows) & (x <= highs)).all(axis=-1)

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

    def points(self, xs: Array, path: str) -> Array:
        """``xs`` as a non-empty batch ``(..., dim)`` of finite points
        (:func:`~geq._validate.expect_points`) in the box, bounds included;
        :class:`OutOfChart` names the first point outside it."""
        xs = expect_points(xs, self.dim, path)
        outside = ~self.contains(xs)
        if np.any(outside):
            raise OutOfChart(f"{path}: point {xs[outside][0].tolist()} is not inside the "
                             "chart box")
        return xs

    def grid(self, per_axis: int) -> Array:
        """Regular grid of shape ``(per_axis**dim, dim)``, the last axis
        fastest: the pieces of :meth:`grid_pieces` joined."""
        return np.concatenate(list(self.grid_pieces(per_axis)))

    def grid_pieces(self, per_axis: int) -> Iterator[Array]:
        """:meth:`grid` in successive pieces of at most :data:`~geq._batch.CHUNK`
        points, each built from its own flat indices into the ``linspace``
        axes, so a caller that reads the pieces in turn never forms the whole grid."""
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in self.box]
        count = per_axis ** self.dim
        for start in range(0, count, CHUNK):
            index = np.unravel_index(np.arange(start, min(start + CHUNK, count)),
                                     (per_axis,) * self.dim)
            yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)

    def sample(self, rng: np.random.Generator, count: int, shrink: float = 1.0) -> Array:
        """Uniform points in the centrally rescaled box (``shrink=0.6`` keeps
        the middle 60% per axis)."""
        half = 0.5 * shrink * self.widths
        return rng.uniform(self.center - half, self.center + half, size=(count, self.dim))


MAX_GRID_POINTS = 100_000  # the most points of a dense grid


def positivity_grid_size(dim: int, per_axis_cap: int = 64,
                         total_cap: int = MAX_GRID_POINTS) -> int:
    """Points per axis for dense positivity sampling: ``per_axis_cap`` per
    axis, capped so the full grid stays below ``total_cap`` points."""
    return max(2, min(per_axis_cap, int(total_cap ** (1.0 / dim))))


@dataclasses.dataclass(frozen=True)
class MetricField:
    """A chart-local Riemannian metric.

    ``eval`` maps points ``(..., dim)`` to symmetric matrices
    ``(..., dim, dim)``.  ``jet``, where a builder can share work, maps points to
    ``(value, partials)``: ``value`` bitwise equal to ``eval``, ``partials[..., k, i, j]``
    equal to ``d g_ij / d x_k``; both fields of a glued pair carry one, which differences
    each factor on its own stencil and combines them by the product rule.  A field whose
    ``eval`` is diagonal (other entries exactly 0) may carry a ``diagonal_jet`` instead,
    never both: ``(a, da)``, ``a (..., dim)`` bitwise the diagonal of ``eval`` and
    ``da[..., k, i] = d g_ii / d x_k``.  The separable pairs and the round sphere metric
    carry one, and their geodesic spray divides by ``a`` (:func:`_diagonal_spray`).  A field with
    neither is differentiated by central differences (:func:`fd_partials`): ``eval``
    is called once per batch, on a ``(2 dim + 1, ..., dim)`` stack of the points
    and their shifts ``+-h_k e_k``, the points first.
    """

    chart: Chart
    eval: Callable[[Array], Array]
    jet: Optional[Callable[[Array], tuple[Array, Array]]] = None
    diagonal_jet: Optional[Callable[[Array], tuple[Array, Array]]] = None

    def __post_init__(self) -> None:
        if self.jet is not None and self.diagonal_jet is not None:
            fail("diagonal_jet", "a field carries a jet or a diagonal jet, not both")


def metric_at(field: MetricField, x: Array) -> Array:
    """Metric matrix at a single point, symmetrized; raises
    :class:`OutOfChart` outside the box and :class:`NotPositiveDefinite`
    when an entry is not finite or the minimum eigenvalue is not positive."""
    x = field.chart.point(x)
    m = field.eval(x[None, :])[0]
    m = 0.5 * (m + m.T)
    if not np.isfinite(m).all() or np.linalg.eigvalsh(m)[0] <= 0.0:
        raise NotPositiveDefinite(f"metric not positive definite at {x.tolist()}")
    return m


def _central_differences(fn: Callable, x: Array, chart: Chart) -> tuple:
    """``fn`` at the points ``x`` ``(..., m)`` of ``chart`` and its central difference
    quotients along every axis, axis leading, from one call of ``fn`` on the chart's
    stencil ``x + offsets`` (:attr:`Chart._fd_stencil`) and one subtraction of its
    ``(+, -)`` pairs.

    ``fn`` returns an array or a tuple of arrays; for a tuple, both results are
    tuples, member by member, so no caller packs what it computes.  The unshifted
    points lead the stack, so their row is ``fn(x)``."""
    offsets, divisors = chart._fd_stencil
    values = fn(x + offsets.reshape(offsets.shape[:1] + (1,) * (x.ndim - 1) + offsets.shape[1:]))

    def differenced(a: Array) -> tuple[Array, Array]:
        return a[0], (a[1::2] - a[2::2]) / divisors.reshape((-1,) + (1,) * (a.ndim - 1))
    if isinstance(values, tuple):
        return tuple(zip(*map(differenced, values)))
    return differenced(values)


def fd_partials(field: MetricField, x: Array) -> Array:
    """Central finite differences of the metric, batched, from one
    ``field.eval`` call per batch.

    Returns ``(..., dim, dim, dim)`` with axis ``-3`` indexing the
    differentiation direction; the step along axis ``k`` is :data:`FD_STEP`
    times the box width ``k``.
    """
    x = expect_instance(field, MetricField, "field").chart.points(x, "x")
    return np.moveaxis(_central_differences(field.eval, x, field.chart)[1], 0, -3)


def _diagonal(d: Array) -> Array:
    """The diagonal matrices ``(..., m, m)`` of ``d`` ``(..., m)``, off-diagonal entries 0."""
    out = np.zeros(d.shape + d.shape[-1:])
    idx = np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


def _metric_and_partials(field: MetricField, x: Array) -> tuple[Array, Array]:
    """The metric and its partials: one ``field.jet`` call, or one ``field.diagonal_jet``
    call embedded in full matrices, else one ``field.eval`` call on the centre and the
    stencil (:func:`_central_differences`)."""
    if field.diagonal_jet is not None:
        a, da = field.diagonal_jet(x)
        return _diagonal(a), _diagonal(da)
    if field.jet is not None:
        return field.jet(x)
    m, d = _central_differences(field.eval, x, field.chart)
    return m, np.moveaxis(d, 0, -3)


def _solve(g: Array, rhs: Array) -> Array:
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("metric inversion failed while forming Christoffel symbols") from exc


def christoffel(field: MetricField, x: Array) -> Array:
    """Batched Christoffel symbols ``Gamma^k_ij`` of shape
    ``(..., dim, dim, dim)`` with the upper index first.

    A field with neither jet is evaluated once per batch, on the
    point batch and its finite-difference stencil together."""
    chart = expect_instance(field, MetricField, "field").chart
    n, x = chart.dim, chart.points(x, "x")
    g, dg = _metric_and_partials(field, x)
    # T_{l i j} = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    t = (np.moveaxis(dg, (-3, -2, -1), (-2, -1, -3))
         + np.moveaxis(dg, (-3, -2, -1), (-1, -2, -3))
         - dg)
    gamma = 0.5 * _solve(g, t.reshape(t.shape[:-2] + (n * n,)))
    return gamma.reshape(t.shape)


def _diagonal_spray(field: MetricField, x: Array, v: Array) -> tuple[Array, Array]:
    """The diagonal ``a`` of a field with a ``diagonal_jet`` and its spray
    ``Gamma(v, v)_l = (2 v_l sum_k v_k d_k a_l - sum_i v_i^2 d_l a_i) / (2 a_l)``."""
    a, da = field.diagonal_jet(x)
    if not a.all():
        raise SingularMetric("zero diagonal metric entry while forming Christoffel symbols")
    t = (v[:, None, :] @ da)[:, 0]
    t *= 2.0 * v
    t -= (da @ (v * v)[..., None])[..., 0]
    t /= 2.0 * a
    return a, t


def _spray(field: MetricField, x: Array, v: Array) -> tuple[Array, Array]:
    """The metric and the contraction ``Gamma^k_ij v^i v^j`` on batches
    ``(B, dim)`` of points and velocities, from one solve with a single
    right-hand side per point; a diagonal metric is divided by instead
    (:func:`_diagonal_spray`)."""
    if field.diagonal_jet is not None:
        a, spray = _diagonal_spray(field, x, v)
        return _diagonal(a), spray
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


def _geodesic_rhs(field: MetricField, y: Array, out: Array) -> None:
    """Write the right-hand side of the first-order geodesic system on states
    ``y = (x, v)`` of shape ``(B, 2 dim)`` into ``out``: ``v``, then ``-Gamma(v, v)``."""
    n = field.chart.dim
    x, v = y[:, :n], y[:, n:]
    out[:, :n] = v
    spray = _diagonal_spray if field.diagonal_jet is not None else _spray
    np.negative(spray(field, x, v)[1], out=out[:, n:])


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
    boundary are truncated and flagged.  A start outside the chart box raises
    :class:`OutOfChart` naming the first one (:meth:`Chart.points`).  The
    returned trajectories' arrays are views of one stack of all kept samples,
    sorted by trajectory.
    """
    tol = expect_tol(tol)
    T = expect_number(T, "T", positive=True)
    starts_x = field.chart.points(np.atleast_2d(as_floats(starts_x, "starts_x")), "starts_x")
    starts_v = np.atleast_2d(expect_finite(starts_v, "starts_v"))
    n = field.chart.dim
    B = starts_x.shape[0]
    if starts_x.shape != (B, n) or starts_v.shape != (B, n):
        fail("starts_x", f"expected shape (batch, {n}) for both start arrays")
    if np.any(np.all(starts_v == 0.0, axis=1)):
        fail("starts_v", "every start velocity must be nonzero")

    y = np.concatenate([starts_x, starts_v], axis=1)
    t = np.zeros(B)
    dt = np.full(B, min(0.05, T / 4.0))
    active = np.ones(B, dtype=bool)
    left = np.zeros(B, dtype=bool)
    accepted = np.zeros(B, dtype=int)
    rejected = np.zeros(B, dtype=int)
    k1 = np.empty_like(y)
    _geodesic_rhs(field, y, k1)
    # Kept samples, one (owner, t, state, acceleration) block per step.
    owners, ts, ys, ks = [np.arange(B)], [t.copy()], [y.copy()], [k1[:, n:].copy()]
    floor = 1e-14 * max(T, 1.0)
    buffer = np.empty(7 * y.size)  # every iteration's stage stack, at its active rows
    idx = owners[0]  # the active trajectories
    total_steps = 0
    while idx.size:
        total_steps += 1
        if total_steps > _MAX_STEPS:
            raise StepFailure("step cap exceeded")
        # With every trajectory active, the state arrays are read and written whole.
        at = slice(None) if idx.size == B else idx
        ya, ta, dta = y[at], t[at], dt[at]
        dta = np.minimum(dta, T - ta)
        h = dta[:, None]
        k = buffer[:7 * ya.size].reshape((7,) + ya.shape)
        stages = k.reshape(7, -1)  # a view: the stage sums are one matrix product each
        k[0] = k1[at]
        for s in range(1, 7):
            _geodesic_rhs(field, ya + h * (_DP_A[s] @ stages[:s]).reshape(ya.shape), k[s])
        y5 = ya + h * (_DP_B5 @ stages).reshape(ya.shape)
        err_vec = h * (_DP_E @ stages).reshape(ya.shape)
        scale = tol + tol * np.maximum(np.abs(ya), np.abs(y5))
        err = np.sqrt(((err_vec / scale) ** 2).sum(axis=1) / (2 * n))
        err = np.where(np.isfinite(err), err, np.inf)
        ok = err <= 1.0
        # err = 0 gives an infinite factor and err = inf a zero one, clipped to 5 and 0.2.
        factor = np.minimum(np.maximum(0.9 * err ** -0.2, 0.2), 5.0)

        # Rejections, boundary exits and finished trajectories take the gathers below.
        if ok.all():
            stepped, at_ok, t_ok, y_ok, k_ok = idx, at, ta + dta, y5, k[6]
        else:
            rejected[idx[~ok]] += 1
            stepped = at_ok = idx[ok]
            t_ok, y_ok, k_ok = ta[ok] + dta[ok], y5[ok], k[6, ok]
        accepted[at_ok] += 1
        t[at_ok] = t_ok
        y[at_ok] = y_ok
        k1[at_ok] = k_ok
        inside = field.chart.contains(y_ok[:, :n])
        deactivated = not inside.all()
        if deactivated:
            out = stepped[~inside]
            left[out] = True
            active[out] = False
            stepped, t_ok, y_ok, k_ok = stepped[inside], t_ok[inside], y_ok[inside], k_ok[inside]
        owners.append(stepped)
        ts.append(t_ok)
        ys.append(y_ok)
        ks.append(k_ok[:, n:].copy())
        done = t_ok >= T - 1e-14
        if done.any():
            active[stepped[done]] = False
            deactivated = True
        dt[at] = new_dt = dta * factor
        tiny = new_dt < floor
        if tiny.any():
            small = idx[tiny & active[idx]]
            if small.size:
                raise StepFailure(f"step size underflow in trajectory {small[0]}")
        if deactivated:
            idx = np.flatnonzero(active)

    # A stable sort keeps each trajectory's samples in step order, in one slice.
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=B)).tolist()
    times, states, accels = (np.concatenate(stack)[order] for stack in (ts, ys, ks))
    points, velocities = states[:, :n], states[:, n:]
    return [
        Trajectory(times=times[lo:hi], points=points[lo:hi], velocities=velocities[lo:hi],
                   accelerations=accels[lo:hi], left_chart=exited,
                   stepper_stats=StepperStats(acc, rej))
        for lo, hi, exited, acc, rej in zip([0] + ends[:-1], ends, left.tolist(),
                                         accepted.tolist(), rejected.tolist())
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
    ``inverse`` describes the reverse direction when available;
    ``inverse_source`` is the chart on which the inverse is defined.
    """

    source: Chart
    forward: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    inverse: Optional[Callable[[Array], Array]] = None
    inverse_source: Optional[Chart] = None

    def inverted(self) -> "ChartMap":
        """The reverse map, whose Jacobian at ``w`` is the matrix inverse of
        ``jacobian(inverse(w))``, or NaN where that has a non-finite entry or
        ``|det| < 1e-12``, so :func:`pushforward_metric` refuses it there too."""
        if self.inverse is None or self.inverse_source is None:
            fail("inverse", "this chart map does not carry one")

        def jacobian(w: Array) -> Array:
            j = np.asarray(self.jacobian(self.inverse(w)), dtype=float)
            eye = np.broadcast_to(np.eye(j.shape[-1]), j.shape)
            bad = ~np.isfinite(j).all(axis=(-2, -1), keepdims=True)
            bad |= np.abs(np.linalg.det(np.where(bad, eye, j)))[..., None, None] < 1e-12
            return np.where(bad, np.nan, np.linalg.solve(np.where(bad, eye, j), eye))

        return ChartMap(source=self.inverse_source, forward=self.inverse, jacobian=jacobian,
                        inverse=self.forward, inverse_source=self.source)


def pushforward_metric(chart_map: ChartMap, field: MetricField) -> MetricField:
    """The metric of ``field`` expressed in the coordinates of
    ``chart_map.source``: ``J^T g(map(y)) J``.

    The Jacobian is validated on a grid of 5 points per axis; a sampled
    non-finite entry or ``|det J| < 1e-12`` raises :class:`DegenerateJacobian`.
    """
    jac = chart_map.jacobian(chart_map.source.grid(5))
    if not np.isfinite(jac).all() or np.any(np.abs(np.linalg.det(jac)) < 1e-12):
        raise DegenerateJacobian("chart map Jacobian is not finite or numerically singular "
                                 "on the source box")

    def eval_fn(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        j = chart_map.jacobian(y)
        g = field.eval(chart_map.forward(y))
        out = transposed(j) @ g @ j
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    return MetricField(chart=chart_map.source, eval=eval_fn)
