"""Tensor machinery for metric pairs sharing unparameterized geodesics.

Given a pair (g, gbar) on one chart, this module builds the compatibility
tensor ``L = (det gbar / det g)^{1/(n+1)} gbar^{-1} g`` and its eigenframe
(one congruence of ``g`` by the Cholesky factor of ``gbar``), the
quadratic-in-velocity integrals ``I_t = g(adj(L - t I) v, v)``, read off the
eigenvalues of ``L`` and the squared coordinates of ``v`` in that frame,
together with their interlaced roots (one batched symmetric eigen solve), and a
finite-difference Nijenhuis torsion of the ``L`` field.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from ._batch import cholesky_inverse
from ._validate import (expect_broadcast, expect_instance, expect_number, expect_points,
                        expect_vector, fail)
from .charts import FD_STEP, Chart, MetricField, _full_step_differences, positivity_grid_size
from .errors import BracketFailure, NotPositiveDefinite, SingularMetric

Array = np.ndarray

# Eigenvalues closer than this are treated as one cluster (square root of
# double-precision epsilon, the resolution of symmetric eigensolvers).
CLUSTER_RADIUS = 1e-8

# Batch size from which :func:`_congruence` takes ``K^-1`` from the batch
# kernel: at 128 matrices it beats LAPACK at every n from 2 to 5, at 64 not
# yet at n = 4 and 5.
BATCH_KERNEL_MIN = 128

# The ratio ``nu_0 / nu_max`` of the eigenvalues of ``B`` (:func:`_congruence`),
# which is ``mu_0 / mu_max`` for those of ``L``, above which a base metric counts
# as positive definite.  A singular one leaves ``nu_0`` at the rounding level of
# the eigen solve, of either sign: at most 5.2e-16 of ``nu_max`` for rank-deficient
# base metrics of dimension 2 to 5 against well-conditioned companions.  Over the
# registry's gap-scan grids the ratio stays above 1.1e-2; the steep sphere
# pullback of ``diag(1, 1e5, 1e10)``, whose metrics' condition number reaches
# 1e14, reads 1.75e-14.
DEFINITE_FLOOR = 2e-15

_BRACKET_STEP = 1e-5  # absolute, in every position and momentum coordinate


@dataclasses.dataclass(frozen=True)
class MetricPair:
    """Two metrics on the same chart, a candidate geodesically equivalent
    pair."""

    g: MetricField
    gbar: MetricField

    def __post_init__(self) -> None:
        if self.g.chart != self.gbar.chart:
            fail("gbar", "must live on the chart of g")

    @property
    def chart(self):
        return self.g.chart

    @property
    def dim(self) -> int:
        return self.g.chart.dim

    @functools.cached_property
    def _eigen_ranges(self) -> tuple[tuple[float, float], ...]:
        """The gap scan, made on first use and shared by every cut of the pair:
        for each index ``i``, the smallest and largest ascending eigenvalue
        ``mu_i`` of ``L`` over :func:`_scan_grid` and the chart centre, ``2 n``
        floats.  A scan that raises stores nothing, and a new pair (as
        ``dataclasses.replace`` builds) scans again."""
        grid = np.concatenate([_scan_grid(self.chart), self.chart.center[None, :]])
        mu = _l_values(self.g.eval(grid), self.gbar.eval(grid))
        return tuple((float(lo), float(hi)) for lo, hi in zip(mu.min(axis=0), mu.max(axis=0)))


def _scan_grid(chart: Chart) -> Array:
    """The deterministic grid on which eigenvalue ranges are sampled: 16 points
    per axis, at most 20,000 in all."""
    return chart.grid(positivity_grid_size(chart.dim, per_axis_cap=16, total_cap=20_000))


# ---------------------------------------------------------------------------
# The compatibility tensor and its eigenstructure


def _l_from(g: Array, gb: Array) -> Array:
    """Batched tensor ``L`` of shape ``(..., n, n)`` from both metrics, the
    determinant ratio from their Cholesky pivots.  A non-finite entry raises
    :class:`NotPositiveDefinite`, and so does a failed pivot, naming its metric."""
    _expect_finite(g, gb)
    pivots = _cholesky_pivots(gb, "companion") / _cholesky_pivots(g, "base")
    ratio = pivots.prod(axis=-1) ** (2.0 / (g.shape[-1] + 1))
    return ratio[..., None, None] * np.linalg.solve(gb, g)


def _cholesky_pivots(m: Array, name: str) -> Array:
    """The diagonal of the Cholesky factor of ``m``, whose squared product is ``det m``."""
    try:
        return np.linalg.cholesky(m).diagonal(axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{name} metric is not positive definite") from None


def l_tensor(pair: MetricPair, x: Array) -> Array:
    """The tensor ``L`` at a single point, as a matrix in chart
    coordinates."""
    xs = expect_instance(pair, MetricPair, "pair").chart.point(x)[None, :]
    return _l_from(pair.g.eval(xs), pair.gbar.eval(xs))[0]


def _congruence(g: Array, gb: Array) -> tuple[Array, Array]:
    """``K^-1`` and the symmetric ``B = K^-1 g K^-T``, where ``gb = K K^T``
    (Cholesky).  ``gb^-1 g = K^-T B K^T``, so ``L`` is similar to
    ``ratio B``, and congruence keeps the inertia of ``g``.

    From :data:`BATCH_KERNEL_MIN` matrices on, ``K^-1`` comes from the batch
    kernel (:func:`~geq._batch.cholesky_inverse`).  Below it LAPACK, whose
    per-matrix cost is then the smaller, solves ``K X = I``: the call, and so
    the bits, of a general inverse."""
    _expect_finite(g, gb)
    n = gb.shape[-1]
    if gb.size >= BATCH_KERNEL_MIN * n * n:
        k_inv = cholesky_inverse(gb)
    else:
        try:
            k_inv = np.linalg.solve(np.linalg.cholesky(gb), np.eye(n))
        except np.linalg.LinAlgError:
            k_inv = None
    return _congruent(g, k_inv)


def _expect_finite(g: Array, gb: Array) -> None:
    """Refuse a non-finite entry before any arithmetic: no numpy warning."""
    if not (np.isfinite(g).all() and np.isfinite(gb).all()):
        raise NotPositiveDefinite("a metric has non-finite entries")


def _congruent(g: Array, k_inv: Array | None) -> tuple[Array, Array]:
    """``K^-1`` and ``B``; ``k_inv`` is None after a failed Cholesky pivot."""
    if k_inv is None:
        raise NotPositiveDefinite("companion metric is not positive definite")
    b = k_inv @ g @ np.swapaxes(k_inv, -1, -2)
    b += np.swapaxes(b, -1, -2)
    b *= 0.5
    return k_inv, b


def _l_scale(nu: Array) -> Array:
    """The factor ``ratio = (prod nu)^(-1/(n+1))`` that takes the eigenvalues
    ``nu`` of ``B`` (ascending, ``prod nu = det g / det gb``) to those of ``L``;
    ``nu[..., 0]`` not above :data:`DEFINITE_FLOOR` times ``nu[..., -1]`` means a
    singular or indefinite base metric.  The power is an array power at every
    shape (a numpy scalar's rounds differently), so no bit of a point depends on
    its batch."""
    if not np.all(nu[..., 0] > DEFINITE_FLOOR * nu[..., -1]):
        raise NotPositiveDefinite("base metric is not positive definite")
    return (np.prod(nu, axis=-1, keepdims=True) ** (-1.0 / (nu.shape[-1] + 1)))[..., 0]


def _spectrum(b: Array) -> tuple[Array, Array]:
    """The factor ``ratio`` (:func:`_l_scale`) and the ascending eigenvalues
    ``mu = ratio nu`` of ``L``, from those ``nu`` of ``B`` (:func:`_congruence`)."""
    try:
        nu = np.linalg.eigvalsh(b)
    except np.linalg.LinAlgError as exc:  # an overflow inside B stops eigvalsh
        raise NotPositiveDefinite("a metric has non-finite entries") from exc
    ratio = _l_scale(nu)
    return ratio, ratio[..., None] * nu


def _l_values(g: Array, gb: Array) -> Array:
    """Ascending eigenvalues ``(..., n)`` of ``L`` from both metrics, without
    forming ``L`` (:func:`_spectrum`)."""
    return _spectrum(_congruence(g, gb)[1])[1]


def _char_scale(b: Array) -> tuple[Array, Array]:
    """``ratio = (det B)^(-1/(n+1))`` and the coefficients ``(..., n + 1)`` of ``t^j``
    in ``det(L - t I)``: ``ratio^(n-j)`` times those of ``det(B - t I)``, whose constant
    one is ``det B = det g / det gb`` (not positive: :class:`SingularMetric`).  They come
    from the Faddeev-LeVerrier recursion, which keeps only its current matrix and, ``B``
    being symmetric, takes each trace as an entry sum: ``n - 2`` matmuls, no adjugates."""
    n = b.shape[-1]
    c = np.empty(b.shape[:-2] + (n + 1,))
    c[..., n] = 1.0
    c[..., n - 1] = -np.trace(b, axis1=-2, axis2=-1)
    m = b
    for k in range(2, n + 1):
        m = m + c[..., n - k + 1, None, None] * np.eye(n)
        c[..., n - k] = -np.sum(b * m, axis=(-2, -1)) / k
        if k < n:
            m = b @ m
    c *= (-1.0) ** n  # now those of det(B - t I)
    if not np.all(c[..., 0] > 0.0):
        raise SingularMetric("a metric determinant is not positive")
    ratio = c[..., 0] ** (-1.0 / (n + 1))
    return ratio, c * ratio[..., None] ** np.arange(n, -1, -1)


def _l_with(g: Array, gb: Array, read) -> tuple[Array, Array]:
    """``L = ratio gb^-1 g = ratio K^-T (K^-1 g)`` and ``data``, from ``ratio, data =
    read(B)`` and one congruence with ``K^-1`` from the batch kernel at every size: no
    determinant or solve, and no bit of a point depends on its batch."""
    _expect_finite(g, gb)
    k_inv, b = _congruent(g, cholesky_inverse(gb))
    ratio, data = read(b)
    return ratio[..., None, None] * (np.swapaxes(k_inv, -1, -2) @ (k_inv @ g)), data


def _l_frame(g: Array, gb: Array) -> tuple[Array, Array]:
    """Ascending eigenvalues ``(..., n)`` of ``L`` and eigenvector columns
    ``(..., n, n)`` orthonormal in ``g``: with ``B y = nu y`` (:func:`_congruence`),
    ``v = K^-T y / sqrt(nu)`` has ``L v = ratio nu v`` and ``g(v, v) = 1``."""
    k_inv, b = _congruence(g, gb)
    try:
        nu, y = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:  # an overflow inside B stops eigh
        raise NotPositiveDefinite("a metric has non-finite entries") from exc
    ratio = _l_scale(nu)
    vecs = (np.swapaxes(k_inv, -1, -2) @ y) / np.sqrt(nu)[..., None, :]
    return ratio[..., None] * nu, vecs


def l_eigen(pair: MetricPair, x: Array) -> tuple[Array, Array]:
    """Eigenvalues (ascending) and eigenvector columns of ``L`` at one
    point, from one congruence of the base metric by the Cholesky factor
    of the companion (:func:`_l_frame`); the eigenvectors are orthonormal
    in the ``g`` inner product."""
    xs = expect_instance(pair, MetricPair, "pair").chart.point(x)[None, :]
    vals, vecs = _l_frame(pair.g.eval(xs), pair.gbar.eval(xs))
    return vals[0], vecs[0]


# ---------------------------------------------------------------------------
# Integrals and their roots


def _integrals(mu: Array, w: Array, ts: Array) -> Array:
    """The integrals ``I_t(v) = g(adj(L - t I) v, v)`` at the parameters ``ts``
    ``(..., T)``, which broadcast against the points, from the eigenvalues ``mu``
    of ``L`` and the squared coordinates ``w`` of ``v`` in the ``g``-orthonormal
    eigenframe, ``(..., n)`` (:func:`_frame_weights`).  In that frame
    ``adj(L - t I)`` is diagonal, so ``I_t = sum_i w_i prod_{j != i} (mu_j - t)``,
    the polynomial whose roots :func:`_roots_many` finds."""
    d = mu[..., None, None, :] - ts[..., None, None]
    others = np.where(np.eye(mu.shape[-1], dtype=bool), 1.0, d)  # row i leaves out mu_i
    return np.sum(w[..., None, :] * np.prod(others, axis=-1), axis=-1)


def _roots_many(mu: Array, w: Array) -> Array:
    """Roots ``(..., K - 1)`` of ``R(t) = sum_j w_j prod_{a != j} (mu_a - t)``
    for rows ``mu`` (ascending) and ``w`` (nonnegative) of shape ``(..., K)``.

    They are the eigenvalues of ``D = diag(mu)`` compressed onto the
    orthogonal complement of ``u = sqrt(w) / |sqrt(w)|`` (Golub, SIAM
    Review 15(2), 1973).  The reflector ``H = I - 2 h h^T`` with
    ``h = (u + e_K) / |u + e_K|`` sends ``u`` to ``-e_K``, so the
    compression is the leading ``K - 1`` block of ``H D H``.  Cauchy
    interlacing places root ``i`` in ``[mu_i, mu_{i+1}]`` and pins a root
    on every repeated eigenvalue and on every eigenvalue of zero weight.
    """
    if np.any(~np.isfinite(mu)) or np.any(~np.isfinite(w)):
        raise BracketFailure("eigenvalue or weight data is not finite")
    if np.any(w < -1e-12):
        raise BracketFailure("a squared frame coordinate came out negative")
    u = np.sqrt(np.maximum(w, 0.0))
    norm = np.linalg.norm(u, axis=-1)
    if np.any(norm == 0.0):
        raise BracketFailure("the velocity is zero, so every I_t vanishes and "
                             "has no isolated roots")
    h = u / norm[..., None]
    h[..., -1] += 1.0
    h /= np.sqrt(2.0 * h[..., -1:])  # |u + e_K|^2 = 2 (1 + u_K)
    dh = mu * h
    # H D H = D - 2 h (Dh)^T - 2 (Dh) h^T + 4 (h^T D h) h h^T = D + h q^T + q h^T.
    q = 2.0 * np.sum(h * dh, axis=-1, keepdims=True) * h - 2.0 * dh
    block = h[..., :-1, None] * q[..., None, :-1]
    block += np.swapaxes(block, -1, -2)
    diag = np.arange(mu.shape[-1] - 1)
    block[..., diag, diag] += mu[..., :-1]
    return np.linalg.eigvalsh(block)


def _frame_weights(g: Array, gb: Array, vs: Array) -> tuple[Array, Array]:
    """:func:`frame_weights` from both metrics at the points."""
    mu, vecs = _l_frame(g, gb)
    m = np.swapaxes(vecs, -1, -2) @ g  # once per point, however many vectors it has
    w = (m @ vs[..., None])[..., 0] ** 2
    return np.broadcast_to(mu, w.shape), w


def frame_weights(pair: MetricPair, xs: Array, vs: Array) -> tuple[Array, Array]:
    """Eigenvalues ``(..., n)`` of ``L`` and squared coordinates of ``v`` in the
    ``g``-orthonormal eigenframe of :func:`_l_frame`; ``xs`` and ``vs`` broadcast,
    one eigen solve per point."""
    xs = expect_points(xs, expect_instance(pair, MetricPair, "pair").dim, "xs")
    vs = expect_points(vs, pair.dim, "vs")
    expect_broadcast(xs, vs, "xs", "vs")
    return _frame_weights(pair.g.eval(xs), pair.gbar.eval(xs), vs)


def integral_roots_many(pair: MetricPair, xs: Array, vs: Array) -> Array:
    """Roots of ``t -> I_t`` for a batch of phase points, ``(..., n - 1)``,
    ascending, in one batched eigen solve (:func:`_roots_many`); ``xs`` and
    ``vs`` broadcast as in :func:`frame_weights`."""
    return _roots_many(*frame_weights(pair, xs, vs))


# ---------------------------------------------------------------------------
# Nijenhuis torsion


def _l_partials(pair: MetricPair, x: Array) -> tuple[Array, Array]:
    """The ``L`` field at ``x`` and its central differences: ``(..., k, i, j)``
    holds the derivative of ``L^i_j`` along coordinate ``k``.  Both come from
    one evaluation of the metrics on the centre and the full-step stencil."""
    L, dL = _full_step_differences(lambda xs: _l_from(pair.g.eval(xs), pair.gbar.eval(xs)),
                                   pair.chart, x)
    return L, np.moveaxis(dL, 0, -3)


def nijenhuis_at(pair: MetricPair, x: Array) -> Array:
    """The Nijenhuis torsion ``N^k_{ij}`` of the ``L`` field at one point,
    computed from finite differences of ``L``; antisymmetric in ``(i, j)``."""
    x = expect_instance(pair, MetricPair, "pair").chart.point(x, margin=2.0 * FD_STEP)
    L, dL = _l_partials(pair, x[None, :])  # a stack, so a glued pair skips unmoved slices
    L, dL = L[0], dL[0]
    term1 = np.einsum("mi,mkj->kij", L, dL)
    term2 = np.einsum("mj,mki->kij", L, dL)
    term3 = np.einsum("km,jmi->kij", L, dL)
    term4 = np.einsum("km,imj->kij", L, dL)
    return term1 - term2 + term3 - term4


# ---------------------------------------------------------------------------
# Sampling diagnostics


def eigen_range(pair: MetricPair, xs: Array) -> tuple[float, float]:
    """Smallest and largest eigenvalue of ``L`` over a point sample."""
    xs = expect_points(xs, expect_instance(pair, MetricPair, "pair").dim, "xs")
    mu = _l_values(pair.g.eval(xs), pair.gbar.eval(xs))
    return float(np.min(mu)), float(np.max(mu))


def max_eigen_multiplicity(pair: MetricPair, xs: Array) -> int:
    """Largest eigenvalue-cluster size of ``L`` over a point sample
    (cluster radius :data:`CLUSTER_RADIUS`)."""
    xs = expect_points(xs, expect_instance(pair, MetricPair, "pair").dim, "xs")
    mu = _l_values(pair.g.eval(xs), pair.gbar.eval(xs))
    close = np.diff(mu.reshape(-1, mu.shape[-1]), axis=-1) <= CLUSTER_RADIUS
    run = longest = np.zeros(close.shape[0], dtype=int)
    for column in close.T:
        run = np.where(column, run + 1, 0)
        longest = np.maximum(longest, run)
    return int(np.max(longest)) + 1


def poisson_bracket_fd(pair: MetricPair, x: Array, p: Array, t1: float, t2: float) -> float:
    """Canonical Poisson bracket of ``I_{t1}`` and ``I_{t2}`` at a
    position/momentum point, by central differences of step
    :data:`_BRACKET_STEP`: both metrics and the eigenframe weights are
    evaluated once, on the stacked phase stencil ``(x +- h e_k, p)``,
    ``(x, p +- h e_k)`` at the velocities ``v = g^-1 p``, and both integrals
    are read off them (:func:`_integrals`)."""
    chart = expect_instance(pair, MetricPair, "pair").chart
    x = chart.point(x, margin=_BRACKET_STEP / np.min(chart.widths))  # the stencil fits
    p = expect_vector(p, x.shape, "p")
    ts = np.array([expect_number(t1, "t1"), expect_number(t2, "t2")])
    n = pair.dim
    step = _BRACKET_STEP * np.eye(n)
    xs = np.concatenate([x + step, x - step, np.broadcast_to(x, (2 * n, n))])
    ps = np.concatenate([np.broadcast_to(p, (2 * n, n)), p + step, p - step])
    g = pair.g.eval(xs)
    vs = np.linalg.solve(g, ps[..., None])[..., 0]
    values = _integrals(*_frame_weights(g, pair.gbar.eval(xs), vs), ts)
    values = values.T.reshape(2, 2, 2, n)  # (t, x|p, +|-, k)
    (dx1, dp1), (dx2, dp2) = (values[:, :, 0] - values[:, :, 1]) / (2 * _BRACKET_STEP)
    return float(dx1 @ dp2 - dp1 @ dx2)
