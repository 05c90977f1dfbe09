"""Tensor machinery for metric pairs sharing unparameterized geodesics.

Given a pair (g, gbar) on one chart, this module builds the compatibility
tensor ``L = (det gbar / det g)^{1/(n+1)} gbar^{-1} g`` and its eigenframe
(one congruence of ``g`` by the Cholesky factor of ``gbar``), the adjugate
polynomial family ``S_t = adj(L - t I)``, the quadratic-in-velocity
integrals ``I_t = g(S_t v, v)`` together with their interlaced roots (one
batched symmetric eigen solve), the planar integral ``F``, and a
finite-difference Nijenhuis torsion of the ``L`` field.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .charts import FD_STEP, MetricField, PhasePoint, _central, _stencil, metric_at
from .errors import (
    BracketFailure,
    DimensionMismatch,
    NotPositiveDefinite,
    OutOfChart,
    SingularMetric,
)

Array = np.ndarray

# Eigenvalues closer than this are treated as one cluster (square root of
# double-precision epsilon, the resolution of symmetric eigensolvers).
CLUSTER_RADIUS = 1e-8


@dataclasses.dataclass(frozen=True)
class MetricPair:
    """Two metrics on the same chart, a candidate geodesically equivalent
    pair."""

    g: MetricField
    gbar: MetricField
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.g.chart != self.gbar.chart:
            raise ValueError("both metrics of a pair must live on the identical chart")

    @property
    def chart(self):
        return self.g.chart

    @property
    def dim(self) -> int:
        return self.g.chart.dim


@dataclasses.dataclass(frozen=True)
class PolyTensor:
    """A matrix-valued polynomial in ``t``: ``coeffs[k]`` multiplies ``t^k``."""

    degree: int
    coeffs: tuple[Array, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient list must have degree + 1 entries")

    def at(self, t: float) -> Array:
        out = np.zeros_like(self.coeffs[0])
        for k, c in enumerate(self.coeffs):
            out = out + c * t**k
        return out


@dataclasses.dataclass(frozen=True)
class RootSet:
    """Sorted roots of the integral polynomial plus the eigenvalue
    brackets that certified them."""

    roots: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# The compatibility tensor and its eigenstructure


def _l_from(g: Array, gb: Array) -> Array:
    """Batched tensor ``L`` of shape ``(..., n, n)`` from both metrics;
    a determinant that is not positive raises :class:`SingularMetric`."""
    n = g.shape[-1]
    detg = np.linalg.det(g)
    detgb = np.linalg.det(gb)
    if not (np.all(detg > 0.0) and np.all(detgb > 0.0)):
        raise SingularMetric("a metric determinant is not positive")
    ratio = (detgb / detg) ** (1.0 / (n + 1))
    return ratio[..., None, None] * np.linalg.solve(gb, g)


def _l_many(pair: MetricPair, xs: Array) -> Array:
    """Batched tensor ``L`` of shape ``(..., n, n)``."""
    xs = np.asarray(xs, dtype=float)
    return _l_from(pair.g.eval(xs), pair.gbar.eval(xs))


def l_tensor(pair: MetricPair, x: Array) -> Array:
    """The tensor ``L`` at a single point, as a matrix in chart
    coordinates."""
    x = np.asarray(x, dtype=float)
    if not pair.chart.contains(x):
        raise OutOfChart(f"point {x.tolist()} outside chart box")
    return _l_many(pair, x[None, :])[0]


def _congruence(g: Array, gb: Array) -> tuple[Array, Array]:
    """``K^-1`` and the symmetric ``B = K^-1 g K^-T``, where ``gb = K K^T``
    (Cholesky).  ``gb^-1 g = K^-T B K^T``, so ``L`` is similar to
    ``ratio B``, and congruence keeps the inertia of ``g``."""
    try:
        k_inv = np.linalg.inv(np.linalg.cholesky(gb))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("companion metric is not positive definite") from exc
    b = k_inv @ g @ np.swapaxes(k_inv, -1, -2)
    b += np.swapaxes(b, -1, -2)
    b *= 0.5
    return k_inv, b


def _l_scale(nu: Array) -> Array:
    """The factor ``ratio = (prod nu)^(-1/(n+1))`` that takes the eigenvalues
    ``nu`` of ``B`` (ascending, ``prod nu = det g / det gb``) to those of ``L``;
    ``nu[..., 0] <= 0`` means an indefinite base metric."""
    if not np.all(nu[..., 0] > 0.0):
        raise NotPositiveDefinite("base metric is not positive definite")
    return np.prod(nu, axis=-1) ** (-1.0 / (nu.shape[-1] + 1))


def _l_values(g: Array, gb: Array) -> Array:
    """Ascending eigenvalues ``(..., n)`` of ``L`` from both metrics, without
    forming ``L``: ``mu = ratio nu`` (:func:`_congruence`, :func:`_l_scale`)."""
    b = _congruence(g, gb)[1]
    try:
        nu = np.linalg.eigvalsh(b)
    except np.linalg.LinAlgError as exc:  # only non-finite entries stop eigvalsh
        raise NotPositiveDefinite("a metric has non-finite entries") from exc
    return _l_scale(nu)[..., None] * nu


def _l_frame(g: Array, gb: Array) -> tuple[Array, Array]:
    """Ascending eigenvalues ``(..., n)`` of ``L`` and eigenvector columns
    ``(..., n, n)`` orthonormal in ``g``: with ``B y = nu y`` (:func:`_congruence`),
    ``v = K^-T y / sqrt(nu)`` has ``L v = ratio nu v`` and ``g(v, v) = 1``."""
    k_inv, b = _congruence(g, gb)
    try:
        nu, y = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:  # only non-finite entries stop eigh
        raise NotPositiveDefinite("a metric has non-finite entries") from exc
    ratio = _l_scale(nu)
    vecs = (np.swapaxes(k_inv, -1, -2) @ y) / np.sqrt(nu)[..., None, :]
    return ratio[..., None] * nu, vecs


def l_eigen(pair: MetricPair, x: Array) -> tuple[Array, Array]:
    """Eigenvalues (ascending) and eigenvector columns of ``L`` at one
    point, from one congruence of the base metric by the Cholesky factor
    of the companion (:func:`_l_frame`); the eigenvectors are orthonormal
    in the ``g`` inner product."""
    x = np.asarray(x, dtype=float)
    if not pair.chart.contains(x):
        raise OutOfChart(f"point {x.tolist()} outside chart box")
    xs = x[None, :]
    vals, vecs = _l_frame(pair.g.eval(xs), pair.gbar.eval(xs))
    return vals[0], vecs[0]


def _char_and_adjugate(L: Array) -> tuple[Array, Array]:
    """Characteristic and adjugate coefficients of ``L - t I``, batched.

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


def s_t(pair: MetricPair, x: Array) -> PolyTensor:
    """The adjugate polynomial ``S_t = adj(L - t I)`` at one point, as a
    degree ``n - 1`` matrix polynomial in ``t``."""
    L = l_tensor(pair, x)
    _, adj = _char_and_adjugate(L)
    n = pair.dim
    return PolyTensor(degree=n - 1, coeffs=tuple(adj[k] for k in range(n)))


# ---------------------------------------------------------------------------
# Integrals and their roots


def _integral_coeffs(pair: MetricPair, xs: Array, vs: Array) -> Array:
    """Coefficients ``(..., n)`` of ``t -> g(S_t v, v)``, batched."""
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    g = pair.g.eval(xs)
    _, adj = _char_and_adjugate(_l_from(g, pair.gbar.eval(xs)))
    return np.einsum("...i,...ij,...kjl,...l->...k", vs, g, adj, vs)


def i_t(pair: MetricPair, p: PhasePoint, t: float) -> float:
    """The integral ``I_t = g(S_t v, v)`` at a phase point."""
    if not pair.chart.contains(p.x):
        raise OutOfChart(f"point {p.x.tolist()} outside chart box")
    coeffs = _integral_coeffs(pair, p.x[None, :], p.v[None, :])[0]
    return float(np.polynomial.polynomial.polyval(t, coeffs))


def f_integral_2d(pair: MetricPair, p: PhasePoint) -> float:
    """The planar integral ``F = (det g / det gbar)^{2/3} gbar(v, v)``."""
    if pair.dim != 2:
        raise DimensionMismatch("the planar integral is defined only in dimension 2")
    g = metric_at(pair.g, p.x)
    gb = metric_at(pair.gbar, p.x)
    ratio = np.linalg.det(g) / np.linalg.det(gb)
    return float(ratio ** (2.0 / 3.0) * (p.v @ gb @ p.v))


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


def frame_weights(pair: MetricPair, xs: Array, vs: Array) -> tuple[Array, Array]:
    """Eigenvalues ``(..., n)`` of ``L`` and squared coordinates of ``v`` in the
    ``g``-orthonormal eigenframe of :func:`_l_frame`; ``xs`` and ``vs`` broadcast,
    one eigen solve per point."""
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    g = pair.g.eval(xs)
    mu, vecs = _l_frame(g, pair.gbar.eval(xs))
    w = np.einsum("...ji,...jk,...k->...i", vecs, g, vs) ** 2
    return np.broadcast_to(mu, w.shape), w


def integral_roots_many(pair: MetricPair, xs: Array, vs: Array) -> Array:
    """Roots of ``t -> I_t`` for a batch of phase points, ``(..., n - 1)``,
    ascending, in one batched eigen solve (:func:`_roots_many`); ``xs`` and
    ``vs`` broadcast as in :func:`frame_weights`."""
    return _roots_many(*frame_weights(pair, xs, vs))


def integral_roots(pair: MetricPair, p: PhasePoint) -> RootSet:
    """The ``n - 1`` real roots of ``t -> I_t`` at a phase point, one in
    each consecutive eigenvalue bracket of ``L`` (pinned on the eigenvalue
    where neighbors coincide); see :func:`_roots_many`.  A root outside its
    bracket raises :class:`BracketFailure`."""
    if not pair.chart.contains(p.x):
        raise OutOfChart(f"point {p.x.tolist()} outside chart box")
    mu, w = frame_weights(pair, p.x[None, :], p.v[None, :])
    roots = _roots_many(mu, w)[0]
    mu = mu[0]
    brackets = tuple((float(mu[i]), float(mu[i + 1])) for i in range(mu.shape[0] - 1))
    for i, r in enumerate(roots):
        if not (brackets[i][0] - 10 * CLUSTER_RADIUS <= r <= brackets[i][1] + 10 * CLUSTER_RADIUS):
            raise BracketFailure(
                f"root {r} escaped its bracket {brackets[i]}; the pair is likely "
                "not geodesically compatible")
    return RootSet(roots=tuple(float(r) for r in roots), brackets=brackets)


# ---------------------------------------------------------------------------
# Nijenhuis torsion


def _l_partials(pair: MetricPair, x: Array) -> Array:
    """Central differences of the ``L`` field: ``(..., k, i, j)`` holds
    the derivative of ``L^i_j`` along coordinate ``k``."""
    h = FD_STEP * pair.chart.widths
    return np.moveaxis(_central(_l_many(pair, _stencil(x, h)), h), 0, -3)


def nijenhuis_at(pair: MetricPair, x: Array) -> Array:
    """The Nijenhuis torsion ``N^k_{ij}`` of the ``L`` field at one point,
    computed from finite differences of ``L``; antisymmetric in ``(i, j)``."""
    x = np.asarray(x, dtype=float)
    if not pair.chart.contains(x, margin=2.0 * FD_STEP):
        raise OutOfChart(f"point {x.tolist()} is not strictly interior")
    L = l_tensor(pair, x)
    dL = _l_partials(pair, x[None, :])[0]
    term1 = np.einsum("mi,mkj->kij", L, dL)
    term2 = np.einsum("mj,mki->kij", L, dL)
    term3 = np.einsum("km,jmi->kij", L, dL)
    term4 = np.einsum("km,imj->kij", L, dL)
    return term1 - term2 + term3 - term4


# ---------------------------------------------------------------------------
# Sampling diagnostics


def eigen_range(pair: MetricPair, xs: Array) -> tuple[float, float]:
    """Smallest and largest eigenvalue of ``L`` over a point sample."""
    xs = np.asarray(xs, dtype=float)
    mu = _l_values(pair.g.eval(xs), pair.gbar.eval(xs))
    return float(np.min(mu)), float(np.max(mu))


def max_eigen_multiplicity(pair: MetricPair, xs: Array) -> int:
    """Largest eigenvalue-cluster size of ``L`` over a point sample
    (cluster radius :data:`CLUSTER_RADIUS`)."""
    xs = np.asarray(xs, dtype=float)
    mu = _l_values(pair.g.eval(xs), pair.gbar.eval(xs))
    close = np.diff(mu.reshape(-1, mu.shape[-1]), axis=-1) <= CLUSTER_RADIUS
    run = longest = np.zeros(close.shape[0], dtype=int)
    for column in close.T:
        run = np.where(column, run + 1, 0)
        longest = np.maximum(longest, run)
    return int(np.max(longest, initial=0)) + 1


def poisson_bracket_fd(pair: MetricPair, x: Array, p: Array,
                       t1: float, t2: float, step: float = 1e-5) -> float:
    """Canonical Poisson bracket of ``I_{t1}`` and ``I_{t2}`` at a
    position/momentum point, by central finite differences."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    n = pair.dim

    def integral(t, xx, pp):
        g = pair.g.eval(xx[None, :])[0]
        v = np.linalg.solve(g, pp)
        return i_t(pair, PhasePoint(xx, v), t)

    def grad(t, xx, pp):
        dx = np.zeros(n)
        dp = np.zeros(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = step
            dx[k] = (integral(t, xx + e, pp) - integral(t, xx - e, pp)) / (2 * step)
            dp[k] = (integral(t, xx, pp + e) - integral(t, xx, pp - e)) / (2 * step)
        return dx, dp

    dx1, dp1 = grad(t1, x, p)
    dx2, dp2 = grad(t2, x, p)
    return float(dx1 @ dp2 - dp1 @ dx2)
