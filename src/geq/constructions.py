"""Sphere-based constructions of compatible metric pairs.

A stereographic chart carries the round metric of the unit sphere; pulling
the round metric back through the sphere self-map ``w -> A w / |A w|``
(which maps planes through the origin to planes through the origin, hence
great circles to great circles) produces a second metric with the same
unparametrized geodesics.  Multiplying the base metric by a constant
scales the eigenvalue range, by a closed-form factor that orders the
ranges of consecutive factors, which lets products of spheres be
assembled with ``oplus``.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from ._validate import (as_floats, expect_finite, expect_instance, expect_int, expect_number,
                        fail)
from .charts import Chart, MetricField, integrate_geodesics
from .errors import DegenerateMap, EigenOrderViolated, NotPositive
from .projective import MetricPair
from .split_glue import EquivTriple, make_triple, oplus
from .verify import seeded_starts

Array = np.ndarray

MIN_POLE_DISTANCE = 0.1
RELATIVE_GAP = 0.1


@dataclasses.dataclass(frozen=True)
class LinearMap:
    """A non-degenerate linear transformation of the ambient space."""

    matrix: Array

    def __post_init__(self) -> None:
        m = expect_finite(self.matrix, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            fail("matrix", "expected a square matrix")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise DegenerateMap("the transformation matrix is singular")
        object.__setattr__(self, "matrix", m)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, ambient_dim: int) -> "LinearMap":
        return cls(np.eye(ambient_dim))

    @classmethod
    def diagonal(cls, values) -> "LinearMap":
        return cls(np.diag(as_floats(values, "values")))

    def apply(self, points: Array) -> Array:
        return np.asarray(points, dtype=float) @ self.matrix.T


@dataclasses.dataclass(frozen=True)
class SphereChart:
    """Stereographic chart of the unit sphere, projected from a pole the
    working box stays away from.

    The embedding sends ``y`` to ``R (2y, |y|^2 - 1) / (|y|^2 + 1)`` where
    the reflection ``R`` carries the last basis vector to the pole; the
    chart image keeps a distance of at least ``MIN_POLE_DISTANCE`` from
    the pole.
    """

    dim: int
    chart: Chart
    pole: Array

    def __post_init__(self) -> None:
        if self.chart.dim != self.dim:
            fail("chart", f"expected a chart of dimension {self.dim}")
        pole = expect_finite(self.pole, "pole")
        if pole.shape != (self.dim + 1,):
            fail("pole", f"expected an ambient-space vector of length {self.dim + 1}")
        norm = np.linalg.norm(pole)
        if norm < 1e-12:
            fail("pole", "must be nonzero")
        pole = pole / norm
        object.__setattr__(self, "pole", pole)
        max_sq = sum(max(lo * lo, hi * hi) for lo, hi in self.chart.box)
        # Chart points sit at distance 2 / sqrt(1 + |y|^2) from the pole.
        if 2.0 / np.sqrt(1.0 + max_sq) < MIN_POLE_DISTANCE:
            fail("chart", f"the box reaches closer than {MIN_POLE_DISTANCE:g} to the pole")
        object.__setattr__(self, "_reflection", self._make_reflection(pole))

    @staticmethod
    def _make_reflection(pole: Array) -> Array:
        axis = np.zeros_like(pole)
        axis[-1] = 1.0
        u = axis - pole
        nu = np.linalg.norm(u)
        if nu < 1e-14:
            return np.eye(pole.shape[0])
        u = u / nu
        return np.eye(pole.shape[0]) - 2.0 * np.outer(u, u)

    def _unreflected(self, ys: Array) -> tuple[Array, Array]:
        """The stereographic embedding ``(2y, |y|^2 - 1) / (|y|^2 + 1)`` and its
        Jacobian ``(..., ambient, chart)``, before the reflection."""
        ys = np.asarray(ys, dtype=float)
        d = 1.0 + np.sum(ys * ys, axis=-1, keepdims=True)
        cy = (4.0 / (d * d)) * ys
        top = (2.0 / d[..., None]) * np.eye(self.dim) - cy[..., :, None] * ys[..., None, :]
        jac = np.concatenate([top, cy[..., None, :]], axis=-2)
        return np.concatenate([2.0 * ys, d - 2.0], axis=-1) / d, jac

    def embed(self, ys: Array) -> Array:
        """Map chart points onto the unit sphere in the ambient space."""
        return self._unreflected(ys)[0] @ self._reflection.T

    def embedding_jacobian(self, ys: Array) -> Array:
        """Derivative of :meth:`embed`, shaped (..., ambient, chart)."""
        return np.einsum("ab,...bj->...aj", self._reflection, self._unreflected(ys)[1])


def sphere_chart(dim: int, pole=None) -> SphereChart:
    """Default stereographic chart: the box ``[-0.75, 0.75]^dim``, projected
    from the last-axis pole (which the embedding image never approaches)."""
    dim = expect_int(dim, "dim", 1)
    if pole is None:
        pole = np.zeros(dim + 1)
        pole[-1] = 1.0
    box = ((-0.75, 0.75),) * dim
    return SphereChart(dim=dim, chart=Chart(dim, box), pole=pole)


def beltrami_pair(dim: int, a_map: LinearMap | None = None,
                  sphere: SphereChart | None = None) -> EquivTriple:
    """Round metric on a sphere chart paired with its pull-back under the
    normalized linear self-map of the sphere; the round metric carries a
    closed-form ``jet``."""
    dim = expect_int(dim, "dim", 1)
    if sphere is None:
        sphere = sphere_chart(dim)
    if a_map is None:
        a_map = LinearMap.identity(dim + 1)
    expect_instance(sphere, SphereChart, "sphere")
    expect_instance(a_map, LinearMap, "a_map")
    if sphere.dim != dim:
        fail("sphere", f"expected a sphere chart of dimension {dim}")
    if a_map.ambient_dim != dim + 1:
        fail("a_map", f"expected a map of the ambient space R^{dim + 1}")

    def round_metric(ys: Array) -> tuple[Array, Array, Array]:
        ys = np.asarray(ys, dtype=float)
        d = 1.0 + np.sum(ys * ys, axis=-1)
        return ys, d, (4.0 / (d * d))[..., None, None] * np.eye(dim)

    def g_jet(ys: Array) -> tuple[Array, Array]:
        # d_k g_ij = -16 y_k / (1 + |y|^2)^3 delta_ij
        ys, d, g = round_metric(ys)
        return g, (-16.0 * ys / (d ** 3)[..., None])[..., None, None] * np.eye(dim)

    ar = a_map.matrix @ sphere._reflection

    def gbar_eval(ys: Array) -> Array:
        # The Gram matrix of D = (I - u u^T) AR J0 / |w|, the differential of
        # x -> A x / |A x| at x = R e0, with w = AR e0 and u = w / |w|.
        e0, j0 = sphere._unreflected(ys)
        w = e0 @ ar.T
        norm = np.sqrt(np.sum(w * w, axis=-1))[..., None]
        u = w / norm
        m = ar @ j0
        dmap = (m - u[..., :, None] * (u[..., None, :] @ m)) / norm[..., None]
        out = np.swapaxes(dmap, -1, -2) @ dmap
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    return make_triple(MetricPair(
        g=MetricField(chart=sphere.chart, eval=lambda ys: round_metric(ys)[2], jet=g_jet),
        gbar=MetricField(chart=sphere.chart, eval=gbar_eval),
    ))


def scale_triple(triple: EquivTriple, factor: float) -> EquivTriple:
    """Multiply the base metric by a positive constant; the companion is
    unchanged and the eigenvalue range scales by ``factor**(1/(dim+1))``."""
    if expect_number(factor, "factor") <= 0.0:
        raise NotPositive("the scaling constant must be positive")
    if factor == 1.0:
        return triple
    pair = triple.pair
    k = pair.dim
    eig_scale = factor ** (1.0 / (k + 1))
    base = pair.g

    def g_eval(xs: Array) -> Array:
        return factor * base.eval(xs)

    def g_jet(xs: Array) -> tuple[Array, Array]:
        m, dm = base.jet(xs)
        return factor * m, factor * dm

    scaled = MetricPair(
        g=MetricField(chart=pair.chart, eval=g_eval, jet=None if base.jet is None else g_jet),
        gbar=pair.gbar,
    )
    lo, hi = triple.eigen_range
    return EquivTriple(pair=scaled, eigen_range=(lo * eig_scale, hi * eig_scale))


def _chart_eigen_bounds(a_map: LinearMap, sphere: SphereChart) -> tuple[float, float]:
    """Bounds on the eigenvalues of ``L`` of :func:`beltrami_pair` over the
    chart of ``sphere``.

    With ``M = A^T A`` and ``s = det(M)^(1/(n+1))``, ``L`` at a unit point
    ``x`` has the eigenvalues of ``s M^-1`` compressed to ``x^perp``.  A unit
    ``v`` orthogonal to ``x`` has ``(v.e)^2 <= 1 - (x.e)^2``, so the least
    eigenvalue is at least ``s (b_1 + (b_2 - b_1) (x.e_1)^2)`` for the two
    least eigenvalues ``b_1 <= b_2`` of ``M^-1`` and the eigenvector ``e_1``
    of ``b_1``, and the greatest is bounded the same way from above.  Over
    the chart, ``(x.e)^2`` is at least ``sin^2`` of the angle by which the
    cap holding the chart (the image of the box's circumscribed ball) clears
    the great sphere ``e^perp``; where the cap reaches it, the bound is that
    of the whole sphere.  On a circle both bounds are exact.
    """
    m, vecs = np.linalg.eigh(a_map.matrix.T @ a_map.matrix)
    b, s = 1.0 / m, np.prod(m) ** (1.0 / m.size)
    chart = sphere.chart
    dist, rho = np.linalg.norm(chart.center), 0.5 * np.linalg.norm(chart.widths)
    axis = chart.center / dist if dist > 0.0 else np.eye(sphere.dim)[0]
    # The ball's points on the line through 0 and its centre sit at angles
    # 2 arctan(t) from the chart centre along one great circle.
    near, far = np.arctan(dist - rho), np.arctan(dist + rho)
    centre = np.append(np.sin(near + far) * axis, -np.cos(near + far)) @ sphere._reflection.T

    def clearance(e: Array) -> float:
        alpha = np.arcsin(min(1.0, abs(float(centre @ e))))
        return np.sin(max(0.0, alpha - (far - near))) ** 2

    return (s * (b[-1] + (b[-2] - b[-1]) * clearance(vecs[:, -1])),
            s * (b[0] - (b[0] - b[1]) * clearance(vecs[:, 0])))


def spheres_product(factors: list[tuple]) -> EquivTriple:
    """Assemble a product of spheres: one Beltrami triple per factor, then
    folded with ``oplus``.

    A factor of dimension ``k`` whose range starts at ``lo``, after a
    previous range ending at ``hi``, has its base metric multiplied by
    ``c = max(1, (1 + RELATIVE_GAP) hi / lo)^(k + 1)``; the eigenvalues
    scale by ``c^(1/(k+1))``, so its range then starts at
    ``(1 + RELATIVE_GAP) hi`` or above.

    The ranges are sampled on a grid, which can miss a steep eigenvalue's
    extremes; gluing is then invalid although the sampled ranges are
    ordered.  So the scaled factor must also clear the previous one on the
    closed-form chart bounds of :func:`_chart_eigen_bounds`, or
    :class:`EigenOrderViolated` names both ranges and ``c``.

    Each factor is ``(dim, a_map)`` or ``(dim, a_map, sphere_chart)``.
    """
    if not factors:
        fail("factors", "expected at least one factor")
    triples, bounds = [], []
    for i, factor in enumerate(factors):
        if not isinstance(factor, (tuple, list)) or len(factor) not in (2, 3):
            fail(f"factors[{i}]", "expected (dim, a_map) or (dim, a_map, sphere_chart)")
        dim, a_map, *rest = factor
        dim = expect_int(dim, f"factors[{i}][0]", 1)
        a_map = LinearMap.identity(dim + 1) if a_map is None else a_map
        sphere = rest[0] if rest else sphere_chart(dim)
        triples.append(beltrami_pair(dim, a_map, sphere))
        bounds.append(_chart_eigen_bounds(a_map, sphere))
    scaled = [triples[0]]
    top = bounds[0][1]
    for i, (triple, (low, high)) in enumerate(zip(triples[1:], bounds[1:]), start=1):
        ratio = max(1.0, (1.0 + RELATIVE_GAP) * scaled[-1].eigen_range[1]
                    / triple.eigen_range[0])
        c = ratio ** (triple.pair.dim + 1)
        if low * ratio <= top:
            raise EigenOrderViolated(
                f"factor {i} (sampled eigenvalue range {list(triple.eigen_range)}) scaled by "
                f"c = {c:.6g} to start above factor {i - 1} (range "
                f"{list(scaled[-1].eigen_range)}) can have eigenvalues down to "
                f"{low * ratio:.6g} on its chart, and factor {i - 1} up to {top:.6g}")
        scaled.append(scale_triple(triple, c))
        top = high * ratio
    return oplus(scaled)


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
    pair = beltrami_pair(sphere.dim, LinearMap.identity(sphere.dim + 1), sphere).pair
    rng = np.random.default_rng(expect_int(seed, "seed", 0))
    starts, vels = seeded_starts(pair, n_circles, rng)
    trajectories = integrate_geodesics(pair.g, starts, vels, 1.0, tol)

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
