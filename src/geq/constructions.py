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

from .charts import Chart, MetricField, integrate_geodesics
from .errors import DegenerateMap, NotPositive
from .projective import MetricPair, _l_values
from .split_glue import EquivTriple, make_triple, oplus

Array = np.ndarray

MIN_POLE_DISTANCE = 0.1
RELATIVE_GAP = 0.1


@dataclasses.dataclass(frozen=True)
class LinearMap:
    """A non-degenerate linear transformation of the ambient space."""

    matrix: Array

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("the matrix must be square")
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
        return cls(np.diag(np.asarray(values, dtype=float)))

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
            raise ValueError("chart dimension mismatch")
        pole = np.asarray(self.pole, dtype=float)
        if pole.shape != (self.dim + 1,):
            raise ValueError("the pole must be an ambient-space vector")
        norm = np.linalg.norm(pole)
        if norm < 1e-12:
            raise ValueError("the pole must be nonzero")
        pole = pole / norm
        object.__setattr__(self, "pole", pole)
        max_sq = sum(max(lo * lo, hi * hi) for lo, hi in self.chart.box)
        # Chart points sit at distance 2 / sqrt(1 + |y|^2) from the pole.
        if 2.0 / np.sqrt(1.0 + max_sq) < MIN_POLE_DISTANCE:
            raise ValueError(
                "the chart box reaches closer than the minimum distance to the pole")
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

    def embed(self, ys: Array) -> Array:
        """Map chart points onto the unit sphere in the ambient space."""
        ys = np.asarray(ys, dtype=float)
        d = 1.0 + np.sum(ys * ys, axis=-1, keepdims=True)
        out = np.empty(ys.shape[:-1] + (self.dim + 1,))
        out[..., : self.dim] = 2.0 * ys / d
        out[..., self.dim] = (d[..., 0] - 2.0) / d[..., 0]
        return out @ self._reflection.T

    def embedding_jacobian(self, ys: Array) -> Array:
        """Derivative of :meth:`embed`, shaped (..., ambient, chart)."""
        ys = np.asarray(ys, dtype=float)
        n = self.dim
        d = 1.0 + np.sum(ys * ys, axis=-1)
        jac = np.zeros(ys.shape[:-1] + (n + 1, n))
        eye = np.eye(n)
        jac[..., :n, :] = (2.0 / d[..., None, None]) * eye \
            - (4.0 / (d * d))[..., None, None] * ys[..., :, None] * ys[..., None, :]
        jac[..., n, :] = (4.0 / (d * d))[..., None] * ys
        return np.einsum("ab,...bj->...aj", self._reflection, jac)


def sphere_chart(dim: int, half_width: float = 0.75, pole=None) -> SphereChart:
    """Default stereographic chart: a centered box, projected from the
    last-axis pole (which the embedding image never approaches)."""
    if pole is None:
        pole = np.zeros(dim + 1)
        pole[-1] = 1.0
    box = tuple((-half_width, half_width) for _ in range(dim))
    return SphereChart(dim=dim, chart=Chart(dim, box), pole=pole)


def beltrami_pair(dim: int, a_map: LinearMap | None = None,
                  sphere: SphereChart | None = None) -> EquivTriple:
    """Round metric on a sphere chart paired with its pull-back under the
    normalized linear self-map of the sphere."""
    if sphere is None:
        sphere = sphere_chart(dim)
    if a_map is None:
        a_map = LinearMap.identity(dim + 1)
    if sphere.dim != dim:
        raise ValueError("sphere chart dimension mismatch")
    if a_map.ambient_dim != dim + 1:
        raise ValueError("the linear map must act on the ambient space")

    def g_eval(ys: Array) -> Array:
        ys = np.asarray(ys, dtype=float)
        d = 1.0 + np.sum(ys * ys, axis=-1)
        scale = 4.0 / (d * d)
        return scale[..., None, None] * np.eye(dim)

    a = a_map.matrix

    def gbar_eval(ys: Array) -> Array:
        ys = np.asarray(ys, dtype=float)
        jac = sphere.embedding_jacobian(ys)
        w = sphere.embed(ys) @ a.T
        norm = np.linalg.norm(w, axis=-1)
        unit = w / norm[..., None]
        proj = np.eye(dim + 1) - unit[..., :, None] * unit[..., None, :]
        dmap = (proj / norm[..., None, None]) @ a @ jac
        out = np.swapaxes(dmap, -1, -2) @ dmap
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    tag = f"beltrami(dim={dim})"
    pair = MetricPair(
        g=MetricField(chart=sphere.chart, eval=g_eval, provenance=tag),
        gbar=MetricField(chart=sphere.chart, eval=gbar_eval,
                         provenance=tag + "/companion"),
        provenance=tag,
    )
    return make_triple(pair)


def scale_triple(triple: EquivTriple, factor: float) -> EquivTriple:
    """Multiply the base metric by a positive constant; the companion is
    unchanged and the eigenvalue range scales by ``factor**(1/(dim+1))``."""
    if factor <= 0.0:
        raise NotPositive("the scaling constant must be positive")
    if factor == 1.0:
        return triple
    pair = triple.pair
    k = pair.dim
    eig_scale = factor ** (1.0 / (k + 1))
    base = pair.g

    def g_eval(xs: Array) -> Array:
        return factor * base.eval(xs)

    partials = None
    if base.partials is not None:
        orig = base.partials
        partials = lambda xs: factor * orig(xs)  # noqa: E731

    tag = f"scale({factor}, {pair.provenance})"
    scaled = MetricPair(
        g=MetricField(chart=pair.chart, eval=g_eval, partials=partials,
                      provenance=tag),
        gbar=pair.gbar,
        provenance=tag,
    )
    lo, hi = triple.eigen_range
    out = EquivTriple(pair=scaled, eigen_range=(lo * eig_scale, hi * eig_scale))
    # Spot-check the scaling relation on the actual tensor eigenvalues.
    probe = pair.chart.grid(2)
    before = _l_values(pair.g.eval(probe), pair.gbar.eval(probe))
    after = _l_values(scaled.g.eval(probe), scaled.gbar.eval(probe))
    if not np.allclose(after, eig_scale * before, rtol=1e-8, atol=1e-10):
        raise AssertionError("eigenvalue scaling relation failed")
    return out


def spheres_product(factors: list[tuple]) -> EquivTriple:
    """Assemble a product of spheres: one Beltrami triple per factor, then
    folded with ``oplus``.

    A factor of dimension ``k`` whose range starts at ``lo``, after a
    previous range ending at ``hi``, has its base metric multiplied by
    ``c = max(1, (1 + RELATIVE_GAP) hi / lo)^(k + 1)``; the eigenvalues
    scale by ``c^(1/(k+1))``, so its range then starts at
    ``(1 + RELATIVE_GAP) hi`` or above.

    Each factor is ``(dim, a_map)`` or ``(dim, a_map, sphere_chart)``.
    """
    if not factors:
        raise ValueError("at least one factor is required")
    triples = []
    for factor in factors:
        dim, a_map, *rest = factor
        triples.append(beltrami_pair(dim, a_map, rest[0] if rest else None))
    scaled = [triples[0]]
    for triple in triples[1:]:
        ratio = (1.0 + RELATIVE_GAP) * scaled[-1].eigen_range[1] / triple.eigen_range[0]
        scaled.append(scale_triple(triple, max(1.0, ratio) ** (triple.pair.dim + 1)))
    return oplus(scaled)


def circle_planarity(sphere: SphereChart, a_map: LinearMap, n_circles: int,
                     seed: int, tol: float = 1e-12, duration: float = 1.0
                     ) -> tuple[float, float]:
    """Geodesy oracle: integrate geodesics of the round chart metric,
    embed the sampled points into the ambient space, and measure how far
    they are from lying on a plane through the origin — before and after
    the normalized linear self-map.

    Returns the largest third singular value of the centered point matrix
    over all circles, for the original points and for their images; 0.0
    on a circle (ambient R^2), where every curve lies in one plane.
    """
    triple = beltrami_pair(sphere.dim, LinearMap.identity(sphere.dim + 1), sphere)
    field = triple.pair.g
    rng = np.random.default_rng(seed)
    starts = sphere.chart.sample(rng, n_circles, shrink=0.6)
    vels = rng.normal(size=(n_circles, sphere.dim))
    g0 = field.eval(starts)
    norms = np.sqrt(np.einsum("bi,bij,bj->b", vels, g0, vels))
    vels = vels / norms[:, None]
    trajectories = integrate_geodesics(field, starts, vels, duration, tol)

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
