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

from ._batch import transposed
from ._validate import (as_floats, expect_finite, expect_instance, expect_int, expect_number,
                        fail)
from .charts import Chart, MetricField
from .errors import DegenerateMap, EigenOrderViolated, NotPositive, NotPositiveDefinite
from .projective import MetricPair
from .split_glue import EquivTriple, _gl_powers, make_triple, oplus

Array = np.ndarray

MIN_POLE_DISTANCE = 0.1
RELATIVE_GAP = 0.1


@dataclasses.dataclass(frozen=True)
class LinearMap:
    """A non-degenerate linear transformation of the ambient space."""

    matrix: Array

    def __post_init__(self) -> None:
        m = expect_finite(self.matrix, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            fail("matrix", "expected a non-empty square matrix")
        # x -> Ax/|Ax| does not see the scale of A: judge its conditioning.
        sigma = np.linalg.svd(m, compute_uv=False)
        if sigma[-1] <= 1e-12 * sigma[0]:
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


def _gram_companion(ar: Array, ar_t: Array, e0: Array, j0: Array) -> Array:
    """The pull-back of the round metric by ``x -> A x / |A x|`` from the unreflected
    embedding ``e0`` and its Jacobian ``j0`` (:meth:`SphereChart._unreflected`), with
    ``ar = A R`` and its transpose ``ar_t``, contiguous: the Gram matrix of ``D = (I -
    u u^T) AR J0 / |w|``, the differential of the map at ``x = R e0``, with ``w = AR e0``
    and ``u = w / |w|``."""
    w = e0 @ ar_t
    norm = np.sqrt(np.sum(w * w, axis=-1))[..., None]
    u = w / norm
    m = ar @ j0
    dmap = (m - u[..., :, None] * (u[..., None, :] @ m)) / norm[..., None]
    return transposed(dmap) @ dmap  # a Gram product of a copied transpose: symmetric bit for bit


@dataclasses.dataclass(frozen=True, eq=False)
class _SphereL:
    """``L`` of :func:`beltrami_pair` in closed form, its base metric ``g`` times ``c``
    (:func:`scale_triple`), for the glue (:attr:`~geq.split_glue.EquivTriple.closed_l`).

    With ``M = A^T A``, ``s = det(M)^(1/(k+1))`` and ``T = c^(1/(k+1)) s M^-1 = sum_i
    tau_i q_i q_i^T``, ``L`` at the unit point ``x = R e0(y)`` is ``T`` compressed to
    ``x^perp``: ``J L = (I - x x^T) T J`` for the embedding's Jacobian ``J = R J0(y)``.
    So ``g L^j = c J^T X_j`` with ``X_1 = T J`` and ``X_(j+1) = T (X_j - x (x^T X_j))``,
    ``det(L - t I) = sum_i (q_i . x)^2 prod_(m != i) (tau_m - t)`` (the frame-weight form
    of ``I_t``, :func:`~geq.projective._integrals`, for the constant ``T``), and
    ``ratio = c^(-k/(k+1)) s / x^T M x``, so that ``gb L^j = ratio g L^(j-1)``.  In the
    eigenframe of ``T``, with ``y = sqrt(tau) Q^T J`` and ``zeta = sqrt(tau) Q^T x``,
    ``g L^j = c y^T S^(j-1) y`` for the symmetric ``S = diag(tau) - zeta zeta^T``: the
    form of the congruence route (:func:`~geq.split_glue._factor_pass`), whose ``S`` is
    ``ratio B``.  The frame is taken in the unreflected chart, where ``M`` is ``(AR)^T
    AR``."""

    g: MetricField
    gbar: MetricField
    sphere: SphereChart
    ar: Array
    ar_t: Array
    c: float = 1.0

    def __post_init__(self) -> None:
        k = self.sphere.dim
        m, q = np.linalg.eigh(self.ar_t @ self.ar)
        s = np.prod(m) ** (1.0 / (k + 1))
        tau = self.c ** (1.0 / (k + 1)) * s / m
        rows = np.array([(-1) ** k * np.poly(np.delete(tau, i))[::-1] for i in range(k + 1)])
        root = np.sqrt(tau)
        # M's eigenvalues and frame, tau as a column, sqrt(tau), sqrt(tau) Q^T, the
        # rows prod_(m != i) (tau_m - t), and the numerator of ratio.
        object.__setattr__(self, "_frame", (
            m, q, tau[:, None], root, root[:, None] * transposed(q), rows,
            self.c ** (-k / (k + 1)) * s))

    def read(self, ys: Array) -> tuple:
        """The state of :func:`~geq.split_glue._factor_pass` at the points ``ys``, with
        no companion read unless its function is called; a non-finite point raises
        :class:`NotPositiveDefinite`, as a non-finite metric does there."""
        if not np.isfinite(ys).all():
            raise NotPositiveDefinite("a metric has non-finite entries")
        m, q, tau, root, root_qt, rows, scale = self._frame
        g = self.g.eval(ys)
        e0, j0 = self.sphere._unreflected(ys)
        z = e0 @ q
        zz = z * z
        zeta = root * z

        def step(p: Array) -> Array:
            return tau * p - zeta[..., :, None] * (zeta[..., None, :] @ p)

        return (g, lambda: _gram_companion(self.ar, self.ar_t, e0, j0), scale / (zz @ m),
                zz @ rows, _gl_powers(root_qt @ j0, step, self.c))


def _round_metric(sphere: SphereChart) -> MetricField:
    """The round metric ``4 / (1 + |y|^2)^2 I`` of the unit sphere in the chart of
    ``sphere``, with a closed-form ``diagonal_jet``: the base metric of
    :func:`beltrami_pair`, and the metric whose geodesics
    :func:`~geq.verify.circle_planarity` integrates."""
    dim = sphere.dim

    def parts(ys: Array) -> tuple[Array, Array, Array]:
        ys = np.asarray(ys, dtype=float)
        d = 1.0 + np.sum(ys * ys, axis=-1)
        return ys, d, 4.0 / (d * d)

    def diagonal_jet(ys: Array) -> tuple[Array, Array]:
        # d_k g_ii = -16 y_k / (1 + |y|^2)^3
        ys, d, a = parts(ys)
        return (np.repeat(a[..., None], dim, axis=-1),
                np.repeat((-16.0 * ys / (d ** 3)[..., None])[..., None], dim, axis=-1))

    return MetricField(chart=sphere.chart,
                       eval=lambda ys: parts(ys)[2][..., None, None] * np.eye(dim),
                       diagonal_jet=diagonal_jet)


def beltrami_pair(dim: int, a_map: LinearMap | None = None,
                  sphere: SphereChart | None = None) -> EquivTriple:
    """Round metric on a sphere chart paired with its pull-back under the
    normalized linear self-map of the sphere; the round metric carries a
    closed-form ``diagonal_jet`` (:func:`_round_metric`), and the triple a closed
    form of ``L`` for the glue (:class:`_SphereL`)."""
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

    ar = a_map.matrix @ sphere._reflection
    ar_t = transposed(ar)

    def gbar_eval(ys: Array) -> Array:
        return _gram_companion(ar, ar_t, *sphere._unreflected(ys))

    pair = MetricPair(g=_round_metric(sphere),
                      gbar=MetricField(chart=sphere.chart, eval=gbar_eval))
    return dataclasses.replace(make_triple(pair), closed_l=_SphereL(
        g=pair.g, gbar=pair.gbar, sphere=sphere, ar=ar, ar_t=ar_t))


def scale_triple(triple: EquivTriple, factor: float) -> EquivTriple:
    """Multiply the base metric by a positive constant; the companion is
    unchanged and the eigenvalue range scales by ``factor**(1/(dim+1))``.  A
    closed form of ``L`` that the triple carries is carried over, scaled."""
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

    def scaled_jet(jet):
        return None if jet is None else lambda xs: tuple(factor * a for a in jet(xs))

    scaled = MetricPair(
        g=MetricField(chart=pair.chart, eval=g_eval, jet=scaled_jet(base.jet),
                      diagonal_jet=scaled_jet(base.diagonal_jet)),
        gbar=pair.gbar,
    )
    form = triple.closed_l
    lo, hi = triple.eigen_range
    return EquivTriple(pair=scaled, eigen_range=(lo * eig_scale, hi * eig_scale),
                       closed_l=None if form is None else dataclasses.replace(
                           form, g=scaled.g, c=form.c * factor))


def _chart_eigen_bounds(form: _SphereL) -> tuple[float, float]:
    """Bounds on the eigenvalues of ``L`` of the unscaled :func:`beltrami_pair` whose
    closed form is ``form``, over the chart of its sphere.

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

    The eigenvalues and frame of ``M`` are the factor's own (:class:`_SphereL`), taken
    in the unreflected chart, where ``M`` is ``(AR)^T AR``; so the cap's centre is
    taken there too, and no eigenproblem is solved here.
    """
    m, vecs = form._frame[:2]
    b, s = 1.0 / m, np.prod(m) ** (1.0 / m.size)
    sphere = form.sphere
    chart = sphere.chart
    dist, rho = np.linalg.norm(chart.center), 0.5 * np.linalg.norm(chart.widths)
    axis = chart.center / dist if dist > 0.0 else np.eye(sphere.dim)[0]
    # The ball's points on the line through 0 and its centre sit at angles
    # 2 arctan(t) from the chart centre along one great circle.
    near, far = np.arctan(dist - rho), np.arctan(dist + rho)
    centre = np.append(np.sin(near + far) * axis, -np.cos(near + far))

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
        bounds.append(_chart_eigen_bounds(triples[-1].closed_l))
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
