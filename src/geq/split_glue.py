"""Splitting a compatible metric pair into block factors and gluing factor
pairs into product pairs.

The splitting reweights the eigenframe of the compatibility tensor, in which
both of its recombination tensors are diagonal, into a pair of metrics that,
in coordinates adapted to the two eigenvalue blocks, are block-diagonal with
blocks that each depend only on their own coordinates; the gluing is there the
exact inverse construction, and ``oplus`` is its associative fold.
Both fields of a split or glued pair share one evaluation of their
intermediates per point batch, and each field's matrix is assembled only when
that field is read.  A glued pair takes every term of both fields from one
pass per factor, with no ``L`` formed, no LAPACK call and no adjugate: a
factor whose triple carries a closed form of its ``L`` (a sphere factor) is
read through it, any other by one Cholesky congruence of its metrics on the
batch kernel.  Its fields carry a ``jet`` built from each factor's own
finite-difference stencil.
"""
from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from ._batch import transposed
from ._validate import expect_instance, expect_int, fail
from .charts import Chart, MetricField, _central_differences
from .errors import EigenOrderViolated, GapViolated, NotPositive
from .projective import MetricPair, _char_scale, _eigen, _kernel_congruence, _l_scale

Array = np.ndarray


@dataclasses.dataclass(frozen=True)
class SplitResult:
    """Block factorization of a pair: block size, the two block-diagonal
    metrics, the coordinate-index partition, and each block's eigenvalue
    range over the gap scan's grid, read from the pair's one scan, which
    every cut of the pair shares.  A range is a sample, not a bound: the
    minimum and maximum over the scan's points (``MetricPair._eigen_ranges``)."""

    r: int
    h: MetricField
    hbar: MetricField
    index_split: tuple[tuple[int, ...], tuple[int, ...]]
    factor_ranges: tuple[tuple[float, float], tuple[float, float]]


@dataclasses.dataclass(frozen=True)
class EquivTriple:
    """A compatible pair together with the sampled range of its
    compatibility-tensor eigenvalues: the minimum and maximum over the points
    of a scan (:func:`make_triple`), not a bound, so :func:`glue_pair` orders
    samples.

    ``closed_l``, if given, is a closed form of the pair's ``L`` for the glue
    (the Beltrami factors of :mod:`geq.constructions` carry one): an object with
    the fields ``g`` and ``gbar`` it was built for and a method ``read(ys)`` that
    gives what :func:`_factor_pass` gives at the points ``ys``.  A closed form
    built for other fields than the pair's, such as ``dataclasses.replace(triple,
    pair=...)`` would carry over, is dropped, so it is never read for another
    pair."""

    pair: MetricPair
    eigen_range: tuple[float, float]
    closed_l: Any = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.eigen_range[0] <= 0.0:
            raise NotPositive("eigenvalue range must be positive")
        form = self.closed_l
        if form is not None and not (form.g is self.pair.g and form.gbar is self.pair.gbar):
            object.__setattr__(self, "closed_l", None)


def make_triple(pair: MetricPair) -> EquivTriple:
    """Wrap a pair with its eigenvalue range, read from the pair's one gap scan
    (``MetricPair._eigen_ranges``): the minimum and maximum of ``L``'s eigenvalues
    over a grid of up to 16 points per axis and the chart centre, at most 20,001
    points.  The range is a sample, not a bound: an extreme between grid points
    is missed."""
    ranges = expect_instance(pair, MetricPair, "pair")._eigen_ranges
    return EquivTriple(pair=pair, eigen_range=(ranges[0][0], ranges[-1][1]))


def _split(pair: MetricPair, xs: Array, r: int) -> tuple[Array, ...]:
    """The eigenframe of the splitting after position ``r`` at a batch of points:
    ``K^-T`` and the eigenpairs ``(nu, Y)`` of ``B = K^-1 g K^-T`` (``gb = K K^T``,
    :func:`~geq.projective._kernel_congruence`), ``Z^T = Y^T K^-1 g / nu``, which is
    ``P^-1`` for the eigenvectors ``P = K^-T Y`` of ``L``, and the weights ``(..., 2,
    n)`` of the two tensors of :func:`split_tensors` on them: ``d_i = prod |mu_j -
    mu_i|`` over the other block's eigenvalues ``mu_j`` of ``L``, and ``prod |mu_j -
    mu_i| / mu_j``.  A point where the eigenvalues on the two sides of the cut meet,
    so that a weight vanishes, raises :class:`GapViolated` naming it."""
    xs = np.asarray(xs, dtype=float)
    k_inv_t, kg, b = _kernel_congruence(pair.g.eval(xs), pair.gbar.eval(xs))
    nu, y = _eigen(np.linalg.eigh, b)
    mu = _l_scale(nu)
    crossed = mu[..., r - 1] >= mu[..., r]
    if np.any(crossed):
        raise GapViolated(f"eigenvalues {r} and {r + 1} of L meet across the cut at "
                          f"{xs[crossed][0].tolist()}")
    low = np.arange(mu.shape[-1]) < r
    other = low[:, None] != low  # (i, j): mu_j lies in the other block than mu_i
    gaps = np.abs(mu[..., None, :] - mu[..., :, None])
    weights = np.stack([np.prod(np.where(other, t, 1.0), axis=-1)
                        for t in (gaps, gaps / mu[..., None, :])], axis=-2)
    zt = (transposed(y) @ kg) / nu[..., :, None]
    return k_inv_t, y, zt, nu, weights


def split_tensors(pair: MetricPair, xs: Array, r: int) -> tuple[Array, Array]:
    """The block-recombination tensors of the splitting at a batch of
    points: the first converts the base metric into the block form, the
    second its companion (carrying the inverse block determinants).  Both are
    diagonal in the eigenframe of ``L``: ``P diag(w) P^-1`` for each tensor's
    weights ``w`` (:func:`_split`).  Its arguments are checked as
    :func:`split_pair` checks them, and ``xs`` must lie in the chart box."""
    n = expect_instance(pair, MetricPair, "pair").dim
    k_inv_t, y, zt, _, weights = _split(pair, pair.chart.points(xs, "xs"),
                                        expect_int(r, "r", 1, n - 1))
    return tuple(k_inv_t @ (y * weights[..., which, None, :]) @ zt for which in (0, 1))


def _twin_fields(chart: Chart, shared, assemble,
                 jet=None) -> tuple[MetricField, MetricField]:
    """Two metric fields fed by one evaluation ``shared(xs)`` of the
    intermediates both need; ``assemble(which, state)`` builds the matrix of
    field ``which`` (0 the base, 1 the companion) from them, and ``jet(which, xs)``,
    if given, is that field's ``jet``, which keeps nothing.

    A read assembles only its own field's matrix, so reading only the base
    metric (as the integrator does) never builds a companion.  A base read
    keeps the intermediates in a single slot keyed by a copy of the points,
    which the companion's next read at identical points pops; any other read
    empties the slot, so a companion read leaves nothing held.  Every caller
    that reads both fields reads the base first."""
    slot: dict = {}

    def read(which: int, xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        key = (xs.shape, xs.tobytes())
        state = slot.pop(key, None) if which == 1 else None
        slot.clear()
        if state is None:
            state = shared(xs)
            if which == 0:
                slot[key] = state
        return assemble(which, state)

    def field(which: int) -> MetricField:
        return MetricField(chart=chart, eval=lambda xs: read(which, xs),
                           jet=None if jet is None else lambda xs: jet(which, xs))

    return field(0), field(1)


def split_pair(pair: MetricPair, r: int) -> SplitResult:
    """Split a pair into block-diagonal factor metrics along the sampled
    eigenvalue gap after position ``r``.

    Raises :class:`GapViolated` when the eigenvalue ranges on the two sides
    of the cut overlap on the scan's grid, which holds the chart centre
    (where the closed-form bifurcation families make their eigenvalues
    meet).  The ranges are samples over the scan's points (:func:`make_triple`),
    not bounds.  The scan also gives each block's range:
    by the splitting lemma a block's eigenvalues depend only on its own
    coordinates.  The scan is made once per pair, on its first cut, and
    every later cut of the same pair reads it (``MetricPair._eigen_ranges``).

    A field's matrix is ``h = conv^-T m`` for ``m`` the pair's metric and ``conv``
    its tensor from :func:`split_tensors`, read off the eigenframe of ``L`` that
    :func:`_split` gives: with ``Z^T = P^-1``, ``g = Z diag(nu) Z^T`` and ``gb = Z
    Z^T``, and both tensors are diagonal in that frame, so ``h = Z diag(nu / d) Z^T``
    and ``hbar = Z diag(1 / dbar) Z^T`` for the weights ``d`` and ``dbar`` of the two
    tensors.  Each is the Gram product ``Q Q^T`` with ``Q = Z sqrt(w)`` of its
    weights ``w``: a read of both fields makes one batch-kernel call and one
    ``eigh``, no LAPACK solve or Cholesky, and ``h`` is symmetric by construction,
    and positive definite since every weight is positive where the blocks'
    eigenvalues stay apart, which every read checks.  The fields are
    block-diagonal only in coordinates adapted to the splitting, as those of a
    separable pair or of a product are; elsewhere their off-block entries do not
    vanish, and :func:`split_factors` keeps only the blocks.
    """
    n = expect_instance(pair, MetricPair, "pair").dim
    r = expect_int(r, "r", 1, n - 1)
    ranges = pair._eigen_ranges
    low = (ranges[0][0], ranges[r - 1][1])
    high = (ranges[r][0], ranges[-1][1])
    if low[1] >= high[0]:
        raise GapViolated(
            f"eigenvalue ranges overlap across the cut: sup {low[1]} >= inf {high[0]}")

    def assemble(which: int, state: tuple) -> Array:
        _, _, zt, nu, weights = state
        q = zt * np.sqrt((nu if which == 0 else 1.0) / weights[..., which, :])[..., None]
        return transposed(q) @ q

    h, hbar = _twin_fields(pair.chart, lambda xs: _split(pair, xs, r), assemble)
    return SplitResult(r=r, h=h, hbar=hbar,
                       index_split=(tuple(range(r)), tuple(range(r, n))),
                       factor_ranges=(low, high))


def _leaf_field(field: MetricField, indices: tuple[int, ...], frozen: Array) -> MetricField:
    """Restrict a block-diagonal field to a coordinate leaf: the remaining
    coordinates are frozen and only the block of the given indices
    survives."""
    idx = np.asarray(indices)
    sub_chart = Chart(len(indices), tuple(field.chart.box[i] for i in indices))
    frozen = np.asarray(frozen, dtype=float)

    def eval_fn(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        full = np.broadcast_to(frozen, xs.shape[:-1] + frozen.shape).copy()
        full[..., idx] = xs
        mats = field.eval(full)
        return mats[..., idx[:, None], idx[None, :]]

    return MetricField(chart=sub_chart, eval=eval_fn)


def split_factors(split: SplitResult) -> tuple[EquivTriple, EquivTriple]:
    """The two factor triples of a splitting, each living on its own
    coordinate leaf through the chart center, with the split's
    ``factor_ranges`` as their eigenvalue ranges."""
    center = split.h.chart.center
    triples = []
    for indices, eig_range in zip(split.index_split, split.factor_ranges):
        factor = MetricPair(g=_leaf_field(split.h, indices, center),
                            gbar=_leaf_field(split.hbar, indices, center))
        triples.append(EquivTriple(pair=factor, eigen_range=eig_range))
    return triples[0], triples[1]


def _block_diagonal(a: Array, b: Array) -> Array:
    r = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (r + b.shape[-1],) * 2)
    out[..., :r, :r], out[..., r:, r:] = a, b
    return out


def _gl_powers(p: Array, step: Callable, scale) -> Callable[[int], list[Array]]:
    """The terms ``g L^j = scale sym(p^T p_j)``, ``j = 1 .. count``, with ``p_1 = p`` and
    ``p_(j+1) = step(p_j)``, as a function of their count; the first is a Gram
    product, exactly symmetric, and the others are symmetrized."""
    def powers(count: int) -> list[Array]:
        p_t, q, out = transposed(p), p, []
        for j in range(1, count + 1):
            if j > 1:
                q = step(q)
            t = p_t @ q
            if j > 1:
                t = 0.5 * (t + np.swapaxes(t, -1, -2))
            out.append(scale * t)
        return out
    return powers


def _factor_pass(pair: MetricPair, xs: Array) -> tuple:
    """Everything both glued fields need of a factor at ``xs`` (:func:`_field_terms`),
    by congruence, with no ``L`` formed: its base metric, a function giving its
    companion, ``ratio`` and the coefficients of ``det(L - t I)``
    (:func:`~geq.projective._char_scale`), and the terms ``g L^j = ratio W^T (ratio
    B)^(j-1) W`` (:func:`_gl_powers`), from ``W = K^-1 g`` and ``B = W K^-T`` of the
    congruence ``gb = K K^T`` (:func:`~geq.projective._kernel_congruence`)."""
    g, gb = pair.g.eval(xs), pair.gbar.eval(xs)
    w, b = _kernel_congruence(g, gb)[1:]
    ratio, c = _char_scale(b)
    r = ratio[..., None, None]
    return g, lambda: gb, ratio, c, _gl_powers(w, lambda p: (r * b) @ p, r)


def _field_terms(which: int, state: tuple, powers: int, negate: bool) -> tuple[Array, Array]:
    """What a factor gives field ``which`` (0 the base, 1 the companion) of a glued
    pair, from its :func:`_factor_pass` or closed form (:func:`_factor_source`): the
    coefficients ``(..., k + 1)`` of ``det(L - t I)`` that weight the other factor's
    block, over their constant one for the companion and negated if asked, and the
    terms ``(..., powers + 1, k, k)`` of its own block, ``g L^j`` or ``gb L^j`` for
    ``j = 0 .. powers``, where ``gb L^j = ratio g L^(j-1)``."""
    g, companion, ratio, c, gl_powers = state
    coeffs = c / c[..., :1] if which else c
    if negate:
        coeffs = -coeffs
    g_l = [g, *gl_powers(powers - which)]
    if which:
        r = ratio[..., None, None]
        g_l = [companion()] + [r * t for t in g_l]
    return coeffs, np.stack(g_l, axis=-3)


def _factor_source(triple: EquivTriple):
    """The function that gives :func:`_field_terms` a factor's state at its points:
    the triple's closed form of ``L`` if it carries one, else :func:`_factor_pass`."""
    if triple.closed_l is not None:
        return triple.closed_l.read
    pair = triple.pair
    return lambda ys: _factor_pass(pair, ys)


def _combine(coeffs: Array, terms: Array) -> Array:
    """``sum_j coeffs[..., j] terms[..., j, :, :]``, broadcast, one entry at a time
    (the same bits at every layout of the operands)."""
    out = coeffs[..., 0, None, None] * terms[..., 0, :, :]
    for j in range(1, terms.shape[-3]):
        out += coeffs[..., j, None, None] * terms[..., j, :, :]
    return out


def glue_pair(factor1: EquivTriple, factor2: EquivTriple) -> EquivTriple:
    """Glue two factor triples into a compatible pair on the product chart.

    Requires the eigenvalue range of the first factor to lie strictly
    below that of the second (:class:`EigenOrderViolated` otherwise); the
    eigenvalues of the result are the union of the factors'.  The ranges are
    the triples' samples (:class:`EquivTriple`), not bounds, so the test
    compares samples; :func:`~geq.constructions.spheres_product` is the one
    builder that also checks closed-form bounds.

    Each block of a glued field is linear in quantities of one factor, weighted
    by coefficients of the other (:func:`_field_terms`): with ``c_f`` those of
    ``det(L_f - t I)`` and ``r`` the first factor's dimension, the base blocks are
    ``sum_j c_2j(x_2) g_1 L_1^j(x_1)`` and ``(-1)^r sum_j c_1j(x_1) g_2 L_2^j(x_2)``,
    and the companion's the same with ``gb_f L_f^j`` and ``c_f / c_f0``.  A read
    makes one pass per factor on its own coordinates, and assembles only the
    field that is read (:func:`_twin_fields`).  Each factor's source of that pass
    is picked here, once (:func:`_factor_source`): the closed form of ``L`` its
    triple carries (:attr:`EquivTriple.closed_l`, which a sphere factor of
    :mod:`geq.constructions` has), or else one congruence (:func:`_factor_pass`).
    Both fields carry a ``jet``: each factor's coefficients and terms
    (:func:`_field_terms`) are differenced as they are on the factor's own
    ``2k + 1``-point stencil, whose steps are the product chart's on those axes,
    and the blocks' partials follow by the product rule; the jet's value reads
    the same source with the same code as ``eval``, so the same bits.  A factor
    read by congruence whose base metric is not positive definite makes every read
    raise :class:`~geq.errors.NotPositiveDefinite` (:func:`~geq.projective._char_scale`).
    """
    lo1, hi1 = expect_instance(factor1, EquivTriple, "factor1").eigen_range
    lo2, hi2 = expect_instance(factor2, EquivTriple, "factor2").eigen_range
    if hi1 >= lo2:
        raise EigenOrderViolated(
            f"factor ranges must be strictly ordered: [{lo1}, {hi1}] vs [{lo2}, {hi2}]")
    p1, p2 = factor1.pair, factor2.pair
    r = p1.dim
    n = r + p2.dim
    chart = Chart(n, p1.chart.box + p2.chart.box)
    # Per factor: its pair, what gives its state, its coordinates, the highest
    # power of its L (the other factor's dimension), and whether its
    # coefficients carry (-1)^r.
    factors = ((p1, _factor_source(factor1), slice(0, r), n - r, r % 2 == 1),
               (p2, _factor_source(factor2), slice(r, n), r, False))

    def shared(xs: Array) -> list:
        return [source(xs[..., axes]) for _, source, axes, _, _ in factors]

    def assemble(which: int, states: list) -> Array:
        (c1, t1), (c2, t2) = (_field_terms(which, state, powers, negate)
                              for state, (_, _, _, powers, negate) in zip(states, factors))
        return _block_diagonal(_combine(c2, t1), _combine(c1, t2))

    def jet(which: int, xs: Array) -> tuple[Array, Array]:
        xs = np.asarray(xs, dtype=float)
        values, diffs = zip(*(
            _central_differences(lambda ys: _field_terms(which, source(ys), powers, negate),
                                 xs[..., axes], p.chart)
            for p, source, axes, powers, negate in factors))
        (c1, t1), (c2, t2) = values
        (dc1, dt1), (dc2, dt2) = diffs  # differentiation axis leading
        d = np.concatenate([_block_diagonal(_combine(c2, dt1), _combine(dc1, t2)),  # along x_1
                            _block_diagonal(_combine(dc2, t1), _combine(c1, dt2))])  # along x_2
        return _block_diagonal(_combine(c2, t1), _combine(c1, t2)), np.moveaxis(d, 0, -3)

    g, gbar = _twin_fields(chart, shared, assemble, jet)
    return EquivTriple(pair=MetricPair(g=g, gbar=gbar), eigen_range=(lo1, hi2))


def oplus(triples: list[EquivTriple]) -> EquivTriple:
    """Left fold of :func:`glue_pair` over an ordered factor list."""
    if not triples:
        fail("triples", "expected at least one factor")
    out = triples[0]
    for i, nxt in enumerate(triples[1:], start=1):
        try:
            out = glue_pair(out, nxt)
        except EigenOrderViolated as exc:
            raise EigenOrderViolated(
                f"factors {i - 1} and {i} violate the range ordering: {exc}") from exc
    return out
