"""Tests for the small-matrix batch kernels: agreement with LAPACK on both
sides of the size threshold and across a chunk boundary, the errors of a
failed pivot, the Cholesky-pivot positivity certificate, and the chart boxes
it certifies."""
import ast
from pathlib import Path

import numpy as np
import pytest

import geq
from geq import STANDARD_FAMILIES, normal_forms, standard_pair
from geq._batch import CHUNK, cholesky_inverse, positive_definite, transposed
from geq.errors import NotPositiveDefinite
from geq.normal_forms import model_form_pair
from geq.projective import BATCH_KERNEL_MIN, _congruence, _l_frame, _l_values
from geq.verify import standard_form_spec

SIZES = [BATCH_KERNEL_MIN - 1, BATCH_KERNEL_MIN, BATCH_KERNEL_MIN + 1, CHUNK + 3]


def spd_batch(m, n, seed=0):
    x = np.random.default_rng(seed).normal(size=(m, n, n))
    return x @ np.swapaxes(x, -1, -2) + n * np.eye(n)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", SIZES)
def test_congruence_agrees_with_lapack(n, m):
    gb = spd_batch(m, n)
    g = spd_batch(m, n, seed=1)
    ref = np.swapaxes(np.linalg.inv(np.linalg.cholesky(gb)), -1, -2)  # K^-T
    k_inv_t, kg, b = _congruence(g, gb)
    assert np.max(np.abs(k_inv_t - ref)) <= 1e-15 * np.max(np.abs(ref))
    ref_kg = np.swapaxes(ref, -1, -2) @ g
    assert np.max(np.abs(kg - ref_kg)) <= 1e-14 * np.max(np.abs(ref_kg))
    ref_b = ref_kg @ ref
    assert np.max(np.abs(b - ref_b)) <= 1e-14 * np.max(np.abs(ref_b))
    if m < BATCH_KERNEL_MIN:  # below the threshold, LAPACK's own bits
        assert np.array_equal(k_inv_t, ref)
    else:  # LAPACK's general solve leaves rounding below the diagonal of K^-T
        assert np.all(np.tril(k_inv_t, -1) == 0.0)
    assert k_inv_t.flags.c_contiguous  # a right operand numpy multiplies fast


@pytest.mark.parametrize("n", [2, 3, 5])
def test_the_kernel_keeps_the_batch_shape_and_its_input(n):
    gb = spd_batch(6, n).reshape(2, 3, n, n)
    before = gb.copy()
    k_inv_t = cholesky_inverse(gb)
    assert k_inv_t.shape == gb.shape and np.array_equal(gb, before)
    assert np.allclose(np.swapaxes(k_inv_t, -1, -2) @ gb @ k_inv_t, np.eye(n), atol=1e-14)
    # A single matrix: its coordinate-leading view is contiguous already, and
    # the kernel must still work on a copy.
    one = gb[:1, :1].copy()
    cholesky_inverse(one)
    assert np.array_equal(one, before[:1, :1])


@pytest.mark.parametrize("n", range(1, 6))
def test_a_batch_of_one_chunk_has_the_bits_of_a_chunked_one(n):
    a = spd_batch(CHUNK + 3, n).reshape(CHUNK + 3, 1, n, n)
    whole = cholesky_inverse(a)  # two working copies
    parts = [cholesky_inverse(a[:CHUNK]), cholesky_inverse(a[CHUNK:])]  # one each
    assert np.array_equal(np.concatenate(parts), whole)
    assert all(part.flags.c_contiguous and part.shape == (len(part), 1, n, n)
               for part in parts)


def spoiled(m, n, kind):
    """A well-conditioned batch whose last matrix is made bad."""
    a = spd_batch(m, n)
    bad = {"indefinite": -a[-1], "singular": np.ones((n, n)),
           "nan": np.where(np.eye(n) == 1, np.nan, a[-1])}
    if kind in bad:
        a[-1] = bad[kind]
    else:
        a[-1, n - 1, 0] = a[-1, 0, n - 1] = float(kind)
    return a


KINDS = ["indefinite", "singular", "nan", "inf", "-inf"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1, BATCH_KERNEL_MIN - 1, BATCH_KERNEL_MIN, CHUNK + 3])
@pytest.mark.parametrize("eigen", [_l_values, _l_frame], ids=["values", "frame"])
def test_a_bad_companion_raises_on_both_sides_of_the_threshold(kind, m, eigen):
    gb = spoiled(m, 3, kind)
    with pytest.raises(NotPositiveDefinite):
        eigen(spd_batch(m, 3, seed=1), gb)


@pytest.mark.parametrize("kind", ["indefinite", "nan", "inf", "-inf"])
@pytest.mark.parametrize("m", [1, BATCH_KERNEL_MIN, CHUNK + 3])
def test_a_bad_base_metric_raises_on_both_sides_of_the_threshold(kind, m):
    # A non-finite entry is refused before any arithmetic, so no numpy warning
    # is raised.  A singular base metric has its own test, below.
    with pytest.raises(NotPositiveDefinite):
        _l_values(spoiled(m, 3, kind), spd_batch(m, 3, seed=1))


@pytest.mark.parametrize("m", [1, BATCH_KERNEL_MIN - 1, BATCH_KERNEL_MIN, BATCH_KERNEL_MIN + 1])
@pytest.mark.parametrize("eigen", [_l_values, _l_frame], ids=["values", "frame"])
def test_a_singular_base_metric_raises_on_both_eigen_routes(m, eigen):
    # The least eigenvalue of a rank-1 base metric rounds to either sign, and
    # the two routes' solvers round it differently; DEFINITE_FLOOR refuses it
    # whichever way it falls.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = spd_batch(m, 3, seed=2 * seed)
        u = rng.normal(size=3)
        g[rng.integers(m)] = np.outer(u, u)
        with pytest.raises(NotPositiveDefinite, match="^base metric is not positive definite$"):
            eigen(g, spd_batch(m, 3, seed=2 * seed + 1))


@pytest.mark.parametrize("m", SIZES)
def test_a_failed_pivot_names_the_companion(m):
    gb = spoiled(m, 2, "indefinite")
    with pytest.raises(NotPositiveDefinite, match="^companion metric is not positive"):
        _congruence(spd_batch(m, 2), gb)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_certificate_agrees_with_the_least_eigenvalue(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = int(rng.integers(1, 2 * CHUNK))
        x = rng.normal(size=(m, n, n))
        a = x @ np.swapaxes(x, -1, -2) + rng.uniform(-0.05, 0.5) * np.eye(n)
        assert positive_definite(a) == bool(np.linalg.eigvalsh(a).min() > 0.0)
    a = spd_batch(CHUNK + 3, n)
    assert positive_definite(a)
    a[-1] = -a[-1]  # only the second chunk holds the indefinite matrix
    assert not positive_definite(a)
    a[-1, 0, 0] = np.nan
    assert not positive_definite(a)


BOXES = {
    "lc_nd": ((-0.5, 0.5),) * 3,
    "two_d_elliptic": ((-0.5, 0.5),) * 2,
    "two_d_polar_plus": ((-0.5, 0.5),) * 2,
    "two_d_polar_minus": ((-0.5, 0.5),) * 2,
    "three_d_axial": ((-0.5, 0.5),) * 3,
    "three_d_full": ((-0.5, 0.5),) * 3,
    "beltrami_2": ((-0.75, 0.75),) * 2,
    "beltrami_3": ((-0.75, 0.75),) * 3,
    "product_s1_s2": ((-0.75, 0.75),) * 3,
    "product_s2_s2": ((-0.75, 0.75),) * 4,
    "control_conformal": ((-0.5, 0.5),) * 2,
    "control_torsion": ((1.0, 2.0),) * 2,
}


def test_boxes_cover_the_registry():
    assert sorted(BOXES) == sorted(STANDARD_FAMILIES)


@pytest.mark.parametrize("name", sorted(BOXES))
def test_every_family_keeps_its_chart_box(name):
    assert standard_pair(name).chart.box == BOXES[name]


@pytest.mark.parametrize("name, start, half", [
    ("two_d_elliptic", 4.0, 1.0), ("three_d_full", 4.0, 1.0),  # positivity halves
    ("two_d_polar_minus", 4.0, 0.5), ("three_d_axial", 8.0, 4.0),  # family conditions
])
def test_a_wide_start_halves_to_the_same_box(name, start, half, monkeypatch):
    monkeypatch.setattr(normal_forms, "START_HALF_WIDTH", start)
    pair = model_form_pair(*standard_form_spec(name))
    assert pair.chart.box == ((-half, half),) * pair.dim


def test_the_package_has_one_triangular_inverse_path():
    """No module calls a general matrix inverse: the inverse Cholesky factor
    comes from the batch kernel (:func:`geq._batch.cholesky_inverse`), which the
    split (:func:`geq.split_glue._split`) and the glue's factor pass call at every
    size and :func:`geq.projective._congruence` from ``BATCH_KERNEL_MIN`` matrices on,
    or, below that size, from a triangular solve of LAPACK's Cholesky factor."""
    offenders = []
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "inv":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def is_swapaxes(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "swapaxes"
                 or node.func.attr == "copy" and is_swapaxes(node.func.value)))


def test_no_product_takes_a_transposed_view_as_an_operand():
    """numpy multiplies a stack of small matrices several times more slowly
    when either operand is a transposed view: every ``@`` in the package
    takes a contiguous right operand, which is why the batch kernel returns
    ``K^-T`` rather than ``K^-1``, and a transposed left operand is copied
    first by ``geq._batch.transposed``, the one place that does so."""
    offenders = []
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                offenders += [f"{path.name}:{node.lineno}" for operand in (node.left, node.right)
                              if is_swapaxes(operand)]
    assert offenders == [], "take a transposed operand of @ through geq._batch.transposed"


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", [1, 250, CHUNK + 3])
def test_a_copied_transposed_operand_keeps_the_products_bits(n, m):
    rng = np.random.default_rng(10 * n + m)
    a, b = rng.normal(size=(2, m, n, n))
    view = np.swapaxes(a, -1, -2)
    assert transposed(a).flags.c_contiguous
    assert np.array_equal(transposed(a) @ b, view @ b)
    gram = transposed(a) @ a
    assert np.array_equal(gram, np.swapaxes(gram, -1, -2))
    # The sphere companion's Gram product of a (k+1) x k differential, which it
    # returns without symmetrizing.
    d = rng.normal(size=(m, n + 1, n))
    gram = transposed(d) @ d
    assert np.array_equal(gram, np.swapaxes(gram, -1, -2))


def test_the_glue_path_calls_no_lapack_routine():
    """Neither a glued field (``eval`` or ``jet``) nor the Beltrami companion,
    nor any package function they call, reaches ``np.linalg``: the glue path
    stays on the batch kernel, off per-matrix LAPACK, and a sphere factor's closed
    form of ``L`` (its ``read``) takes its eigenframe from when it is built."""
    defs = {}
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((path.name, node))
    todo = [entry for name, module in [("glue_pair", "split_glue.py"),
                                       ("gbar_eval", "constructions.py")]
            for entry in defs[name] if entry[0] == module]
    seen, offenders = set(), []
    while todo:
        module, function = todo.pop()
        if (module, function.lineno) in seen:
            continue
        seen.add((module, function.lineno))
        arguments = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and node.attr == "linalg":
                offenders.append(f"{module}:{node.lineno} ({function.name})")
            # Functions it names (called or passed on) and methods it calls; a
            # parameter, such as a callback, is bound by the caller.
            if isinstance(node, ast.Name) and node.id not in arguments:
                todo += defs.get(node.id, [])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                todo += defs.get(node.func.attr, [])
    reached = {name for name, entries in defs.items() for module, function in entries
               if (module, function.lineno) in seen}
    assert {"_factor_pass", "_field_terms", "_congruent", "_char_scale", "_central_differences",
            "cholesky_inverse", "_unreflected", "_gl_powers", "_gram_companion", "read"} <= reached
    assert offenders == []
