"""One validation path: every bad argument of the public API raises a named
:class:`GeqError` that is also a ``ValueError`` and names the argument, no
module of the package raises a builtin exception class, none imports a
name it does not use, and every public function has a reader."""
import ast
import functools
import inspect
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import geq
from geq import (LeviCivitaData, LinearMap, ModelFormParams, ScalarFunction1D, beltrami_pair,
                 check_conservation, check_equivalence, check_interlacing, circle_planarity,
                 eigen_range, frame_weights, integral_roots_many, integrate_geodesics, l_tensor,
                 max_eigen_multiplicity, oplus, poisson_bracket_fd, random_levi_civita_data,
                 sphere_chart, split_pair, spheres_product, standard_pair)
from geq.charts import Chart, PhasePoint, christoffel, fd_partials
from geq.errors import GeqError, SchemaError

NAN, INF = float("nan"), float("inf")
INTERVAL = (-0.5, 0.5)
polar = functools.cache(lambda: standard_pair("two_d_polar_plus"))
X, P = [0.1, -0.2], [0.3, 0.4]


def run_cases(prefix, check):
    """Cases shared by the checks that integrate geodesics."""
    bad = {"zero-traj": ("n_traj", {"n_traj": 0}),
           "negative-traj": ("n_traj", {"n_traj": -3}),
           "fractional-traj": ("n_traj", {"n_traj": 2.5}),
           "nan-duration": ("duration", {"duration": NAN}),
           "inf-duration": ("duration", {"duration": INF}),
           "negative-duration": ("duration", {"duration": -1.0}),
           "nan-tol": ("tol", {"tol": NAN})}
    return {f"{prefix}-{case}": (name, lambda pair, kwargs=kwargs: check(
        pair, **{"n_traj": 2, **kwargs})) for case, (name, kwargs) in bad.items()}


CASES = {
    "interlacing-nan-epsilon": ("epsilon", lambda pair: check_interlacing(pair, epsilon=NAN)),
    "interlacing-inf-epsilon": ("epsilon", lambda pair: check_interlacing(pair, epsilon=INF)),
    "interlacing-negative-epsilon": ("epsilon",
                                     lambda pair: check_interlacing(pair, epsilon=-1.0)),
    "interlacing-fractional-vectors": ("n_vectors",
                                       lambda pair: check_interlacing(pair, n_vectors=2.5)),
    "interlacing-nan-points": ("points", lambda pair: check_interlacing(
        pair, points=np.full((2, 3), NAN))),
    "interlacing-zero-points": ("points", lambda pair: check_interlacing(
        pair, points=np.empty((0, 3)))),
    **run_cases("equivalence", check_equivalence),
    **run_cases("conservation", check_conservation),
    "profile-nan-coefficient": ("coeffs[1]",
                                lambda pair: ScalarFunction1D((1.0, NAN), INTERVAL)),
    "lc-data-nan-profile": ("coeffs[0]", lambda pair: LeviCivitaData(
        lambdas=(ScalarFunction1D((NAN,), INTERVAL),), chart=Chart(1, (INTERVAL,)))),
    "random-lc-fractional-dim": ("n", lambda pair: random_levi_civita_data(
        2.5, np.random.default_rng(0))),
    "eigen-range-zero-points": ("xs", lambda pair: eigen_range(pair, np.empty((0, 3)))),
    "multiplicity-zero-points": ("xs", lambda pair: max_eigen_multiplicity(
        pair, np.empty((0, 3)))),
    "planarity-zero-circles": ("n_circles", lambda pair: circle_planarity(
        sphere_chart(2), LinearMap.identity(3), 0, seed=0)),
    "linear-map-nan-entry": ("matrix", lambda pair: LinearMap(np.array([[1.0, NAN],
                                                                        [0.0, 1.0]]))),
    "split-zero-block": ("r", lambda pair: split_pair(pair, 0)),
    "split-whole-block": ("r", lambda pair: split_pair(pair, pair.dim)),
    "oplus-no-factor": ("triples", lambda pair: oplus([])),
    "product-no-factor": ("factors", lambda pair: spheres_product([])),
    # Malformed structure: short or scalar intervals and factors, text and
    # ragged arrays.
    "chart-short-interval": ("box[1]", lambda pair: Chart(2, ((0.0, 1.0), (0.0,)))),
    "chart-scalar-interval": ("box[0]", lambda pair: Chart(1, (1.0,))),
    "product-short-factor": ("factors[0]", lambda pair: spheres_product([(1,)])),
    "l-tensor-text-point": ("x", lambda pair: l_tensor(pair, "abc")),
    "interlacing-text-point": ("points", lambda pair: check_interlacing(
        pair, points=[[0.0, "a", 0.0]])),
    "interlacing-ragged-points": ("points", lambda pair: check_interlacing(
        pair, points=[[0.0, 0.0, 0.0], [0.0]])),
    "linear-map-ragged": ("matrix", lambda pair: LinearMap([[1.0, 0.0], [1.0]])),
    "linear-map-text-diagonal": ("values", lambda pair: LinearMap.diagonal("ab")),
    "integrate-ragged-starts": ("starts_x", lambda pair: integrate_geodesics(
        pair.g, [[0.0, 0.0, 0.0], [0.0]], np.ones((2, 3)), 1.0, 1e-8)),
    "lc-data-overflowing-profile": ("lambdas[0]", lambda pair: LeviCivitaData(
        (ScalarFunction1D((1.0, 1e308), (0.0, 2.0)),), Chart(1, ((0.0, 2.0),)))),
    # Arguments of the wrong type.
    "beltrami-matrix-map": ("a_map", lambda pair: beltrami_pair(2, np.eye(3))),
    "lc-data-tuple-profile": ("lambdas[0]", lambda pair: LeviCivitaData(
        ((1.0,),), Chart(1, ((0.0, 1.0),)))),
    "equivalence-no-pair": ("pair", lambda pair: check_equivalence(None, n_traj=2)),
    "l-tensor-text-pair": ("pair", lambda pair: l_tensor("x", [0, 0])),
    "split-no-pair": ("pair", lambda pair: split_pair(None, 1)),
    "model-form-tuple-profile": ("lam", lambda pair: ModelFormParams(lam=(2.0, 1.0))),
    "oplus-number-factor": ("factor1", lambda pair: oplus([1, 2])),
    # Phase points: a short velocity is not broadcast.
    "phase-point-short-v": ("v", lambda pair: PhasePoint(X, [0.3])),
    "phase-point-nan-v": ("v", lambda pair: PhasePoint(X, [0.3, NAN])),
    "bracket-no-pair": ("pair", lambda pair: poisson_bracket_fd(None, X, P, 0.3, 0.7)),
    "bracket-short-p": ("p", lambda pair: poisson_bracket_fd(polar(), X, [0.3], 0.3, 0.7)),
    "bracket-nan-t1": ("t1", lambda pair: poisson_bracket_fd(polar(), X, P, NAN, 0.7)),
    "bracket-inf-t2": ("t2", lambda pair: poisson_bracket_fd(polar(), X, P, 0.3, INF)),
    # Point batches that are valid alone but do not broadcast together, and
    # points of the wrong dimension.
    "frame-weights-unbroadcast": ("xs", lambda pair: frame_weights(
        pair, np.zeros((3, 3)), np.ones((2, 3)))),
    "roots-many-unbroadcast": ("xs", lambda pair: integral_roots_many(
        pair, np.zeros((3, 3)), np.ones((2, 3)))),
    "fd-partials-short-point": ("x", lambda pair: fd_partials(pair.g, [0.0, 0.0])),
    "christoffel-short-point": ("x", lambda pair: christoffel(pair.g, np.zeros((4, 2)))),
    "fd-partials-no-field": ("field", lambda pair: fd_partials(pair, [0.0, 0.0, 0.0])),
}


@pytest.fixture(scope="module")
def lc_nd():
    return standard_pair("lc_nd")


@pytest.mark.parametrize("name, call", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_a_named_error(lc_nd, name, call):
    begin = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GeqError) as info:
            call(lc_nd)
    assert time.perf_counter() - begin < 5.0
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith(f"{name}: ")


def test_integer_counts_accept_numpy_integers(lc_nd):
    report = check_interlacing(lc_nd, n_points=np.int64(3), n_vectors=np.int32(2))
    assert report.samples == 6 and type(report.samples) is int


def test_unbroadcast_batches_name_both_arguments(lc_nd):
    with pytest.raises(SchemaError, match=r"^xs: shape \(3, 3\) does not broadcast with vs "
                       r"of shape \(2, 3\)$"):
        frame_weights(lc_nd, np.zeros((3, 3)), np.ones((2, 3)))


BUILTIN_ERRORS = {"ValueError", "TypeError", "IndexError", "KeyError", "RuntimeError",
                  "AssertionError"}


def test_the_package_raises_no_builtin_exception():
    offenders = []
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                    offenders.append(f"{path.name}:{node.lineno} {exc.id}")
    assert offenders == []


def test_the_package_imports_nothing_it_does_not_use():
    offenders = []
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):  # a re-export counts as a use
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "__all__"):
                used |= {item.value for item in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_every_public_function_has_a_reader():
    """Each function in ``geq.__all__`` is named by the acceptance suite, the CLI,
    the README or the benchmark.  Classes are exempt: they are the types those
    functions take and return."""
    root = Path(__file__).resolve().parents[1]
    readers = [root / "tests" / "test_acceptance.py", root / "src" / "geq" / "cli.py",
               root / "README.md", *sorted((root / "bench").glob("*.py"))]
    texts = [path.read_text(encoding="utf-8") for path in readers]
    unread = [name for name in geq.__all__ if inspect.isfunction(getattr(geq, name))
              and not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert unread == []
