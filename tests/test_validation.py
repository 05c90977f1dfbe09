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
from geq import (EquivTriple, FormKind, LeviCivitaData, LinearMap, ModelFormParams,
                 ScalarFunction1D, SphereChart, beltrami_pair, check_conservation,
                 check_equivalence, check_interlacing, circle_planarity, eigen_range,
                 frame_weights, glue_pair, integral_roots_many, integrate_geodesics, l_tensor,
                 max_eigen_multiplicity, model_eigenvalues, model_form_pair, oplus,
                 poisson_bracket_fd, random_levi_civita_data, sphere_chart, split_pair,
                 split_tensors, spheres_product, standard_form_spec, standard_pair)
from geq._validate import expect_number, expect_numbers
from geq.charts import Chart, MetricField, PhasePoint, christoffel, fd_partials
from geq.errors import GeqError, NotPositive, NotPositiveDefinite, OutOfChart, SchemaError
from geq.projective import MetricPair
from geq.verify import START_SHRINK

NAN, INF = float("nan"), float("inf")
INTERVAL = (-0.5, 0.5)
polar = functools.cache(lambda: standard_pair("two_d_polar_plus"))
X, P = [0.1, -0.2], [0.3, 0.4]
LAM = ScalarFunction1D((0.6, 0.2), (-1.5, 1.5))
F = ScalarFunction1D((1.0, 1.0 / 3.0), (0.0, 1.0))
PLANE = Chart(2, (INTERVAL, INTERVAL))


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
    "split-tensors-whole-block": ("r", lambda pair: split_tensors(pair, np.zeros(3), 3)),
    "split-tensors-no-pair": ("pair", lambda pair: split_tensors(None, np.zeros(3), 1)),
    "split-tensors-nan-point": ("xs", lambda pair: split_tensors(pair, [[NAN, 0.0, 0.0]], 1)),
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
    "integrate-empty-starts": ("starts_x", lambda pair: integrate_geodesics(
        pair.g, np.zeros((0, 3)), np.zeros((0, 3)), 1.0, 1e-8)),
    "integrate-nan-start": ("starts_x", lambda pair: integrate_geodesics(
        pair.g, [[0.0, 0.0, 0.0], [0.0, NAN, 0.0]], np.ones((2, 3)), 1.0, 1e-8)),
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
    # Closed-form families: the params of the other kind, each bifurcation
    # kind without a parameter it reads, and a family that is not one.
    "model-form-lc-params": ("params", lambda pair: model_form_pair(
        FormKind.LC_ND, ModelFormParams(lam=LAM))),
    "model-form-bifurcation-params": ("params", lambda pair: model_form_pair(
        FormKind.TWO_D_ELLIPTIC, standard_form_spec("lc_nd")[1])),
    "model-form-elliptic-no-lam": ("params.lam", lambda pair: model_form_pair(
        FormKind.TWO_D_ELLIPTIC, ModelFormParams(f=F))),
    "model-form-polar-plus-no-f": ("params", lambda pair: model_form_pair(
        FormKind.TWO_D_POLAR_PLUS, ModelFormParams(lam_const=1.0))),
    "model-form-polar-minus-no-constant": ("params", lambda pair: model_form_pair(
        FormKind.TWO_D_POLAR_MINUS, ModelFormParams(f=F))),
    "model-form-axial-no-f": ("params", lambda pair: model_form_pair(
        FormKind.THREE_D_AXIAL, ModelFormParams(lam=LAM))),
    "model-form-full-no-c": ("params", lambda pair: model_form_pair(
        FormKind.THREE_D_FULL, ModelFormParams(lam=LAM))),
    "model-eigenvalues-unknown-kind": ("kind", lambda pair: model_eigenvalues(
        "lc_nd", standard_form_spec("lc_nd")[1], np.zeros(3))),
    # Charts, points and starts of the wrong dimension or shape.
    "chart-too-few-intervals": ("box", lambda pair: Chart(2, (INTERVAL,))),
    "chart-point-short": ("x", lambda pair: pair.chart.point([0.0, 0.0])),
    "integrate-unequal-starts": ("starts_x", lambda pair: integrate_geodesics(
        pair.g, np.zeros((2, 3)), np.ones((3, 3)), 1.0, 1e-8)),
    "sphere-chart-dimension": ("chart", lambda pair: SphereChart(3, PLANE, np.eye(4)[3])),
    "sphere-chart-short-pole": ("pole", lambda pair: SphereChart(2, PLANE, [0.0, 1.0])),
    "sphere-chart-zero-pole": ("pole", lambda pair: SphereChart(2, PLANE, np.zeros(3))),
    "beltrami-sphere-dimension": ("sphere", lambda pair: beltrami_pair(3, None, sphere_chart(2))),
    "beltrami-map-dimension": ("a_map", lambda pair: beltrami_pair(2, LinearMap.identity(4))),
    # The number rules on a value of the wrong type.
    "number-list": ("value", lambda pair: expect_number([1.0], "value")),
    "numbers-scalar": ("values", lambda pair: expect_numbers(1.0, "values")),
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


def constant_factor(g, gbar, eigen_range) -> EquivTriple:
    """A factor triple whose metrics are the constant matrices ``g`` and ``gbar``."""
    g, gbar = np.asarray(g, dtype=float), np.asarray(gbar, dtype=float)
    chart = Chart(len(g), (INTERVAL,) * len(g))

    def field(m):
        return MetricField(chart=chart, eval=lambda xs: np.broadcast_to(
            m, np.shape(xs)[:-1] + m.shape).copy())

    return EquivTriple(pair=MetricPair(g=field(g), gbar=field(gbar)), eigen_range=eigen_range)


# A 2-D factor whose base metric diag(-1, -2) has a positive determinant, glued
# below or above a 1-D one: l_tensor and make_triple refuse it too, and the glue
# reads the signs of its characteristic coefficients.
INDEFINITE = functools.partial(constant_factor, np.diag([-1.0, -2.0]), np.eye(2))
LINE = functools.partial(constant_factor, [[1.0]], [[1.0]])


def glued_base_at_origin(factor1, factor2):
    return glue_pair(factor1, factor2).pair.g.eval(np.zeros(3))


# Refusals of a value that is well formed but out of its family's range: a
# named error other than SchemaError, with its whole message.
NAMED_CASES = {
    "glue-indefinite-base-below": (
        NotPositiveDefinite, "base metric is not positive definite",
        lambda: glued_base_at_origin(INDEFINITE((0.5, 0.6)), LINE((1.0, 1.0)))),
    "glue-indefinite-base-above": (
        NotPositiveDefinite, "base metric is not positive definite",
        lambda: glued_base_at_origin(LINE((1.0, 1.0)), INDEFINITE((2.0, 3.0)))),
    "model-form-full-zero-c": (NotPositive, "the angular constant must be positive",
                               lambda: model_form_pair(FormKind.THREE_D_FULL,
                                                       ModelFormParams(lam=LAM, c=0.0))),
    "model-form-full-negative-c": (NotPositive, "the angular constant must be positive",
                                   lambda: model_form_pair(FormKind.THREE_D_FULL,
                                                           ModelFormParams(lam=LAM, c=-1.0))),
}


@pytest.mark.parametrize("error, message, call", NAMED_CASES.values(), ids=NAMED_CASES.keys())
def test_out_of_range_input_raises_its_named_error(error, message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


# Batched reads at points outside the chart box, the first at row 1: lc_nd's
# companion is defined there and three_d_axial's is not positive definite
# there, and both must refuse the point before evaluating anything.
OUTSIDE = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [-6.0, 0.0, 0.0]])
OUTSIDE_CASES = {
    "eigen-range": ("xs", lambda pair: eigen_range(pair, OUTSIDE)),
    "multiplicity": ("xs", lambda pair: max_eigen_multiplicity(pair, OUTSIDE)),
    "frame-weights": ("xs", lambda pair: frame_weights(pair, OUTSIDE, np.ones(3))),
    "frame-weights-broadcast": ("xs", lambda pair: frame_weights(
        pair, OUTSIDE[:, None, :], np.ones((3, 4, 3)))),
    "roots-many": ("xs", lambda pair: integral_roots_many(pair, OUTSIDE, np.ones(3))),
    "interlacing-points": ("points", lambda pair: check_interlacing(pair, points=OUTSIDE)),
    "integrate-starts": ("starts_x", lambda pair: integrate_geodesics(
        pair.g, OUTSIDE, np.ones((3, 3)), 1.0, 1e-8)),
    "split-tensors": ("xs", lambda pair: split_tensors(pair, OUTSIDE, 1)),
    "christoffel": ("x", lambda pair: christoffel(pair.g, OUTSIDE)),
    "fd-partials": ("x", lambda pair: fd_partials(pair.g, OUTSIDE)),
}


@pytest.mark.parametrize("family", ["lc_nd", "three_d_axial"])
@pytest.mark.parametrize("name, call", OUTSIDE_CASES.values(), ids=OUTSIDE_CASES.keys())
def test_batched_reads_outside_the_chart_name_the_first_point(family, name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OutOfChart, match=rf"^{name}: point \[5\.0, 5\.0, 5\.0\] is not "
                           "inside the chart box$"):
            call(standard_pair(family))


def spoiled_below(pair, edge: float, bad: float | None) -> MetricPair:
    """``pair`` with the base metric ``diag(1, x_0 - edge, 1)``, indefinite where
    ``x_0 <= edge``, or with ``diag(1, bad, 1)`` there and the identity elsewhere."""
    def g_eval(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.broadcast_to(np.eye(3), xs.shape[:-1] + (3, 3)).copy()
        out[..., 1, 1] = (xs[..., 0] - edge if bad is None
                          else np.where(xs[..., 0] <= edge, bad, 1.0))
        return out

    return MetricPair(g=MetricField(chart=pair.chart, eval=g_eval), gbar=pair.gbar)


@pytest.mark.parametrize("bad, problem", [(None, "is not positive definite"),
                                          (np.nan, "has non-finite entries"),
                                          (np.inf, "has non-finite entries"),
                                          (-np.inf, "has non-finite entries")],
                         ids=["indefinite", "nan", "inf", "-inf"])
@pytest.mark.parametrize("check", [check_equivalence, check_conservation])
def test_a_bad_base_metric_names_the_first_start_where_it_fails(lc_nd, check, bad, problem):
    # The box is [-0.5, 0.5]^3 and the starts lie in its middle 60%: some on
    # either side of x_0 = -0.05, the first of them on the positive side.  A
    # non-finite entry is refused before the Cholesky pivots.
    starts = lc_nd.chart.sample(np.random.default_rng(4), 6, shrink=START_SHRINK)
    assert starts[0, 0] > -0.05 and np.any(starts[:, 0] <= -0.05)
    first = starts[np.argmax(starts[:, 0] <= -0.05)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotPositiveDefinite, match=rf"^base metric {problem} "
                           rf"at the start {re.escape(str(first.tolist()))}$"):
            check(spoiled_below(lc_nd, -0.05, bad), n_traj=6, seed=4)


def test_batched_reads_accept_the_box_bounds():
    # Chart.contains is inclusive: make_triple's grid holds the box corners.
    pair = standard_pair("lc_nd")
    corners = pair.chart.grid(2)
    assert eigen_range(pair, corners)[0] > 0.0
    assert check_interlacing(pair, points=corners, n_vectors=2).samples == 16


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


def _package_imports(path: Path, modules: set[str]) -> tuple[set[str], set[str]]:
    """The package modules that one module imports at module level, and those it
    imports inside a function; ``__init__`` stands for the package itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = {id(node) for function in ast.walk(tree)
              if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(function)}
    top, inner = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "geq":
                    continue
                module = module.removeprefix("geq").lstrip(".")
            names = ({module.split(".")[0]} if module else
                     {a.name if a.name in modules else "__init__" for a in node.names})
        elif isinstance(node, ast.Import):
            names = {(a.name.split(".") + ["__init__"])[1] for a in node.names
                     if a.name.split(".")[0] == "geq"}
        else:
            continue
        (inner if id(node) in nested else top).update(names)
    return top, inner


def test_no_function_imports_the_package_and_the_module_graph_is_acyclic():
    package = Path(geq.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph, offenders = {}, []
    for path in sorted(package.glob("*.py")):
        graph[path.stem], inner = _package_imports(path, modules)
        offenders += [f"{path.name} imports {name} in a function" for name in sorted(inner)]
    assert offenders == []
    # Peel off the modules that import nothing left; what remains lies on a cycle
    # or imports a module that does.
    while leaves := [m for m, deps in graph.items() if not deps & graph.keys()]:
        for m in leaves:
            del graph[m]
    assert graph == {}


def test_every_private_module_level_name_is_read_in_the_package():
    """A private name that a module binds at its top level (a function, class or
    assignment, not an import) is loaded, imported or looked up as an attribute
    somewhere in the package; one that nothing reads is dead code."""
    bound, read = [], set()
    for path in sorted(Path(geq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                continue
            bound += [(path.name, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert [f"{module} {name}" for module, name in bound if name not in read] == []


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
