"""Per-layer spans for the geq benchmark, installed from outside the library.

While installed, each layer's entry point is replaced, in every geq module
namespace that binds it, by a wrapper that records a span; a hook on
``MetricField`` attribute access wraps every metric evaluator
(``eval``/``partials``) in a span named after the module that defines it.
Nothing under ``src/geq`` is edited, and uninstalling restores every
binding.

A span's self time is its duration minus that of its child spans.  A call
into the layer of the innermost open span is folded into that span, so a
layer that calls its own entry points is counted once.  Spans are summed
per layer in memory; nothing is written until the run ends.
"""
from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

from geq.charts import MetricField

ROOT = "other"

EVAL_LAYERS = ("normal_forms.eval", "constructions.eval", "split_glue.eval", "verify.eval")
LAYERS = EVAL_LAYERS + (
    "charts.christoffel", "charts.fd_partials", "charts.integrate",
    "projective.eigen", "projective.roots", "projective.torsion",
    "split_glue.split", "split_glue.glue", "verify.check",
)
BUILDERS = ("random_levi_civita_data", "levi_civita_pair", "model_form_pair",
            "standard_pair", "beltrami_pair", "spheres_product")


def _points(x) -> int:
    """Rows of a point array ``(..., dim)``: the product of its leading axes."""
    return math.prod(np.shape(x)[:-1])


def _arg_points(index: int) -> Callable:
    return lambda args, kwargs: _points(args[index])


def _no_points(args, kwargs) -> int:
    return 0


def _requested_rows(fn: Callable) -> Callable:
    """Trajectories (``n_traj``) or phase samples (points times
    ``n_vectors``) that a ``check_*`` call asks for."""
    signature = inspect.signature(fn)

    def rows(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if "n_traj" in a:
            return int(a["n_traj"])
        points = a["points"]
        count = a["n_points"] if points is None else len(np.atleast_2d(points))
        return int(count) * int(a["n_vectors"])

    return rows


def _integrator_counters(tracer: "Tracer", args, trajectories) -> None:
    """Steps, truncation and displacement (the largest coordinate excursion
    from the start, over the box width) of each returned trajectory."""
    widths = args[0].chart.widths
    for traj in trajectories:
        tracer.accepted += traj.stepper_stats.accepted
        tracer.rejected += traj.stepper_stats.rejected
        moved = np.abs(traj.points - traj.points[0]) / widths
        tracer.coverage.append((tracer.label, traj.left_chart, float(np.max(moved))))


# (module, function) -> (layer, rows of a call, counter update after the call)
LAYER_ENTRY_POINTS = {
    ("geq.charts", "christoffel"): ("charts.christoffel", _arg_points(1), None),
    ("geq.charts", "fd_partials"): ("charts.fd_partials", _arg_points(1), None),
    ("geq.charts", "integrate_geodesics"): ("charts.integrate", _arg_points(1),
                                            _integrator_counters),
    ("geq.projective", "l_tensor"): ("projective.eigen", _arg_points(1), None),
    ("geq.projective", "l_eigen"): ("projective.eigen", _arg_points(1), None),
    ("geq.projective", "frame_weights"): ("projective.eigen", _arg_points(1), None),
    ("geq.projective", "eigen_range"): ("projective.eigen", _arg_points(1), None),
    ("geq.projective", "integral_roots_many"): ("projective.roots", _arg_points(1), None),
    ("geq.projective", "nijenhuis_at"): ("projective.torsion", _arg_points(1), None),
    ("geq.split_glue", "split_pair"): ("split_glue.split", _no_points, None),
    ("geq.split_glue", "split_factors"): ("split_glue.split", _no_points, None),
    ("geq.split_glue", "split_tensors"): ("split_glue.split", _arg_points(1), None),
    ("geq.split_glue", "glue_pair"): ("split_glue.glue", _no_points, None),
    ("geq.split_glue", "oplus"): ("split_glue.glue", _no_points, None),
    ("geq.verify", "check_conservation"): ("verify.check", None, None),
    ("geq.verify", "check_equivalence"): ("verify.check", None, None),
    ("geq.verify", "check_interlacing"): ("verify.check", None, None),
}

BUILDER_ENTRY_POINTS = {
    (module, name): (f"setup.{name}", _no_points, None)
    for module, name in (("geq.normal_forms", "random_levi_civita_data"),
                         ("geq.normal_forms", "levi_civita_pair"),
                         ("geq.normal_forms", "model_form_pair"),
                         ("geq.verify", "standard_pair"),
                         ("geq.constructions", "beltrami_pair"),
                         ("geq.constructions", "spheres_product"))
}


class Tracer:
    """Per-layer sums of spans, plus the integrator's own counters read
    from the trajectories it returns, each trajectory tagged with the
    ``label`` of the operation that asked for it."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.label = ""
        self.accepted = 0
        self.rejected = 0
        self.coverage: list[tuple[str, bool, float]] = []

    def span(self, layer: str, rows: int, fn: Callable, args=(), kwargs=None, after=None):
        kwargs = kwargs or {}
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.calls[layer] += 1
            self.rows[layer] += rows
            self.self_s[layer] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def wrap(self, fn: Callable, layer: str, rows: Callable | None, after=None) -> Callable:
        rows = rows or _requested_rows(fn)

        def wrapper(*args, **kwargs):
            return self.span(layer, rows(args, kwargs), fn, args, kwargs, after)

        wrapper.__wrapped__ = fn
        return wrapper


def _eval_layer(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or "unknown"
    return module.rsplit(".", 1)[-1] + ".eval"


def _geq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "geq" or name.startswith("geq."))]


@contextlib.contextmanager
def installed(tracer: Tracer, entry_points: dict, evaluators: bool):
    """Route the given entry points (and, with ``evaluators``, every metric
    evaluator) through ``tracer`` until the block exits."""
    restore = []
    modules = _geq_modules()
    try:
        for (module, name), (layer, rows, after) in entry_points.items():
            original = getattr(sys.modules[module], name)
            wrapper = tracer.wrap(original, layer, rows, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        restore.append((m, key, value))
                        setattr(m, key, wrapper)
        if evaluators:
            def getattribute(field, attr):
                value = object.__getattribute__(field, attr)
                if value is None or attr not in ("eval", "partials"):
                    return value
                layer = _eval_layer(value)
                return lambda xs: tracer.span(layer, _points(xs), value, (xs,))

            MetricField.__getattribute__ = getattribute
        yield tracer
    finally:
        if evaluators and "__getattribute__" in vars(MetricField):
            del MetricField.__getattribute__
        for m, key, value in reversed(restore):
            setattr(m, key, value)


def layer_metrics(tracer: Tracer, rounds: int, traced_s: float) -> dict[str, tuple]:
    """Per-round counts and shares of traced time, by layer."""
    out: dict[str, tuple] = {}
    known = 0.0
    for layer in LAYERS:
        out[f"{layer}.calls"] = (_per_round(tracer.calls[layer], rounds), "count")
        out[f"{layer}.rows"] = (_per_round(tracer.rows[layer], rounds), "count")
        out[f"{layer}.self_frac"] = (tracer.self_s[layer] / traced_s, "frac")
        known += tracer.self_s[layer]
    out["other.self_frac"] = ((traced_s - known) / traced_s, "frac")
    steps = tracer.accepted + tracer.rejected
    out["charts.integrate.accepted_steps"] = (_per_round(tracer.accepted, rounds), "count")
    out["charts.integrate.rejected_steps"] = (_per_round(tracer.rejected, rounds), "count")
    out["charts.integrate.accept_ratio"] = (tracer.accepted / steps if steps else 0.0, "frac")
    truncated, disp = _coverage(tracer.coverage)
    out["charts.integrate.truncated_frac"] = (truncated, "frac")
    out["charts.integrate.disp_median"] = (disp, "frac")
    roots_calls = tracer.calls["projective.roots"]
    out["projective.roots.rows_per_call"] = (
        tracer.rows["projective.roots"] / roots_calls if roots_calls else 0.0, "count")
    return out


def _coverage(rows: list) -> tuple[float, float]:
    """Share of trajectories that hit the chart boundary, and their median
    displacement; zero when there are none."""
    if not rows:
        return 0.0, 0.0
    return (sum(left for _, left, _ in rows) / len(rows),
            float(np.median([disp for _, _, disp in rows])))


def coverage_by_label(tracer: Tracer) -> dict[str, tuple[float, float]]:
    labels = dict.fromkeys(label for label, _, _ in tracer.coverage)
    return {label: _coverage([row for row in tracer.coverage if row[0] == label])
            for label in labels}


def builder_metrics(tracer: Tracer, setups: int, setup_s: float) -> dict[str, tuple]:
    """Per-set-up calls and shares of set-up time, by builder."""
    out: dict[str, tuple] = {}
    for name in BUILDERS:
        layer = f"setup.{name}"
        out[f"{layer}.calls"] = (_per_round(tracer.calls[layer], setups), "count")
        out[f"{layer}.self_frac"] = (tracer.self_s[layer] / setup_s, "frac")
    return out


def _per_round(total: int, rounds: int):
    return total // rounds if total % rounds == 0 else total / rounds
