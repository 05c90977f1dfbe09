"""Command-line interface: config ingestion, check orchestration, report
persistence, and CI exit semantics.

Exit codes: 0 when every requested check passes, 2 when any check fails
its threshold, 1 on configuration or build errors.  Reports are JSON
(deterministic bytes for identical configs); wall-clock timings go to a
separate sidecar file so the main report stays byte-stable.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from typing import Any, NamedTuple

import click
import numpy as np
import yaml
from click.core import ParameterSource

from . import __version__
from ._validate import (expect_int, expect_interval, expect_number, expect_numbers,
                        expect_tol, fail)
from .charts import MAX_GRID_POINTS, Chart
from .constructions import LinearMap, SphereChart, beltrami_pair, sphere_chart, spheres_product
from .errors import GeqError, ParseError
from .normal_forms import (FormKind, LeviCivitaData, ScalarFunction1D,
                           levi_civita_pair, model_eigenvalues)
from .projective import MetricPair, _l_values, max_eigen_multiplicity
from .split_glue import glue_pair, make_triple, oplus, split_factors, split_pair
from .verify import (STANDARD_FAMILIES, check_conservation, check_equivalence,
                     check_interlacing, circle_planarity, standard_form_spec, standard_pair)

SCHEMA_VERSION = 1

CHECK_DEFAULTS: dict[str, dict[str, Any]] = {
    "equivalence": {"trajectories": 100, "duration": 1.0, "threshold": 1e-6},
    "conservation": {"trajectories": 20, "duration": 1.0, "threshold": 1e-6},
    "interlacing": {"points": 100, "vectors": 10, "epsilon": 1e-9},
    "roundtrip": {"block": 1, "points": 1000, "threshold": 1e-12},
    "normal_form": {"points": 500, "threshold": 1e-8, "exclude_radius": 0.05},
}
_TOP_FIELDS = {"schema_version", "seed", "family", "tol", "out", "checks"}
_FAMILY_KINDS = {"lc", "beltrami", "product"}
DEFAULT_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class SuiteConfig:
    """Validated suite configuration."""

    schema_version: int
    seed: int
    family: Any  # registry name or canonical recipe mapping
    tol: float
    out: str | None
    checks: dict[str, dict[str, Any]]

    def canonical(self) -> dict:
        return {key: value for key, value in vars(self).items() if key != "out"}


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        fail(path, "expected a mapping")
    return value


def _expect_fields(raw, at: str, allowed) -> dict:
    """A mapping whose keys all lie in ``allowed``; ``at`` is the dotted
    prefix of its keys in error messages, empty at the top level."""
    body = _expect_mapping(raw, at[:-1] or "top-level")
    for key in body:
        if key not in allowed:
            fail(f"{at}{key}", "unknown field")
    return body


def _required(body: dict, key: str, at: str = ""):
    if key not in body:
        fail(f"{at}{key}", "missing required field")
    return body[key]


def _flag_value(value, path: str, kind: type):
    """A flag's text (every flag is declared as text) read as ``kind``, ``int`` or
    ``float``, for its rule; a value that is not text, as a config's, passes unchanged."""
    try:
        return kind(value) if isinstance(value, str) else value
    except ValueError:
        fail(path, f"expected {'an integer' if kind is int else 'a number'}, got {value!r}")


def _flag_numbers(text: str, path: str) -> list[float]:
    """A comma-separated number list from a flag; each entry ``path[i]``
    must be a finite number, as in a config file."""
    return [expect_number(_flag_value(item, f"{path}[{i}]", float), f"{path}[{i}]")
            for i, item in enumerate(v.strip() for v in text.split(",") if v.strip())]


def _validate_sphere_factor(raw, path: str) -> dict:
    """One sphere factor ``{dim, diag?, pole?}``; ``path`` is its dotted
    prefix in error messages, empty when the fields are top-level flags."""
    at = f"{path}." if path else ""
    factor = _expect_fields(raw, at, ("dim", "diag", "pole"))
    dim = expect_int(_required(factor, "dim", at), f"{at}dim", 1)
    out: dict[str, Any] = {"dim": dim}
    for key in ("diag", "pole"):
        if key in factor:
            out[key] = expect_numbers(factor[key], f"{at}{key}", dim + 1)
    return out


def _validate_family(raw, path: str = "family"):
    if isinstance(raw, str):
        if raw not in STANDARD_FAMILIES:
            fail(path, f"unknown family {raw!r}; known: {', '.join(STANDARD_FAMILIES)}")
        return raw
    spec = _expect_mapping(raw, path)
    if len(spec) != 1 or next(iter(spec)) not in _FAMILY_KINDS:
        fail(path, f"expected a name or one recipe key of {sorted(_FAMILY_KINDS)}")
    kind, body = next(iter(spec.items()))
    if kind == "lc":
        _expect_fields(body, f"{path}.lc.", ("profiles", "interval"))
        profiles = _required(body, "profiles", f"{path}.lc.")
        if not isinstance(profiles, list) or not profiles:
            fail(f"{path}.lc.profiles", "expected a non-empty list of coefficient lists")
        rows = [expect_numbers(row, f"{path}.lc.profiles[{i}]")
                for i, row in enumerate(profiles)]
        for i, row in enumerate(rows):
            if len(row) > 4:
                fail(f"{path}.lc.profiles[{i}]", "profiles have degree at most 3")
        interval = expect_numbers(body.get("interval", [-0.5, 0.5]), f"{path}.lc.interval", 2)
        expect_interval(interval, f"{path}.lc.interval")
        return {"lc": {"profiles": rows, "interval": interval}}
    if kind == "beltrami":
        return {"beltrami": _validate_sphere_factor(body, f"{path}.beltrami")}
    factors = _expect_fields(body, f"{path}.product.", ("factors",)).get("factors")
    if not isinstance(factors, list) or not factors:
        fail(f"{path}.product.factors", "expected a non-empty list")
    return {"product": {"factors": [
        _validate_sphere_factor(f, f"{path}.product.factors[{i}]")
        for i, f in enumerate(factors)]}}


def _validate_checks(raw, path: str = "checks") -> dict[str, dict[str, Any]]:
    requested = (dict.fromkeys(("equivalence", "conservation", "interlacing"))
                 if raw is None else _expect_mapping(raw, path))
    if not requested:
        fail(path, "expected at least one check")
    checks: dict[str, dict[str, Any]] = {}
    for name, body in requested.items():
        if name not in CHECK_DEFAULTS:
            fail(f"{path}.{name}", f"unknown check; known: {', '.join(CHECK_DEFAULTS)}")
        merged = dict(CHECK_DEFAULTS[name])
        body = _expect_mapping(body if body is not None else {}, f"{path}.{name}")
        for key, value in body.items():
            at = f"{path}.{name}.{key}"
            if key not in merged:
                fail(at, "unknown field")
            # As its default: a count, or a number that is positive but for the
            # radius, which may be 0.
            merged[key] = (expect_int(value, at, 1) if isinstance(merged[key], int)
                           else expect_number(value, at, positive=key != "exclude_radius"))
            if merged[key] < 0.0:
                fail(at, "must not be negative")
        checks[name] = merged
    return {name: checks[name] for name in CHECK_DEFAULTS if name in checks}


def validate_config(data) -> SuiteConfig:
    """Validate a parsed config mapping into a :class:`SuiteConfig`."""
    top = _expect_fields(data, "", _TOP_FIELDS)
    version = expect_int(_required(top, "schema_version"), "schema_version")
    if version != SCHEMA_VERSION:
        fail("schema_version", f"unsupported version {version}; expected {SCHEMA_VERSION}")
    seed = expect_int(_required(top, "seed"), "seed", 0)
    family = _validate_family(_required(top, "family"))
    tol = expect_tol(top.get("tol", DEFAULT_TOL))
    out = top.get("out")
    if out is not None and not isinstance(out, str):
        fail("out", "expected a path string")
    checks = _validate_checks(top.get("checks"))
    # Read from the registry name (a FormKind value) or the recipe kind, building
    # nothing: a recipe that cannot be built fails in the run, with a partial report.
    closed = family in {k.value for k in FormKind} if isinstance(family, str) else "lc" in family
    if "normal_form" in checks and not closed:
        fail("checks.normal_form",
              "the configured family has no closed-form eigenvalue model")
    return SuiteConfig(schema_version=version, seed=seed, family=family,
                       tol=tol, out=out, checks=checks)


def load_config(path: str) -> SuiteConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        place = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"invalid config syntax{place}: {exc}") from exc
    return validate_config(data)


def _lc_data_from_recipe(body: dict) -> LeviCivitaData:
    interval = tuple(body["interval"])
    lams = tuple(ScalarFunction1D(tuple(row), interval) for row in body["profiles"])
    return LeviCivitaData(lambdas=lams,
                          chart=Chart(len(lams), (interval,) * len(lams)))


def _sphere_factor(body: dict) -> tuple[int, LinearMap, SphereChart]:
    """(dim, ambient map, chart) of a validated sphere factor; the map
    defaults to the identity and the pole to the last axis."""
    dim = body["dim"]
    a_map = (LinearMap.diagonal(body["diag"]) if "diag" in body
             else LinearMap.identity(dim + 1))
    pole = np.asarray(body["pole"], dtype=float) if "pole" in body else None
    return dim, a_map, sphere_chart(dim, pole=pole)


def build_family(family) -> MetricPair:
    """Build the configured family (a registry name or a validated recipe)."""
    if isinstance(family, str):
        return standard_pair(family)
    kind, body = next(iter(family.items()))
    if kind == "lc":
        return levi_civita_pair(_lc_data_from_recipe(body))
    if kind == "beltrami":
        return beltrami_pair(*_sphere_factor(body)).pair
    return spheres_product([_sphere_factor(f) for f in body["factors"]]).pair


def family_label(family) -> str:
    """Short report label: the registry name, or the recipe kind with its
    dimensions (``lc(3d)``, ``beltrami(2d)``, ``product(1x2)``)."""
    if isinstance(family, str):
        return family
    kind, body = next(iter(family.items()))
    if kind == "lc":
        return f"lc({len(body['profiles'])}d)"
    if kind == "beltrami":
        return f"beltrami({body['dim']}d)"
    return f"product({'x'.join(str(f['dim']) for f in body['factors'])})"


def _form_spec_for(family):
    """(FormKind, params) behind a family spec, or None."""
    if isinstance(family, str):
        return standard_form_spec(family)
    if isinstance(family, dict) and "lc" in family:
        return FormKind.LC_ND, _lc_data_from_recipe(family["lc"])
    return None


# --- Check execution -------------------------------------------------------


def _fields(report, **extra) -> dict[str, Any]:
    """A library report's fields but ``seed``, a shallow copy, updated by ``extra``."""
    return {**{key: value for key, value in vars(report).items() if key != "seed"}, **extra}


def _run_one_check(name: str, pair: MetricPair, family, params: dict,
                   seed: int, tol: float) -> tuple[bool, dict[str, Any], list]:
    """Run a single named check; returns (passed, metrics, csv_rows).  The
    library checks' metrics are their reports' own fields (:func:`_fields`)."""
    if name == "equivalence":
        rep = check_equivalence(pair, n_traj=params["trajectories"],
                                duration=params["duration"], tol=tol, seed=seed)
        return (rep.max_tangential_defect < params["threshold"],
                _fields(rep, threshold=params["threshold"]), [])
    if name == "conservation":
        rep = check_conservation(pair, n_traj=params["trajectories"],
                                 duration=params["duration"], tol=tol, seed=seed)
        return (rep.max_drift < params["threshold"],
                _fields(rep, rows=len(rep.rows), threshold=params["threshold"]),
                [dataclasses.astuple(row) for row in rep.rows])
    if name == "interlacing":
        rep = check_interlacing(pair, n_points=params["points"],
                                n_vectors=params["vectors"], seed=seed,
                                epsilon=params["epsilon"])
        return rep.violations == 0, _fields(rep), []
    if name == "roundtrip":
        block = expect_int(params["block"], "checks.roundtrip.block", 1, pair.dim - 1)
        glued = glue_pair(*split_factors(split_pair(pair, block))).pair
        xs = pair.chart.sample(np.random.default_rng(seed), params["points"])
        # Each metric's error relative to max(1, its largest entry) is judged.
        errors = [(float(np.max(np.abs(rebuilt.eval(xs) - ref))),
                   max(1.0, float(np.max(np.abs(ref)))))
                  for ref, rebuilt in ((pair.g.eval(xs), glued.g), (pair.gbar.eval(xs), glued.gbar))]
        err, rel = max(e for e, _ in errors), max(e / scale for e, scale in errors)
        return rel < params["threshold"], {
            "block": block,
            "points": params["points"],
            "max_error": err,
            "max_relative_error": rel,
            "threshold": params["threshold"],
        }, []
    # normal_form: validate_config admits it only for a family with a model.
    kind, form_params = _form_spec_for(family)
    xs = pair.chart.sample(np.random.default_rng(seed), params["points"])
    if kind is FormKind.THREE_D_FULL and params["exclude_radius"] > 0.0:
        xs = xs[np.linalg.norm(xs[:, 1:], axis=1) >= params["exclude_radius"]]
        if not len(xs):
            fail("checks.normal_form.exclude_radius",
                 f"leaves none of the {params['points']} sample points")
    predicted = model_eigenvalues(kind, form_params, xs)
    actual = _l_values(pair.g.eval(xs), pair.gbar.eval(xs))
    mismatch = float(np.max(np.abs(predicted - actual)))
    return mismatch < params["threshold"], {
        "points": int(xs.shape[0]),
        "max_eigen_mismatch": mismatch,
        "threshold": params["threshold"],
    }, []


def _run_checks(config: SuiteConfig, checks: list[dict], csv_rows: list,
                timings: dict[str, float]) -> None:
    """Build the configured family, then run each configured check in turn,
    appending its entry to ``checks``, its rows to ``csv_rows`` and its wall
    time to ``timings``; an error propagates with the checks before it kept."""
    begin = time.perf_counter()
    pair = build_family(config.family)
    timings["build"] = time.perf_counter() - begin
    for name, params in config.checks.items():
        begin = time.perf_counter()
        passed, metrics, rows = _run_one_check(name, pair, config.family,
                                               params, config.seed, config.tol)
        timings[name] = time.perf_counter() - begin
        checks.append({"name": name, "pass": passed, "metrics": metrics})
        csv_rows.extend(rows)


def _suite_run(config: SuiteConfig) -> _Run:
    """The suite's run of ``config``: an error of the build or of a check is
    kept in ``error``, with the checks before it, for a partial report."""
    run = _Run(family_label(config.family), config.seed, config.canonical(), [],
               config.out, {}, [])
    try:
        _run_checks(config, run.checks, run.csv_rows, run.timings)
    except GeqError as exc:
        return run._replace(error=f"{type(exc).__name__}: {exc}")
    return run


def run_suite(config: SuiteConfig) -> tuple[dict, list, dict, int]:
    """Run all configured checks as ``geq suite`` does; returns (report,
    csv_rows, timings, exit_code), a partial report after an error (exit 1)."""
    run = _suite_run(config)
    report, exit_code = _finish("suite", run)
    return report, run.csv_rows, run.timings, exit_code


# --- Report output ---------------------------------------------------------


CSV_HEADER = "index,t_value_or_integral_id,start_value,end_value,rel_drift"


def _write_outputs(out_dir: str | None, stem: str, report: dict,
                   timings: dict[str, float], fmt: str, csv_rows: list) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_dir is None:
        click.echo(text, nl=False)
        return
    import pathlib

    base = pathlib.Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    (base / f"{stem}_report.json").write_text(text, encoding="utf-8")
    (base / f"{stem}_timings.json").write_text(
        json.dumps(timings, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if fmt == "csv" and csv_rows:
        lines = [CSV_HEADER]
        lines.extend(f"{idx},{name},{start!r},{end!r},{drift!r}"
                     for idx, name, start, end, drift in csv_rows)
        (base / f"{stem}_drifts.csv").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")


def _finish(command: str, run: _Run) -> tuple[dict, int]:
    """The report of a run and its exit code: 1 after an error, whose report
    carries ``error``, else 0, or 2 when a check failed.  ``config_hash`` is
    the SHA-256 of the key-sorted JSON of the run's fingerprint."""
    config_hash = hashlib.sha256(
        json.dumps(run.fingerprint, sort_keys=True).encode("utf-8")).hexdigest()
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash,
        "checks": run.checks,
        "provenance": {
            "package": "artifact",
            "version": __version__,
            "command": command,
            "family": run.label,
            "seed": run.seed,
        },
    }
    if run.data is not None:
        report["data"] = run.data
    if run.error is not None:
        report["error"] = run.error
        return report, 1
    return report, 0 if all(check["pass"] for check in run.checks) else 2


# --- Commands ----------------------------------------------------------------


_FAMILY_OPT = click.option("--family", default="lc_nd",
                           help="Registry family name (see `geq build --list`); without "
                                "this flag, the --config file's family, else lc_nd.")
_CONFIG_OPT = click.option("--config", type=click.Path(), default=None,
                           help="Defaults from a config file (flags override).")
_TOL_OPT = click.option("--tol", type=str, default=DEFAULT_TOL,
                        help="Integrator tolerance; without this flag, the --config "
                             f"file's tol, else {DEFAULT_TOL}.")
_COMMON_OPTS = (
    click.option("--seed", type=str, default=0,
                 help="Random seed; without this flag, the --config file's seed, else 0."),
    click.option("--out", type=click.Path(file_okay=False), default=None,
                 help="Report directory; without this flag, the --config file's out, "
                      "else the JSON report is printed to stdout."),
    click.option("--format", "fmt", type=str, default="json", show_default=True,
                 help="json, or csv to add per-trajectory drift rows."),
)


@click.group()
@click.version_option(version=__version__, prog_name="geq")
def main() -> None:
    """Build metric pairs with shared unparameterized geodesics and verify
    their properties numerically."""


class _Run(NamedTuple):
    """What a command body hands to the runner."""

    label: str
    seed: int
    fingerprint: dict  # hashed into the report's config_hash
    checks: list[dict]
    out: str | None
    timings: dict[str, float] = {}  # shared defaults: never appended to
    csv_rows: list = []
    data: dict | None = None
    error: str | None = None  # ``<Type>: <msg>`` of an error kept for a partial report


def _command(name: str):
    """Register a command whose body returns a :class:`_Run`.

    The runner adds ``--seed``, ``--out`` and ``--format``, resolves the
    parameters (:func:`_resolved`), and owns what every command shares: an
    error raised by the body or by writing prints ``error: <Type>: <msg>`` and
    exits 1 with stdout empty; otherwise the report (:func:`_finish`) is
    written with the exit code that goes with it.  A run that kept an error
    prints it the same way and still writes its partial report.
    """

    def register(body):
        def callback(ctx, **kwargs):
            try:
                params = _resolved(kwargs)
                fmt = params.pop("fmt")
                run = body(**params)
                report, exit_code = _finish(name, run)
                if run.error is not None:
                    click.echo(f"error: {run.error}", err=True)
                _write_outputs(run.out, name.replace("-", "_"), report,
                               run.timings, fmt, run.csv_rows)
            except (GeqError, OSError) as exc:
                click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
                ctx.exit(1)
            ctx.exit(exit_code)

        command = main.command(name)(
            click.pass_context(functools.update_wrapper(callback, body)))
        for option in _COMMON_OPTS:  # appended after the body's own options
            option(command)
        return command

    return register


def _flag_rule(kind: type, rule, path: str, *args, **kwargs):
    return lambda value: rule(_flag_value(value, path, kind), path, *args, **kwargs)


_FLAG_RULES = {
    "seed": _flag_rule(int, expect_int, "seed", 0),
    **{key: _flag_rule(int, expect_int, key, 1) for key in ("grid", "block", "circles", "dim")},
    "tol": _flag_rule(float, expect_tol, "tol"),
    "planarity_threshold": _flag_rule(float, expect_number, "planarity-threshold", positive=True),
    "family": _validate_family,
    "fmt": lambda value: value if value in ("json", "csv") else fail(
        "format", f"unknown format {value!r}; known: json, csv"),
}


def _resolved(params: dict) -> dict:
    """A command's parameters, with ``--config`` loaded into ``config`` and each
    flag of ``_FLAG_RULES`` turned into its value by its rule.  For each parameter
    that the config also sets, a flag given on the command line wins, then the
    config's value, then the flag's default."""
    if params.get("config") is not None:
        cfg = load_config(params["config"])
        source = click.get_current_context().get_parameter_source
        params = {**params, "config": cfg, **{
            key: getattr(cfg, key) for key in params.keys() & _TOP_FIELDS
            if source(key) is ParameterSource.DEFAULT}}
    return {key: _FLAG_RULES[key](value) if key in _FLAG_RULES else value
            for key, value in params.items()}


def _check_command(name: str, command: str, help_text: str):
    """A command that runs the check ``name`` alone. Each parameter of the check in
    ``CHECK_DEFAULTS`` is a flag, ``check_<key>`` to click, apart from ``_FLAG_RULES``."""

    def body(family, config, seed, tol, out, **flags):
        params = {} if config is None else config.checks.get(name, {})
        given = {key: _flag_value(text, f"checks.{name}.{key}", type(CHECK_DEFAULTS[name][key]))
                 for key in CHECK_DEFAULTS[name] if (text := flags[f"check_{key}"]) is not None}
        params = _validate_checks({name: {**params, **given}})[name]
        label = family_label(family)
        fingerprint = {"command": command, "family": label, "seed": seed,
                       "tol": tol, "params": params}
        run = _Run(label, seed, fingerprint, [], out, {}, [])
        _run_checks(SuiteConfig(SCHEMA_VERSION, seed, family, tol, out, {name: params}),
                    run.checks, run.csv_rows, run.timings)
        return run

    body.__doc__ = help_text
    body = _TOL_OPT(body)
    for key, default in reversed(CHECK_DEFAULTS[name].items()):
        body = click.option(f"--{key}", f"check_{key}", type=str, default=None,
                            help=f"Without this flag, the --config file's "
                                 f"checks.{name}.{key}, else {default}.")(body)
    body = _FAMILY_OPT(_CONFIG_OPT(body))
    return _command(command)(body)


_check_command("equivalence", "check-equivalence",
               "Unparametrized-geodesic test: the companion residual must "
               "stay parallel to the velocity.")
_check_command("conservation", "check-conservation",
               "Drift of the polynomial integral family and its roots (in 2D "
               "the quadratic integral is the member at t = 0).")
_check_command("interlacing", "check-interlacing",
               "Eigenvalue bracketing of the integral roots over random phase "
               "samples.")
_check_command("roundtrip", "roundtrip",
               "Split a pair and glue the factors back; report the worst error.")


@_command("build")
@_FAMILY_OPT
@_CONFIG_OPT
@click.option("--grid", type=str, default=3, show_default=True,
              help="Grid points per axis.")
@click.option("--list", "list_families", is_flag=True,
              help="List registry family names and exit.")
def build_cmd(family, config, grid, list_families, seed, out) -> _Run:
    """Emit both metric matrices of a family on a chart grid."""
    if list_families:
        click.echo("\n".join(STANDARD_FAMILIES))
        click.get_current_context().exit(0)
    pair = build_family(family)
    if grid ** pair.dim > MAX_GRID_POINTS:
        fail("grid", f"must give at most {MAX_GRID_POINTS} points; {grid} per axis "
                     f"in dimension {pair.dim} gives {grid ** pair.dim}")
    xs = pair.chart.grid(grid)
    data = {
        "dim": pair.dim,
        "box": [list(interval) for interval in pair.chart.box],
        "points": xs.tolist(),
        "g": pair.g.eval(xs).tolist(),
        "gbar": pair.gbar.eval(xs).tolist(),
    }
    label = family_label(family)
    return _Run(label, seed, {"command": "build", "family": label, "grid": grid},
                [], out, data=data)


@_command("split")
@_FAMILY_OPT
@_CONFIG_OPT
@click.option("--block", type=str, default=1, show_default=True,
              help="Size of the leading eigenvalue block.")
def split_cmd(family, config, block, seed, out) -> _Run:
    """Split a pair along an eigenvalue gap into block-diagonal factors."""
    pair = build_family(family)
    result = split_pair(pair, expect_int(block, "block", 1, pair.dim - 1))
    xs = pair.chart.sample(np.random.default_rng(seed), 200)
    h = result.h.eval(xs)
    hbar = result.hbar.eval(xs)
    r = result.r
    off = max(np.max(np.abs(h[:, :r, r:])), np.max(np.abs(hbar[:, :r, r:]))).item()
    factor1, factor2 = split_factors(result)
    metrics = {
        "block": r,
        "index_split": [list(result.index_split[0]), list(result.index_split[1])],
        "max_off_block": off,
        "factor_ranges": [list(factor1.eigen_range), list(factor2.eigen_range)],
    }
    label = family_label(family)
    return _Run(label, seed,
                {"command": "split", "family": label, "block": block, "seed": seed},
                [{"name": "split", "pass": True, "metrics": metrics}], out)


@_command("glue")
@click.option("--levels", default="2,3", show_default=True,
              help="Comma-separated constant eigenvalues, one 1D factor each.")
def glue_cmd(levels, seed, out) -> _Run:
    """Glue constant one-dimensional factors into a product pair."""
    values = _flag_numbers(levels, "levels")
    if len(values) < 2:
        fail("levels", "expected at least two comma-separated numbers")
    glued = oplus([make_triple(levi_civita_pair(_lc_data_from_recipe(
        {"profiles": [[value]], "interval": [-0.5, 0.5]}))) for value in values])
    metrics = {
        "dim": glued.pair.dim,
        "eigen_range": list(glued.eigen_range),
        "g_center": glued.pair.g.eval(glued.pair.chart.center).tolist(),
        "gbar_center": glued.pair.gbar.eval(glued.pair.chart.center).tolist(),
    }
    return _Run(f"glue({levels})", seed, {"command": "glue", "levels": values},
                [{"name": "glue", "pass": True, "metrics": metrics}], out)


@_command("beltrami")
@click.option("--dim", type=str, default=2, show_default=True)
@click.option("--diag", default=None,
              help="Comma-separated diagonal of the ambient map "
                   "(default: identity).")
@click.option("--circles", type=str, default=10, show_default=True,
              help="Geodesics for the planarity probe.")
@click.option("--planarity-threshold", type=str, default=1e-9, show_default=True)
@_TOL_OPT
def beltrami_cmd(dim, diag, circles, planarity_threshold, seed, tol, out) -> _Run:
    """Build a sphere pair and probe great-circle planarity before and
    after the ambient map."""
    recipe = {"dim": dim}
    if diag is not None:
        recipe["diag"] = _flag_numbers(diag, "diag")
    recipe = _validate_sphere_factor(recipe, "")
    dim, a_map, sphere = _sphere_factor(recipe)
    triple = beltrami_pair(dim, a_map, sphere)
    before, after = circle_planarity(sphere, a_map, circles, seed, tol=tol)
    passed = before < planarity_threshold and after < planarity_threshold
    metrics = {
        "dim": dim,
        "eigen_range": list(triple.eigen_range),
        "circles": circles,
        "planarity_before": before,
        "planarity_after": after,
        "threshold": planarity_threshold,
        "integrator_tol": tol,
    }
    fingerprint = {"command": "beltrami", "dim": dim, "diag": diag,
                   "circles": circles, "seed": seed, "tol": tol}
    return _Run(family_label({"beltrami": recipe}), seed, fingerprint,
                [{"name": "planarity", "pass": passed, "metrics": metrics}], out)


@_command("product")
@click.option("--factors", default="1:;2:1,2,3", show_default=True,
              help="Semicolon-separated factors, each 'dim:diag' with an "
                   "optional comma-separated diagonal.")
def product_cmd(factors, seed, out) -> _Run:
    """Assemble a product of spheres and report its eigenvalue layout."""
    recipe = []
    for i, chunk in enumerate(c.strip() for c in factors.split(";") if c.strip()):
        dim_text, _, diag_text = chunk.partition(":")
        factor = {"dim": _flag_value(dim_text.strip(), f"factors[{i}].dim", int)}
        diag = _flag_numbers(diag_text, f"factors[{i}].diag")
        if diag:
            factor["diag"] = diag
        recipe.append(_validate_sphere_factor(factor, f"factors[{i}]"))
    if not recipe:
        fail("factors", "expected at least one factor")
    triple = spheres_product([_sphere_factor(f) for f in recipe])
    xs = triple.pair.chart.sample(np.random.default_rng(seed), 100)
    metrics = {
        "dim": triple.pair.dim,
        "eigen_range": list(triple.eigen_range),
        "max_multiplicity": max_eigen_multiplicity(triple.pair, xs),
        "factors": [f["dim"] for f in recipe],
    }
    return _Run(family_label({"product": {"factors": recipe}}), seed,
                {"command": "product", "factors": factors, "seed": seed},
                [{"name": "product", "pass": True, "metrics": metrics}], out)


@_command("suite")
@click.option("--config", type=click.Path(), required=True,
              help="The config file; flags override its seed, tol and out.")
@_TOL_OPT
def suite_cmd(config, tol, seed, out) -> _Run:
    """Run every check requested by a config file."""
    return _suite_run(dataclasses.replace(config, seed=seed, tol=tol, out=out))


if __name__ == "__main__":
    main()
