"""Tests for the command-line interface: config validation, report
shapes, determinism, and the exit-code contract."""
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import click
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import geq
from geq._threads import _TARGET_VARS
from geq._validate import expect_number
from geq.cli import (SCHEMA_VERSION, SuiteConfig, build_family, family_label,
                     load_config, main, run_suite, validate_config)
from geq.constructions import LinearMap, beltrami_pair, sphere_chart
from geq.errors import ParseError, SchemaError
from geq.verify import STANDARD_FAMILIES, standard_form_spec


@pytest.fixture
def runner():
    return CliRunner()


def minimal_config(**overrides):
    data = {"schema_version": 1, "seed": 5, "family": "lc_nd"}
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


# --- Config validation -------------------------------------------------------


def test_minimal_config_validates(tmp_path):
    cfg = load_config(write_config(tmp_path, minimal_config()))
    assert isinstance(cfg, SuiteConfig)
    assert cfg.seed == 5
    assert cfg.family == "lc_nd"
    assert cfg.tol == 1e-10
    # Default check set.
    assert set(cfg.checks) == {"equivalence", "conservation", "interlacing"}
    assert cfg.checks["equivalence"]["trajectories"] == 100


def test_missing_seed_is_a_schema_error():
    with pytest.raises(SchemaError, match="seed"):
        validate_config({"schema_version": 1, "family": "lc_nd"})


def test_unknown_fields_are_hard_errors():
    with pytest.raises(SchemaError, match="extra_field"):
        validate_config(minimal_config(extra_field=1))
    with pytest.raises(SchemaError, match="checks.equivalence.bogus"):
        validate_config(minimal_config(checks={"equivalence": {"bogus": 1}}))
    with pytest.raises(SchemaError, match="family.lc.unexpected"):
        validate_config(minimal_config(
            family={"lc": {"profiles": [[1.0]], "unexpected": 2}}))


def test_schema_version_is_checked():
    with pytest.raises(SchemaError, match="schema_version"):
        validate_config(minimal_config(schema_version=99))
    with pytest.raises(SchemaError, match="schema_version"):
        validate_config({"seed": 1, "family": "lc_nd"})


def test_threshold_positivity_is_enforced():
    with pytest.raises(SchemaError, match="threshold"):
        validate_config(minimal_config(
            checks={"equivalence": {"threshold": -1.0}}))
    with pytest.raises(SchemaError, match="tol"):
        validate_config(minimal_config(tol=0.0))


def test_unknown_family_and_check_names():
    with pytest.raises(SchemaError, match="family"):
        validate_config(minimal_config(family="not_a_family"))
    with pytest.raises(SchemaError, match="checks.nope"):
        validate_config(minimal_config(checks={"nope": {}}))


def test_a_config_number_given_as_text_is_refused():
    # Only a flag's text is read as a number; a config field keeps its YAML type.
    with pytest.raises(SchemaError, match="checks.equivalence.trajectories: expected an integer"):
        validate_config(minimal_config(checks={"equivalence": {"trajectories": "5"}}))
    with pytest.raises(SchemaError, match="checks.interlacing.epsilon: expected a number"):
        validate_config(minimal_config(checks={"interlacing": {"epsilon": "1e-9"}}))


@pytest.mark.parametrize("text, spelling", [("1e-10", "1.0e-10"), ("1e10", "1.0e+10")])
def test_an_exponent_without_a_dot_is_refused_with_its_text(runner, tmp_path, text, spelling):
    # YAML 1.1 reads these as text; the message quotes the value and gives the
    # spelling that YAML reads as the same number.
    config = tmp_path / "config.yaml"
    config.write_text(f"schema_version: 1\nseed: 5\nfamily: lc_nd\ntol: {text}\n")
    assert yaml.safe_load(config.read_text())["tol"] == text
    result = runner.invoke(main, ["suite", "--config", str(config)])
    assert result.exit_code == 1
    assert f"SchemaError: tol: expected a number, got '{text}'; write {spelling}\n" in result.stderr
    assert result.stdout == ""
    assert yaml.safe_load(f"tol: {spelling}")["tol"] == float(text)
    with pytest.raises(SchemaError, match=r"^epsilon: expected a number, got 'abc'$"):
        expect_number("abc", "epsilon")


def test_a_suite_that_runs_no_check_is_a_schema_error(runner, tmp_path):
    with pytest.raises(SchemaError, match="^checks: expected at least one check$"):
        validate_config(minimal_config(checks={}))
    result = runner.invoke(main, ["suite", "--config", write_config(
        tmp_path, minimal_config(checks={}))])
    assert result.exit_code == 1
    assert result.stderr == "error: SchemaError: checks: expected at least one check\n"
    assert result.stdout == ""
    # An absent or null mapping keeps the default checks.
    for cfg in (minimal_config(), minimal_config(checks=None)):
        assert list(validate_config(cfg).checks) == ["equivalence", "conservation",
                                                     "interlacing"]


def test_normal_form_check_requires_a_form_family():
    with pytest.raises(SchemaError, match="normal_form"):
        validate_config(minimal_config(family="beltrami_2",
                                       checks={"normal_form": {}}))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("schema_version: [1\n")
    with pytest.raises(ParseError, match="line"):
        load_config(str(path))
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "absent.yaml"))


def test_recipe_families_build():
    def build(family):
        return build_family(family), family_label(family)

    pair, label = build({"lc": {"profiles": [[0.5, 0.2], [1.0, 0.3]],
                                "interval": [-0.5, 0.5]}})
    assert pair.dim == 2 and label.startswith("lc")
    pair, label = build({"beltrami": {"dim": 2, "diag": [1.0, 2.0, 3.0]}})
    assert pair.dim == 2 and label.startswith("beltrami")
    pair, label = build(
        {"product": {"factors": [{"dim": 1}, {"dim": 2, "diag": [1.0, 2.0, 3.0]}]}})
    assert pair.dim == 3 and label == "product(1x2)"


def test_sphere_factor_validation():
    with pytest.raises(SchemaError, match="diag"):
        validate_config(minimal_config(
            family={"beltrami": {"dim": 2, "diag": [1.0, 2.0]}}))
    with pytest.raises(SchemaError, match="family.product.factors"):
        validate_config(minimal_config(family={"product": {"factors": []}}))


PROFILE_OF_DEGREE_4 = [1.0, 0.0, 0.0, 0.0, 0.1]


@pytest.mark.parametrize("overrides, message", [
    ({"family": 3}, "family: expected a mapping"),
    ({"family": {"bogus": {}}},
     "family: expected a name or one recipe key of ['beltrami', 'lc', 'product']"),
    ({"family": {"lc": {"profiles": []}}},
     "family.lc.profiles: expected a non-empty list of coefficient lists"),
    ({"family": {"lc": {"profiles": [PROFILE_OF_DEGREE_4]}}},
     "family.lc.profiles[0]: profiles have degree at most 3"),
    ({"out": 5}, "out: expected a path string"),
    ({"family": {"beltrami": {"dim": 2}}, "checks": {"normal_form": {}}},
     "checks.normal_form: the configured family has no closed-form eigenvalue model"),
    ({"family": {"product": {"factors": [{"dim": 1}, {"dim": 2}]}},
      "checks": {"normal_form": {}}},
     "checks.normal_form: the configured family has no closed-form eigenvalue model"),
    ({"family": {"lc": 3}}, "family.lc: expected a mapping"),
    ({"family": {"beltrami": [2]}}, "family.beltrami: expected a mapping"),
    ({"family": {"product": None}}, "family.product: expected a mapping"),
    ({"family": "three_d_full", "checks": {"normal_form": {"exclude_radius": -0.1}}},
     "checks.normal_form.exclude_radius: must not be negative"),
], ids=["family-number", "family-unknown-recipe", "lc-no-profiles", "lc-degree-4-profile",
        "out-number", "beltrami-normal-form", "product-normal-form", "lc-number",
        "beltrami-list", "product-null", "normal-form-negative-radius"])
def test_config_refusals_name_their_field(overrides, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        validate_config(minimal_config(**overrides))


# --- run_suite ----------------------------------------------------------------


def quick_config(tmp_path, family="lc_nd", **checks):
    if not checks:
        checks = {"conservation": {"trajectories": 2}}
    return load_config(write_config(tmp_path, minimal_config(
        family=family, checks=checks)))


def test_run_suite_passes_on_a_constructed_family(tmp_path):
    report, csv_rows, timings, code = run_suite(quick_config(tmp_path))
    assert code == 0
    assert report["schema_version"] == SCHEMA_VERSION
    assert all(check["pass"] for check in report["checks"])
    assert csv_rows and len(csv_rows[0]) == 5
    assert "conservation" in timings


def test_run_suite_flags_the_control_pair(tmp_path):
    cfg = quick_config(tmp_path, family="control_conformal",
                       equivalence={"trajectories": 5})
    report, _, _, code = run_suite(cfg)
    assert code == 2
    assert report["checks"][0]["name"] == "equivalence"
    assert not report["checks"][0]["pass"]


def test_run_suite_partial_report_on_build_error(tmp_path):
    cfg = quick_config(tmp_path,
                       family={"lc": {"profiles": [[1.0, 0.8], [1.2]],
                                      "interval": [-0.5, 0.5]}},
                       conservation={"trajectories": 2})
    report, _, _, code = run_suite(cfg)
    assert code == 1
    assert "SeparationViolated" in report["error"]
    assert "profiles 0 and 1" in report["error"]
    assert report["checks"] == []


# --- CLI end-to-end -----------------------------------------------------------


def test_suite_reports_are_byte_identical(runner, tmp_path):
    config = write_config(tmp_path, minimal_config(checks={
        "equivalence": {"trajectories": 5},
        "interlacing": {"points": 20, "vectors": 3},
    }))
    for sub in ("a", "b"):
        result = runner.invoke(main, ["suite", "--config", config,
                                      "--out", str(tmp_path / sub)])
        assert result.exit_code == 0, result.output
    first = (tmp_path / "a" / "suite_report.json").read_bytes()
    second = (tmp_path / "b" / "suite_report.json").read_bytes()
    assert first == second
    assert (tmp_path / "a" / "suite_timings.json").exists()


def test_suite_runs_a_product_recipe(runner, tmp_path):
    config = write_config(tmp_path, minimal_config(
        family={"product": {"factors": [{"dim": 1}, {"dim": 2, "diag": [1, 2, 3]}]}},
        checks={"equivalence": {"trajectories": 3}, "interlacing": {"points": 10, "vectors": 2}}))
    result = runner.invoke(main, ["suite", "--config", config])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["provenance"]["family"] == "product(1x2)"
    assert [check["name"] for check in report["checks"]] == ["equivalence", "interlacing"]


def test_a_failed_build_prints_the_error_and_keeps_the_partial_report(runner, tmp_path):
    config = write_config(tmp_path, minimal_config(
        family={"lc": {"profiles": [[1.0, 0.8], [1.2]]}}))
    result = runner.invoke(main, ["suite", "--config", config, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: SeparationViolated: profiles 0 and 1 overlap")
    assert result.stdout == ""
    report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    assert report["error"] == result.stderr[len("error: "):].rstrip("\n")
    assert report["checks"] == []


def test_a_recipe_that_cannot_be_built_fails_alike_under_every_check(runner, tmp_path):
    # Validation decides whether normal_form may run without building the recipe.
    family = {"lc": {"profiles": [[1.0, 0.8], [1.2]]}}
    errors = []
    for check in ("equivalence", "normal_form"):
        config = write_config(tmp_path, minimal_config(family=family, checks={check: {}}),
                              name=f"{check}.yaml")
        out = tmp_path / check
        result = runner.invoke(main, ["suite", "--config", config, "--out", str(out)])
        assert result.exit_code == 1, result.output
        report = json.loads((out / "suite_report.json").read_text())
        assert report["checks"] == []
        errors.append(report["error"])
    assert errors[0] == errors[1]
    assert errors[0].startswith("SeparationViolated: profiles 0 and 1 overlap")


def test_a_family_admits_normal_form_exactly_when_it_has_a_closed_form():
    for name in STANDARD_FAMILIES:
        config = minimal_config(family=name, checks={"normal_form": {}})
        if standard_form_spec(name) is None:
            with pytest.raises(SchemaError, match="normal_form"):
                validate_config(config)
        else:
            assert validate_config(config).family == name


@pytest.mark.parametrize("cap, expected", [("2", "2"), ("0", None), ("x", None)])
def test_geq_threads_caps_the_linear_algebra_threads(cap, expected):
    env = {key: value for key, value in os.environ.items() if key not in _TARGET_VARS}
    env["GEQ_THREADS"] = cap
    env["PYTHONPATH"] = str(Path(geq.__file__).resolve().parents[1])
    code = ("import json, os, geq, geq._threads as t; "
            "print(json.dumps([os.environ.get(v) for v in t._TARGET_VARS]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [expected] * len(_TARGET_VARS)


def test_exit_code_matrix(runner, tmp_path):
    passing = write_config(tmp_path, minimal_config(checks={
        "interlacing": {"points": 10, "vectors": 2}}), "pass.yaml")
    failing = write_config(tmp_path, minimal_config(
        family="control_conformal",
        checks={"equivalence": {"trajectories": 5}}), "fail.yaml")
    broken = tmp_path / "broken.yaml"
    broken.write_text("schema_version: [1\n")

    assert runner.invoke(main, ["suite", "--config", passing]).exit_code == 0
    assert runner.invoke(main, ["suite", "--config", failing]).exit_code == 2
    result = runner.invoke(main, ["suite", "--config", str(broken)])
    assert result.exit_code == 1
    # Malformed config writes no report.
    assert not list(tmp_path.glob("**/suite_report.json"))


def test_conservation_csv_rows(runner, tmp_path):
    result = runner.invoke(main, [
        "check-conservation", "--family", "lc_nd", "--trajectories", "2",
        "--out", str(tmp_path), "--format", "csv"])
    assert result.exit_code == 0, result.output
    csv_path = tmp_path / "check_conservation_drifts.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,t_value_or_integral_id,start_value,end_value,rel_drift"
    # Two trajectories, five parameter values + two roots each.
    assert len(lines) == 1 + 2 * 7


def test_check_commands_print_reports(runner):
    result = runner.invoke(main, ["check-interlacing", "--family",
                                  "two_d_polar_plus", "--points", "10",
                                  "--vectors", "2"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["checks"][0]["metrics"]["violations"] == 0


def test_check_equivalence_control_exits_2(runner):
    result = runner.invoke(main, ["check-equivalence", "--family",
                                  "control_conformal", "--trajectories", "5"])
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["checks"][0]["metrics"]["max_tangential_defect"] > 1e-3


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_non_finite_duration_fails_fast(runner, duration):
    begin = time.perf_counter()
    result = runner.invoke(main, ["check-equivalence", "--family", "lc_nd",
                                  "--trajectories", "2", "--duration", duration])
    assert time.perf_counter() - begin < 10.0
    assert result.exit_code == 1
    assert "positive and finite" in result.stderr


def test_empty_interlacing_scan_is_a_named_error(runner):
    result = runner.invoke(main, ["check-interlacing", "--family", "lc_nd",
                                  "--points", "0"])
    assert result.exit_code == 1
    assert "SchemaError: checks.interlacing.points: must be at least 1" in result.stderr
    assert "zero-size" not in result.stderr


@pytest.mark.parametrize("args, message", [
    (["check-equivalence", "--threshold", "-1"],
     "checks.equivalence.threshold: must be positive"),
    (["check-interlacing", "--epsilon", "nan"],
     "checks.interlacing.epsilon: must be positive and finite"),
    (["roundtrip", "--points", "0"], "checks.roundtrip.points: must be at least 1"),
    (["suite", "--tol", "nan"], "tol: must be positive and finite"),
    (["suite", "--tol", "-1"], "tol: must be positive and finite"),
    (["check-interlacing", "--tol", "nan"], "tol: must be positive and finite"),
    (["check-equivalence", "--tol", "-1"], "tol: must be positive and finite"),
    (["check-conservation", "--tol", "inf"], "tol: must be positive and finite"),
    (["roundtrip", "--tol", "nan"], "tol: must be positive and finite"),
    (["check-interlacing", "--tol", "0.5"], "tol: must lie in [1e-13, 0.001]"),
    (["check-equivalence", "--tol", "0.5"], "tol: must lie in [1e-13, 0.001]"),
    (["suite", "--tol", "1e-14"], "tol: must lie in [1e-13, 0.001]"),
], ids=["negative-threshold", "nan-epsilon", "zero-roundtrip-points", "suite-nan-tol",
        "suite-negative-tol", "interlacing-nan-tol", "equivalence-negative-tol",
        "conservation-inf-tol", "roundtrip-nan-tol", "interlacing-coarse-tol",
        "equivalence-coarse-tol", "suite-fine-tol"])
def test_flag_overrides_go_through_the_schema(runner, tmp_path, args, message):
    # An interlacing-only config: no check of it reads tol.
    config = write_config(tmp_path, minimal_config(checks={
        "interlacing": {"points": 2, "vectors": 2}}))
    result = runner.invoke(main, args + ["--config", config])
    assert result.exit_code == 1
    assert f"SchemaError: {message}" in result.stderr
    assert result.stdout == ""  # no report, so no bare NaN in it
    assert "zero-size" not in result.stderr


@pytest.mark.parametrize("args, message", [
    (["glue", "--levels", "2,nan"], "levels[1]: must be finite"),
    (["glue", "--levels", "2,inf"], "levels[1]: must be finite"),
    (["beltrami", "--diag", "1,nan,3"], "diag[1]: must be finite"),
    (["product", "--factors", "1:;x:"], "factors[1].dim: expected an integer, got 'x'"),
    (["product", "--factors", "1:1,nan"], "factors[0].diag[1]: must be finite"),
    (["beltrami", "--circles", "0"], "circles: must be at least 1"),
    (["beltrami", "--circles", "-1"], "circles: must be at least 1"),
    (["beltrami", "--planarity-threshold", "nan"],
     "planarity-threshold: must be positive and finite"),
    (["beltrami", "--planarity-threshold", "-1"],
     "planarity-threshold: must be positive and finite"),
    (["beltrami", "--tol", "0.5"], "tol: must lie in [1e-13, 0.001]"),
    (["product", "--factors", "-1:"], "factors[0].dim: must be at least 1"),
    (["product", "--factors", "1:;0:"], "factors[1].dim: must be at least 1"),
    (["beltrami", "--dim", "-2"], "dim: must be at least 1"),
    (["beltrami", "--dim", "0"], "dim: must be at least 1"),
    (["beltrami", "--diag", "1,2"], "diag: expected exactly 3 entries"),
    (["split", "--block", "0"], "block: must be at least 1"),
    (["glue", "--levels", "3"], "levels: expected at least two comma-separated numbers"),
    (["product", "--factors", ";"], "factors: expected at least one factor"),
    (["build", "--grid", "1.5"], "grid: expected an integer, got '1.5'"),
    (["split", "--block", "1.5"], "block: expected an integer, got '1.5'"),
    (["beltrami", "--dim", "1.5"], "dim: expected an integer, got '1.5'"),
    (["beltrami", "--circles", "1.5"], "circles: expected an integer, got '1.5'"),
    (["product", "--factors", "1.5:"], "factors[0].dim: expected an integer, got '1.5'"),
    (["glue", "--seed", "1.5"], "seed: expected an integer, got '1.5'"),
    (["check-equivalence", "--trajectories", "2.5"],
     "checks.equivalence.trajectories: expected an integer, got '2.5'"),
    (["roundtrip", "--block", "1.5"], "checks.roundtrip.block: expected an integer, got '1.5'"),
    (["roundtrip", "--block", "0"], "checks.roundtrip.block: must be at least 1"),
    (["check-equivalence", "--tol", "x"], "tol: expected a number, got 'x'"),
    (["build", "--format", "xml"], "format: unknown format 'xml'; known: json, csv"),
    (["split", "--block", "3"], "block: must be at most 2"),
    (["roundtrip", "--block", "3"], "checks.roundtrip.block: must be at most 2"),
    (["build", "--grid", "47"],
     "grid: must give at most 100000 points; 47 per axis in dimension 3 gives 103823"),
], ids=["glue-nan-level", "glue-inf-level", "beltrami-nan-diag", "product-text-dim",
        "product-nan-diag", "beltrami-zero-circles", "beltrami-negative-circles",
        "beltrami-nan-threshold", "beltrami-negative-threshold", "beltrami-coarse-tol",
        "product-negative-dim", "product-zero-dim", "beltrami-negative-dim",
        "beltrami-zero-dim", "beltrami-short-diag", "split-zero-block", "glue-one-level",
        "product-no-factor", "build-fractional-grid", "split-fractional-block",
        "beltrami-fractional-dim", "beltrami-fractional-circles", "product-fractional-dim",
        "glue-fractional-seed", "equivalence-fractional-trajectories",
        "roundtrip-fractional-block", "roundtrip-zero-block", "equivalence-text-tol",
        "build-unknown-format", "split-block-past-dim", "roundtrip-block-past-dim",
        "build-grid-past-cap"])
def test_command_flags_are_schema_errors(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert f"SchemaError: {message}" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_flag_is_text_that_the_schema_reads(runner, tmp_path, command):
    """No option carries a click converter, so a flag's text takes the path of a
    config field: malformed text exits 1 with a ``SchemaError`` naming the flag,
    never with click's usage error, whose exit code 2 would read as a failed check."""
    config = write_config(tmp_path, minimal_config(checks={
        "interlacing": {"points": 2, "vectors": 2}}))
    options = [param for param in main.commands[command].params
               if isinstance(param, click.Option) and not param.is_flag]
    converters = (click.types.IntParamType, click.types.FloatParamType, click.Choice)
    assert [o.name for o in options if isinstance(o.type, converters)] == []
    for option in options:
        if option.name in ("out", "config"):  # a path, which any text names
            continue
        flag = option.opts[0]
        args = [command, flag, "abc"] + (["--config", config] if command == "suite" else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 1, (flag, result.output)
        assert result.stdout == ""
        assert re.match(rf"error: SchemaError: (checks\.\w+\.)?{flag[2:]}\b", result.stderr), (
            flag, result.stderr)


@pytest.mark.parametrize("factors, steep_diag", [
    ("1:;2:1,1e5,1e10", (1.0, 1e5, 1e10)),
    ("2:1,1e3,1e6;2:1,1e3,1e6", (1.0, 1e3, 1e6)),
], ids=["circle-then-steep-sphere", "steep-spheres"])
def test_product_whose_factors_cannot_be_ordered_names_them(runner, factors, steep_diag):
    # The message names factor 1's sampled range, the range of its own triple.
    # Its least eigenvalue is ill-conditioned (the metrics' condition number
    # reaches 1e14), so its trailing digits depend on the factorization, and
    # the expected figure comes from the library rather than from a literal.
    triple = beltrami_pair(2, LinearMap.diagonal(steep_diag), sphere_chart(2))
    message = f"factor 1 (sampled eigenvalue range {list(triple.eigen_range)})"
    result = runner.invoke(main, ["product", "--factors", factors])
    assert result.exit_code == 1
    assert f"error: EigenOrderViolated: {message}" in result.stderr
    assert "scaled by c = " in result.stderr and "factor 0 (range [" in result.stderr
    assert result.stdout == ""


def test_product_with_a_steep_circle_off_its_chart_builds(runner):
    result = runner.invoke(main, ["product", "--factors", "1:;1:1,10"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["checks"][0]["metrics"]["dim"] == 2


@pytest.mark.parametrize("command", ["check-interlacing", "suite"])
def test_config_tol_outside_the_integrator_range_is_a_schema_error(runner, tmp_path,
                                                                    command):
    config = write_config(tmp_path, minimal_config(tol=0.5, checks={
        "interlacing": {"points": 2, "vectors": 2}}))
    result = runner.invoke(main, [command, "--config", config])
    assert result.exit_code == 1
    assert "SchemaError: tol: must lie in [1e-13, 0.001]" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", sorted(main.commands))
def test_negative_seed_is_a_schema_error(runner, tmp_path, command):
    # Parametrized over the command table, so a new command is covered too.
    config = write_config(tmp_path, minimal_config(checks={
        "interlacing": {"points": 2, "vectors": 2}}))
    args = [command, "--seed", "-1"]
    if command == "suite":
        args += ["--config", config]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "SchemaError: seed: must be at least 0" in result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", sorted(main.commands))
def test_an_unwritable_out_is_a_named_error(runner, tmp_path, command):
    # Every command writes through the one runner, the suite included.
    config = write_config(tmp_path, minimal_config(checks={
        "equivalence": {"trajectories": 2}, "conservation": {"trajectories": 2},
        "interlacing": {"points": 2, "vectors": 2}, "roundtrip": {"points": 5}}))
    (tmp_path / "afile").write_text("")
    args = [command, "--out", str(tmp_path / "afile" / "sub")]
    if any(param.name == "config" for param in main.commands[command].params):
        args += ["--config", config]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error: NotADirectoryError: ")
    assert result.stdout == ""
    assert "Traceback" not in result.output


def test_negative_config_seed_is_a_schema_error(runner, tmp_path):
    with pytest.raises(SchemaError, match="seed: must be at least 0"):
        validate_config(minimal_config(seed=-3))
    result = runner.invoke(main, ["suite", "--config", write_config(
        tmp_path, minimal_config(seed=-3))])
    assert result.exit_code == 1
    assert "SchemaError: seed: must be at least 0" in result.stderr
    assert result.stdout == ""


# The config_hash of each command at default flags: the fingerprint that
# the hash covers is part of the report format.
DEFAULT_CONFIG_HASHES = {
    "build": "db598efd91a86d198a2a85a66e673929221ec3c5c0c516f9d87794f3346a1b11",
    "split": "d8547390fbf51ccd864917157626d8fe55dca5a0f19ba095d11f2004913a82e3",
    "glue": "7607a49b34e01b51cb602c1cf7f00a740e82fedc9b666b95b79d9f806f7d3b51",
    "beltrami": "7363e3f6b4cb457867926377689d032689cebda44fb40fd89391997165370987",
    "product": "d124a98ad4da0a2df1cd75b7d99dd3a5c69518a4fae431deb9eeb92ef23d8e3a",
    "check-equivalence":
        "6ecf11b1677bdc173db9809a7e8a35c088f724e9b3b9d4777f225f0f46b05a96",
    "check-conservation":
        "6ec4f102cf5937a644d39d9ff4be3bf488dcfacebb50d07ef31af7c4549c636f",
    "check-interlacing":
        "594199dce438cddf9f3b49062f2ef280017ed69b5973b1f1b3bb5058123a8a5e",
    "roundtrip": "02b491781f962b45b70d42ee7460745b2431f0dd9014d07623e9b001a08e0f52",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_CONFIG_HASHES))
def test_default_flag_config_hashes_are_pinned(runner, command):
    result = runner.invoke(main, [command])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["config_hash"] == DEFAULT_CONFIG_HASHES[command]
    assert report["provenance"]["command"] == command


def test_beltrami_on_a_circle(runner):
    result = runner.invoke(main, ["beltrami", "--dim", "1", "--diag", "1,2"])
    assert result.exit_code == 0, result.output
    metrics = json.loads(result.stdout)["checks"][0]["metrics"]
    assert metrics["planarity_before"] == metrics["planarity_after"] == 0.0


def test_non_finite_config_numbers_are_schema_errors():
    with pytest.raises(SchemaError, match="exclude_radius: must be finite"):
        validate_config(minimal_config(
            checks={"normal_form": {"exclude_radius": float("nan")}}))
    with pytest.raises(SchemaError, match=r"profiles\[0\]\[0\]: must be finite"):
        validate_config(minimal_config(
            family={"lc": {"profiles": [[float("inf")]]}}))
    with pytest.raises(SchemaError, match="epsilon: must be finite"):
        validate_config(minimal_config(checks={"interlacing": {"epsilon": 10**400}}))


def test_config_flags_override(runner, tmp_path):
    config = write_config(tmp_path, minimal_config(checks={
        "equivalence": {"trajectories": 4}}))
    result = runner.invoke(main, ["check-equivalence", "--config", config,
                                  "--trajectories", "6"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["checks"][0]["metrics"]["trajectories"] == 6
    assert report["provenance"]["seed"] == 5  # from the config file


@pytest.mark.parametrize("command", ["check-interlacing", "build"])
def test_explicit_family_overrides_the_config(runner, tmp_path, command):
    config = write_config(tmp_path, minimal_config(checks={
        "interlacing": {"points": 2, "vectors": 2}}))
    for extra, family, dim in (([], "lc_nd", 3), (["--family", "beltrami_2"], "beltrami_2", 2)):
        result = runner.invoke(main, [command, "--config", config] + extra)
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["provenance"]["family"] == family
        if command == "build":
            assert report["data"]["dim"] == dim
        else:
            assert report["provenance"]["seed"] == 5  # still from the config file


@pytest.mark.parametrize("command", ["split", "build"])
def test_config_seed_and_out_reach_every_command_that_takes_a_config(runner, tmp_path,
                                                                     command):
    config = write_config(tmp_path, minimal_config(seed=3, out=str(tmp_path / "cfg")))
    result = runner.invoke(main, [command, "--config", config])
    assert result.exit_code == 0, result.output
    assert result.stdout == ""
    written = (tmp_path / "cfg" / f"{command}_report.json").read_text()
    # The config's values act as the same flags would.
    assert written == runner.invoke(main, [command, "--seed", "3"]).stdout
    assert json.loads(written)["provenance"]["seed"] == 3
    # Flags given on the command line win over the config.
    result = runner.invoke(main, [command, "--config", config, "--seed", "4",
                                  "--out", str(tmp_path / "flag")])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "flag" / f"{command}_report.json").read_text())
    assert report["provenance"]["seed"] == 4


def test_build_emits_grid_values(runner):
    result = runner.invoke(main, ["build", "--family", "two_d_polar_plus",
                                  "--grid", "2"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["data"]["dim"] == 2
    assert len(report["data"]["points"]) == 4
    assert len(report["data"]["g"]) == 4


def test_empty_grid_is_a_schema_error(runner):
    result = runner.invoke(main, ["build", "--family", "lc_nd", "--grid", "0"])
    assert result.exit_code == 1
    assert "SchemaError: grid: must be at least 1" in result.stderr
    assert result.stdout == ""


def test_split_and_glue_commands(runner):
    result = runner.invoke(main, ["split", "--family", "lc_nd", "--block", "2"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["checks"][0]["metrics"]["index_split"] == [[0, 1], [2]]
    assert report["checks"][0]["metrics"]["max_off_block"] < 1e-10

    result = runner.invoke(main, ["glue", "--levels", "2,3"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    metrics = report["checks"][0]["metrics"]
    assert metrics["eigen_range"] == [2.0, 3.0]
    assert "points" not in metrics  # glue evaluates no grid, so it has no --grid
    assert "grid" not in {param.name for param in main.commands["glue"].params}
    assert metrics["gbar_center"][0][0] == pytest.approx(1.0 / 12.0)
    assert metrics["gbar_center"][1][1] == pytest.approx(1.0 / 18.0)

    result = runner.invoke(main, ["glue", "--levels", "3,2"])
    assert result.exit_code == 1


def test_split_without_gap_is_an_error(runner):
    # The torsion control's eigenvalue ranges overlap across any cut.
    result = runner.invoke(main, ["split", "--family", "control_torsion"])
    assert result.exit_code == 1


@pytest.mark.parametrize("block", [1, 2])
def test_split_across_the_bifurcation_locus_is_an_error(runner, block):
    # three_d_full's eigenvalues all meet at the chart centre.
    result = runner.invoke(main, ["split", "--family", "three_d_full", "--block", str(block)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: GapViolated: eigenvalue ranges overlap")
    assert result.stdout == ""


def test_roundtrip_command(runner):
    result = runner.invoke(main, ["roundtrip", "--family", "lc_nd",
                                  "--points", "50"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["checks"][0]["metrics"]["max_error"] < 1e-12


@pytest.mark.parametrize("family, block, code", [
    ("product_s2_s2", 2, 0), ("product_s1_s2", 1, 0), ("lc_nd", 1, 0), ("beltrami_3", 1, 2),
])
def test_roundtrip_is_judged_on_the_error_relative_to_the_entries(runner, family, block, code):
    # As guarantee 05: each metric's error over max(1, its largest entry).  The
    # products' entries reach 1e2 to 1e6, so their absolute error exceeds the
    # threshold; beltrami_3's chart is not adapted to the cut.
    result = runner.invoke(main, ["roundtrip", "--family", family, "--block", str(block)])
    assert result.exit_code == code, result.output
    metrics = json.loads(result.stdout)["checks"][0]["metrics"]
    assert metrics["max_relative_error"] <= metrics["max_error"]
    assert (metrics["max_relative_error"] < metrics["threshold"]) == (code == 0)
    if family.startswith("product"):
        assert metrics["max_error"] >= metrics["threshold"]


LC_RECIPE = {"lc": {"profiles": [[0.5, 0.2], [1.0, 0.3]], "interval": [-0.5, 0.5]}}


@pytest.mark.parametrize("family, params", [
    ("lc_nd", {}), (LC_RECIPE, {}), ("three_d_full", {}), ("three_d_full", {"exclude_radius": 0}),
], ids=["lc_nd", "lc-recipe", "three-d-full", "three-d-full-no-exclusion"])
def test_the_normal_form_check_matches_the_closed_form_eigenvalues(tmp_path, family, params):
    report, _, _, code = run_suite(quick_config(tmp_path, family=family, normal_form=params))
    assert code == 0, report
    metrics = report["checks"][0]["metrics"]
    assert metrics["max_eigen_mismatch"] < 1e-12
    # three_d_full leaves out the points within exclude_radius of its axis.
    xs = build_family(family).chart.sample(np.random.default_rng(5), 500)
    radius = params.get("exclude_radius", 0.05) if family == "three_d_full" else 0.0
    kept = int(np.sum(np.linalg.norm(xs[:, 1:], axis=1) >= radius))
    assert metrics["points"] == kept
    assert kept < 500 if radius > 0.0 else kept == 500


def test_an_exclusion_that_leaves_no_point_keeps_the_partial_report(runner, tmp_path):
    config = write_config(tmp_path, minimal_config(family="three_d_full", checks={
        "interlacing": {"points": 2, "vectors": 2}, "normal_form": {"exclude_radius": 10.0}}))
    result = runner.invoke(main, ["suite", "--config", config, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.stderr == ("error: SchemaError: checks.normal_form.exclude_radius: "
                             "leaves none of the 500 sample points\n")
    assert result.stdout == ""
    report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    assert report["error"] == result.stderr[len("error: "):].rstrip("\n")
    assert [check["name"] for check in report["checks"]] == ["interlacing"]


@pytest.mark.parametrize("command", ["check-interlacing", "suite"])
def test_a_one_dimensional_recipe_interlaces_vacuously(runner, tmp_path, command):
    # One eigenvalue, so no root: nothing can leave its bracket.
    config = write_config(tmp_path, minimal_config(
        family={"lc": {"profiles": [[0.5, 0.2]]}},
        checks={"interlacing": {"points": 5, "vectors": 2}}))
    result = runner.invoke(main, [command, "--config", config])
    assert result.exit_code == 0, result.output
    metrics = json.loads(result.stdout)["checks"][0]["metrics"]
    assert metrics["violations"] == 0 and metrics["samples"] == 10
    assert metrics["max_excess"] == metrics["max_pin_deviation"] == 0.0


def test_beltrami_and_product_commands(runner):
    result = runner.invoke(main, ["beltrami", "--dim", "2", "--diag", "1,2,3",
                                  "--circles", "3", "--tol", "1e-12"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    metrics = report["checks"][0]["metrics"]
    assert metrics["planarity_before"] < 1e-9
    assert metrics["planarity_after"] < 1e-9

    result = runner.invoke(main, ["product", "--factors", "1:;2:1,2,3"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["checks"][0]["metrics"]["dim"] == 3
    assert report["checks"][0]["metrics"]["max_multiplicity"] < 4

    result = runner.invoke(main, ["beltrami", "--dim", "2", "--diag", "1,2"])
    assert result.exit_code == 1  # wrong diagonal length


def test_family_list(runner):
    result = runner.invoke(main, ["build", "--list"])
    assert result.exit_code == 0
    assert "three_d_full" in result.output.split()
