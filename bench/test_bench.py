"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Per-layer counts must repeat exactly for one seed, layer self times must add
up to the traced time, the command must keep its output contract, and it
must refuse to run without the library's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _sample(ops):
    """The first operation of each kind, so a round stays short."""
    kinds = {}
    for op in ops:
        kinds.setdefault(op.label.split("/")[0], op)
    return list(kinds.values())


def _traced_round(name, seed):
    ops = _sample(workloads.WORKLOADS[name](seed))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.LAYER_ENTRY_POINTS, evaluators=True):
        played = run.Round(ops, tracer, tracing.ROOT)
    assert played.failures(ops) == 0
    return tracer, played


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(name):
    first, played = _traced_round(name, seed=3)
    second, _ = _traced_round(name, seed=3)
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.rows) == dict(second.rows)
    assert (first.accepted, first.rejected) == (second.accepted, second.rejected)
    assert first.coverage == second.coverage
    assert set(first.calls) <= set(tracing.LAYERS) | {tracing.ROOT}
    assert first.calls[tracing.ROOT] == len(played.latencies)

    total_self = sum(first.self_s.values())
    assert total_self == pytest.approx(sum(played.latencies), rel=1e-2)
    assert total_self <= played.wall_s
    metrics = tracing.layer_metrics(first, 1, played.wall_s)
    shares = [value for key, (value, _) in metrics.items() if key.endswith(".self_frac")]
    assert min(shares) >= 0.0
    assert sum(shares) == pytest.approx(1.0)


def test_reference_kernel_scales_every_call():
    ops = _sample(workloads.WORKLOADS["pointwise"](3))
    played = run.Round(ops, reference=run.Reference())
    assert played.failures(ops) == 0
    assert len(played.scales) == len(ops)
    assert all(0.0 < scale < float("inf") for scale in played.scales)


def test_tracing_restores_every_binding():
    import geq
    from geq.charts import MetricField

    before = {name: getattr(geq, name) for name in geq.__all__}
    with tracing.installed(tracing.Tracer(), tracing.LAYER_ENTRY_POINTS, evaluators=True):
        assert geq.check_conservation is not before["check_conservation"]
        assert "__getattribute__" in vars(MetricField)
    assert {name: getattr(geq, name) for name in geq.__all__} == before
    assert "__getattribute__" not in vars(MetricField)


def _run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pointwise", "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, section):
    done = _run_bench(run.ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
