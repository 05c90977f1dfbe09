#!/usr/bin/env python3
"""Benchmark runner for geq: one workload, one process, one thread.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: it imports geq from ``src/`` there and
nowhere else, after setting ``GEQ_THREADS=1``.  Workloads are defined in
``workloads.py``; ``NOTES.md`` explains them and records the baseline.

A run sets the workload up several times (``setup_s`` is the median), plays
one warm-up round, then plays rounds in a closed loop (each call is issued
when the previous one returns) until ``--seconds`` have passed.  Between
slices of about ``SLICE_S`` of work it times a fixed reference kernel, and
reports times scaled to the kernel's nominal speed (see ``Reference``).
Every call's output is checked against its published tolerance after the
round, outside the timed region.  With ``--trace 1`` untraced and traced rounds
alternate, and the per-layer metrics of ``tracing.py`` are reported instead
of the end-to-end ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-ups are repeated before every round for at least this long, so that
# the set-up samples spread over the whole run as the rounds do.
SETUP_SLICE_S = 0.05
# Work timed between two timings of the reference kernel.
SLICE_S = 0.1


def import_geq():
    """Import geq from the checkout's ``src/`` with the thread cap in place."""
    if not (SRC / "geq" / "__init__.py").is_file():
        raise SystemExit(f"geq sources not found under {SRC}")
    os.environ["GEQ_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import geq
    if Path(geq.__file__).resolve().parent != SRC / "geq":
        raise SystemExit(f"imported geq from {geq.__file__}, not from {SRC}")
    return geq


def machine() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "GEQ_THREADS": os.environ.get("GEQ_THREADS")}


class Reference:
    """A fixed kernel of small numpy calls and interpreter work, the mix
    that geq's calls are made of, independent of geq.

    The host's speed swings by up to 1.8x over spells of seconds to minutes,
    and process CPU time swings with it.  Each timed slice of work is
    divided by the kernel's time around it and multiplied by ``NOMINAL_S``,
    its time on the quiet machine recorded in ``NOTES.md``: the result is
    the slice's time at that speed.  A change to geq moves the slice and
    not the kernel, so it moves the scaled time as much as the wall time.
    """

    NOMINAL_S = 2.2e-3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        self._np = np
        self._a = a @ a.T + 6.0 * np.eye(6)
        self._v = np.linspace(0.1, 1.0, 32)

    def _kernel(self) -> float:
        np, a, v = self._np, self._a, self._v
        acc = 0.0
        for i in range(150):
            acc += float((np.sin(v) * v + i).sum())
            acc += float(np.linalg.solve(a, v[:6])[0])
            row = {"i": i, "acc": acc}
            acc += row["i"] * 1e-9
        return acc

    def time(self) -> float:
        """The faster of two timings, so an interrupt does not count."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best


class Round:
    """One pass over a workload's operations.

    With a ``reference``, the kernel is timed before the first call and
    after every slice of at least ``SLICE_S`` of calls; ``scales`` holds,
    for each call, ``Reference.NOMINAL_S`` over the mean kernel time around
    its slice.
    """

    def __init__(self, ops, tracer=None, root: str = "other", reference=None):
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.outputs: list = []
        self.errors: list[str] = []
        before = reference.time() if reference is not None else 0.0
        pending, slice_s = 0, 0.0
        begin = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.label = op.label
            start = time.perf_counter()
            try:
                out = op.call() if tracer is None else tracer.span(root, 0, op.call)
            except Exception as exc:  # a failed call is a failed operation
                out = exc
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            self.latencies.append(time.perf_counter() - start)
            self.outputs.append(out)
            pending, slice_s = pending + 1, slice_s + self.latencies[-1]
            if reference is not None and (slice_s >= SLICE_S or index == len(ops) - 1):
                after = reference.time()
                self.scales.extend([2.0 * Reference.NOMINAL_S / (before + after)] * pending)
                before, pending, slice_s = after, 0, 0.0
        self.wall_s = time.perf_counter() - begin

    def failures(self, ops) -> int:
        """Check every output against its tolerance (call after timing)."""
        return sum(isinstance(out, Exception) or not op.check(out)
                   for op, out in zip(ops, self.outputs))


def set_up(build, seed: int, tracer=None):
    """Build the workload at least once and until ``SETUP_SLICE_S`` has
    passed; return the operations and the time of each build."""
    times: list[float] = []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < SETUP_SLICE_S:
        start = time.perf_counter()
        ops = build(seed) if tracer is None else tracer.span("setup", 0, build, (seed,))
        times.append(time.perf_counter() - start)
    return ops, times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(latencies: list[float]) -> tuple[str, float]:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if (1.0 - q) * len(ordered) >= 10:
            return label, ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return "max", ordered[-1]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, ops, played: Round) -> None:
        self.attempted += len(ops)
        self.failed += played.failures(ops)
        self.errors.extend(played.errors)


def measure(build, seed: int, seconds: float, tally: Tally) -> dict:
    reference = Reference()
    ops = build(seed)
    tally.add(ops, Round(ops, reference=reference))  # warm-up
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    rounds: list[float] = []
    kernel: list[float] = []
    per_op: list[list[float]] = [[] for _ in ops]
    raw_per_op: list[list[float]] = [[] for _ in ops]
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        before = reference.time()
        ops, times = set_up(build, seed)
        scale = 2.0 * Reference.NOMINAL_S / (before + reference.time())
        setup_times.extend(t * scale for t in times)
        raw_setup_times.extend(times)
        played = Round(ops, reference=reference)
        tally.add(ops, played)
        rounds.append(played.wall_s)
        kernel.extend(Reference.NOMINAL_S / scale for scale in played.scales)
        for samples, raw, latency, scale in zip(per_op, raw_per_op,
                                                played.latencies, played.scales):
            samples.append(latency * scale)
            raw.append(latency)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A slow spell of the machine hits a few calls of a round; the median of
    # each call across rounds, summed over the round, discards it.  A spell
    # as long as the run slows the kernel as well, and the scaling removes it.
    run_s = sum(statistics.median(samples) for samples in per_op)
    raw_run_s = sum(statistics.median(samples) for samples in raw_per_op)
    setup_s = statistics.median(setup_times)
    q1, median_round, q3 = quartiles(rounds)
    print(f"run_s        {run_s:.4f} s   sum over {len(ops)} calls of each call's median "
          f"at the reference kernel's nominal speed; unscaled {raw_run_s:.4f} s; "
          f"round wall time median {median_round:.4f} (q1 {q1:.4f}, q3 {q3:.4f}) "
          f"over {len(rounds)} rounds")
    q1, median_kernel, q3 = quartiles(kernel)
    print(f"kernel       {median_kernel * 1e3:.3f} ms   reference kernel, nominal "
          f"{Reference.NOMINAL_S * 1e3:.3f} ms (q1 {q1 * 1e3:.3f}, q3 {q3 * 1e3:.3f})")
    print(f"setup_s      {setup_s:.5f} s   median of {len(setup_times)} set-ups at nominal "
          f"speed; unscaled {statistics.median(raw_setup_times):.5f} s")
    print(f"peak_rss_mb  {peak_mb:.1f} MB")
    latencies = [latency for samples in per_op for latency in samples]
    label, slow = tail(latencies)
    print(f"call_p50_us  {statistics.median(latencies) * 1e6:.1f} us   "
          f"{label} {slow * 1e6:.1f} us, n={len(latencies)} calls")
    by_call: dict[str, list[float]] = {}
    for op, samples in zip(ops, per_op):
        by_call.setdefault(op.label.split("/")[0], []).extend(samples)
    for name, values in by_call.items():
        label, slow = tail(values)
        print(f"  {name:<20} p50 {statistics.median(values) * 1e6:>12.1f} us   "
              f"{label} {slow * 1e6:.1f} us, n={len(values)}")
    return {
        "run_s": {"value": run_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def trace(build, seed: int, seconds: float, tally: Tally) -> dict:
    import tracing

    ops = build(seed)
    tally.add(ops, Round(ops))  # warm-up
    setup_tracer = tracing.Tracer()
    tracer = tracing.Tracer()
    setup_times: list[float] = []
    plain: list[float] = []
    traced: list[float] = []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        with tracing.installed(setup_tracer, tracing.BUILDER_ENTRY_POINTS, evaluators=False):
            ops, times = set_up(build, seed, setup_tracer)
        setup_times.extend(times)
        if len(plain) > len(traced):
            with tracing.installed(tracer, tracing.LAYER_ENTRY_POINTS, evaluators=True):
                played = Round(ops, tracer, tracing.ROOT)
            traced.append(played.wall_s)
        else:
            played = Round(ops)
            plain.append(played.wall_s)
        tally.add(ops, played)
    metrics = tracing.layer_metrics(tracer, len(traced), sum(traced))
    metrics.update(tracing.builder_metrics(setup_tracer, len(setup_times), sum(setup_times)))
    traced_s = statistics.median(traced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / statistics.median(plain) - 1.0, "frac")
    print(f"{len(traced)} traced and {len(plain)} untraced rounds; per traced round:")
    print(f"  {'layer':<22}{'calls':>10}{'rows':>12}{'self_s':>11}{'share':>8}")
    for layer in tracing.LAYERS + (tracing.ROOT,):
        print(f"  {layer:<22}{tracer.calls[layer] / len(traced):>10.0f}"
              f"{tracer.rows[layer] / len(traced):>12.0f}"
              f"{tracer.self_s[layer] / len(traced):>11.4f}"
              f"{tracer.self_s[layer] / sum(traced):>8.1%}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".rows", ".self_frac")):
            print(f"  {name} {value:.6g} {unit}")
    for label, (truncated, disp) in tracing.coverage_by_label(tracer).items():
        print(f"  coverage {label:<36} truncated {truncated:6.1%}  disp_median {disp:.3g}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_geq()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    print(f"machine: {json.dumps(machine())}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    tally = Tally()
    run = trace if args.trace else measure
    metrics = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, tally)
    print(f"fail_frac    {tally.failed / tally.attempted:.4g}   "
          f"{tally.failed} of {tally.attempted} calls missed their tolerance")
    for error in tally.errors[:5]:
        print(f"  error: {error}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
