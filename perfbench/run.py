#!/usr/bin/env python3
"""mixsmooth benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload verify-m2 --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a run that alternates untraced and traced passes.  The exit code is
1 when an output fails the correctness gate and 2 when the checkout holds no
program.  Machine facts and the full result go to
``.bench_build/perfbench/<workload>-seed<S>-trace<T>.json``.

Seeds: 7 is the default (the golden-window reference seed); 1009 is held out
for checking later claims and should not be used while writing a change.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads: numpy's OpenBLAS would
# otherwise start threads beside the program's own --threads workers.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 7
SETUP_REPEATS = 15
PACKAGE = tracing.PACKAGE

# Times are process CPU time: on a shared host a pass's wall time swings by
# a third or more while its CPU time holds (see perfbench/README.md).  Wall
# time is reported per layer as pass.wall_s.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}

_SPAN_STATS = {"calls": "count", "rows": "count", "busy_s": "s", "self_s": "s",
               "bytes_computed": "bytes"}


def _span_metrics(span: str, *stats: str) -> dict[str, str]:
    return {f"{span}.{stat}": _SPAN_STATS[stat] for stat in stats}


PER_LAYER = {
    **_span_metrics("core.evaluate_coeff_batch", "calls", "rows", "busy_s", "bytes_computed"),
    **_span_metrics("core.evaluate_on_grid", "calls", "busy_s"),
    **_span_metrics("lorentz.batch_norms", "calls", "rows", "self_s"),
    **_span_metrics("lorentz.lorentz_norm_sorted", "busy_s"),
    **_span_metrics("lorentz.poly_norm", "calls", "busy_s"),
    **_span_metrics("smoothness.modulus_grid", "calls", "busy_s"),
    **_span_metrics("smoothness.difference_norms", "calls", "rows", "self_s"),
    **_span_metrics("smoothness.mixed_modulus", "calls", "busy_s"),
    **_span_metrics("smoothness.log_modulus_seminorm", "busy_s"),
    **_span_metrics("spectral.block_norms", "calls", "rows", "busy_s"),
    **_span_metrics("spectral.tail_square_norms", "calls", "rows", "busy_s"),
    **_span_metrics("spectral.angle_residual_norms", "calls", "rows", "busy_s"),
    **_span_metrics("approx.direct_approximant", "calls", "busy_s"),
    **_span_metrics("seqnorms.seq_norm_B", "busy_s"),
    **_span_metrics("seqnorms.theorem1_rhs", "busy_s"),
    **_span_metrics("seqnorms.theorem2_rhs", "busy_s"),
    **_span_metrics("seqnorms.theorem3_norm", "busy_s"),
    **_span_metrics("verify.generate_corpus", "busy_s"),
    **_span_metrics("verify.run_check", "calls", "busy_s"),
    "verify.Workspace.hits": "count",
    "verify.Workspace.misses": "count",
    "verify.Workspace.hit_ratio": "ratio",
    "verify.Workspace.dup_builds": "count",
    **_span_metrics("verify.parallel_map", "busy_s"),
    "verify.parallel.overlap": "ratio",
    "cli.report_bytes": "bytes",
    **_span_metrics("verify.RatioReport.to_json", "busy_s"),
    **_span_metrics("verify.RatioReport.to_csv", "busy_s"),
    "pass.wall_s": "s",
    "trace.overhead_s": "s",
}

# Transform buffer of one evaluate_coeff_batch row: complex128 per grid point.
COMPLEX_BYTES = 16


def import_program() -> SimpleNamespace:
    """Import the package afresh (module code runs again) and return its layers."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{
        layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tracing.LAYERS
    })


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "machine": platform.machine(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _setup(workload, seed: int):
    """CPU-time SETUP_REPEATS fresh imports plus workload set-up; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.process_time()
        prog = import_program()
        state = workload.setup(prog, seed)
        times.append(time.process_time() - start)
    return prog, state, times


class Tally:
    """Gate outcomes across every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result: workloads.PassResult) -> workloads.PassResult:
        self.attempted += result.attempted
        self.failures += result.failures
        return result


def measure(workload, seed: int, seconds: float, scratch: Path) -> tuple[dict, Tally, dict]:
    """End-to-end run: set-up repeats, then timed passes for ``seconds``."""
    prog, state, setup_times = _setup(workload, seed)
    tally = Tally()
    walls, cpus, latencies = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()  # start every pass from the same heap state
        result = tally.add(workload.run_pass(prog, state, scratch))
        walls.append(result.wall_s)
        cpus.append(result.cpu_s)
        latencies += result.latencies_s
        # stop before a pass that would run past the measuring time
        if time.perf_counter() - start + result.wall_s > seconds:
            break
    lat_ms = np.asarray(latencies) * 1e3
    metrics = {
        "setup_s": _median(setup_times),
        "cpu_s": _median(cpus),
        "item_p50_ms": float(np.percentile(lat_ms, 50)),
        "item_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - len(tally.failures) / tally.attempted,
    }
    detail = {"setup_cpu_s": setup_times, "pass_cpu_s": cpus, "pass_wall_s": walls,
              "items": len(latencies)}
    return metrics, tally, detail


def _layer_values(summary: dict, report_bytes: int, pass_figures: dict) -> dict:
    spans = summary["spans"]
    special = {
        **{f"verify.Workspace.{k}": v for k, v in summary["workspace"].items()},
        "verify.parallel.overlap": summary["parallel_overlap"],
        "cli.report_bytes": report_bytes,
        **pass_figures,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "bytes_computed":
            out[name] = spans.get(span, {}).get("cells", 0) * COMPLEX_BYTES
        else:
            out[name] = spans.get(span, {}).get(stat, 0)
    return out


def measure_traced(workload, seed: int, seconds: float, scratch: Path):
    """Per-layer run: untraced and traced passes alternate for ``seconds``.

    A traced pass repeats the workload set-up under the tracer, so set-up
    layers (corpus generation) show in the spans.  Counts come from the first
    traced pass, times are medians over traced passes, and the tracing
    overhead is the traced minus the untraced median pass CPU time.
    """
    prog, state, _ = _setup(workload, seed)
    tracer = tracing.Tracer()
    tally = Tally()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        plain.append(tally.add(workload.run_pass(prog, state, scratch)))
        gc.collect()
        tracer.install()
        try:
            traced_state = workload.setup(prog, seed)
            result = tally.add(workload.run_pass(prog, traced_state, scratch, tracer))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        summary = tracing.summarize(spans)
        traced.append((result, summary, spans))
        if time.perf_counter() - start + plain[-1].wall_s + result.wall_s > seconds:
            break
    pass_figures = {
        "pass.wall_s": _median([r.wall_s for r in plain]),
        "trace.overhead_s": _median([r.cpu_s for r, _, _ in traced])
        - _median([r.cpu_s for r in plain]),
    }
    per_pass = [_layer_values(s, r.report_bytes, pass_figures) for r, s, _ in traced]
    metrics = dict(per_pass[0])
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ratio") and name not in pass_figures:
            metrics[name] = _median([v[name] for v in per_pass])
    counts = [{k: v[k] for k, u in PER_LAYER.items() if u in ("count", "bytes")}
              for v in per_pass]
    detail = {
        "plain_wall_s": [r.wall_s for r in plain],
        "plain_cpu_s": [r.cpu_s for r in plain],
        "traced_wall_s": [r.wall_s for r, _, _ in traced],
        "traced_cpu_s": [r.cpu_s for r, _, _ in traced],
        "counts_repeat": all(c == counts[0] for c in counts),
    }
    return metrics, tally, detail, [s for _, _, s in traced]


def write_spans(path: Path, passes: list[list[tuple]]) -> None:
    """Spans of every traced pass as columns: id, name, parent, start, end, item, rows, cells."""
    names: dict[str, int] = {}
    out = []
    for spans in passes:
        rows = [(sid, names.setdefault(name, len(names)), parent, start, end, item, n, cells)
                for sid, name, parent, start, end, item, n, cells, _ in spans]
        out.append([list(col) for col in zip(*rows)] if rows else [])
    columns = ["id", "name", "parent", "start", "end", "item", "rows", "cells"]
    path.write_text(json.dumps({"names": list(names), "columns": columns, "passes": out}))


def run_benchmark(workload, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    """One benchmark run; writes its record (and spans) to ``scratch``, returns the result."""
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    if trace:
        values, tally, detail, passes = measure_traced(workload, seed, seconds, scratch)
        units = PER_LAYER
        write_spans(scratch / f"{stem}-spans.json", passes)
    else:
        values, tally, detail = measure(workload, seed, seconds, scratch)
        units = END_TO_END
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_facts(), "detail": detail, "failures": tally.failures,
              "result": result}
    (scratch / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = root / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)

    result = run_benchmark(workloads.build(args.workload), args.seed, args.seconds,
                           args.trace, scratch)
    if not result["correct"]:
        print(f"gate: {result['failed']} of {result['attempted']} items failed; see "
              f"{scratch}/{args.workload}-seed{args.seed}-trace{args.trace}.json", file=sys.stderr)
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
