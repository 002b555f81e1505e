#!/usr/bin/env python3
"""pprinv benchmark: one seeded workload per process, closed loop, one caller.

Usage, from the repository root:

    python3 pprbench/run.py --workload sweep_optimize_n400 --seed 1 --seconds 30 --trace 0
    python3 pprbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` times operations back to back with tracing off and reports the
end-to-end metrics. ``--trace 1`` splits the time over three passes of the
same operations (untraced, traced, traced with tracemalloc) and reports the
per-layer metrics named in BENCHMARK.json. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
COVERAGE_FLOOR = 0.9

# Public functions each workload must call at least once per operation; a
# traced run flags any of these that records zero calls.
_COMMON_SWEEP = (
    "cli.main", "graph.parse_edge_list", "graph.parse_labels",
    "proximity.build_proximity", "proximity.truncated_ppr",
    "embedding.factorize", "embedding.reconstruct_proximity",
    "linalg.randomized_svd", "analytical.binarize", "metrics.recovery_report",
    "metrics.average_path_length", "metrics.relative_frobenius_error",
    "graph.all_pairs_distances", "graph.conductance",
)
EXPECTED_CALLS = {
    "sweep_optimize_n400": _COMMON_SWEEP + (
        "optimize.invert_optimize", "optimize.volume_shift"),
    "exact_analytical_k2000": (
        "proximity.deepwalk_log_proximity", "analytical.invert_analytical",
        "analytical.recover_laplacian", "linalg.pseudoinverse",
        "analytical.binarize", "metrics.recovery_report",
        "metrics.average_path_length", "metrics.relative_frobenius_error",
        "graph.all_pairs_distances"),
    "sweep_analytical_n1600": _COMMON_SWEEP + (
        "analytical.invert_analytical", "analytical.recover_laplacian",
        "linalg.pseudoinverse"),
}


def _fail(message: str):
    print(f"pprbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path.name} not found next to {BENCH_DIR.name}/")
    return json.loads(path.read_text())


def import_program():
    """Put the checkout's src/ first on sys.path and import pprinv."""
    src = ROOT / "src"
    if not (src / "pprinv" / "__init__.py").is_file():
        _fail("no src/pprinv in this checkout; nothing to benchmark")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import pprinv  # noqa: F401


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports pprinv from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pprinv"], env=env, check=True)
    return time.perf_counter() - t0


def blas_threads() -> int:
    """Effective OpenBLAS thread count, or -1 when it cannot be queried."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": platform.machine(),
    }


# --------------------------------------------------------------------------


class Runner:
    """Runs one workload's operations and checks each outcome."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recovery: dict[int, dict] = {}  # graph index -> recovery values

    def op(self, index: int) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run(self.inputs, index)
        except Exception:  # one failed operation must not end the run
            elapsed = time.perf_counter() - t0
            self._problem(index, traceback.format_exc(limit=3).strip())
            return elapsed
        elapsed = time.perf_counter() - t0
        problems = list(outcome.problems)
        key = index % self.inputs["graphs"]
        values = outcome.values()
        if self.recovery.setdefault(key, values) != values:
            problems.append(f"recovery differs from the first run on the same input: "
                            f"{values} vs {self.recovery[key]}")
        if problems:
            self._problem(index, "; ".join(problems))
        return elapsed

    def _problem(self, index, message):
        self.failed += 1
        self.problems.append(f"op {index}: {message}")
        print(f"pprbench: check failed: op {index}: {message}", file=sys.stderr)

    def loop(self, seconds: float, min_ops: int = 1, max_ops: int | None = None) -> list[float]:
        times: list[float] = []
        start = time.perf_counter()
        while (len(times) < min_ops or time.perf_counter() - start < seconds) and (
                max_ops is None or len(times) < max_ops):
            times.append(self.op(len(times)))
        return times

    def recovery_means(self) -> dict:
        out = {}
        for key in ("err_A", "err_l", "err_phi_avg", "final_loss"):
            vals = [v[key] for _, v in sorted(self.recovery.items()) if v[key] is not None]
            out[key] = sum(vals) / len(vals) if vals else None
        out["failed_frac"] = self.failed / self.attempted if self.attempted else 1.0
        return out


def tail(times: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its
    value; None when that percentile would not lie above the median."""
    pct = int(100 * (1 - 10 / len(times)))
    if pct <= 50:
        return None
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def end_to_end(runner, seconds) -> tuple[dict, dict]:
    times = runner.loop(seconds, min_ops=runner.inputs["graphs"])
    wall = {"samples": len(times), "median_s": statistics.median(times),
            "tail": tail(times), "times_s": times}
    metrics = {
        "wall_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, wall


def per_layer(runner, workload, seconds, names) -> tuple[dict, dict]:
    from spans import Tracer, layer_times, peak_mb, root_time

    expected = {n.rsplit(".", 1)[0] for n in names if n.count(".") == 2}
    expected |= set(EXPECTED_CALLS[workload.name])
    budget = seconds / 3.0
    untraced = runner.loop(budget)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with Tracer() as tracer:
            missing = tracer.install(expected)
            traced = runner.loop(0.0, min_ops=len(untraced), max_ops=len(untraced))
        spans = tracer.spans
        with Tracer(memory=True) as mem_tracer:
            mem_tracer.install(expected)
            runner.loop(0.0, min_ops=1, max_ops=1)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"pprbench: warning: {message}", file=sys.stderr)

    ops = len(traced)
    times = layer_times(spans)
    peaks = peak_mb(mem_tracer.spans)
    flags = [f"{name} exists but recorded 0 calls"
             for name in EXPECTED_CALLS[workload.name]
             if name not in missing and name not in times]
    coverage = root_time(spans) / sum(traced)
    if coverage < COVERAGE_FLOOR:
        flags.append(f"span self times cover {coverage:.3f} of traced wall, "
                     f"below {COVERAGE_FLOOR}")
    for flag in flags:
        print(f"pprbench: flag: {flag}", file=sys.stderr)

    special = {
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.coverage": coverage,
        "blas.threads": float(blas_threads()),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        layer, kind = name.rsplit(".", 1)
        if kind == "peak_mb":
            metrics[name] = peaks.get(layer, 0.0)
        else:
            metrics[name] = times.get(layer, {}).get(kind, 0.0) / ops
    detail = {
        "ops_untraced": len(untraced), "ops_traced": ops,
        "untraced_s": untraced, "traced_s": traced,
        "missing": missing, "flags": flags,
        "layers": {k: {kk: vv / ops for kk, vv in v.items()} for k, v in sorted(times.items())},
        "peak_mb": peaks,
        "spans": [[s.name, s.start, s.end, s.parent] for s in spans],
    }
    return metrics, detail


def run_one(args, spec) -> int:
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.environ.pop("PPREI_THREADS", None)  # serial sweep: one caller, no pool
    out_dir = ROOT / ".pprbench"
    workdir = out_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_times, gen_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(import_seconds())
            t0 = time.perf_counter()
            inputs = workload.generate(args.seed, workdir)
            gen_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_times) + statistics.median(gen_times)

        runner = Runner(workload, inputs)
        facts = machine()
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, detail = per_layer(runner, workload, args.seconds, list(units))
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics, detail = end_to_end(runner, args.seconds)
            metrics["setup_s"] = setup_s
            metrics = {name: metrics[name] for name in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recovery = runner.recovery_means()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "setup": {"import_s": import_times, "generate_s": gen_times},
        "recovery": recovery, "problems": runner.problems, "detail": detail,
        "metrics": metrics,
    }
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={runner.attempted}")
    if not args.trace:
        print(f"wall: {json.dumps(detail)}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    for name, value in recovery.items():
        print(f"  {name} = {value!r} 1")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Run every workload in its own process and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {w['name']} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
