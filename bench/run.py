"""Benchmark runner for gaussian_paths.

    python3 bench/run.py --workload {cli_batch,state_sweep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The untraced run (``--trace 0``) sets up three times
and, after each set-up, repeats whole passes of the workload until a third
more of ``--seconds`` has passed in them (on ``state_sweep`` also until at
least 100 ops have run, after a few untimed warm-up ops); it prints the
end-to-end metrics named in BENCHMARK.json.  The traced run (``--trace 1``)
alternates an untraced and a traced pass over the same inputs, prints the
per-layer metrics, and fails its correctness check if tracing changed any
artifact hash or error metric.

Stdout ends with one JSON line {"correct", "attempted", "failed", "metrics"};
the line before it records the run environment and sample counts.
"""
from __future__ import annotations

import os

# one BLAS thread, so the single-threaded closed loop is what gets measured;
# must be set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import SPANS, Tracer
from workloads import CHECK_PREFIX, WORKLOADS, merge_errs

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3


def load_program():
    """Import gaussian_paths from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gaussian_paths
        import gaussian_paths.cli  # noqa: F401 - the cli_batch entry point
    except ImportError as exc:
        sys.exit(f"bench: cannot import gaussian_paths from {src}: {exc}")
    if src.resolve() not in Path(gaussian_paths.__file__).resolve().parents:
        sys.exit(f"bench: gaussian_paths was imported from {gaussian_paths.__file__}, "
                 f"not from {src}")
    return gaussian_paths


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(gp, args) -> dict:
    import numpy
    import scipy

    max_workers = getattr(gp.cli, "_max_workers", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GAUSSIAN_PATHS_THREADS": os.environ.get("GAUSSIAN_PATHS_THREADS"),
        "dsep_pool_workers": max_workers() if max_workers else None,
    }


def failure_summary(passes) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for p in passes:
        for op in p.ops:
            for reason in op.failures:
                if reason not in out.setdefault(op.name, []):
                    out[op.name].append(reason)
    return out


def untraced_run(workload, seconds: float):
    # Each set-up is followed by its share of the timed passes, so that the
    # set-ups and the passes each sample the host's speed, which drifts over
    # tens of seconds, across the whole run rather than in one stretch.
    setups, passes, looped = [], [], 0.0
    for k in range(1, SETUP_REPEATS + 1):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
        if k == 1:
            workload.warm_up()
        while (not passes or looped < seconds * k / SETUP_REPEATS
               or (k == SETUP_REPEATS
                   and sum(len(p.ops) for p in passes) < workload.min_ops)):
            start = perf_counter()
            passes.append(workload.run_pass(len(passes)))
            looped += perf_counter() - start
    ops = [op for p in passes for op in p.ops]
    latencies = [op.seconds for op in ops]
    errs: dict[str, float] = {}
    for p in passes:
        merge_errs(errs, p.errs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "states_per_s": sum(op.states for op in ops) / sum(p.wall for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "ops_ok_frac": sum(not op.failed for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        **errs,
    }
    samples = {"setup_s": len(setups), "wall_s": len(passes), "op_p50_s": len(ops),
               "op_p90_s": len(ops), "ops_beyond_p90": sum(x > metrics["op_p90_s"]
                                                           for x in latencies)}
    return passes, metrics, samples, []


def traced_run(workload, seconds: float, gp):
    workload.setup()
    tracer = Tracer()
    pairs = []
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        plain = workload.run_pass(0)
        tracer.reset()
        missing = tracer.install(gp)
        workload.tracer = tracer
        try:
            traced = workload.run_pass(0)
        finally:
            workload.tracer = None
            tracer.restore()
        pairs.append((plain, traced, tracer.metrics()))
    problems = []
    for plain, traced, _ in pairs:
        if plain.digest != traced.digest:
            problems.append("tracing changed the artifact hashes")
        if plain.errs != traced.errs:
            problems.append(f"tracing changed err values: {plain.errs} vs {traced.errs}")
    passes = [p for plain, traced, _ in pairs for p in (plain, traced)]
    ops = [op for p in passes for op in p.ops]
    names = {key for _, _, layer in pairs for key in layer}
    metrics = {key: statistics.median(layer.get(key, 0.0) for _, _, layer in pairs)
               for key in names}
    metrics["trace.overhead_frac"] = (statistics.median(t.wall for _, t, _ in pairs)
                                      / statistics.median(p.wall for p, _, _ in pairs) - 1.0)
    metrics["ops_failed_frac"] = sum(op.failed for op in ops) / len(ops)
    # each traced pass is paired with an untraced pass over the same inputs
    samples = {"traced_passes": len(pairs), "span_functions_missing": missing}
    return passes, metrics, samples, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gp = load_program()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](gp, args.seed, workdir)
        if args.trace:
            passes, values, samples, problems = traced_run(workload, args.seconds, gp)
        else:
            passes, values, samples, problems = untraced_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if args.trace and m["name"].rsplit(".", 1)[0] in SPANS:
            values.setdefault(m["name"], 0.0)  # a span that never ran counts zero
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"]), "unit": m["unit"]}
    failures = failure_summary(passes)
    problems += [f"{op}: {r}" for op, reasons in failures.items()
                 for r in reasons if r.startswith(CHECK_PREFIX)]
    ops = [op for p in passes for op in p.ops]
    print(json.dumps({"bench_env": environment(gp, args), "samples": samples,
                      "failures": failures, "problems": problems}))
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(op.failed for op in ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
