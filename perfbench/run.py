#!/usr/bin/env python3
"""seqrouter benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload ctl_small --seed 0 --seconds 15 --trace 0

Run from the repository root. With ``--trace 0`` it sets up the workload
several times, trains for ``--seconds`` (and at least the workload's fixed
step count), runs one forward-only eval pass and prints every end-to-end
metric. With ``--trace 1`` it first makes the fixed steps untraced, then
repeats set-up and training with the package's functions wrapped, and
prints the per-layer metrics. Both run the output checks. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. Details and spans go under ``.perfbench/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads: never above nproc,
# and independent of the caller's shell.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def blas_runtime_threads():
    """Thread count OpenBLAS reports from inside this process, if found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(wl, seed, seconds, work):
    import harness
    setups, dropped = [], [0, 0]  # ops of the set-ups whose run is dropped
    run = None
    for i in range(wl.setup_repeats):
        if run is not None:
            dropped = [dropped[0] + run.step, dropped[1] + run.failed]
        run = None  # release the previous model before building the next
        run, secs = harness.setup(wl, seed, work / f"data{i}")
        setups.append(secs)
    times, cpu_s = harness.timed_steps(run, seconds)
    eval_s, accuracy = harness.eval_pass(run)
    rss = peak_rss_mb()
    losses = run.loss_values()
    k, w = wl.fixed_steps, wl.loss_window
    tail, pct = harness.tail(times)
    n_eval = len(run.eval_set)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "train_samples_per_s": (wl.batch_size * len(times) / sum(times), "1/s"),
        "step_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "step_ms_tail": (tail * 1e3, "ms"),
        "eval_samples_per_s": (n_eval / eval_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "train_loss_final": (sum(losses[k - w:k]) / w, "nat"),
    }
    detail = {
        "setup_s_each": setups,
        "timed_steps": len(times),
        "cpu_share": cpu_s / sum(times),
        "step_ms_tail_percentile": pct,
        "eval_samples": n_eval,
        "eval_accuracy": accuracy,
        "loss_digest": run.loss_digest(),
        "loss_digest_steps": k,
        "step_ms": [t * 1e3 for t in times],
    }
    failed_eval = harness.eval_batches(run) if accuracy is None else 0
    ops = (dropped[0] + run.step + harness.eval_batches(run),
           dropped[1] + run.failed + failed_eval)
    return run, metrics, detail, ops


def run_traced(wl, seed, seconds, work):
    import harness
    import tracing

    # Untraced reference: the fixed steps only.
    run, _ = harness.setup(wl, seed, work / "untraced")
    ref_times, _ = harness.timed_steps(run, 0.0)
    ref_digest = run.loss_digest()
    ops = [run.step, run.failed]
    run = None

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.step = "setup"
        run, _ = harness.setup(wl, seed, work / "traced", around_warmup=tracer.memory_probe)

        def on_step(i):
            tracer.step = i

        times, _ = harness.timed_steps(run, seconds, on_step)
        tracer.step = "eval"
        eval_s, accuracy = harness.eval_pass(run)
    finally:
        not_restored = tracer.uninstall()
    ops[0] += run.step + harness.eval_batches(run)
    ops[1] += run.failed + (harness.eval_batches(run) if accuracy is None else 0)

    k = wl.fixed_steps
    timed = set(range(1, run.step))
    ref_p50 = statistics.median(ref_times)
    traced_p50 = statistics.median(times[:len(ref_times)])
    metrics = tracing.setup_metrics(tracer, "setup")
    metrics.update(tracing.per_layer_metrics(tracer, timed, "eval", harness.eval_batches(run)))
    metrics.update(tracer.memory)
    metrics["trace.overhead"] = traced_p50 / ref_p50 - 1.0
    metrics = {name: (value, tracing.UNITS.get(name, "ms")) for name, value in metrics.items()}

    spans_path = ROOT / ".perfbench" / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(spans_path)
    errors = []
    if run.loss_digest() != ref_digest:
        errors.append(f"traced loss digest {run.loss_digest()[:16]} differs from untraced "
                      f"{ref_digest[:16]} over the first {k} steps")
    if not_restored:
        errors.append(f"wrappers not restored: {', '.join(not_restored)}")
    detail = {
        "timed_steps": len(timed),
        "loss_digest": run.loss_digest(),
        "untraced_loss_digest": ref_digest,
        "loss_digest_steps": k,
        "overhead_basis": f"median of steps 1..{len(ref_times)}: traced {traced_p50 * 1e3:.2f} ms,"
                          f" untraced {ref_p50 * 1e3:.2f} ms",
        "wrappers_restored": not not_restored,
        "wrappers_skipped": tracer.skipped,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    return run, metrics, detail, tuple(ops), errors


def main() -> int:
    if not (ROOT / "src" / "seqrouter").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        fail("run from the repository root: src/seqrouter and tests/oracles.py are needed")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    args = parse_args(sorted(WORKLOADS))
    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)
    started = time.perf_counter()
    try:
        errors = []
        if args.trace:
            run, metrics, detail, ops, errors = run_traced(wl, args.seed, args.seconds, work)
        else:
            run, metrics, detail, ops = run_end_to_end(wl, args.seed, args.seconds, work)
        import checks
        check_errors, summaries = checks.run_all(run, ROOT / "tests")
        errors += check_errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = ops
    correct = not errors and failed == 0
    detail.update({"workload": wl.name, "trace": args.trace, "checks": summaries,
                   "errors": errors, "ops_attempted": attempted, "ops_failed": failed,
                   "wall_s": time.perf_counter() - started, "provenance": prov})
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(out_dir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for line in summaries:
        print(f"  check: {line}")
    for line in errors:
        print(f"  ERROR: {line}")
    shown = {k: v for k, v in detail.items() if k != "step_ms"}
    print("detail " + json.dumps(shown, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
