"""Outside-in benchmark of the panelqa package.

    python3 perfbench/run.py --workload train_c7 --seed 1 --seconds 30 \
        --trace 0

runs one workload in this process, closed loop with one caller, and prints
each metric with its unit and better-direction, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Without ``--workload`` it runs every workload, each in its own process.
Results, with the environment they were taken in, are written under
``.perfbench/results/`` at the repository root.
"""
import os
import sys
import time

T_START = time.perf_counter()
# Pinned before numpy is imported: on a 2-core machine two BLAS threads were
# no faster at these sizes, and once about 12x slower under contention.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("train_c7", "eval_files", "diag_single")
# Quality figures are deterministic for a seed but spread too widely across
# seeds to bound (see perfbench/README.md); they are printed and recorded.
QUALITY_BETTER = {"loss_tail": "lower", "first_loss": "lower",
                  "score_loss": "lower", "srcc": "higher", "plcc": "higher"}


def git_sha(root: str) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, dtype: str) -> dict:
    import scipy
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
        "workload": args.workload,
        "dtype": dtype,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def end_to_end(outcome, import_s: float) -> dict:
    reps = outcome.plain
    item_ms = [1e3 * s for r in reps for s in r.item_s]
    return {
        "setup_s": import_s + statistics.median(outcome.setup_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s": statistics.median(r.work / r.wall_s for r in reps),
        "item_ms.p50": float(np.percentile(item_ms, 50)),
        "item_ms.p90": float(np.percentile(item_ms, 90)),
    }


def ms_per_op(reps) -> float:
    return 1e3 * sum(r.wall_s for r in reps) / sum(len(r.item_s) for r in reps)


def per_layer(outcome, tracer) -> dict:
    traced_ops = sum(len(r.item_s) for r in outcome.traced)
    out = tracer.layer_metrics(traced_ops, len(outcome.setup_s))
    out["checkpoint.bytes"] = float(outcome.ckpt_bytes)
    out["trace.overhead_frac"] = (ms_per_op(outcome.traced)
                                  / ms_per_op(outcome.plain) - 1)
    return out


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from tracing import Tracer
    import_s = time.perf_counter() - T_START

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tracer = Tracer()
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = (per_layer(outcome, tracer) if args.trace
              else end_to_end(outcome, import_s))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    attempted = sum(len(r.item_s) for r in outcome.plain + outcome.traced)
    failed = outcome.failed
    correct = failed == 0 and outcome.setup_ok
    quality = outcome.plain[0].quality
    env = environment(args, workloads.WORKLOADS[args.workload].dtype)
    record = {
        "environment": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "checkpoint_round_trip_bit_identical": outcome.setup_ok,
        "quality": quality,
        "item_count": sum(len(r.item_s) for r in outcome.plain),
        "setup_rounds_s": outcome.setup_s,
        "rep_items_per_s": [r.work / r.wall_s for r in outcome.plain],
        "import_s": import_s,
        "metrics": {m["name"]: dict(metrics[m["name"]], better=m["better"])
                    for m in spec},
    }
    if args.trace:
        record["traced_ms_per_op"] = ms_per_op(outcome.traced)
        tracer.write(os.path.join(OUT, "results", tag + ".spans.csv.gz"))
    with open(os.path.join(OUT, "results", tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for key in ("OPENBLAS_NUM_THREADS", "nproc", "python", "numpy", "scipy",
                "git_sha", "workload", "dtype", "seed"):
        print(f"# {key} = {env[key]}")
    for name, q in quality.items():
        print(f"# quality {name} = {q:.6g} ({QUALITY_BETTER[name]} is better;"
              f" recorded, not bounded)")
    print(f"# error_rate = {failed}/{attempted} = {failed / attempted:.6g}"
          f"  (items timed: {record['item_count']})")
    for m in spec:
        print(f"{m['name']:<40} {values[m['name']]:>14.6g} {m['unit']:<10} "
              f"{m['better']} is better")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a process of its own."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"## {name}", flush=True)
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="workload to run (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "panelqa", "model.py")):
        print(f"error: panelqa sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
