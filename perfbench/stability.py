"""Run-to-run and seed-to-seed spread of the benchmark's metrics.

    python3 perfbench/stability.py --runs 10 [--first-seed 1] [--workload W]

runs `run.py` (untraced) once per seed for each workload, one process at a
time, and prints per metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median, against a third of the
metric's bound. The per-run values go to `.perfbench/stability-*.json`;
`--compare A.json B.json` checks that the medians of the second set are not
worse than those of the first by more than each metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def collect(workload: str, seeds: range, seconds: float) -> dict:
    values: dict[str, list] = {}
    failures = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            failures.append(f"seed {seed}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            failures.append(f"seed {seed}: {result['failed']} of "
                            f"{result['attempted']} ops failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        values.setdefault("run_wall_s", []).append(wall)
        print(f"  {workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
    return {"workload": workload, "seconds": seconds, "seeds": list(seeds),
            "values": values, "failures": failures}


def summarize(summary: dict, bounds: dict) -> bool:
    """Print the spread table; True when every bounded metric other than
    setup_s spreads by less than a third of its bound."""
    steady = not summary["failures"]
    for line in summary["failures"]:
        print(f"FAILED {line}")
    runs = len(summary["values"].get("run_wall_s", []))
    seeds = summary["seeds"]
    print(f"\n{summary['workload']} ({runs} runs of {summary['seconds']} s, "
          f"seeds {seeds[0]}-{seeds[-1]})")
    print("| metric | median | q1 | q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|")
    for name, vals in summary["values"].items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        limit = "" if bound is None else f"{bound / 3:.4f}"
        ok = bound is None or name == "setup_s" or spread < bound / 3
        steady &= ok
        print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} "
              f"| {limit}{'' if ok else ' **over**'} |")
    return steady


def compare(path_a: str, path_b: str, spec: dict) -> bool:
    """Second set's medians against the first's, within each bound."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(path_a, encoding="utf-8") as fh:
        a = {s["workload"]: s for s in json.load(fh)}
    with open(path_b, encoding="utf-8") as fh:
        b = {s["workload"]: s for s in json.load(fh)}
    ok = True
    for workload in a.keys() & b.keys():
        for name, bound in bounds.items():
            ma = statistics.median(a[workload]["values"][name])
            mb = statistics.median(b[workload]["values"][name])
            worse = (mb - ma if better[name] == "lower" else ma - mb) / abs(ma)
            fine = worse <= bound
            ok &= fine
            print(f"{workload:<12} {name:<14} {ma:>12.6g} {mb:>12.6g} "
                  f"worse by {worse:+.4f} (bound {bound}) "
                  f"{'ok' if fine else 'OVER'}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run; repeatable (default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return 0 if compare(*args.compare, spec) else 1
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    summaries, steady = [], True
    for w in workloads:
        s = collect(w, seeds, seconds)
        summaries.append(s)
        steady &= summarize(s, bounds)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    out = os.path.join(ROOT, ".perfbench",
                       f"stability-{'-'.join(workloads)}-seed{seeds[0]}-"
                       f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summaries, fh, indent=1)
    print(f"\nwrote {out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
