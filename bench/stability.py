"""Collect repeated benchmark runs and compare two sets of them against the
bounds in BENCHMARK.json.

    python3 bench/stability.py collect --workload W --runs 10 --first-seed 1 --out A.jsonl
    python3 bench/stability.py compare A.jsonl B.jsonl

`collect` runs the benchmark command once per seed (first-seed, first-seed+1,
...) and appends each run's result line, with its workload and seed, to the
output file.  `compare` reads two such files (same commit or parent and
change) and, per workload and end-to-end metric, prints each set's median
and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  It fails when a
spread, setup_s excepted, exceeds the metric's bound, or when the second
set's median is worse than the first's by more than the bound.  Count
metrics of traced runs (unit count or bits) must repeat exactly for runs
with the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bits")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(args) -> int:
    spec = load_spec()
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        record = {"workload": args.workload, "seed": seed, "trace": args.trace, **result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"{args.workload} seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
    return 0


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which second is worse than first (negative when better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def read(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def compare(args) -> int:
    spec = load_spec()
    first, second = read(args.first), read(args.second)
    ok = True
    workloads = sorted({r["workload"] for r in first + second if r["trace"] == 0})
    print(f"{'workload':8s} {'metric':12s} {'median A':>12s} {'spread A':>9s} "
          f"{'median B':>12s} {'spread B':>9s} {'B worse':>8s} {'bound':>6s}")
    for workload in workloads:
        runs_a = [r for r in first if r["workload"] == workload and r["trace"] == 0]
        runs_b = [r for r in second if r["workload"] == workload and r["trace"] == 0]
        if len(runs_a) < 2 or len(runs_b) < 2:
            print(f"{workload}: needs at least two untraced runs in each set")
            ok = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            sa, sb = spread(a), spread(b)
            shift = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            flags = []
            if name != "setup_s" and max(sa, sb) > bound:
                flags.append("SPREAD")
            elif name != "setup_s" and max(sa, sb) > bound / 3:
                flags.append("spread>bound/3")
            if shift > bound:
                flags.append("WORSE")
            ok &= not any(f.isupper() for f in flags)
            print(f"{workload:8s} {name:12s} {statistics.median(a):12.4f} {sa:9.4f} "
                  f"{statistics.median(b):12.4f} {sb:9.4f} {shift:8.4f} {bound:6.2f} {' '.join(flags)}")
        failed = sum(r["failed"] for r in runs_a + runs_b)
        if failed:
            print(f"{workload}: {failed} failed jobs")
            ok = False
    ok &= exact_counts(spec, first + second)
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


def exact_counts(spec: dict, runs: list[dict]) -> bool:
    """Traced count metrics agree across runs of one workload and seed."""
    ok = True
    names = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    seen: dict[tuple, dict] = {}
    for run in runs:
        if run["trace"] != 1:
            continue
        key = (run["workload"], run["seed"])
        counts = {n: run["metrics"][n]["value"] for n in names}
        if key in seen and seen[key] != counts:
            diff = {n: (seen[key][n], counts[n]) for n in names if seen[key][n] != counts[n]}
            print(f"{key}: counts differ {diff}")
            ok = False
        seen.setdefault(key, counts)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    m = sub.add_parser("compare")
    m.add_argument("first")
    m.add_argument("second")
    args = parser.parse_args()
    return collect(args) if args.cmd == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
