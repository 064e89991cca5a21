"""parikhseq benchmark: closed-loop, single-client runs of parikhseq.cli.main.

    python3 bench/run.py --workload stream|checked|small|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the repository root; the program is imported from ./src.  Each job
calls parikhseq.cli.main(argv) in this process with stdin and stdout swapped
for in-memory streams, and is timed from the call to its return.  Outputs
are checked outside the timed interval.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
end_to_end metrics of BENCHMARK.json with --trace 0 and its per_layer
metrics with --trace 1.  A table with every metric, its unit and its sample
count comes before it, and .bench_out/ receives a full report (and with
--trace 1 the spans).  --self-check corrupts one expectation per job kind and
exits 0 only if every check reports the corrupted jobs as failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# set-up repeats until both hold; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SWEEP = [(d, k) for k in (2, 3) for d in (4, 9, 21, 30)]


def import_program():
    """Import parikhseq from ./src, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import parikhseq.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import parikhseq from {src}: {exc}")
    if Path(parikhseq.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: parikhseq was imported from {parikhseq.__file__}, not {src}")
    return parikhseq.cli


def call(cli, job) -> tuple[int | None, float, str, str]:
    """One job: cli.main with swapped standard streams.  Returns exit code
    (None if main raised), seconds, stdout and stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(job.stdin or "")
    sys.stdout = out = io.StringIO()
    sys.stderr = err = io.StringIO()
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    finally:
        t1 = time.perf_counter()
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, t1 - t0, out.getvalue(), err.getvalue()


class Phase:
    """Job times and failures of a run of whole passes over the pool."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.labels: list[str] = []
        self.letters = 0
        self.failures: list[tuple[str, object, str]] = []
        self.passes = 0


def run_passes(cli, wl, jobs, seconds, min_jobs, max_passes=None, tracer=None, on_first_pass=None) -> Phase:
    """Whole passes over the jobs until `seconds` have elapsed and
    `min_jobs` jobs have run, or `max_passes` passes."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        wl.reset_caches()
        for job in jobs:
            if tracer is not None:
                tracer.install()
            rc, dt, out, err = call(cli, job)
            if tracer is not None:
                tracer.uninstall()
            phase.times.append(dt)
            phase.labels.append(f"{job.kind} {job.label}".strip())
            phase.letters += job.letters
            if not wl.check(job, rc, out):
                first_err = err.strip().splitlines()[-1:] or [""]
                phase.failures.append((f"{job.kind} {job.label}", rc, first_err[0]))
        phase.passes += 1
        if tracer is not None:
            tracer.end_pass()
            if phase.passes == 1:
                on_first_pass()
        if max_passes is not None and phase.passes >= max_passes:
            break
        if time.perf_counter() - start >= seconds and len(phase.times) >= min_jobs:
            break
    return phase


def setup(wl, workload: str, seed: int, workdir: Path, cli):
    """Inputs, expected outputs and files from the seed, then a warm-up."""
    pool = wl.WORKLOADS[workload](seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in pool.files.items():
        Path(path).write_text(text, encoding="ascii")
    for job in pool.warmup:
        rc, _, out, err = call(cli, job)
        if not wl.check(job, rc, out):
            raise RuntimeError(f"warm-up job {job.argv[:3]} failed: rc={rc} {err.strip()[-200:]}")
    return pool


def end_to_end(phase: Phase, setups: list[float]) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples)."""
    busy = sum(phase.times)
    n = len(phase.times)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "jobs_per_s": (n / busy, "1/s", n),
        "job_p50_ms": (statistics.median(phase.times) * 1e3, "ms", n),
        "job_p90_ms": (statistics.quantiles(phase.times, n=10)[8] * 1e3, "ms", n),
        **({"letters_per_s": (phase.letters / busy, "1/s", n)} if phase.letters else {}),
        "failed_ratio": (len(phase.failures) / n, "ratio", n),
        "peak_rss_mb": (usage / 1024, "MB", 1),
    }


def per_layer(tracer, results, jobs_traced, cache1, counters1) -> dict:
    """name -> (value, unit, samples) from the traced passes: counts from the
    first pass, self times in seconds per pass."""
    agg1, agg, passes = tracer.first_pass, tracer.totals, tracer.passes
    zero = [0, 0, 0]
    out: dict[str, tuple[float, str, int]] = {}

    def count(metric: str, name: str) -> None:
        out[metric] = (agg1.get(name, zero)[0], "count", 1)

    def self_s(metric: str, name: str) -> None:
        row = agg.get(name, zero)
        out[metric] = (row[2] / passes / 1e9, "s", row[0])

    def us_per_call(metric: str, names: list[str]) -> None:
        calls = sum(agg.get(n, zero)[0] for n in names)
        total = sum(agg.get(n, zero)[1] for n in names)
        out[metric] = (total / calls / 1e3 if calls else 0.0, "us", calls)

    cli_row = agg.get("cli.main", zero)
    out["cli.self_ms_per_job"] = (cli_row[2] / max(jobs_traced, 1) / 1e6, "ms", jobs_traced)
    push = [n for n in tracer.names if n.startswith("seqmat.push[")]
    out["seqmat.push.calls"] = (sum(agg1.get(n, zero)[0] for n in push), "count", 1)
    us_per_call("seqmat.push.us_per_call", push)
    for d, k in SWEEP:
        us_per_call(f"seqmat.push.us_d{d}_k{k}", [f"seqmat.push[d={d},k={k}]"])
    self_s("seqmat.result.self_s", "seqmat.result")
    count("seqmat.direct.calls", "seqmat.direct")
    self_s("seqmat.direct.self_s", "seqmat.direct")
    bits = max(
        (abs(v).bit_length() for res in results for row in res.matrix.rows for v in row),
        default=0,
    )
    out["seqmat.max_entry_bits"] = (bits, "bits", len(results))
    for layer in ("intmat.new", "intmat.mul", "intmat.det"):
        count(f"{layer}.calls", layer)
        self_s(f"{layer}.self_s", layer)
    for fn in ("count_piece", "count_gapped", "count_subword"):
        count(f"counting.{fn}.calls", f"counting.{fn}")
        self_s(f"counting.{fn}.self_s", f"counting.{fn}")
    count("parikh.push.calls", "parikh.push")
    us_per_call("parikh.push.us_per_call", ["parikh.push"])
    count("minors.witness_word.calls", "minors.witness_word")
    self_s("minors.witness_word.self_s", "minors.witness_word")
    self_s("minors.special_minor.self_s", "minors.special_minor")
    self_s("minors.check_minor_nonneg.self_s", "minors.check_minor_nonneg")
    out["minors.minors_checked"] = (counters1["minors.minors_checked"], "count", 1)
    self_s("gsh.linearize.self_s", "gsh.linearize")
    self_s("gsh.equivalent_bounded.self_s", "gsh.equivalent_bounded")
    count("gsh.evaluate.calls", "gsh.evaluate")
    for fn in ("red", "linearize_product"):
        hits, misses = cache1[fn]
        lookups = hits + misses
        out[f"gsh.{fn}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio", lookups)
        out[f"gsh.{fn}.lookups"] = (lookups, "count", 1)
    self_s("fuzz.run_suite.self_s", "fuzz.run_suite")
    out["fuzz.cases"] = (counters1["fuzz.cases"], "count", 1)
    self_s("words.parse.self_s", "words.parse")
    return out


def print_table(workload: str, metrics: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload:8s} {name:36s} {value:16.6f} {unit:6s} n={samples}")


def label_medians(phase: Phase) -> dict[str, dict]:
    by: dict[str, list[float]] = {}
    for label, t in zip(phase.labels, phase.times):
        by.setdefault(label, []).append(t)
    return {k: {"n": len(v), "median_ms": statistics.median(v) * 1e3} for k, v in sorted(by.items())}


def traced_run(args, cli, wl, pool) -> tuple[Phase, dict, list[str]]:
    """One untraced pass, then traced passes for --seconds: per-layer
    metrics, tracing overhead and the wrapper checks."""
    from spans import Tracer

    baseline = run_passes(cli, wl, pool.jobs, 0, 0, max_passes=1)
    tracer = Tracer()
    snap: dict = {}

    def on_first_pass():
        snap["cache"] = tracer.cache_stats()
        snap["counters"] = tracer.counters.copy()
        tracer.results, snap["results"] = None, tracer.results

    phase = run_passes(cli, wl, pool.jobs, args.seconds, 0, tracer=tracer, on_first_pass=on_first_pass)
    metrics = per_layer(tracer, snap["results"], len(phase.times), snap["cache"], snap["counters"])
    traced_p50 = statistics.median(phase.times) * 1e3
    untraced_p50 = statistics.median(baseline.times) * 1e3
    metrics["trace.job_p50_ms"] = (traced_p50, "ms", len(phase.times))
    metrics["trace.untraced_job_p50_ms"] = (untraced_p50, "ms", len(baseline.times))
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms", len(phase.times))
    phase.failures += baseline.failures
    phase.times += baseline.times
    phase.labels += baseline.labels
    problems = []
    if args.workload in ("stream", "checked"):
        # every fold and direct call must pass through a wrapper
        for metric, expected in (
            ("seqmat.push.calls", sum(job.folded for job in pool.jobs)),
            ("seqmat.direct.calls", sum(job.direct for job in pool.jobs)),
        ):
            if metrics[metric][0] != expected:
                problems.append(f"{metric} {metrics[metric][0]} != {expected} expected from the pool")
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(stem, {"workload": args.workload, "seed": args.seed, "passes": tracer.passes})
    return phase, metrics, problems


def bench(args, cli, wl, spec: dict) -> int:
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        setups: list[float] = []
        while not setups or (not args.trace and (
                len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS)):
            t0 = time.perf_counter()
            pool = setup(wl, args.workload, args.seed, workdir, cli)
            setups.append(time.perf_counter() - t0)
        if args.trace:
            phase, metrics, problems = traced_run(args, cli, wl, pool)
            wanted = spec["per_layer"]
        else:
            min_jobs = wl.PARAMS["workloads"][args.workload]["min_jobs"]
            phase = run_passes(cli, wl, pool.jobs, args.seconds, min_jobs)
            metrics, problems = end_to_end(phase, setups), []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    for failure in phase.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pool_jobs": len(pool.jobs),
        "passes": phase.passes,
        "jobs": len(phase.times),
        "failures": phase.failures,
        "trace_problems": problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "jobs_by_label": label_medians(phase),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print_table(args.workload, metrics)
    correct = not phase.failures and not problems
    result = {
        "correct": correct,
        "attempted": len(phase.times),
        "failed": len(phase.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def self_check(cli, wl) -> int:
    """Corrupt one expectation per job kind; each must be reported failed,
    and every other job must pass."""
    ok = True
    for workload in wl.WORKLOADS:
        workdir = OUT / f"work-selfcheck-{os.getpid()}"
        try:
            pool = setup(wl, workload, 0, workdir, cli)
            corrupted = wl.corrupt(pool.jobs)
            phase = run_passes(cli, wl, pool.jobs, 0, 0, max_passes=1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        empty_fails = not wl.check(pool.jobs[0], 0, "")
        passed = len(phase.failures) == corrupted and empty_fails
        ok &= passed
        print(f"{workload}: corrupted {corrupted} kinds, failed_ratio "
              f"{len(phase.failures)}/{len(phase.times)}, empty output fails: {empty_fails} "
              f"-> {'ok' if passed else 'NOT DETECTED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("stream", "checked", "small", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.workload == "all":
        # one process per workload, so peak_rss_mb stays per workload
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in ("stream", "checked", "small")
        ]
        return max(codes)
    spec_path = ROOT / "BENCHMARK.json"
    cli = import_program()
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    if args.self_check:
        return self_check(cli, wl)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args, cli, wl, spec)


if __name__ == "__main__":
    sys.exit(main())
