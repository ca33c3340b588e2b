"""cavitypair benchmark: one workload, one run, one JSON result on the last line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli,library} --seed N --seconds S --trace {0,1}

With --trace 0 the ops run untraced for S seconds of op time and the
end-to-end metrics are reported, computed over the fastest windows of the
timed phase (see harness.fastest_windows).  With --trace 1 the ops run
untraced for S/2 seconds, then a fixed number of ops runs under the tracer,
and the per-layer metrics are reported.

BLAS thread pools are pinned to one thread (unless the caller sets them) in
this process and every child: the workloads are single-threaded closed
loops, and on a 2-vCPU shared host a threaded 10001x3 matmul mostly
measures the neighbours.  Set-up time is the median of SETUP_REPEATS cold
child interpreters that each import cavitypair and build the seeded inputs.
A run record (machine, versions, commit, seed, tail percentile, failure
classes) is printed on the line before the result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checkout

SETUP_REPEATS = 7
TIMED_WALL_CAP_S = 90  # a timed phase ends by then whatever its budget, so a run ends within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "library"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[dict]:
    probe = str(checkout.ROOT / "perfbench" / "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, probe, workload, str(seed)], cwd=checkout.ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def timed_phase(wl, harness, budget_s: float):
    """Untimed warm-up, then ops until their summed time reaches budget_s and wl.min_ops ran.

    The phase ends on a round boundary, or at the wall-time cap.
    """
    warm = harness.Tally()
    harness.run_ops(wl.op, wl.check, wl.items(), warm, lambda t: t.attempted >= wl.warmup_ops)
    tally = harness.Tally()
    wall_end = time.perf_counter() + TIMED_WALL_CAP_S

    def stop(t):
        done = (t.busy_s >= budget_s and t.attempted >= wl.min_ops) or time.perf_counter() >= wall_end
        return done and t.attempted % wl.round_size == 0

    harness.run_ops(wl.op, wl.check, wl.items(), tally, stop, label=wl.label, untimed=wl.untimed)
    return warm, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy is first imported; children inherit it
        os.environ.setdefault(var, "1")
    try:
        checkout.use_source()
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups = measure_setup(args.workload, args.seed)

    import cavitypair
    import harness
    import layers
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, cavitypair)
    budget = args.seconds / 2 if args.trace else args.seconds
    warm, tally = timed_phase(wl, harness, budget)
    tallies = [warm, tally]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": checkout.git_commit(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "timed_ops": tally.attempted, "failures": dict(tally.failures),
    }
    if getattr(wl, "census", None) is not None:
        record["domain_census"] = dict(wl.census)

    if args.trace:
        traced = harness.Tally()
        with Tracer(checkout.PACKAGE, layers.TARGETS) as tracer:
            harness.run_ops(wl.traced_op, wl.check, wl.items(), traced,
                            lambda t: t.attempted >= wl.traced_ops)
        for child in getattr(wl, "child_traces", ()):
            tracer.merge(child)
        tallies.append(traced)
        values = layers.traced_values(tracer.stats)
        if args.workload == "cli":
            by_command = tally.by_label()
            for command in layers.CLI_COMMANDS:
                samples = by_command.get(command)
                values[f"cli.{command}.wall_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
        values["cli.import_ms"] = 1e3 * statistics.median(s["import_s"] for s in setups)
        census = getattr(wl, "census", {})
        probes = sum(census.values())
        values["crosscheck.domain.probes"] = probes
        values["crosscheck.domain.fail_ratio"] = (probes - census.get("ok", 0)) / probes if probes else 0.0
        values["trace.overhead_ratio"] = tally.goodput / traced.goodput if traced.goodput else 0.0
        usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        values["process.cpu_s"] = sum(u.ru_utime + u.ru_stime for u in usage)
        record["traced_ops"] = traced.attempted
        record["traced_op_ms"] = 1e3 * traced.busy_s
        if traced.busy_s > 0.0:  # in-process workloads: each layer's share of traced op time
            record["busy_share"] = {layer: s.busy_s / traced.busy_s for layer, s in tracer.stats.items()}
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        best, windows = harness.fastest_windows(tally, wl.window_ops, wl.windows_kept)
        latencies = best.latencies
        tail_value, tail_pct, beyond = harness.tail(latencies)
        # A CLI op's memory is its child's; children are reaped, so RUSAGE_CHILDREN holds the largest.
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": best.goodput,
            "op_p50_ms": 1e3 * harness.percentile(latencies, 50.0),
            "op_tail_ms": 1e3 * tail_value,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        record.update({
            "windows": windows, "ops_in_kept_windows": best.attempted,
            "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
            "all_windows": {"ops_per_s": tally.goodput,
                            "op_p50_ms": 1e3 * harness.percentile(tally.latencies, 50.0)},
            "fail_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        })
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    mismatches = [m for t in tallies for m in t.mismatches]
    record["mismatches"] = {"count": len(mismatches), "first": mismatches[:5]}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
