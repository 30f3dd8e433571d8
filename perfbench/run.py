#!/usr/bin/env python3
"""Host-cost benchmark of the SwitchML simulator.

Builds perfbench/ (which compiles the simulator from ../src) and runs one
workload:

    python3 perfbench/run.py --workload rack100g_timing --seed 1 --seconds 30 --trace 0

The last line of stdout is the result JSON of perfbench/src/main.cpp. The build
goes to $CARGO_TARGET_DIR/perfbench, by default .bench_build/perfbench at the
root of the checkout; a traced run also leaves its spans there as trace-event
JSON (trace-<workload>-seed<N>.json), which Perfetto opens.

Steadiness mode runs one workload (or all) N times with seeds BASE..BASE+N-1
and prints, per end-to-end metric, the median, quartiles, extremes and the
inter-quartile spread as a share of the median next to the metric's bound in
BENCHMARK.json:

    python3 perfbench/run.py --steadiness 10 --workload all --seed 1 --seconds 30
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["rack100g_timing", "hier10g_lossy_data", "strategy_sweep"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets=("hostbench",)):
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave nothing half-configured behind for the next attempt.
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("building the benchmark failed")
    return out


def run_once(out, workload, seed, seconds, trace, extra=()):
    """Runs hostbench once; returns its parsed result object."""
    cmd = [os.path.join(out, "hostbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--trace-out", os.path.join(out, f"trace-{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"hostbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def steadiness(out, workloads, runs, seed, seconds):
    """Runs each workload `runs` times with consecutive seeds; prints spreads."""
    limit = bounds()
    ok = True
    for workload in workloads:
        values = {}
        units = {}
        for i in range(runs):
            result = run_once(out, workload, seed + i, seconds, 0)
            ok = ok and result["correct"]
            log(f"{workload} seed={seed + i}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} " +
                " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}, {seconds} s each")
        print(f"  {'metric':<18} {'unit':<7} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'min':>14} {'max':>14} {'iqr/med':>8} {'bound':>6}")
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            b = limit.get(name)
            print(f"  {name:<18} {units[name]:<7} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{min(v):>14.6g} {max(v):>14.6g} {spread:>8.4f} "
                  f"{'-' if b is None else f'{b:.2f}':>6}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="run N times with consecutive seeds and print the spread")
    args = p.parse_args()
    try:
        out = build()
        if args.steadiness:
            if args.steadiness < 2:
                p.error("--steadiness needs at least 2 runs")
            names = WORKLOADS if args.workload == "all" else [args.workload]
            return 0 if steadiness(out, names, args.steadiness, args.seed, args.seconds) else 1
        if args.workload == "all":
            p.error("--workload all is for --steadiness")
        result = run_once(out, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
