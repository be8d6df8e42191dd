#!/usr/bin/env python3
"""Build and run the congestbc end-to-end benchmark.

One workload run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

builds the libraries, congestbcd, congestbc_router and the perfbench
driver from this checkout into .bench_build/ (PERFBENCH_BUILD_DIR
overrides), runs the workload, and passes the driver's output through;
the last line is the JSON result.  Exit status 0 means
every output check passed.

Repeat mode, to check the bounds again on another day:

    python3 perfbench/run.py --workload serve_mixed --repeat 10 --seconds 10

runs the workload with seeds 1..N and prints each metric's median,
quartiles, max-min and interquartile spread as a share of the median,
against the bound BENCHMARK.json gives it.

    python3 perfbench/run.py --self-test

builds and runs the checks' corrupted-output tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "serve_cluster")


def build_dir():
    return os.path.abspath(os.environ.get("PERFBENCH_BUILD_DIR",
                                          os.path.join(ROOT, ".bench_build")))


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no congestbc sources next to perfbench/ "
                 "(expected %s)" % os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return out


def run_once(out, workload, seed, seconds, trace, echo=True):
    """Runs the driver once; returns (exit code, parsed result or None)."""
    run_dir = os.path.join(ROOT, ".bench_run",
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    start_ns = time.monotonic_ns()
    proc = subprocess.run(
        [os.path.join(out, "perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--bin-dir", os.path.join(out, "congestbc_tools"),
         "--run-dir", run_dir, "--start-ns", str(start_ns)],
        stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if trace == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        # Keep only the trace; spools and server logs go.
        for name in os.listdir(run_dir) if os.path.isdir(run_dir) else []:
            if not name.startswith("trace-"):
                path = os.path.join(run_dir, name)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def repeat(out, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    failed = []
    for i in range(args.repeat):
        seed = i + 1
        code, result = run_once(out, args.workload, seed, args.seconds,
                                args.trace, echo=False)
        if code != 0 or result is None:
            sys.exit("seed %d failed (exit %d)" % (seed, code))
        failed.append((result["failed"], result["attempted"]))
        for m in metrics:
            values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print("seed %d done" % seed, file=sys.stderr)
    print("%s, %d runs (seeds 1..%d), %s s each" %
          (args.workload, args.repeat, args.repeat, args.seconds))
    print("%-34s %14s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "max-min", "iqr/med", "bound"))
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        print("%-34s %14.6g %14.6g %14.6g %14.6g %8.4f %6s" %
              (m["name"], med, q1, q3, max(v) - min(v), spread,
               m.get("bound", "")))
    print("failed/attempted per run: %s" % failed)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run seeds 1..N and summarize each metric")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    out = build(["perfbench", "congestbcd", "congestbc_router"])
    if args.repeat > 0:
        repeat(out, args)
        return
    code, _ = run_once(out, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
