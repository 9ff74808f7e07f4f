#!/usr/bin/env python3
"""Build and run the repository's wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload heal_corpus --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (a CMake package that
compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild
incrementally. The benchmark's report goes to standard output and its
last line is one JSON object with the keys correct, attempted, failed
and metrics. Build output goes to standard error.

    python3 perfbench/run.py --selftest
        build and run the benchmark's own tests
    python3 perfbench/run.py --workload W --seed N --seconds S --overhead
        run W untraced and traced, print the per-layer self-time table
        and the tracing overhead of every end-to-end metric
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)),
                        "perfbench")


def build(target):
    """Configure once, then build @target; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    binary = os.path.join(build_dir(), "perfbench")
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--span-dir", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def result_of(lines, trace):
    """The final JSON result, checked against BENCHMARK.json."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}", file=sys.stderr)
        return None
    return res


def overhead(args):
    """Untraced and traced runs of one workload, side by side."""
    runs = {}
    for trace in (0, 1):
        code, lines = run_once(args.workload, args.seed, args.seconds, trace)
        if code != 0 or result_of(lines, trace) is None:
            return code or 1
        runs[trace] = lines
    metric = {}
    for trace, lines in runs.items():
        for line in lines:
            parts = line.split()
            if len(parts) >= 4 and parts[0] == "metric":
                metric[(trace, parts[1])] = (float(parts[2]), parts[3])
    print(f"tracing overhead on {args.workload} (seed {args.seed}):")
    for name, unit in expected_metrics(0).items():
        if (0, name) in metric and (1, name) in metric:
            u, t = metric[(0, name)][0], metric[(1, name)][0]
            share = (t - u) / u * 100 if u else 0.0
            print(f"  {name:18s} untraced {u:14.3f}  traced {t:14.3f} "
                  f"{unit:8s} ({share:+.1f}%)")
    print("per-layer self time per item (traced):")
    for line in runs[1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "layer" and \
                parts[1].startswith("self_us."):
            print(f"  {parts[1]:18s} {float(parts[2]):12.3f} us")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run(
            [os.path.join(build_dir(), "perfbench_selftest")],
            cwd=ROOT).returncode
    if not args.workload:
        ap.error("--workload is required")
    if not build("perfbench"):
        return 1
    if args.overhead:
        return overhead(args)

    code, lines = run_once(args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines[:-1]:
        print(line)
    if code != 0:
        return code
    if result_of(lines, args.trace) is None:
        print("perfbench: no valid result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
