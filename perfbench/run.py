#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload plan-step|fleet|serve \\
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library under
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
runs the benchmark binary, and checks that its JSON result names
exactly the metrics BENCHMARK.json lists for the mode (end_to_end for
--trace 0, per_layer for --trace 1) with their units. Build output
goes to stderr; the last stdout line is the JSON result. Any build or
run failure exits non-zero without printing a result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    """Build tree for the benchmark package, inside the checkout."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def sh(cmd):
    """Run a build command with its output on stderr; raise on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build(targets=("perfbench",)):
    """Configure (once) and build @targets. Returns the build tree."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", HERE, "-B", bdir,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", bdir, "-j", jobs, "--target"] + list(targets))
    return bdir


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    """Problems with a parsed result line; empty when well formed."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if not problems and not 0 <= result["failed"] <= result["attempted"]:
        problems.append("failed must lie in [0, attempted]")
    if not problems and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(expected) - set(metrics)),
                                      sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if name not in expected:
            continue
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("%s has no numeric value" % name)
        elif m.get("unit") != expected[name]:
            problems.append("%s unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), expected[name]))
    return problems


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["plan-step", "fleet", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)

    try:
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            bdir, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        problems = validate(json.loads(lines[-1]),
                            expected_metrics(args.trace))
    except (ValueError, OSError, KeyError) as e:
        problems = ["unreadable result or BENCHMARK.json: %s" % e]
    if problems:
        sys.stderr.write(proc.stdout)
        for p in problems:
            print("perfbench: %s" % p, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
