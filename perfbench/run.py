#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one measurement.

Run from the root of the source tree:

    python3 perfbench/run.py --workload blast_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. The last line of standard output is the result
object. Its metrics are exactly those BENCHMARK.json lists for the mode
(end_to_end untraced, per_layer traced), with the units given there.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build(build_dir):
    """Configures once, then builds the perfbench target incrementally."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def to_result(line, trace):
    """Attaches BENCHMARK.json's units to the program's measured values."""
    with open(BENCHMARK_JSON) as f:
        specs = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = json.loads(line)
    values = measured.pop("values")
    if sorted(values) != sorted(m["name"] for m in specs):
        raise ValueError(f"measured metrics {sorted(values)} do not match BENCHMARK.json")
    measured["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                           for m in specs}
    return json.dumps(measured)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that damaged outputs are counted as failed")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Spill files of the MapReduce library follow $TMPDIR.
    env = dict(os.environ, TMPDIR=workdir)
    cmd = [binary, "--workdir", workdir, "--seed", str(args.seed)]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").splitlines()
    if not args.self_test:
        try:
            lines[-1] = to_result(lines[-1], args.trace)
        except (ValueError, KeyError, IndexError) as e:
            print(f"perfbench: bad result: {e}", file=sys.stderr)
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
