#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

`--workload all` runs every workload in turn and prints each end-to-end
metric with its unit and each workload's failed/attempted count. The build
goes to $CARGO_TARGET_DIR (default `.bench_build`); its output goes to
standard error. For a single workload the last line of standard output is
the run's JSON result.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["plan-cold", "train-steady", "elastic-splice", "service-mix"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Build the release binary; return its path, or None if the build failed."""
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_all(binary, args):
    """Run every workload with `args`; print a summary; return an exit code."""
    code = 0
    for workload in WORKLOADS:
        out = subprocess.run([binary, "--workload", workload] + args,
                             stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{workload}: exited with {out.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {workload}: failed/attempted = {result['failed']}/{result['attempted']}")
        for name, m in sorted(result["metrics"].items()):
            print(f"   {name:<28} {m['value']:>18.6f} {m['unit']}")
        if not result["correct"]:
            code = 1
    return code


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            return run_all(binary, args[:i] + args[i + 2:])
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
