#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 rdabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 rdabench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]

The engine and the benchmark are compiled into .bench_build/rdabench (or
$CARGO_TARGET_DIR/rdabench) at the root of the checkout. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. With
`--workload all` every workload runs in its own process, one after another,
and a table of all results follows.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["force_steal_abort", "force_async_disk", "noforce_concurrent",
             "restart_rebuild"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "rdabench")


def build():
    """Configures on first use, then brings the binary up to date."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + generator, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", "rdabench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "rdabench")


def run_one(binary, workload, seed, seconds, trace, capture=False):
    """Runs one workload in its own process. Returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=float(seconds) * 3 + 120)
    except subprocess.TimeoutExpired:
        print(f"rdabench: {workload} timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout or ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("rdabench: build failed", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                          args.trace)
        return code

    results = {}
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args.seed, args.seconds,
                            args.trace, capture=True)
        sys.stdout.write(out)
        if code != 0:
            print(f"rdabench: {workload} failed (exit {code})", file=sys.stderr)
            return code
        results[workload] = json.loads(out.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print()
    print(f"{'metric':40s}" + "".join(f"{w:>22s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = "".join(f"{results[w]['metrics'][name]['value']:22.6g}"
                      for w in WORKLOADS)
        print(f"{name + ' (' + unit + ')':40s}{row}")
    for key in ("attempted", "failed"):
        print(f"{key:40s}" + "".join(f"{results[w][key]:22d}"
                                     for w in WORKLOADS))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
