#!/usr/bin/env python3
"""Runs the benchmark in sets of runs and says whether they agree.

    python3 rdabench/compare.py [--sets 2] [--runs 10] [--workloads a,b]
                                [--seconds S] [--seed-base 1]

Each set runs every workload `--runs` times, each run with its own seed, the
workloads interleaved. Per workload and end-to-end metric it prints each
set's median and quartiles and the spread (q3 - q1) / median, then the
verdict against BENCHMARK.json: every spread within the metric's bound, the
two sets' medians apart by no more than the bound in either direction, and
the same share of failed operations in both sets. With `--sets 1` only the
spreads are judged. Exit code 0 means every check held. The raw results are
written to a JSON file in the build directory.
"""
import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def apart(first, second):
    """How far apart two medians are, as a share of the smaller one. Two sets
    of the same code should agree whichever of them is ahead."""
    low = min(abs(first), abs(second))
    if low == 0:
        return 0.0 if second == first else float("inf")
    return abs(second - first) / low


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def judge(spec, sets):
    """Checks every workload and metric. `sets` is a list (one or two) of
    {workload: [result, ...]}. Returns (lines, ok)."""
    lines, ok = [], True
    for workload in sets[0]:
        lines.append(f"== {workload}")
        shares = [failed_share(s[workload]) for s in sets]
        if len(shares) == 2 and shares[0] != shares[1]:
            ok = False
            lines.append(f"   FAILED-SHARE DIFFERS {shares[0]!r} vs {shares[1]!r}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, verdict = [], "ok"
            medians = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s[workload]]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                sp = spread(values)
                cells.append(f"{median:12.6g} [{q1:.6g}, {q3:.6g}] spread {sp:6.3f}")
                if sp > bound:
                    verdict = "SPREAD"
            if len(medians) == 2 and apart(*medians) > bound:
                verdict = "APART"
            ok = ok and verdict == "ok"
            lines.append(f"   {name:22s} bound {bound:4.2f}  " +
                         "  |  ".join(cells) + f"  {verdict}")
        lines.append(f"   failed share {shares}")
    return lines, ok


def run_sets(spec, workloads, sets, runs, seconds, seed_base):
    binary = bench.build()
    if binary is None:
        sys.exit("build failed")
    data = []
    for k in range(sets):
        per_workload = {w: [] for w in workloads}
        for i in range(runs):
            seed = seed_base + 1000 * k + i
            for w in workloads:
                start = time.time()
                code, out = bench.run_one(binary, w, seed, seconds, 0,
                                          capture=True)
                if code != 0:
                    sys.exit(f"{w} seed {seed} failed (exit {code})")
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"]:
                    sys.exit(f"{w} seed {seed}: incorrect result")
                per_workload[w].append(result)
                print(f"set {k + 1} run {i + 1} {w} seed {seed}: "
                      f"{time.time() - start:.1f}s", file=sys.stderr)
        data.append(per_workload)
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, choices=[1, 2], default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 4:
        sys.exit("quartiles need at least 4 runs")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    data = run_sets(spec, args.workloads.split(","), args.sets, args.runs,
                    seconds, args.seed_base)
    out = os.path.join(bench.build_dir(), f"compare-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump(data, f)
    print(f"raw results: {out}")
    lines, ok = judge(spec, data)
    print("\n".join(lines))
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
