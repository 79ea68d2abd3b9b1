"""Repeat the benchmark and report each metric's run-to-run spread.

    python3 bench/spread.py --runs 10
    python3 bench/spread.py --runs 10 --save first.json
    python3 bench/spread.py --runs 10 --against first.json

Runs ``bench/run.py --trace 0`` once per seed (seeds 1..runs) on every
chosen workload, interleaving the workloads, and prints per end-to-end
metric the median, the quartiles and the spread: the
distance between the first and third quartile (statistics.quantiles
with n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  --save writes the raw values; --against reads such a
file and prints how far each median moved from it, as a share of the
earlier median.  Exits 1 if any run is incorrect, the failed share
differs between runs, or a spread or a move exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402


def _bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--save", help="write the raw values to this JSON file")
    parser.add_argument("--against", help="JSON file of an earlier --save to compare medians with")
    args = parser.parse_args(argv)

    raw = {w: {"metrics": {}, "failed_share": [], "correct": []} for w in args.workloads}
    for i in range(args.runs):
        for workload in args.workloads:
            result = run_once(workload, i + 1, args.seconds)
            entry = raw[workload]
            entry["correct"].append(result["correct"])
            entry["failed_share"].append([result["failed"], result["attempted"]])
            for name, m in result["metrics"].items():
                entry["metrics"].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {workload}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), file=sys.stderr)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(raw, fh, indent=1)

    bounds = _bounds()
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
    ok = True
    for workload, entry in raw.items():
        shares = {f / a for f, a in entry["failed_share"]}
        steady = len(shares) == 1 and all(entry["correct"])
        ok &= steady
        print(f"== {workload}: correct in {sum(entry['correct'])}/{len(entry['correct'])} runs, "
              f"failed share {sorted(shares)}" + ("" if steady else "  <-- NOT STEADY"))
        for name, values in entry["metrics"].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound, better = bounds.get(name, (None, None))
            line = f"   {name:<40} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
            if bound is not None:
                line += f"  bound {bound}"
                if spread > bound:
                    line += "  <-- SPREAD ABOVE BOUND"
                    ok = False
            if earlier is not None and name in earlier.get(workload, {}).get("metrics", {}):
                before = statistics.median(earlier[workload]["metrics"][name])
                move = (med - before) / before if before else 0.0
                worse = move if better == "lower" else -move
                line += f"  moved {move:+.4f}"
                if bound is not None and worse > bound:
                    line += "  <-- WORSE THAN BOUND"
                    ok = False
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
