"""ifsdim benchmark: compare, dimension and planar workloads.

    python3 bench/run.py --workload compare-small --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run from the repository root.  Every operation runs in a fresh
interpreter (bench/worker.py), started one after another from this
process, single-threaded and with IFSDIM_THREADS unset, so in-process
caches start cold as they do for a user of the command line.  A run
repeats whole rounds of the workload's operations until ``--seconds``
have passed and reports medians over rounds; its times are scaled by
the machine's speed during the run (calibrate.py).  With ``--trace 1``
the rounds run traced and give the per-layer metrics instead.  The
last line of output is one JSON object: correct, attempted, failed and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from calibrate import REFERENCE_S, speed_factor  # noqa: E402
from workloads import (  # noqa: E402
    COMPARE_LARGE,
    COMPARE_SMALL,
    DIMENSION_SYSTEMS,
    KNOWN_FAULTS,
    SIMILARITY_OPS,
    WORKLOADS,
    operations,
)

#: set-up-only interpreters at the start of a run, after one unmeasured
#: warm-up, and at most this many at once later in the run
SETUP_BURST = 5
#: one more set-up-only interpreter per this many seconds of the run,
#: started between jobs, so that the set-up median spans the whole run
SETUP_EVERY = 2.0
#: a single interpreter must finish within this many seconds
CHILD_TIMEOUT = 170

LAYERS = ("cli", "families.make", "pressure.hausdorff", "tails.psi1_bounds", "cloud.build",
          "estimator.estimate", "spectra.bounds", "svgplot.emit", "cloud.write")
COUNTERS = ("pressure.psi_calls", "tails.generation_calls", "cloud.points", "cloud.bytes")
PROBES = ("estimator.cover1d_per_s", "estimator.cover2d_per_s", "estimator.probe1d_nodes_per_s",
          "estimator.probe2d_nodes_per_s", "pressure.psi_per_s", "spectra.envelope_nodes_per_s")
FAMILIES = tuple(name for name, _, _ in COMPARE_SMALL + COMPARE_LARGE)
SYSTEMS = tuple(name for name, _ in DIMENSION_SYSTEMS)


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("IFSDIM_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(script: str, job: dict, tmp: str) -> dict:
    """Run one fresh interpreter on a job and return its JSON result."""
    fd, job_path = tempfile.mkstemp(suffix=".json", dir=tmp)
    job = dict(job, result=job_path + ".out", tmp=tmp, t_spawn=time.clock_gettime(time.CLOCK_MONOTONIC))
    with os.fdopen(fd, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, script), job_path], cwd=ROOT,
                          env=_child_env(), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise WorkerError(f"{script} exited with {proc.returncode} on {job.get('ops')}")
    with open(job["result"]) as fh:
        return json.load(fh)


def _jobs(workload: str) -> list[list[str]]:
    """Operations grouped by interpreter: one per operation, except that
    planar's build, dimension and estimate share one pipeline."""
    ops = operations(workload)
    return [ops] if workload == "planar" else [[op] for op in ops]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _width_gmean(records) -> float:
    # a reversed enclosure fails its check; leave it out of the mean
    return _gmean(r["width"] for r in records
                  if "width" in r and r["width"] > 0 and r["op"] not in SIMILARITY_OPS)


def _op_median(rounds, op: str, key: str) -> float:
    return _median(r[key] for records in rounds for r in records if r["op"] == op)


def _typical_round(rounds) -> float:
    """Sum over the operations of each one's median time across rounds;
    steadier than the median of round totals when rounds are few."""
    return sum(_op_median(rounds, r["op"], "wall_s") for r in rounds[0])


def end_to_end(setups, kernels, rounds) -> dict:
    """Times are scaled to the reference speed of calibrate.py."""
    factor = speed_factor(kernels)
    return {
        "setup_s": (_median(setups) * factor, "s"),
        "wall_s": (_typical_round(rounds) * factor, "s"),
        "peak_rss_mb": (_median(max(r["rss_mb"] for r in records) for records in rounds), "MB"),
        "enclosure_width_gmean": (_median(_width_gmean(records) for records in rounds), "1"),
    }


def per_layer(workload: str, rounds, probes: dict) -> dict:
    """Per-layer metrics from traced rounds."""
    per_round = []
    for records in rounds:
        sums: dict[str, float] = defaultdict(float)
        for r in records:
            for layer, value in r["self_s"].items():
                sums[layer] += value
            for name, value in r["counters"].items():
                sums[name] += value
        sums["estimator.nodes_per_s"] = (sums["estimator.nodes"] / sums["estimator.estimate"]
                                         if sums["estimator.estimate"] else 0.0)
        sums["cloud.points_per_s"] = sums["cloud.points"] / sums["cloud.build"] if sums["cloud.build"] else 0.0
        per_round.append(sums)

    def med(name: str) -> float:
        return _median(s.get(name, 0.0) for s in per_round)

    out = {}
    for layer in LAYERS:
        out["cli.self_s" if layer == "cli" else layer + "_s"] = (med(layer), "s")
    out["estimator.nodes_per_s"] = (med("estimator.nodes_per_s"), "1/s")
    out["cloud.points_per_s"] = (med("cloud.points_per_s"), "1/s")
    for name in COUNTERS:
        out[name] = (med(name), "bytes" if name == "cloud.bytes" else "count")
    for name in PROBES:
        out[name] = (probes[name], "1/s")
    for family in FAMILIES:
        value = _op_median(rounds, family, "wall_s") if workload.startswith("compare") else 0.0
        out["cli.compare_s." + family] = (value, "s")
    for system in SYSTEMS:
        op = system if workload == "dimension" else ("dimension" if system == "complex-finite" else None)
        found = workload in ("dimension", "planar") and op is not None
        out["pressure.hausdorff_s." + system] = (_op_median(rounds, op, "wall_s") if found else 0.0, "s")
        out["pressure.enclosure_width." + system] = (_op_median(rounds, op, "width") if found else 0.0, "1")
    # spans and counted calls times their unit costs at a fixed input
    out["trace.overhead_s"] = (_median(
        sum(r["spans"] * probes["trace.span_cost_s"] + r["calls"] * probes["trace.call_cost_s"] for r in records)
        for records in rounds), "s")
    return out


def _self_times_add_up(rounds) -> bool:
    """Within each traced operation the layer self times sum to its time."""
    for records in rounds:
        for r in records:
            if abs(sum(r["self_s"].values()) - r["wall_s"]) > 1e-3 * r["wall_s"] + 1e-4:
                return False
    return True


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    kernels: list[float] = []  # calibration kernel time of every interpreter

    def worker(ops: list[str], index: int, traced: bool) -> dict:
        result = spawn("worker.py", {"workload": workload, "ops": ops, "seed": seed, "round": index,
                                     "trace": traced}, tmp)
        kernels.append(result["kernel_s"])
        return result

    try:
        worker([], -1, False)  # unmeasured warm-up: file cache and bytecode caches
        kernels.clear()
        setups = [worker([], -1, False)["setup_s"] for _ in range(SETUP_BURST)]
        rounds: list[list[dict]] = []
        start = last_setup = time.monotonic()
        while not rounds or time.monotonic() - start < seconds:
            records = []
            for ops in _jobs(workload):
                result = worker(ops, len(rounds), trace)
                setups.append(result["setup_s"])
                records.extend(result["ops"])
                due = min(SETUP_BURST, int((time.monotonic() - last_setup) / SETUP_EVERY))
                if due:
                    setups += [worker([], -1, False)["setup_s"] for _ in range(due)]
                    last_setup = time.monotonic()
            rounds.append(records)
        probes = spawn("probes.py", {}, tmp) if trace else {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass  # another run's directory is still there
    return report(workload, seed, trace, setups, kernels, rounds, probes)


def report(workload, seed, trace, setups, kernels, rounds, probes) -> dict:
    attempted = failed = 0
    unexpected = []
    for records in rounds:
        for r in records:
            attempted += 1
            bad = [name for name, ok in r["checks"].items() if not ok]
            failed += bool(bad)
            unexpected += [(r["op"], name) for name in bad if (workload, r["op"], name) not in KNOWN_FAULTS]
    correct = not unexpected and (not trace or _self_times_add_up(rounds))

    print(f"== {workload}: seed {seed}, {len(rounds)}" + (" traced" if trace else "")
          + f" rounds, {attempted} operations attempted, {failed} failed")
    first = rounds[0]
    for r in first:
        bad = [name for name, ok in r["checks"].items() if not ok]
        status = "ok" if not bad else "FAILED " + ", ".join(
            name + (" (known fault)" if (workload, r["op"], name) in KNOWN_FAULTS else " (UNEXPECTED)")
            for name in bad)
        extra = ""
        if "width" in r:
            extra = f"  width {r['width']:.3g}"
        print(f"   {r['op']:<15} {_op_median(rounds, r['op'], 'wall_s'):8.3f} s{extra}  {status}")
    for r in first:
        if "sha256" in r:
            same = all(x.get("sha256") == r["sha256"] for records in rounds
                       for x in records if x["op"] == r["op"])
            print(f"   sha256 {r['op']}: " + " ".join(f"{k}={v}" for k, v in r["sha256"].items())
                  + ("" if same else "  (differs between rounds)"))
    for op, name in sorted(set(unexpected)):
        print(f"   UNEXPECTED FAILURE: {op} {name}")
    if trace and not _self_times_add_up(rounds):
        print("   traced self times do not add up to the traced operation times")

    print(f"   measured: setup {_median(setups):.4f} s, round {_typical_round(rounds):.4f} s; "
          f"calibration kernel {_median(kernels):.4f} s (reference {REFERENCE_S} s) in {len(kernels)} interpreters")
    metrics = per_layer(workload, rounds, probes) if trace else end_to_end(setups, kernels, rounds)
    for name, (value, unit) in metrics.items():
        print(f"   {name:<40} {value:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (os.path.join("src", "ifsdim", "__init__.py"), os.path.join("docs", "summary.schema.json")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"bench: {need} is missing; run from a checkout of the repository", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
