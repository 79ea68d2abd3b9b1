"""One fresh interpreter: set up, run a job's operations, check them.

Started by run.py as ``python3 bench/worker.py <job.json>``.  The job
names the workload, the operations, the seed and round, whether to
trace, and the monotonic time at which the parent started this process.
Set-up ends when ifsdim is imported and the inputs are ready.  Each
operation is timed alone; its checks run afterwards and stay out of
its time.  Last, the calibration kernel (calibrate.py) is timed.  The result is written as JSON to the path the job gives.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up: inputs of each workload


def _compare_inputs(job: dict, table) -> dict:
    import ifsdim.cli  # noqa: F401  (the entry point users run)

    out = {}
    for name, family, params in table:
        if name not in job["ops"]:
            continue
        argv = ["compare", "--family", family, "--seed", str(job["seed"]),
                "--out", os.path.join(job["tmp"], name)]
        if params:
            argv += ["--params", params]
        out[name] = {"argv": argv, "family": family, "params": params}
    return out


def _dimension_inputs(job: dict) -> dict:
    from ifsdim.families import make_family
    from ifsdim.jsonio import spec_from_dict

    from workloads import DIMENSION_SYSTEMS

    out = {}
    for name, how in DIMENSION_SYSTEMS:
        if name in job["ops"]:
            out[name] = spec_from_dict(how) if isinstance(how, dict) else make_family(*how).spec
    return out


def _planar_inputs(job: dict) -> dict:
    import numpy as np
    from ifsdim.jsonio import spec_from_dict

    from workloads import COMPLEX_FINITE_DIGITS, PLANAR_THETAS

    doc = {"kind": "complex_gauss", "digits": [list(d) for d in COMPLEX_FINITE_DIGITS]}
    lo, hi, n = PLANAR_THETAS
    return {"spec": spec_from_dict(doc), "thetas": np.linspace(lo, hi, n)}


def setup(job: dict) -> dict:
    import ifsdim  # noqa: F401

    from workloads import COMPARE_LARGE, COMPARE_SMALL

    workload = job["workload"]
    if workload == "compare-small":
        return _compare_inputs(job, COMPARE_SMALL)
    if workload == "compare-large":
        return _compare_inputs(job, COMPARE_LARGE)
    if workload == "dimension":
        return _dimension_inputs(job)
    return _planar_inputs(job)


# ---------------------------------------------------------------------------
# operations; each returns what its checks need


def run_compare(inputs: dict, name: str, span, state: dict):
    from ifsdim.cli import main

    with span("cli"):
        return main(inputs[name]["argv"])


def run_dimension(inputs: dict, name: str, span, state: dict):
    from ifsdim import hausdorff_dimension

    with span("pressure.hausdorff"):
        return hausdorff_dimension(inputs[name])


def run_planar(inputs: dict, name: str, span, state: dict):
    import ifsdim

    from workloads import PLANAR_DELTA

    if name == "build":
        with span("cloud.build"):
            state["cloud"] = ifsdim.build_limit_cloud(inputs["spec"], PLANAR_DELTA)
            span.count("cloud.points", len(state["cloud"]))
            span.count("cloud.bytes", state["cloud"].points.nbytes)
        return state["cloud"]
    if name == "dimension":
        with span("pressure.hausdorff"):
            state["dimension"] = ifsdim.hausdorff_dimension(inputs["spec"])
        return state["dimension"]
    with span("estimator.estimate"):
        report = ifsdim.assouad_spectrum_estimate(state["cloud"], inputs["thetas"])
        span.count("estimator.nodes", len(inputs["thetas"]))
    return report


class _Untraced:
    """Stands in for the tracer when tracing is off."""

    def __call__(self, _layer: str):
        return contextlib.nullcontext()

    def count(self, _name: str, _amount: float = 1.0) -> None:
        pass


# ---------------------------------------------------------------------------
# main


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    inputs = setup(job)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - job["t_spawn"]

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import checks

    workload = job["workload"]
    run = run_compare if workload.startswith("compare") else run_dimension if workload == "dimension" else run_planar
    records = []
    state: dict = {}
    for index, name in enumerate(job["ops"]):
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        result = run(inputs, name, tracer or _Untraced(), state)
        wall = time.perf_counter() - start
        record = {"op": name, "wall_s": wall, "rss_mb": _rss_mb()}
        if tracer is not None:
            record["self_s"] = tracer.self_times()
            record["counters"] = dict(tracer.counters)
            record["spans"] = len(tracer.spans)
            record["calls"] = tracer.calls
        rng_key = [job["seed"], job["round"], index]
        record.update(checks.check(workload, name, inputs, result, state, rng_key))
        records.append(record)

    # last, so that it touches neither the operations' peak memory nor
    # their heap
    import calibrate

    kernel_s = calibrate.timed_kernel()
    with open(job["result"], "w") as fh:
        json.dump({"setup_s": setup_s, "kernel_s": kernel_s, "ops": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
