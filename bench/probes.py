"""Kernel rates at fixed inputs and a fixed seed, for the traced run.

Started by run.py as ``python3 bench/probes.py <job.json>`` in a fresh
interpreter; writes the rates as JSON to the job's result path.  Each
rate is the median of REPEATS timings of the same fixed amount of work.

``cover_count_1d`` and ``cover_count_2d`` are the public single-query
counts; the estimator counts with its own batched kernels, which the
``probe*_nodes_per_s`` rates time through ``assouad_spectrum_estimate``.
The unit costs of a traced span and of a counted call give run.py its
estimate of the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

import ifsdim
from ifsdim.families import make_family
from ifsdim.jsonio import spec_from_dict
from ifsdim.spectra import fp_spectrum
from tracing import Tracer, _counted
from workloads import COMPLEX_FINITE_DIGITS

SEED = 20240
REPEATS = 5


def _rate(work, amount: int) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return amount / statistics.median(times)


def _queries(cloud, count: int, planar: bool):
    rng = np.random.default_rng(SEED)
    pts = cloud.points
    out = []
    for _ in range(count):
        p = pts[int(rng.integers(len(pts)))]
        R = 10.0 ** rng.uniform(-3.0, np.log10(0.5))
        r = R * 10.0 ** -rng.uniform(0.3, 2.0)
        out.append((complex(p[0], p[1]) if planar else float(p), R, r))
    return out


def _per_call_cost(count: int) -> tuple[float, float]:
    """Seconds a traced span and a counted call add to one call."""

    def noop():
        return None

    tracer = Tracer()
    traced, counted = tracer.wrap(noop, "probe"), _counted(tracer, noop)

    def per_call(func) -> float:
        times = []
        for _ in range(REPEATS):
            tracer.reset()
            start = time.perf_counter()
            for _ in range(count):
                func()
            times.append(time.perf_counter() - start)
        return statistics.median(times) / count

    plain = per_call(noop)
    return per_call(traced) - plain, per_call(counted) - plain


def probe() -> dict:
    # cover_count_1d on the dense-cf cloud at its default resolution
    line = ifsdim.build_limit_cloud(make_family("dense-cf").spec, 1e-4)
    q1 = _queries(line, 2000, planar=False)
    cover1d = _rate(lambda: [ifsdim.cover_count_1d(line, c, R, r) for c, R, r in q1], len(q1))
    thetas1 = np.linspace(0.05, 0.9, 64)
    nodes1d = _rate(lambda: ifsdim.assouad_spectrum_estimate(line, thetas1), len(thetas1))

    # cover_count_2d on the finite complex system at delta 1e-4
    planar_spec = spec_from_dict({"kind": "complex_gauss", "digits": [list(d) for d in COMPLEX_FINITE_DIGITS]})
    plane = ifsdim.build_limit_cloud(planar_spec, 1e-4)
    q2 = _queries(plane, 500, planar=True)
    cover2d = _rate(lambda: [ifsdim.cover_count_2d(plane, c, R, r) for c, R, r in q2], len(q2))
    thetas2 = np.linspace(0.05, 0.9, 4)
    nodes2d = _rate(lambda: ifsdim.assouad_spectrum_estimate(plane, thetas2), len(thetas2))

    # psi on the dense-cf tail at t = 0.8, n = 2 (derivative tables warm)
    tail_spec = make_family("dense-cf").spec
    ifsdim.psi(tail_spec, 0.8, 2)
    psi_rate = _rate(lambda: [ifsdim.psi(tail_spec, 0.8, 2) for _ in range(200)], 200)

    # bound envelope of the fp(1.8) fixed-point spectrum on 64 nodes
    thetas = np.linspace(0.05, 0.9, 64)
    envelope = _rate(lambda: ifsdim.upper_envelope(thetas, lambda th: fp_spectrum(1.8, th), 1.0 / 2.8), len(thetas))

    span_cost, call_cost = _per_call_cost(100_000)
    return {
        "estimator.cover1d_per_s": cover1d,
        "estimator.cover2d_per_s": cover2d,
        "estimator.probe1d_nodes_per_s": nodes1d,
        "estimator.probe2d_nodes_per_s": nodes2d,
        "trace.span_cost_s": span_cost,
        "trace.call_cost_s": call_cost,
        "pressure.psi_per_s": psi_rate,
        "spectra.envelope_nodes_per_s": envelope,
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    with open(job["result"], "w") as fh:
        json.dump(probe(), fh)
