"""In-memory spans and counters for the traced run.

Spans are recorded around calls into ifsdim's layers.  In ``compare``
they come from wrapping the names ``ifsdim.cli`` imports and calls; in
the other workloads the worker opens them around its own calls.  A
span's self time is its duration minus the durations of its direct
children, so within one operation the self times add up to the root
span's duration.  The tracer also tallies its spans and the calls made
through its counting wrappers; with the unit costs that probes.py
measures they give the tracing overhead.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []  # (layer, duration, self time)
        self._stack: list[list] = []  # open spans: [layer, start, child time]
        self.counters: dict[str, float] = defaultdict(float)
        self.calls = 0  # calls through a counting wrapper, for the overhead estimate
        self._builds = 0

    def __call__(self, layer: str):
        return _Span(self, layer)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Counts made while no operation is running (checks) are dropped."""
        if self._stack:
            self.counters[name] += amount

    def count_in_build(self, name: str) -> None:
        self.calls += 1
        if self._builds:
            self.counters[name] += 1.0

    def wrap(self, func, layer: str, after=None):
        """func inside a span; ``after(result, args)`` records counts."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self(layer):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for layer, _, self_time in self.spans:
            out[layer] += self_time
        return dict(out)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.calls = 0


class _Span:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        if self.layer == "cloud.build":
            self.tracer._builds += 1
        self.tracer._stack.append([self.layer, time.perf_counter(), 0.0])
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        layer, start, child = self.tracer._stack.pop()
        duration = end - start
        self.tracer.spans.append((layer, duration, duration - child))
        if self.tracer._stack:
            self.tracer._stack[-1][2] += duration
        if layer == "cloud.build":
            self.tracer._builds -= 1
        return False


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of ifsdim for the rest of the process."""
    import ifsdim.cli as cli
    import ifsdim.pressure as pressure
    import ifsdim.tails as tails
    from ifsdim.cloud import PointCloud
    from ifsdim.families import Family

    def built(cloud, _args):
        tracer.count("cloud.points", len(cloud))
        tracer.count("cloud.bytes", cloud.points.nbytes)

    def estimated(_report, args):
        tracer.count("estimator.nodes", len(args[1]))

    cli.make_family = tracer.wrap(cli.make_family, "families.make")
    Family.dimension_enclosure = tracer.wrap(Family.dimension_enclosure, "pressure.hausdorff")
    cli.build_limit_cloud = tracer.wrap(cli.build_limit_cloud, "cloud.build", built)
    cli.build_fixed_point_cloud = tracer.wrap(cli.build_fixed_point_cloud, "cloud.build", built)
    cli.assouad_spectrum_estimate = tracer.wrap(cli.assouad_spectrum_estimate, "estimator.estimate", estimated)
    for name in ("lower_bound_curve", "upper_envelope", "curve_from_formula"):
        setattr(cli, name, tracer.wrap(getattr(cli, name), "spectra.bounds"))
    cli.emit_svg = tracer.wrap(cli.emit_svg, "svgplot.emit")
    PointCloud.save = tracer.wrap(PointCloud.save, "cloud.write")
    PointCloud.to_csv = tracer.wrap(PointCloud.to_csv, "cloud.write")

    psi = pressure.psi

    @functools.wraps(psi)
    def counted_psi(*args, **kwargs):
        tracer.calls += 1
        tracer.count("pressure.psi_calls")
        return psi(*args, **kwargs)

    pressure.psi = counted_psi

    for cls in (tails.SimilarityTail, tails.GaussDigitTail, tails.ComplexGaussTail, tails.InducedParabolicTail):
        cls.psi1_bounds = tracer.wrap(cls.psi1_bounds, "tails.psi1_bounds")
        for name in ("generation_maps", "generation_mobius"):
            if name in vars(cls):
                setattr(cls, name, _counted(tracer, getattr(cls, name)))


def _counted(tracer: Tracer, func):
    @functools.wraps(func)
    def counted(*args, **kwargs):
        tracer.count_in_build("tails.generation_calls")
        return func(*args, **kwargs)

    return counted
