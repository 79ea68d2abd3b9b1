"""Workload definitions: the inputs of every operation and the known faults.

Stdlib only, because worker processes import it before their set-up
clock stops.
"""

from __future__ import annotations

# compare operations: (name, family, --params) as a user would type them
COMPARE_SMALL = (
    ("sharp-t3.6", "sharp", "p=1.8,t=3.6,h=0.5"),
    ("sharp-t2.8", "sharp", "p=1.8,t=2.8,h=0.5"),
    ("fp", "fp", None),
    ("ctd-spaced", "ctd-spaced", None),
    ("dense-cf", "dense-cf", None),
)
COMPARE_LARGE = (
    ("ctd-clustered", "ctd-clustered", None),
    ("parabolic", "parabolic", None),
)

COMPLEX_FINITE_DIGITS = ((2, 0), (2, 1), (2, -1), (3, 0))

# dimension systems: name -> how the spec is made (spec document or family)
DIMENSION_SYSTEMS = (
    ("e12", {"kind": "gauss_digits", "digits": [1, 2]}),
    ("e23", {"kind": "gauss_digits", "digits": [2, 3]}),
    ("e2345", {"kind": "gauss_digits", "digits": [2, 3, 4, 5]}),
    ("renyi23", {"kind": "renyi_parabolic", "digits": [2, 3]}),
    ("ctd-spaced", ("ctd-spaced", {"p": 1.8})),
    ("ctd-clustered", ("ctd-clustered", {"alpha": 0.5})),
    ("dense-cf", ("dense-cf", {})),
    ("complex-finite", {"kind": "complex_gauss", "digits": [list(d) for d in COMPLEX_FINITE_DIGITS]}),
    ("complex-full", {"kind": "complex_gauss", "digits": "full"}),
    ("sharp", ("sharp", {"p": 1.8, "t": 3.6, "h": 0.5})),
)

# similarity systems, left out of the enclosure-width mean (their widths
# are rounding-level or prescribed)
SIMILARITY_OPS = frozenset({"sharp-t3.6", "sharp-t2.8", "fp", "sharp"})

# planar: cloud resolution and theta grid (numpy.linspace arguments)
PLANAR_DELTA = 1e-5
PLANAR_THETAS = (0.05, 0.9, 8)
PLANAR_TOL = 0.07

# compare tolerance at default settings, used by the curves.csv check
COMPARE_TOL = 0.07

# sampled queries per check, drawn from the run's seed
COVER_QUERIES = 48

# seeded valid compare nodes re-estimated on the saved cloud per check
ESTIMATE_NODES = 3

# Faults that make an operation fail every time at the time of writing.
# Each entry is (workload, operation, check); the operation still runs
# and counts as failed, and any failure not listed here clears "correct".
KNOWN_FAULTS = {
    ("compare-small", "sharp-t3.6", "exit_code"):
        "estimate 0.599 against 0.526 at the formula's kink, theta~0.32",
    ("compare-small", "ctd-spaced", "exit_code"):
        "deepest-vs-slope rule picks 0.411 at theta~0.131; per-scale exponents lie in [0.53, 0.556]",
    ("compare-small", "dense-cf", "exit_code"):
        "stretched ladder gives 0.763 against 0.835 at theta=0.05",
    ("compare-large", "ctd-clustered", "exit_code"):
        "only 5-39 covering balls at each scale at theta~0.738",
    ("planar", "estimate", "spectrum_near_dimension"):
        "occupied r-mesh squares stand in for balls; the bounded factor dominates at small R/r",
}


def operations(workload: str) -> list[str]:
    """Operation names of one round, in the order they run."""
    if workload == "compare-small":
        return [name for name, _, _ in COMPARE_SMALL]
    if workload == "compare-large":
        return [name for name, _, _ in COMPARE_LARGE]
    if workload == "dimension":
        return [name for name, _ in DIMENSION_SYSTEMS]
    if workload == "planar":
        return ["build", "dimension", "estimate"]
    raise KeyError(workload)


WORKLOADS = ("compare-small", "compare-large", "dimension", "planar")
