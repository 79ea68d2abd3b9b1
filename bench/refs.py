"""Reference values computed apart from ifsdim, in numpy only.

* ``collocation_dimension``: Chebyshev collocation of the transfer
  operator L_t f(x) = sum_b |T_b'(x)|^t f(T_b x) on [0, 1] for finitely
  many real Moebius branches T_b.  The dimension is the t at which the
  leading eigenvalue of the collocation matrix is 1.  For a finite
  truncation of an infinite or induced system the value is the dimension
  of a subsystem, hence a lower bound for the full system.
* the published constants for E{1,2} and the full complex
  continued-fraction set;
* ``greedy_cover_count``: the benchmark's own greedy interval sweep;
* ``mesh_cell_count``: the benchmark's own occupied-mesh-square count;
* ``complex_first_level_bracket``: first-level dimension bounds for a
  finite complex continued-fraction system, from the branch derivatives
  over the seed disc.

Run ``python3 bench/refs.py`` for the self-test: the collocation solver
must reproduce the E{1,2} constant.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

#: dim E{1,2}, Jenkinson and Pollicott, "Rigorous effective bounds on the
#: Hausdorff dimension of continued fraction Cantor sets"
E12_DIMENSION = 0.5312805062772051

#: dimension of the full complex continued-fraction limit set (Falk and
#: Nussbaum), the value the ``complex-cf`` family hard-codes, and the
#: half-width the benchmark allows around it
COMPLEX_CF_DIMENSION = 1.8558
COMPLEX_CF_HALF_WIDTH = 5e-4

COLLOCATION_NODES = 24


# ---------------------------------------------------------------------------
# branch sets as Moebius coefficient arrays (a, b, c, d): x -> (a x + b)/(c x + d)


def gauss_branches(digits) -> np.ndarray:
    """x -> 1/(b + x) for each digit b."""
    b = np.asarray(list(digits), dtype=float)
    return np.stack([np.zeros_like(b), np.ones_like(b), np.ones_like(b), b], axis=1)


def spaced_digits(p: float, count: int) -> list[int]:
    """The first ``count`` distinct values floor(n**p), n >= 2."""
    out: list[int] = []
    n = 2
    while len(out) < count:
        b = math.floor(n**p)
        if not out or b > out[-1]:
            out.append(b)
        n += 1
    return out


def clustered_digits(alpha: float, k_max: int) -> list[int]:
    """Digits in the blocks [2^k, 2^k + 2^(k alpha)] for k = 1..k_max."""
    out: list[int] = []
    for k in range(1, k_max + 1):
        out.extend(range(2**k, math.floor(2**k + 2 ** (k * alpha)) + 1))
    return out


def induced_renyi_branches(digits, generations: int) -> np.ndarray:
    """P^n o R_b for n < generations, P = R_2, b in digits (b != 2).

    R_b(x) = (x + b - 2)/(x + b - 1); P^n(y) = y/(1 + n y).
    """
    rows = []
    for n in range(generations):
        for b in digits:
            # P^n o R_b = [[1, 0], [n, 1]] @ [[1, b-2], [1, b-1]]
            rows.append((1.0, b - 2.0, n + 1.0, n * (b - 2.0) + b - 1.0))
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# collocation


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n)
    angle = (2 * k + 1) * math.pi / (2 * n)
    nodes = 0.5 * (np.cos(angle) + 1.0)
    weights = (-1.0) ** k * np.sin(angle)
    return nodes, weights


def _lagrange(nodes: np.ndarray, weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, shape y.shape + (n,)."""
    diff = y[..., None] - nodes
    exact = diff == 0.0
    diff = np.where(exact, 1.0, diff)
    terms = weights / diff
    basis = terms / terms.sum(axis=-1, keepdims=True)
    hit = exact.any(axis=-1)
    basis[hit] = exact[hit].astype(float)
    return basis


class Collocation:
    """Collocation matrices of the transfer operator for real branches on [0, 1]."""

    def __init__(self, branches: np.ndarray, nodes: int = COLLOCATION_NODES):
        x, w = _chebyshev(nodes)
        a, b, c, d = (branches[:, i][:, None] for i in range(4))
        q = c * x + d
        self.deriv = np.abs(a * d - b * c) / q**2  # (maps, nodes)
        self.basis = _lagrange(x, w, (a * x + b) / q)  # (maps, nodes, nodes)

    def leading_eigenvalue(self, t: float) -> float:
        matrix = np.einsum("mj,mjk->jk", self.deriv**t, self.basis)
        return float(np.max(np.linalg.eigvals(matrix).real))

    def dimension(self, hi: float = 1.0) -> float:
        """Root of leading_eigenvalue(t) = 1 on (0, hi] by bisection."""
        lo = 0.0
        if self.leading_eigenvalue(hi) >= 1.0:
            return hi
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if self.leading_eigenvalue(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def collocation_dimension(branches: np.ndarray, nodes: int = COLLOCATION_NODES) -> float:
    return Collocation(branches, nodes).dimension()


# ---------------------------------------------------------------------------
# complex first-level bracket


def _power_sum_root(values: np.ndarray, hi: float) -> float:
    """Root s of sum(values**s) = 1, values in (0, 1)."""
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if float(np.sum(values**mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def complex_first_level_bracket(digits, center: complex = 0.5, radius: float = 0.5) -> tuple[float, float]:
    """Roots of sum inf|S_b'|^s = 1 and sum sup|S_b'|^s = 1, S_b(z) = 1/(b + z).

    Over the disc |z - center| <= radius, |b + z| ranges over
    [|b + center| - radius, |b + center| + radius]; the two roots bound
    the dimension of the limit set from below and above.
    """
    u = np.abs(np.array([complex(m, n) for m, n in digits]) + center)
    if np.any(u - radius <= 0):
        raise ValueError("a branch has a pole on the seed disc")
    sup = (u - radius) ** -2.0
    inf = (u + radius) ** -2.0
    return _power_sum_root(inf, 2.0), _power_sum_root(sup, 2.0)


# ---------------------------------------------------------------------------
# covering counts


def greedy_cover_count(points: list[float], center: float, R: float, r: float) -> int:
    """Intervals [x, x + 2r] laid left to right over the sorted points in
    [center - R, center + R]; greedy is a minimal cover on the line."""
    i = bisect.bisect_left(points, center - R)
    stop = bisect.bisect_right(points, center + R)
    count = 0
    while i < stop:
        count += 1
        i = bisect.bisect_right(points, points[i] + 2.0 * r)
    return count


def mesh_cell_count(points: list[tuple[float, float]], center: complex, R: float, r: float) -> int:
    """Distinct r-mesh squares holding a point within distance R of center."""
    cx, cy = center.real, center.imag
    cells = set()
    for x, y in points:
        if math.hypot(x - cx, y - cy) <= R:
            cells.add((math.floor(x / r), math.floor(y / r)))
    return len(cells)


def self_test() -> float:
    """Error of the collocation value of dim E{1,2} against the published constant."""
    return abs(collocation_dimension(gauss_branches([1, 2])) - E12_DIMENSION)


if __name__ == "__main__":
    err = self_test()
    print(f"collocation dim E{{1,2}} error against the published constant: {err:.2e}")
    raise SystemExit(0 if err < 1e-13 else 1)
