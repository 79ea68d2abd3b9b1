"""Self-contained SVG renderings of spectrum curves.

No plotting dependency: curves become polylines on fixed axes
(theta in [0,1], value in [0, ambient]), with a simple legend keyed by
provenance.  Output bytes are deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .spectra import SpectrumCurve

WIDTH, HEIGHT = 640, 440
MARGIN = 48

_COLORS = {
    "formula": "#202020",
    "lower_bound": "#8b5a2b",
    "upper_bound": "#1f4fa0",
    "estimate": "#2e8b2e",
}
_DASH = {"lower_bound": "6,3", "upper_bound": "6,3"}


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def emit_svg(curves: list[SpectrumCurve], value_max: float = 1.0) -> str:
    """Render curves as one SVG document; raises on an empty list."""
    if not curves:
        raise DomainError("nothing to plot: the curve list is empty")
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN

    def sx(theta: float) -> float:
        return MARGIN + theta * plot_w

    def sy(value: float) -> float:
        return HEIGHT - MARGIN - (value / value_max) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes and ticks
    out.append(
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" y2="{HEIGHT - MARGIN}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        'stroke="black" stroke-width="1"/>'
    )
    for k in range(11):
        theta = k / 10.0
        x = sx(theta)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN}" x2="{_fmt(x)}" y2="{HEIGHT - MARGIN + 4}" stroke="black"/>'
        )
        if k % 2 == 0:
            out.append(
                f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{theta:.1f}</text>'
            )
    for k in range(5):
        v = value_max * k / 4.0
        y = sy(v)
        out.append(f'<line x1="{MARGIN - 4}" y1="{_fmt(y)}" x2="{MARGIN}" y2="{_fmt(y)}" stroke="black"/>')
        out.append(
            f'<text x="{MARGIN - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.2f}</text>'
        )

    legend_y = MARGIN + 4
    for curve in curves:
        color = _COLORS.get(curve.provenance, "#aa2222")
        mask = np.isfinite(curve.values)
        pts = " ".join(
            f"{_fmt(sx(t))},{_fmt(sy(min(max(v, 0.0), value_max)))}"
            for t, v in zip(curve.thetas[mask], curve.values[mask])
        )
        dash = _DASH.get(curve.provenance)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        label = curve.metadata.get("label", curve.provenance)
        out.append(
            f'<line x1="{WIDTH - MARGIN - 130}" y1="{legend_y}" x2="{WIDTH - MARGIN - 104}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN - 98}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
        legend_y += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"

