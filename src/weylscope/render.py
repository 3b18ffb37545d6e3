"""SVG pictures of rank-2 compactified apartments.

The one place where floats appear: exact cone data are realized in the
Euclidean plane and rounded to four decimals at output time, so the same
context always gives the same bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import root_data
from .apartment import ApartmentContext
from .root_data import RootDatum, ValidationError

_PALETTE = (
    "#c6dbef", "#fdd0a2", "#c7e9c0", "#fcbba1", "#dadaeb", "#fff7bc", "#d0d1e6",
    "#e5f5e0", "#fde0dd", "#e0ecf4", "#f6e8c3", "#d9d9d9",
)


def _realization(datum: RootDatum):
    """Euclidean simple roots (columns of R) and the dual-point map
    M = R^{-T}, so that exact pairings match Euclidean dot products.  The
    Gram matrix is the Cartan matrix symmetrized by the positive d with
    d_0 c_01 = d_1 c_10, normalized to min 1 (so short roots get squared
    length 2)."""
    (_, c01), (c10, _) = datum.cartan
    r = Fraction(c01, c10) if c01 else Fraction(1)  # d_1 / d_0
    d = (1 / r, Fraction(1)) if r < 1 else (Fraction(1), r)
    g00 = 2 * float(d[0])
    g01 = float(d[0] * c01)
    g11 = 2 * float(d[1])
    a1 = (math.sqrt(g00), 0.0)
    a2x = g01 / a1[0]
    a2 = (a2x, math.sqrt(max(g11 - a2x * a2x, 0.0)))
    det = a1[0] * a2[1] - a2[0] * a1[1]
    # rows of R^{-T}, R = (a1 | a2): dual points pair with realized
    # characters by the plain Euclidean dot product
    m = (
        (a2[1] / det, -a1[1] / det),
        (-a2[0] / det, a1[0] / det),
    )

    def to_plane(u: Sequence) -> Tuple[float, float]:
        x = float(u[0]) * m[0][0] + float(u[1]) * m[0][1]
        y = float(u[0]) * m[1][0] + float(u[1]) * m[1][1]
        return (x, y)

    return to_plane


def _unit(v: Tuple[float, float]) -> Tuple[float, float]:
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        raise ValidationError("degenerate direction in the rendered fan")
    return (v[0] / n, v[1] / n)


def _arc_points(
    theta_a: float, theta_b: float, theta_mid: float, radius: float
) -> List[Tuple[float, float]]:
    """Points along the circular arc from angle a to angle b passing through
    mid, sampled finely so filled sectors hug the disc."""
    tau = 2 * math.pi
    span = (theta_b - theta_a) % tau
    if span == 0.0:
        span = tau
    inside = (theta_mid - theta_a) % tau
    if inside > span + 1e-9:
        theta_a, theta_b = theta_b, theta_a
        span = tau - span
    steps = max(2, int(math.ceil(span / 0.2)))
    return [
        (
            radius * math.cos(theta_a + span * k / steps),
            radius * math.sin(theta_a + span * k / steps),
        )
        for k in range(steps + 1)
    ]


def render_svg(ctx: ApartmentContext) -> str:
    """The SVG picture of the stratifying prefan of a rank-2 context: one
    sector per 2-dimensional cone, one line per ray, a dot at the origin,
    and a legend naming the parabolic of every cone.  It draws the rays and
    dimensions the context's cone orbits carry; a sector's inner direction
    is the sum of its rays, as polyfan.relative_interior_point takes it."""
    datum = ctx.datum
    to_plane = _realization(datum)
    size = 480.0
    cx = cy = size / 2
    radius = 190.0
    strata = ctx._built_strata()
    entries = list(zip(strata.parabolics, strata.prefan.generators, strata.dims))
    height = size + 24 + 16 * (len(entries) + 1)  # the legend below the disc
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {size:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{size:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]

    sectors: List[str] = []
    rays: List[str] = []
    labels: List[str] = []
    has_origin = False
    color_i = 0
    for idx, (q, (lin, ray_gens), d) in enumerate(entries):
        if d == 2:
            fill = _PALETTE[color_i % len(_PALETTE)]
            color_i += 1
            if len(lin) == 2:
                sectors.append(
                    f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{radius:.4f}" '
                    f'fill="{fill}" stroke="none"/>'
                )
                label_at = (0.0, 0.0)
            else:
                mid_dir = _unit(to_plane(tuple(map(sum, zip(*ray_gens)))))
                if len(lin) == 1:
                    a_dir = _unit(to_plane(lin[0]))
                    b_dir = (-a_dir[0], -a_dir[1])
                else:
                    a_dir = _unit(to_plane(ray_gens[0]))
                    b_dir = _unit(to_plane(ray_gens[1]))
                theta_a = math.atan2(a_dir[1], a_dir[0])
                theta_b = math.atan2(b_dir[1], b_dir[0])
                theta_m = math.atan2(mid_dir[1], mid_dir[0])
                pts = [(0.0, 0.0)] + _arc_points(theta_a, theta_b, theta_m, radius)
                path = " ".join(f"{cx + x:.4f},{cy - y:.4f}" for x, y in pts)
                sectors.append(
                    f'<polygon points="{path}" fill="{fill}" stroke="none"/>'
                )
                label_at = (mid_dir[0] * radius * 0.72, mid_dir[1] * radius * 0.72)
            labels.append(
                f'<text x="{cx + label_at[0]:.4f}" y="{cy - label_at[1]:.4f}" '
                'font-family="monospace" font-size="13" text-anchor="middle" '
                f'fill="#333333">{idx}</text>'
            )
        elif d == 1:
            # A line through the origin from tip to -tip, or a ray to tip.
            a_dir = _unit(to_plane((lin or ray_gens)[0]))
            tip = (a_dir[0] * radius, a_dir[1] * radius)
            p1, p2 = (tip, (-tip[0], -tip[1])) if lin else ((0.0, 0.0), tip)
            rays.append(
                f'<line x1="{cx + p1[0]:.4f}" y1="{cy - p1[1]:.4f}" '
                f'x2="{cx + p2[0]:.4f}" y2="{cy - p2[1]:.4f}" '
                'stroke="#000000" stroke-width="2"/>'
            )
            labels.append(
                f'<text x="{cx + a_dir[0] * radius * 0.92 + 8:.4f}" '
                f'y="{cy - a_dir[1] * radius * 0.92 - 6:.4f}" '
                'font-family="monospace" font-size="13" '
                f'fill="#000000">{idx}</text>'
            )
        else:
            has_origin = True
            labels.append(
                f'<text x="{cx + 8:.4f}" y="{cy + 14:.4f}" '
                'font-family="monospace" font-size="13" '
                f'fill="#000000">{idx}</text>'
            )

    lines.extend(sectors)
    lines.extend(rays)
    if has_origin:
        lines.append(
            f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="4" fill="#000000"/>'
        )
    lines.extend(labels)

    title = f"{datum.name or 'datum'}, type {root_data.type_name(ctx.type_label)}"
    lines.append(
        f'<text x="10" y="{size + 18:.0f}" font-family="monospace" '
        f'font-size="13" fill="#000000">{title}: {len(entries)} strata</text>'
    )
    for idx, (q, _, d) in enumerate(entries):
        y = size + 18 + 16 * (idx + 1)
        lines.append(
            f'<text x="10" y="{y:.0f}" font-family="monospace" font-size="12" '
            f'fill="#333333">[{idx}] dim {d}  '
            f'{root_data.parabolic_name(q)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
