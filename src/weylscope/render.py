"""SVG pictures of rank-2 compactified apartments.

The one place where floats appear: exact cone data are realized in the
Euclidean plane and rounded to four decimals at output time, so the same
context always gives the same bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import polyfan, root_data
from .apartment import ApartmentContext
from .root_data import RootDatum, ValidationError

_PALETTE = (
    "#c6dbef", "#fdd0a2", "#c7e9c0", "#fcbba1", "#dadaeb", "#fff7bc", "#d0d1e6",
    "#e5f5e0", "#fde0dd", "#e0ecf4", "#f6e8c3", "#d9d9d9",
)


def _symmetrizer(cartan) -> Tuple[Fraction, ...]:
    """Positive rationals d with d_i c_ij = d_j c_ji, normalized to min 1
    (so short roots get squared length 2)."""
    n = len(cartan)
    d: List[Optional[Fraction]] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    stack.append(j)
    lo = min(x for x in d if x is not None)
    return tuple(x / lo for x in d)


def _realization(datum: RootDatum):
    """Euclidean simple roots (columns of R) and the dual-point map
    M = R^{-T}, so that exact pairings match Euclidean dot products."""
    d = _symmetrizer(datum.cartan)
    g00 = 2 * float(d[0])
    g01 = float(d[0] * datum.cartan[0][1])
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


def _svg_point(cx: float, cy: float, p: Tuple[float, float]) -> str:
    return f"{cx + p[0]:.4f},{cy - p[1]:.4f}"


def render_svg(datum: RootDatum, t, ctx: ApartmentContext) -> str:
    """The SVG picture of the stratifying prefan of a rank-2 context: one
    sector per 2-dimensional cone, one line per ray, a dot at the origin,
    and a legend naming the parabolic of every cone."""
    to_plane = _realization(datum)
    size = 480.0
    cx = cy = size / 2
    radius = 190.0
    entries = list(zip(ctx.parabolics, ctx.prefan.cones))
    legend_h = 24 + 16 * (len(entries) + 1)
    height = size + legend_h
    lines: List[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {size:.0f} {height:.0f}">'
    )
    lines.append(f'<rect x="0" y="0" width="{size:.0f}" height="{height:.0f}" fill="#ffffff"/>')

    sectors: List[str] = []
    rays: List[str] = []
    labels: List[str] = []
    has_origin = False
    color_i = 0
    for idx, (q, cone) in enumerate(entries):
        d = polyfan.dim(cone)
        lin, ray_gens = polyfan.generators(cone)
        if d == 2:
            fill = _PALETTE[color_i % len(_PALETTE)]
            color_i += 1
            mid = polyfan.relative_interior_point(cone)
            if len(lin) == 2:
                sectors.append(
                    f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{radius:.4f}" '
                    f'fill="{fill}" stroke="none"/>'
                )
                label_at = (0.0, 0.0)
            else:
                if len(lin) == 1:
                    a_dir = _unit(to_plane(lin[0]))
                    b_dir = (-a_dir[0], -a_dir[1])
                    mid_dir = _unit(to_plane(mid))
                else:
                    a_dir = _unit(to_plane(ray_gens[0]))
                    b_dir = _unit(to_plane(ray_gens[1]))
                    mid_dir = _unit(to_plane(mid))
                theta_a = math.atan2(a_dir[1], a_dir[0])
                theta_b = math.atan2(b_dir[1], b_dir[0])
                theta_m = math.atan2(mid_dir[1], mid_dir[0])
                pts = [(0.0, 0.0)] + _arc_points(theta_a, theta_b, theta_m, radius)
                path = " ".join(_svg_point(cx, cy, p) for p in pts)
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
            if lin:
                a_dir = _unit(to_plane(lin[0]))
                p1 = (a_dir[0] * radius, a_dir[1] * radius)
                p2 = (-a_dir[0] * radius, -a_dir[1] * radius)
                rays.append(
                    f'<line x1="{cx + p1[0]:.4f}" y1="{cy - p1[1]:.4f}" '
                    f'x2="{cx + p2[0]:.4f}" y2="{cy - p2[1]:.4f}" '
                    'stroke="#000000" stroke-width="2"/>'
                )
                label_dir = a_dir
            else:
                a_dir = _unit(to_plane(ray_gens[0]))
                rays.append(
                    f'<line x1="{cx:.4f}" y1="{cy:.4f}" '
                    f'x2="{cx + a_dir[0] * radius:.4f}" '
                    f'y2="{cy - a_dir[1] * radius:.4f}" '
                    'stroke="#000000" stroke-width="2"/>'
                )
                label_dir = a_dir
            labels.append(
                f'<text x="{cx + label_dir[0] * radius * 0.92 + 8:.4f}" '
                f'y="{cy - label_dir[1] * radius * 0.92 - 6:.4f}" '
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

    title = f"{datum.name or 'datum'}, type {root_data.type_name(t)}"
    lines.append(
        f'<text x="10" y="{size + 18:.0f}" font-family="monospace" '
        f'font-size="13" fill="#000000">{title}: {len(entries)} strata</text>'
    )
    for idx, (q, cone) in enumerate(entries):
        y = size + 18 + 16 * (idx + 1)
        lines.append(
            f'<text x="10" y="{y:.0f}" font-family="monospace" font-size="12" '
            f'fill="#333333">[{idx}] dim {polyfan.dim(cone)}  '
            f'{root_data.parabolic_name(q)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
