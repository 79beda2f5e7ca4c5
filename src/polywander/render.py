"""Deterministic SVG 1.1 rendering of polygons, holes, strips and leaves.

Layout is fixed: a 1000x1000 canvas, the circle at radius 450 around
(500, 500), and a point at angle theta drawn at
(500 + 450 cos 2*pi*theta, 500 - 450 sin 2*pi*theta).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .angles import DEFAULT_BUDGET, Angle, PrecisionBudget, midpoint
from .errors import PolywanderError, PreconditionError
from .geometry import Polygon
from .orbit import iterate_orbit
from .recurrence import JumpAnalysis

SIZE = 1000
CX = CY = 500
R = 450

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _xy(theta: Fraction) -> tuple[float, float]:
    t = 2 * math.pi * float(theta)
    return CX + R * math.cos(t), CY - R * math.sin(t)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _pt(theta: Fraction) -> str:
    x, y = _xy(theta)
    return f"{_fmt(x)} {_fmt(y)}"


def _arc_to(theta_from: Fraction, theta_to: Fraction) -> str:
    """SVG arc segment running counterclockwise from theta_from to theta_to."""
    span = (theta_to - theta_from) % 1
    large = 1 if span > Fraction(1, 2) else 0
    return f"A {R} {R} 0 {large} 0 {_pt(theta_to)}"


def _polygon_path(thetas: list[Fraction]) -> str:
    parts = [f"M {_pt(thetas[0])}"]
    for t in thetas[1:]:
        parts.append(f"L {_pt(t)}")
    parts.append("Z")
    return " ".join(parts)


def _strip_path(lo: Fraction, hi: Fraction, off: Fraction) -> str:
    return " ".join(
        [
            f"M {_pt(lo)}",
            _arc_to(lo, hi),
            f"L {_pt((hi + off) % 1)}",
            _arc_to((hi + off) % 1, (lo + off) % 1),
            "Z",
        ]
    )


def render_svg(
    angles: list[Angle],
    d: int = 2,
    horizon: int = 0,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> str:
    """SVG document for the orbit of the polygon on the given vertices.

    Draws the hulls of T_0..T_horizon (labeled), the holes of T_0, the
    critical strips of any detected jumps, and candidate-leaf chords.
    Empty input draws the bare circle.
    """
    body: list[str] = [
        f'<circle class="circle" cx="{CX}" cy="{CY}" r="{R}" '
        'fill="none" stroke="#000000" stroke-width="2"/>'
    ]
    if horizon < 0:
        raise PreconditionError("horizon must be >= 0")
    if angles:
        P = Polygon(angles, budget)
        try:
            orbit = iterate_orbit(P, d, horizon, budget)
        except PolywanderError as exc:
            orbit = getattr(exc, "records", None) or iterate_orbit(P, d, 0, budget)

        for rec in orbit:
            thetas = [midpoint(v, 32) for v in rec.polygon.vertices]
            color = PALETTE[rec.index % len(PALETTE)]
            body.append(
                f'<path class="polygon" id="polygon-{rec.index}" '
                f'd="{_polygon_path(thetas)}" fill="{color}" '
                f'fill-opacity="0.25" stroke="{color}" stroke-width="1.5"/>'
            )
            cx = sum(_xy(t)[0] for t in thetas) / len(thetas)
            cy = sum(_xy(t)[1] for t in thetas) / len(thetas)
            body.append(
                f'<text class="label" id="label-{rec.index}" x="{_fmt(cx)}" '
                f'y="{_fmt(cy)}" font-size="20" text-anchor="middle" '
                f'fill="{color}">T{rec.index}</text>'
            )

        profile0 = orbit[0].profile
        for hi, hole in enumerate(profile0.holes):
            a = midpoint(hole.start, 32)
            b = midpoint(hole.end, 32)
            body.append(
                f'<path class="hole-arc" id="hole-0-{hi}" '
                f'd="M {_pt(a)} {_arc_to(a, b)}" fill="none" '
                'stroke="#999999" stroke-width="6" stroke-opacity="0.5"/>'
            )

        run = JumpAnalysis(orbit, d, budget, burn_in=0)
        try:
            log = run.jumps
        except PolywanderError:
            log = None
        if log is not None:
            for jr in log.records:
                (slo, shi), _second = jr.strip.endpoint_arc_bounds()
                off = Fraction(jr.strip.j, jr.strip.degree)
                body.append(
                    f'<path class="strip" id="strip-{jr.index}" '
                    f'd="{_strip_path(slo % 1, slo % 1 + (shi - slo), off)}" '
                    'fill="#d62728" fill-opacity="0.3" stroke="none"/>'
                )
            for li, leaf in enumerate(run.leaves):
                a = (leaf.arcs[0][0] + leaf.arcs[0][1]) / 2 % 1
                b = (leaf.arcs[1][0] + leaf.arcs[1][1]) / 2 % 1
                (x1, y1), (x2, y2) = _xy(a), _xy(b)
                body.append(
                    f'<line class="leaf" id="leaf-{li}" x1="{_fmt(x1)}" '
                    f'y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                    'stroke="#000000" stroke-width="2" stroke-dasharray="6 4"/>'
                )

    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"
