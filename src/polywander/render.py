"""Deterministic SVG 1.1 rendering of polygons, holes, strips and leaves.

Layout is fixed: a 1000x1000 canvas, the circle at radius 450 around
(500, 500), and a point at angle theta drawn at
(500 + 450 cos 2*pi*theta, 500 - 450 sin 2*pi*theta).
"""

from __future__ import annotations

import math

from .angles import DEFAULT_BUDGET, Angle, PrecisionBudget
from .errors import PolywanderError, PreconditionError
from .geometry import Polygon, vertex_midpoints
from .orbit import iterate_orbit
from .recurrence import JumpAnalysis

SIZE = 1000
CX = CY = 500
R = 450

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _xy(n: int, q: int) -> tuple[float, float]:
    """Canvas point of the angle n/q; n / q on ints is the correctly rounded
    float of the rational, as ``float(Fraction(n, q))`` is."""
    t = 2 * math.pi * (n / q)
    return CX + R * math.cos(t), CY - R * math.sin(t)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _pt(xy: tuple[float, float]) -> str:
    return f"{_fmt(xy[0])} {_fmt(xy[1])}"


def _arc_to(span: int, q: int, to: str) -> str:
    """SVG arc segment running counterclockwise over span/q of the circle
    to the point ``to``."""
    return f"A {R} {R} 0 {1 if 2 * span > q else 0} 0 {to}"


def _strip_path(strip) -> str:
    """A critical strip's range of c and its partner range, j/d further on."""
    (lo, hi), (plo, phi) = strip.ranges
    q = strip.den
    a, b, c, e = (_pt(_xy(x % q, q)) for x in (lo, hi, phi, plo))
    span = (hi - lo) % q
    return f"M {a} {_arc_to(span, q, b)} L {c} {_arc_to(q - span, q, e)} Z"


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

        drawn = [vertex_midpoints(rec.polygon, budget) for rec in orbit]
        drawn = [(pts, [_xy(n, q) for n, q in pts]) for pts in drawn]
        for rec, (_, xys) in zip(orbit, drawn):
            color = PALETTE[rec.index % len(PALETTE)]
            body.append(
                f'<path class="polygon" id="polygon-{rec.index}" '
                f'd="M {" L ".join(map(_pt, xys))} Z" fill="{color}" '
                f'fill-opacity="0.25" stroke="{color}" stroke-width="1.5"/>'
            )
            cx = sum(x for x, _ in xys) / len(xys)
            cy = sum(y for _, y in xys) / len(xys)
            body.append(
                f'<text class="label" id="label-{rec.index}" x="{_fmt(cx)}" '
                f'y="{_fmt(cy)}" font-size="20" text-anchor="middle" '
                f'fill="{color}">T{rec.index}</text>'
            )

        pts, xys = drawn[0]
        M = len(pts)
        for i, ((na, qa), a) in enumerate(zip(pts, xys)):
            (nb, qb), b = pts[(i + 1) % M], xys[(i + 1) % M]
            arc = _arc_to((nb * qa - na * qb) % (qa * qb), qa * qb, _pt(b))
            body.append(
                f'<path class="hole-arc" id="hole-0-{i}" '
                f'd="M {_pt(a)} {arc}" fill="none" '
                'stroke="#999999" stroke-width="6" stroke-opacity="0.5"/>'
            )

        run = JumpAnalysis(orbit, d, budget, burn_in=0)
        try:
            log = run.jumps
        except PolywanderError:
            log = None
        if log is not None:
            for jr in log.records:
                body.append(
                    f'<path class="strip" id="strip-{jr.index}" '
                    f'd="{_strip_path(jr.strip)}" '
                    'fill="#d62728" fill-opacity="0.3" stroke="none"/>'
                )
            for li, leaf in enumerate(run.leaves):
                (x1, y1), (x2, y2) = (
                    _xy(m.numerator, m.denominator)
                    for m in ((lo + hi) / 2 % 1 for lo, hi in leaf.arcs)
                )
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
