"""Chords, polygons, holes, remainders, orientation and the rho metric.

Everything here is pure and immutable, except ``UnlinkedFamily``, a vertex
list that grows.  Lengths are exact ``Fraction``s when all endpoints are
rational and refinable enclosures otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor

from .angles import (
    DEFAULT_BUDGET,
    EQ,
    GT,
    LT,
    ONE,
    ZERO,
    Angle,
    PrecisionBudget,
    Value,
    _precision_ladder,
    angle_sorted,
    arc_length,
    clamp01_value,
    cmp_values,
    compare,
    floor_scaled,
    map_angle,
    shift_angle,
    sub_values,
    sum_values,
    value_bounds,
)
from .errors import (
    AssertionBreach,
    ChordsCrossError,
    DegenerateChordError,
    NotInjectiveError,
    PreconditionError,
    UnresolvedComparison,
)


# ---------------------------------------------------------------------------
# basic figures


@dataclass(frozen=True)
class Arc:
    """Open arc running counterclockwise from ``start`` to ``end``."""

    start: Angle
    end: Angle

    def length(self, budget: PrecisionBudget = DEFAULT_BUDGET) -> Value:
        return arc_length(self.start, self.end, budget)

    def contains(self, x: Angle, budget: PrecisionBudget = DEFAULT_BUDGET) -> bool:
        return in_open_arc(x, self.start, self.end, budget)


@dataclass(frozen=True)
class Chord:
    """Unordered pair of circle points; equal endpoints give a degenerate chord."""

    a: Angle
    b: Angle

    def is_degenerate(self, budget: PrecisionBudget = DEFAULT_BUDGET) -> bool:
        return compare(self.a, self.b, budget) == EQ

    def endpoints(self):
        return self.a, self.b

    def __eq__(self, other):
        if not isinstance(other, Chord):
            return NotImplemented
        return {self.a, self.b} == {other.a, other.b}

    def __hash__(self):
        return hash(frozenset((self.a, self.b)))


def in_open_arc(
    x: Angle, u: Angle, w: Angle, budget: PrecisionBudget = DEFAULT_BUDGET
) -> bool:
    """True iff x lies strictly inside the ccw arc (u, w)."""
    if compare(x, u, budget) == EQ or compare(x, w, budget) == EQ:
        return False
    if compare(u, w, budget) == LT:
        return compare(u, x, budget) == LT and compare(x, w, budget) == LT
    return compare(u, x, budget) == LT or compare(x, w, budget) == LT


class Polygon:
    """Finite set of >= 2 distinct circle points in ccw cyclic order,
    rotated so the vertex of minimal angle comes first."""

    __slots__ = ("vertices",)

    def __init__(self, vertices, budget: PrecisionBudget = DEFAULT_BUDGET):
        vs = angle_sorted(vertices, budget)
        if len(vs) < 2:
            raise PreconditionError("a polygon needs at least 2 distinct vertices")
        for i in range(len(vs) - 1):
            if compare(vs[i], vs[i + 1], budget) == EQ:
                raise PreconditionError("polygon vertices must be pairwise distinct")
        object.__setattr__(self, "vertices", tuple(vs))

    @property
    def card(self) -> int:
        return len(self.vertices)

    def image(self, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> "Polygon":
        return Polygon([map_angle(v, d) for v in self.vertices], budget)

    def image_angles(self, d: int):
        return [map_angle(v, d) for v in self.vertices]

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)!r})"


# ---------------------------------------------------------------------------
# holes, sizes, remainders


def remainder(s: Value, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> Value:
    """s minus the largest multiple j/d not exceeding s; lies in [0, 1/d)."""
    j = floor_scaled(s, d, budget)
    if isinstance(s, Fraction):
        return s - Fraction(j, d)
    return clamp01_value(sub_values(s, Fraction(j, d)))


def image_hole(H: Arc, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> Arc:
    """The arc (f(u), f(w)) for a hole H = (u, w)."""
    if compare(H.start, H.end, budget) == EQ:
        raise DegenerateChordError("image-hole of a degenerate arc is undefined")
    return Arc(map_angle(H.start, d), map_angle(H.end, d))


@dataclass
class HoleProfile:
    """Per-polygon record of holes, sizes (ascending), remainders and edges.

    ``order[r]`` is the cyclic index of the rank-(r+1) hole; rank 1 is the
    smallest.  Accessors take the 1-based size rank.
    """

    polygon: Polygon
    degree: int
    holes: tuple[Arc, ...]
    sizes_cyclic: tuple[Value, ...]
    remainders_cyclic: tuple[Value, ...]
    order: tuple[int, ...]
    cr: int | None = field(default=None)

    @property
    def card(self) -> int:
        return len(self.holes)

    def hole(self, k: int) -> Arc:
        return self.holes[self.order[k - 1]]

    def size(self, k: int) -> Value:
        return self.sizes_cyclic[self.order[k - 1]]

    def remainder(self, k: int) -> Value:
        return self.remainders_cyclic[self.order[k - 1]]

    def edge(self, k: int) -> Chord:
        h = self.hole(k)
        return Chord(h.start, h.end)

    def rank_of_cyclic(self, i: int) -> int:
        return self.order.index(i) + 1

    @property
    def remainder_sum(self) -> Value:
        return sum_values(self.remainders_cyclic)

    def sizes_by_rank(self):
        return [self.size(k) for k in range(1, self.card + 1)]


def hole_profile(
    P: Polygon, d: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> HoleProfile:
    """Holes of P with sizes sorted ascending (ties broken by ccw position
    of the hole's start from angle 0) and their remainders."""
    vs = P.vertices
    M = len(vs)
    holes = tuple(Arc(vs[i], vs[(i + 1) % M]) for i in range(M))
    sizes = tuple(arc_length(h.start, h.end, budget) for h in holes)
    if all(isinstance(s, Fraction) for s in sizes) and sum(sizes) != 1:
        raise AssertionBreach("hole sizes do not sum to 1")  # pragma: no cover

    def rank_cmp(i, j):
        c = cmp_values(sizes[i], sizes[j], budget)
        if c != EQ:
            return c
        # tie-break: ccw position of the hole's start from angle 0, which is
        # exactly the cyclic index since vertex 0 has minimal angle
        return -1 if i < j else 1

    order = tuple(sorted(range(M), key=cmp_to_key(rank_cmp)))
    rems = tuple(remainder(s, d, budget) for s in sizes)
    return HoleProfile(
        polygon=P,
        degree=d,
        holes=holes,
        sizes_cyclic=sizes,
        remainders_cyclic=rems,
        order=order,
    )


# ---------------------------------------------------------------------------
# orientation


@dataclass(frozen=True)
class OrientationCertificate:
    """Verdict of the orientation test plus a re-checkable witness: the d-1
    pairwise disjoint open 1/d arcs on success, the remainder sum on failure."""

    verdict: bool
    witness_arcs: tuple[Arc, ...] | None
    remainder_sum: Value


def _check_injective(P: Polygon, d: int, budget: PrecisionBudget):
    images = P.image_angles(d)
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if compare(images[i], images[j], budget) == EQ:
                raise NotInjectiveError(
                    "two vertices share an image under the map",
                    pair=(P.vertices[i], P.vertices[j]),
                )
    return images


def _cyclic_order_preserved(images, budget: PrecisionBudget) -> bool:
    """Images listed in the domain's ccw order are themselves in ccw cyclic
    order iff the circular sequence has exactly one descent."""
    n = len(images)
    descents = 0
    for i in range(n):
        if compare(images[i], images[(i + 1) % n], budget) == GT:
            descents += 1
    return descents == 1


def is_orientation_preserving(
    P: Polygon, d: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> OrientationCertificate:
    """Certificate that f restricted to P's vertices preserves orientation.

    Three equivalent criteria are evaluated and required to agree: the
    direct cyclic-order check, the count of d-1 pairwise disjoint open 1/d
    arcs in the complement, and the remainder sum being exactly 1/d.
    """
    images = _check_injective(P, d, budget)
    return _orientation(images, hole_profile(P, d, budget), d, budget)


def _orientation(
    images, profile: HoleProfile, d: int, budget: PrecisionBudget
) -> OrientationCertificate:
    """The certificate of ``is_orientation_preserving`` from the polygon's
    vertex images (already checked injective) and its hole profile."""
    by_cyclic_order = _cyclic_order_preserved(images, budget)

    floors = [floor_scaled(s, d, budget) for s in profile.sizes_cyclic]
    by_disjoint_arcs = sum(floors) == d - 1

    rsum = profile.remainder_sum
    target = Fraction(1, d)
    if isinstance(rsum, Fraction):
        by_remainders = rsum == target
    else:
        # enclosure sums cannot certify exact equality; require consistency
        lo, hi = value_bounds(rsum, 64)
        by_remainders = None if lo <= target <= hi else False

    verdicts = {by_cyclic_order, by_disjoint_arcs}
    if by_remainders is not None:
        verdicts.add(by_remainders)
    if len(verdicts) != 1:
        raise AssertionBreach(
            "orientation criteria disagree: "
            f"cyclic={by_cyclic_order} arcs={by_disjoint_arcs} remainders={by_remainders}"
        )

    witness = None
    if by_cyclic_order:
        arcs = []
        for i, m in enumerate(floors):
            start = profile.holes[i].start
            for t in range(m):
                arcs.append(
                    Arc(
                        shift_angle(start, Fraction(t, d)),
                        shift_angle(start, Fraction(t + 1, d)),
                    )
                )
        witness = tuple(arcs)
    return OrientationCertificate(
        verdict=by_cyclic_order, witness_arcs=witness, remainder_sum=rsum
    )


# ---------------------------------------------------------------------------
# linkage


def _hole_index_of(P: Polygon, x: Angle, budget: PrecisionBudget) -> int | None:
    """Cyclic hole index of P containing x, or None when x is a vertex."""
    vs = P.vertices
    M = len(vs)
    for i in range(M):
        if compare(x, vs[i], budget) == EQ:
            return None
    for i in range(M):
        if in_open_arc(x, vs[i], vs[(i + 1) % M], budget):
            return i
    raise AssertionBreach("point is in no hole and is no vertex")  # pragma: no cover


def unlinked(A: Polygon, B: Polygon, budget: PrecisionBudget = DEFAULT_BUDGET) -> bool:
    """True iff CH(A) and CH(B) are disjoint (any shared point links them)."""
    found = None
    for b in B.vertices:
        idx = _hole_index_of(A, b, budget)
        if idx is None:  # shared vertex
            return False
        if found is None:
            found = idx
        elif idx != found:
            return False
    return True


class UnlinkedFamily:
    """The vertices of pairwise unlinked polygons, kept in ccw order by
    binary search with ``compare``, each tagged with its polygon's label.

    A polygon P is unlinked from every member iff none of its vertices is a
    listed vertex and no label appears in two of the arcs into which P's
    vertices cut the list.  Checking P costs O(N log V) compares for N
    vertices against V listed ones, plus one compare-free pass over the
    V labels.
    """

    __slots__ = ("angles", "labels", "budget")

    def __init__(self, budget: PrecisionBudget = DEFAULT_BUDGET):
        self.angles: list[Angle] = []
        self.labels: list[int] = []
        self.budget = budget

    def _linked(self, P: Polygon):
        """Insertion index of each vertex of P, and the labels of the
        members linked with P."""
        angles, labels, budget = self.angles, self.labels, self.budget
        cuts, linked = [], set()
        lo = 0
        for v in P.vertices:  # ascending, so each search starts at the last cut
            hi = len(angles)
            while lo < hi:
                mid = (lo + hi) // 2
                c = compare(angles[mid], v, budget)
                if c == LT:
                    lo = mid + 1
                elif c == GT:
                    hi = mid
                else:  # a shared vertex
                    linked.add(labels[mid])
                    lo = mid
                    break
            cuts.append(lo)
        arcs = [labels[a:b] for a, b in zip(cuts, cuts[1:])]
        arcs.append(labels[cuts[-1]:] + labels[: cuts[0]])
        seen: set[int] = set()
        for arc in arcs:
            inside = set(arc)
            linked |= inside & seen
            seen |= inside
        return cuts, linked

    def linked(self, P: Polygon) -> set[int]:
        """Labels of the members linked with P."""
        return self._linked(P)[1]

    def add(self, P: Polygon, label: int) -> set[int]:
        """Labels of the members linked with P; when there are none, P's
        vertices join the list under ``label``."""
        cuts, linked = self._linked(P)
        if not linked:
            for i in reversed(range(P.card)):
                self.angles.insert(cuts[i], P.vertices[i])
                self.labels.insert(cuts[i], label)
        return linked


def hole_containing(
    Q: Polygon,
    B: Polygon,
    tau: Fraction,
    budget: PrecisionBudget = DEFAULT_BUDGET,
):
    """The hole of B containing the unlinked set Q; its length exceeds tau.

    Returns ``(arc, length)``.
    """
    if Q.card < 3 or B.card < 3:
        raise PreconditionError("hole_containing needs card >= 3 on both sides")
    if not unlinked(Q, B, budget):
        raise PreconditionError("sets must be unlinked")
    profile = hole_profile(B, 2, budget)  # degree irrelevant for sizes
    big = sum(1 for s in profile.sizes_cyclic if cmp_values(s, tau, budget) >= 0)
    if big < 2:
        raise PreconditionError(
            "the containing set needs at least two holes of length >= tau"
        )
    idx = _hole_index_of(B, Q.vertices[0], budget)
    if idx is None:  # pragma: no cover - unlinked excludes shared vertices
        raise AssertionBreach("unlinked sets cannot share a vertex")
    vs = B.vertices
    arc = Arc(vs[idx], vs[(idx + 1) % len(vs)])
    length = arc.length(budget)
    if cmp_values(length, tau, budget) <= 0:
        raise AssertionBreach("containing hole is not longer than tau")
    return arc, length


# ---------------------------------------------------------------------------
# critical chords


def is_critical(c: Chord, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> bool:
    """True iff the endpoints differ by a nonzero multiple of 1/d."""
    if c.is_degenerate(budget):
        raise DegenerateChordError("a degenerate chord cannot be critical")
    length = arc_length(c.a, c.b, budget)
    if isinstance(length, Fraction):
        return (d * length).denominator == 1
    for k in _precision_ladder(budget):
        lo, hi = value_bounds(length, k)
        if ceil(d * lo) > floor(d * hi):
            return False
    raise UnresolvedComparison("criticality undecided within budget")


def critical_value(c: Chord, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> Angle:
    if not is_critical(c, d, budget):
        raise PreconditionError("chord is not critical")
    return map_angle(c.a, d)


# ---------------------------------------------------------------------------
# the rho metric


def _rho_point_chord(x: Angle, q: Chord, budget: PrecisionBudget) -> Value:
    c, e = q.endpoints()
    if compare(x, c, budget) == EQ or compare(x, e, budget) == EQ:
        return ZERO  # the point lies on the chord
    if in_open_arc(x, c, e, budget):
        return arc_length(c, e, budget)
    return arc_length(e, c, budget)


def rho(p: Chord, q: Chord, budget: PrecisionBudget = DEFAULT_BUDGET) -> Value:
    """Amount of arc between two chords with disjoint interiors.

    Shared circle endpoints are allowed; degenerate chords (points) are
    allowed.  Raises ChordsCrossError when the interiors intersect.
    """
    a, b = p.endpoints()
    c, e = q.endpoints()
    p_deg = compare(a, b, budget) == EQ
    q_deg = compare(c, e, budget) == EQ
    if p_deg and q_deg:
        return ZERO if compare(a, c, budget) == EQ else ONE
    if p_deg:
        return _rho_point_chord(a, q, budget)
    if q_deg:
        return _rho_point_chord(c, p, budget)

    c_is_vertex = compare(c, a, budget) == EQ or compare(c, b, budget) == EQ
    e_is_vertex = compare(e, a, budget) == EQ or compare(e, b, budget) == EQ
    if c_is_vertex and e_is_vertex:
        return ZERO  # equal chords
    if not c_is_vertex and not e_is_vertex:
        if in_open_arc(c, a, b, budget) != in_open_arc(e, a, b, budget):
            raise ChordsCrossError("chord interiors intersect in the open disk")

    q_ref = e if c_is_vertex else c
    p_ref = b if (compare(a, c, budget) == EQ or compare(a, e, budget) == EQ) else a
    gap_p = (
        arc_length(b, a, budget)
        if in_open_arc(q_ref, a, b, budget)
        else arc_length(a, b, budget)
    )
    gap_q = (
        arc_length(e, c, budget)
        if in_open_arc(p_ref, c, e, budget)
        else arc_length(c, e, budget)
    )
    return clamp01_value(sub_values(sub_values(ONE, gap_p), gap_q))


# ---------------------------------------------------------------------------
# critical strips


@dataclass(frozen=True)
class CriticalStrip:
    """Certificate arc of left endpoints c for which {c, c + j/d} is a
    critical chord inside the closure of a hole, all at the same rho-distance
    (the hole's remainder) from the hole's edge."""

    hole: Arc
    degree: int
    j: int
    start_lo: Angle
    start_hi: Angle
    rho_value: Value

    def chord_at(self, c: Angle) -> Chord:
        return Chord(c, shift_angle(c, Fraction(self.j, self.degree)))

    def endpoint_arc_bounds(self, k: int = 64):
        """Fraction intervals for the two endpoint ranges of strip chords.

        The second interval is the first translated by j/d and may exceed 1;
        consumers treat both as mod-1 intervals.
        """
        lo0, _ = self.start_lo.enclosure_bounds(k)
        _, hi0 = self.start_hi.enclosure_bounds(k)
        off = Fraction(self.j, self.degree)
        return (lo0, hi0), (lo0 + off, hi0 + off)


def critical_strip(
    H: Arc, d: int, j: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> CriticalStrip:
    """Strip of critical chords {c, c+j/d} contained in the closed hole H;
    requires j/d < len(H) < (j+1)/d with 1 <= j <= d-1."""
    if not 1 <= j <= d - 1:
        raise PreconditionError(f"j must be in 1..{d - 1}, got {j}")
    length = H.length(budget)
    if (
        cmp_values(length, Fraction(j, d), budget) <= 0
        or cmp_values(length, Fraction(j + 1, d), budget) >= 0
    ):
        raise PreconditionError("hole length must satisfy j/d < len < (j+1)/d")
    start_hi = shift_angle(H.end, -Fraction(j, d))
    rho_value = remainder(length, d, budget)
    return CriticalStrip(
        hole=H,
        degree=d,
        j=j,
        start_lo=H.start,
        start_hi=start_hi,
        rho_value=rho_value,
    )
