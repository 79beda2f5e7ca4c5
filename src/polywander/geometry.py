"""Chords, polygons, holes, remainders, orientation, linkage and rho.

Everything here is pure and immutable, except ``UnlinkedFamily``, a vertex
list that grows.
Lengths are exact ``Fraction``s when all endpoints are rational and
refinable enclosures otherwise.  One sort of a polygon's vertex images
(``_image_sort``) gives injectivity, the cyclic-order half of orientation,
the next iterate and where each vertex's image lands in it.

A rational polygon holds its vertex numerators over one denominator L.
The image of n/L is (d*n mod L)/L, so its whole orbit lives over L and each
step runs on ints: the image sort, the hole sizes, their ranks, floors and
remainders, the remainder-sum test of orientation and the linkage family.
Vertex ``Angle``s, and a ``HoleProfile``'s ``Fraction``s, are built only
when read.

A stream polygon's step is decided on ints too, from one enclosure per
image and hole size at k* = min(REPORT_DIGITS, max_digits) digits over one
denominator D.  The image sort computes the images' enclosures and hands
them, in ccw order, to the next iterate, whose hole profile subtracts them
to get each size's bounds over D.  A size's or remainder's ``Approx`` is
built only when read, seeded with its k*-digit enclosure, so a later
refinement nests as if it had been built at once.  Enclosures nest, so only
what k* leaves open (an overlap, a vertex widened at the 0/1 seam) takes
the compare ladder's rungs above k*.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import pairwise
from math import lcm

from .angles import (
    DEFAULT_BUDGET,
    EQ,
    GT,
    ZERO,
    Angle,
    PrecisionBudget,
    Value,
    REPORT_DIGITS,
    Approx,
    arc_length,
    arc_value,
    ccw_order,
    cmp_values,
    compare,
    floor_scaled,
    map_angle,
    rational_angle,
    shift_angle,
    sum_values,
)
from .errors import (
    AssertionBreach,
    ChordsCrossError,
    DegenerateChordError,
    NotInjectiveError,
    PreconditionError,
)


# ---------------------------------------------------------------------------
# basic figures


@dataclass(frozen=True)
class Arc:
    """Open arc running counterclockwise from ``start`` to ``end``."""

    start: Angle
    end: Angle


@dataclass(frozen=True)
class Chord:
    """Unordered pair of circle points; equal endpoints give a degenerate chord."""

    a: Angle
    b: Angle

    def __eq__(self, other):
        if not isinstance(other, Chord):
            return NotImplemented
        return {self.a, self.b} == {other.a, other.b}

    def __hash__(self):
        return hash(frozenset((self.a, self.b)))


class Polygon:
    """Finite set of >= 2 distinct circle points in ccw cyclic order,
    rotated so the vertex of minimal angle comes first.  When every vertex
    is rational, ``nums`` are their numerators over ``den``, the lcm of their
    denominators or, for an iterate, its orbit's (else both are None), and
    ``vertices`` are built from them on first read.  A stream iterate
    carries ``enclosures`` (k, bounds, D): its vertices' k-digit enclosures
    as int pairs (lo, hi) over one denominator D, in ccw order (else None)."""

    __slots__ = ("_vertices", "nums", "den", "enclosures")

    def __init__(self, vertices, budget: PrecisionBudget = DEFAULT_BUDGET):
        vs = list(vertices)
        if len(vs) < 2:
            raise PreconditionError("a polygon needs at least 2 distinct vertices")
        if len(set(vs)) < len(vs):  # before the sort, which may fail to separate others
            raise PreconditionError("polygon vertices must be pairwise distinct")
        order, tie = ccw_order(vs, budget)
        if tie:
            raise PreconditionError("polygon vertices must be pairwise distinct")
        self._vertices = vs = tuple(vs[i] for i in order)
        self.nums = self.den = self.enclosures = None
        if all(v.source is None for v in vs):
            self.den = L = lcm(*(v.q for v in vs))
            self.nums = tuple(v.n * (L // v.q) for v in vs)

    @classmethod
    def _sorted(cls, vertices, nums=None, den=None, enclosures=None) -> "Polygon":
        """The polygon on distinct points already in ccw order from 0: their
        ``Angle``s (and maybe their ``enclosures``), or None and their
        numerators over ``den``."""
        P = object.__new__(cls)
        P._vertices, P.nums, P.den, P.enclosures = vertices, nums, den, enclosures
        return P

    def _bounds(self, k: int):
        """The vertices' k-digit enclosures as int pairs over one denominator
        D, and D: the carried ones when they are from k digits."""
        e = self.enclosures
        if e is not None and e[0] == k:
            return e[1], e[2]
        return _over_lcm([v.interval(k) for v in self.vertices])

    @property
    def vertices(self) -> tuple[Angle, ...]:
        if self._vertices is None:
            self._vertices = tuple(rational_angle(n, self.den) for n in self.nums)
        return self._vertices

    @property
    def card(self) -> int:
        return len(self._vertices if self.nums is None else self.nums)

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)!r})"


def _over_lcm(ivs):
    """Int enclosures (lo, hi, den) as (lo, hi) pairs over their lcm D, and D."""
    D = lcm(*[q for _, _, q in ivs])
    return [(lo * (m := D // q), hi * m) for lo, hi, q in ivs], D


def _decided_order(bounds, ties: bool):
    """The indices of int pairs (lo, hi) over one denominator in ascending
    order if each pair lies below the next or, given ``ties``, is the same
    point (kept in index order), else None."""
    order = sorted(range(len(bounds)), key=bounds.__getitem__)  # stable
    for (alo, ahi), (blo, bhi) in pairwise(map(bounds.__getitem__, order)):
        if not (ahi < blo or ties and alo == ahi == blo == bhi):
            return None
    return order


def _image_sort(P: Polygon, d: int, budget: PrecisionBudget):
    """The next iterate, the polygon of P's vertex images, and ``landing``:
    for each vertex of P, the position of its image in it.  One sort: of
    the image numerators (d * n) % L over P's own denominator L when P is
    rational, else of their k*-digit enclosures, then ``compare``; a stream
    iterate carries those enclosures.  Equal images are a collision and
    raise NotInjectiveError."""
    L = P.den
    if L is not None:
        images = [d * n % L for n in P.nums]
        order = sorted(range(len(images)), key=images.__getitem__)  # stable on ties
        tie = next(
            ((i, j) for i, j in zip(order, order[1:]) if images[i] == images[j]), None
        )
    else:
        images = [map_angle(v, d) for v in P.vertices]
        k = min(REPORT_DIGITS, budget.max_digits)
        bounds, D = _over_lcm([v.interval(k) for v in images])
        order = _decided_order(bounds, False)
        order, tie = (order, None) if order else ccw_order(images, budget)  # rungs > k*
    if tie:
        vs = P.vertices
        raise NotInjectiveError(
            "two vertices share an image under the map", pair=(vs[tie[0]], vs[tie[1]])
        )
    landing = tuple(sorted(range(len(order)), key=order.__getitem__))
    images = tuple(images[c] for c in order)
    if L is None:
        nxt = Polygon._sorted(images, enclosures=(k, [bounds[c] for c in order], D))
    else:
        nxt = Polygon._sorted(None, images, L)
    return nxt, landing


# ---------------------------------------------------------------------------
# holes, sizes, remainders


def remainder(
    s: Value,
    d: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    j: int | None = None,
    kept=None,
) -> Value:
    """s minus the largest multiple j/d not exceeding s (``j`` when given);
    lies in [0, 1/d).  An enclosure's remainder is clamped to [0, 1] (and
    seeded with ``kept``)."""
    if j is None:
        j = floor_scaled(s, d, budget)
    if not isinstance(s, Approx):
        return Fraction(d * s.numerator - j * s.denominator, d * s.denominator)

    def refine_fn(k):
        lo, hi, den = s.interval(k)
        return max(0, d * lo - j * den), min(d * den, d * hi - j * den), d * den

    return Approx(refine_fn, kept)


def image_hole(H: Arc, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> Arc:
    """The arc (f(u), f(w)) for a hole H = (u, w)."""
    if compare(H.start, H.end, budget) == EQ:
        raise DegenerateChordError("image-hole of a degenerate arc is undefined")
    return Arc(map_angle(H.start, d), map_angle(H.end, d))


@dataclass(frozen=True)
class HoleProfile:
    """Per-polygon record of holes, sizes (ascending) and remainders.

    ``order[r]`` is the cyclic index of the rank-(r+1) hole; rank 1 is the
    smallest.  ``floors[i]`` is floor(d * size) of cyclic hole i.  Accessors
    take the 1-based size rank.

    When every vertex is rational, ``den`` is the polygon's ``den`` L, the
    denominator its whole orbit lives over, and ``_sizes`` and ``_rems`` hold
    ints: the hole sizes over L and the remainders over d*L; ``size``,
    ``remainder`` and the properties build their ``Fraction``s on each read.

    Otherwise ``den`` is None and ``bounds`` holds the sizes' enclosures from
    ``k`` = k* digits, int pairs (lo, hi) over one denominator D, and D.
    ``_sizes`` and ``_rems`` list the values built so far (None for the
    rest).  Each is built on first read: the size of a hole between two
    rational vertices, and its remainder, as exact ``Fraction``s; any other
    size or remainder as an ``Approx`` seeded with its k*-digit enclosure (a
    remainder's from its size's bounds and floor), so later refinements nest
    as if it had been built at once.  A size that the profile had to refine above k* to
    rank or floor it is built there, with its remainder.  ``size_bounds``
    reads a size's bounds while no value was built for it.  ``holes`` is
    built on first read and kept.
    """

    polygon: Polygon
    degree: int
    order: tuple[int, ...]
    floors: tuple[int, ...]
    den: int | None
    _sizes: tuple | list
    _rems: tuple | list
    bounds: tuple | None = None
    k: int | None = None

    @cached_property
    def holes(self) -> tuple[Arc, ...]:
        vs = self.polygon.vertices
        M = len(vs)
        return tuple(Arc(vs[i], vs[(i + 1) % M]) for i in range(M))

    def _size_value(self, i: int) -> Value:
        if self.den is not None:
            return Fraction(self._sizes[i], self.den)
        s = self._sizes[i]
        if s is None:
            s = _seeded_size(self.polygon.vertices, i, self.bounds, self.k)
            self._sizes[i] = s
        return s

    def _remainder_value(self, i: int) -> Value:
        d = self.degree
        if self.den is not None:
            return Fraction(self._rems[i], d * self.den)
        r = self._rems[i]
        if r is None:
            j, ((lo, hi), D) = self.floors[i], (self.bounds[0][i], self.bounds[1])
            kept = self.k, (max(0, d * lo - j * D), min(d * D, d * hi - j * D), d * D)
            self._rems[i] = r = remainder(self._size_value(i), d, j=j, kept=kept)
        return r

    @property
    def sizes_cyclic(self) -> tuple[Value, ...]:
        return tuple(map(self._size_value, range(self.card)))

    @property
    def remainders_cyclic(self) -> tuple[Value, ...]:
        return tuple(map(self._remainder_value, range(self.card)))

    @property
    def remainder_sum(self) -> Value:
        if self.den is None:
            return sum_values(self.remainders_cyclic)
        return Fraction(sum(self._rems), self.degree * self.den)

    @property
    def card(self) -> int:
        return len(self.order)

    def hole(self, k: int) -> Arc:
        return self.holes[self.order[k - 1]]

    def size(self, k: int) -> Value:
        return self._size_value(self.order[k - 1])

    def size_num(self, k: int) -> int:
        """The numerator over ``den`` of the rank-k size (exact profiles)."""
        return self._sizes[self.order[k - 1]]

    def size_bounds(self, k: int) -> tuple[int, int, int] | None:
        """The rank-k size's k*-digit enclosure (lo, hi, D) of a stream
        profile while no value was built for it, else None.  lo == hi iff
        the size is exact: a stream end's enclosure has positive width, and
        clamping cannot close it, since the size lies inside (0, 1)."""
        c = self.order[k - 1]
        if self.den is not None or self._sizes[c] is not None:
            return None
        return (*self.bounds[0][c], self.bounds[1])

    def remainder(self, k: int) -> Value:
        return self._remainder_value(self.order[k - 1])

    def rank_of_cyclic(self, i: int) -> int:
        return self.order.index(i) + 1

    def sizes_by_rank(self):
        return [self.size(k) for k in range(1, self.card + 1)]


def _seeded_size(vs, i: int, bounds, k: int) -> Value:
    """The size of hole i of the polygon on ``vs``: exact between rational
    vertices, else an ``Approx`` seeded with its k-digit ``bounds``."""
    (lo, hi), D = bounds[0][i], bounds[1]
    M = len(vs)
    return arc_value(vs[i], vs[(i + 1) % M], i == M - 1, (k, (lo, hi, D)))


def hole_profile(
    P: Polygon, d: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> HoleProfile:
    """Holes of P with sizes sorted ascending (ties broken by ccw position
    of the hole's start from angle 0, which is exactly the cyclic index
    since vertex 0 has minimal angle) and their remainders.

    When every vertex is rational, all of it is integer arithmetic over the
    polygon's denominator L (``P.den``): a size is a difference of
    numerators mod L, floor(d * size) and its remainder are ``divmod(d * x,
    L)``, and the sizes sum to 1 iff their numerators sum to L.

    Otherwise each size's bounds over one denominator D are differences of
    its ends' k*-digit bounds (carried by a stream iterate), D added past 0
    and clamped to [0, D].  These decide ranks and floors where they can,
    the compare ladder the rest; only the ladder builds size values here."""
    L = P.den
    if L is not None:
        xs = P.nums
        M = len(xs)
        sizes = tuple((xs[(i + 1) % M] - xs[i]) % L for i in range(M))
        if sum(sizes) != L:
            raise AssertionBreach("hole sizes do not sum to 1")  # pragma: no cover
        order = tuple(sorted(range(M), key=sizes.__getitem__))  # stable on ties
        floors, rems = zip(*(divmod(d * x, L) for x in sizes))
        return HoleProfile(P, d, order, floors, L, sizes, rems)

    vs = P.vertices
    M = len(vs)
    k = min(REPORT_DIGITS, budget.max_digits)
    ends, D = P._bounds(k)
    ends = [*ends, (ends[0][0] + D, ends[0][1] + D)]  # the last hole runs past 0
    bounds = [
        (max(0, wlo - uhi), min(D, whi - ulo))
        for (ulo, uhi), (wlo, whi) in pairwise(ends)
    ]
    sizes = [None] * M

    def value(i):
        if sizes[i] is None:
            sizes[i] = _seeded_size(vs, i, (bounds, D), k)
        return sizes[i]

    order = _decided_order(bounds, True)
    if order is None:  # the ladder's rungs above k*; equal exact sizes in ccw order
        order = sorted(range(M), key=cmp_to_key(
            lambda i, j: cmp_values(value(i), value(j), budget) or i - j))
    floors = tuple(
        d * lo // D if d * lo // D == d * hi // D else floor_scaled(value(i), d, budget)
        for i, (lo, hi) in enumerate(bounds)
    )
    rems = [None] * M
    for i, s in enumerate(sizes):  # fix the k*-digit enclosures of the built
        if isinstance(s, Approx):  # sizes' remainders before a later stage refines s
            rems[i] = r = remainder(s, d, budget, floors[i])
            r.interval(k)
    return HoleProfile(P, d, tuple(order), floors, None, sizes, rems, (bounds, D), k)


# ---------------------------------------------------------------------------
# orientation


@dataclass(frozen=True)
class OrientationCertificate:
    """Verdict of the orientation test plus a re-checkable witness: the d-1
    pairwise disjoint open 1/d arcs on success, the remainder sum on failure."""

    verdict: bool
    profile: HoleProfile = field(repr=False, compare=False)

    @property
    def remainder_sum(self) -> Value:
        return self.profile.remainder_sum

    @property
    def witness_arcs(self) -> tuple[Arc, ...] | None:
        """The d-1 arcs, floor(d * size) of them from the start of each hole,
        built on each access; None when orientation is not preserved."""
        if not self.verdict:
            return None
        d = self.profile.degree
        return tuple(
            Arc(
                shift_angle(h.start, Fraction(t, d)),
                shift_angle(h.start, Fraction(t + 1, d)),
            )
            for h, m in zip(self.profile.holes, self.profile.floors)
            for t in range(m)
        )


def is_orientation_preserving(
    P: Polygon, d: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> OrientationCertificate:
    """Certificate that f restricted to P's vertices preserves orientation.

    Three equivalent criteria are evaluated and required to agree: the
    cyclic order of the sorted vertex images, the count of d-1 pairwise
    disjoint open 1/d arcs in the complement, and the remainder sum 1/d.
    """
    _, landing = _image_sort(P, d, budget)
    return _orientation(landing, hole_profile(P, d, budget), d, budget)


def _orientation(
    landing, profile: HoleProfile, d: int, budget: PrecisionBudget
) -> OrientationCertificate:
    """The certificate of ``is_orientation_preserving`` from the image
    positions ``landing`` of ``_image_sort`` (the images keep the vertices'
    cyclic order iff they are a rotation of 0..N-1) and the hole profile."""
    N = len(landing)
    by_cyclic_order = all((landing[c] - landing[0]) % N == c for c in range(N))
    by_disjoint_arcs = sum(profile.floors) == d - 1

    if profile.den is not None:  # the remainders are ints over d * den
        by_remainders = sum(profile._rems) == profile.den
    else:  # enclosures cannot prove the sum is 1/d = D/(dD); they must not exclude it
        bounds, D = profile.bounds
        lo, hi = (d * sum(b) - sum(profile.floors) * D for b in zip(*bounds))
        by_remainders = None if lo <= D <= hi else False

    verdicts = {by_cyclic_order, by_disjoint_arcs}
    if by_remainders is not None:
        verdicts.add(by_remainders)
    if len(verdicts) != 1:
        raise AssertionBreach(
            "orientation criteria disagree: "
            f"cyclic={by_cyclic_order} arcs={by_disjoint_arcs} remainders={by_remainders}"
        )
    return OrientationCertificate(verdict=by_cyclic_order, profile=profile)


# ---------------------------------------------------------------------------
# linkage


class UnlinkedFamily:
    """The vertices of pairwise unlinked polygons in ccw order, each tagged
    with its polygon's label.  While every member is rational, ``keys`` are
    their numerators over ``den`` (the lcm of the members' ``den``) and a
    query over another denominator is cross-multiplied onto it; a stream
    polygon is searched with ``compare`` against the keys as ``Angle``s,
    and once one joins, ``den`` is None and the keys are ``Angle``s.

    A polygon P is unlinked from every member iff none of its vertices is a
    listed vertex and no label appears in two of the arcs into which P's
    vertices cut the list.  Checking P costs O(N log V) searches of V listed
    vertices, plus one pass over the V labels.
    """

    __slots__ = ("keys", "labels", "den", "budget")

    def __init__(self, budget: PrecisionBudget = DEFAULT_BUDGET):
        self.keys: list = []
        self.labels: list[int] = []
        self.den: int | None = 1
        self.budget = budget

    def _angles(self) -> list[Angle]:
        if self.den is None:
            return self.keys
        return [rational_angle(k, self.den) for k in self.keys]

    def _linked(self, P: Polygon):
        """Insertion index of each vertex of P, and the labels of the
        members linked with P."""
        keys, labels = self.keys, self.labels
        cuts, linked = [], set()
        lo = 0
        L, M = P.den, self.den
        if L is not None and M is not None:
            for n in P.nums:  # ascending, so each search starts at the last cut
                t, r = (n, 0) if L == M else divmod(n * M, L)  # n/L = (t + r/L)/M
                lo = bisect_left(keys, t + (r > 0), lo)
                if lo < len(keys) and keys[lo] == t:  # a shared vertex (so r == 0)
                    linked.add(labels[lo])
                cuts.append(lo)
        else:
            angles, budget = self._angles(), self.budget
            key = cmp_to_key(lambda a, b: compare(a, b, budget))
            for v in P.vertices:
                lo = bisect_left(angles, key(v), lo, key=key)
                if lo < len(angles) and compare(angles[lo], v, budget) == EQ:
                    linked.add(labels[lo])
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
            M, L = self.den, P.den
            if M is None or L is None:
                self.keys, self.den, new = self._angles(), None, P.vertices
            else:  # ints over lcm(M, L)
                self.den = D = lcm(M, L)
                if D != M:
                    self.keys = [k * (D // M) for k in self.keys]
                new = P.nums if D == L else [n * (D // L) for n in P.nums]
            for i in reversed(range(P.card)):
                self.keys.insert(cuts[i], new[i])
                self.labels.insert(cuts[i], label)
        return linked


def unlinked(A: Polygon, B: Polygon, budget: PrecisionBudget = DEFAULT_BUDGET) -> bool:
    """True iff CH(A) and CH(B) are disjoint (any shared point links them):
    B queried against a family that holds A alone."""
    family = UnlinkedFamily(budget)
    family.add(A, 0)
    return not family.linked(B)


# ---------------------------------------------------------------------------
# the rho metric


def rho(p: Chord, q: Chord, budget: PrecisionBudget = DEFAULT_BUDGET) -> Value:
    """Amount of arc between two chords with disjoint interiors: the sum of
    the arcs between ccw-consecutive endpoints of which one lies on p alone
    and the other on q alone.

    Shared circle endpoints are allowed; degenerate chords (points) are
    allowed.  Raises ChordsCrossError when the interiors intersect.
    """
    ends = (p.a, p.b, q.a, q.b)
    points, owners = [], []  # the distinct endpoints in ccw order; 1: p, 2: q, 3: both
    for i in ccw_order(ends, budget)[0]:
        if not points or compare(points[-1], ends[i], budget) != EQ:
            points.append(ends[i])
            owners.append(0)
        owners[-1] |= 1 if i < 2 else 2
    if len(points) == 4 and owners[0] == owners[2]:
        raise ChordsCrossError("chord interiors intersect in the open disk")
    M = len(points)
    return sum_values(
        arc_length(points[i], points[(i + 1) % M], budget)
        for i in range(M)
        if {owners[i], owners[(i + 1) % M]} == {1, 2}
    )


# ---------------------------------------------------------------------------
# critical strips


@dataclass(frozen=True)
class CriticalStrip:
    """The critical chords {c, c + j/d} in the closure of a hole H = (u, w)
    with j = floor(d * len(H)): c runs over [u, u + rho] for the hole's
    remainder ``rho_value``, and every such chord is at rho-distance rho from
    the hole's edge.  ``ranges`` are the ranges of c and of its partner
    c + j/d as int pairs (lo, hi) over ``den``, with lo <= hi < lo + den (hi
    may exceed den when a range runs past 0).  Exact for a rational hole
    (den = d*L), from 64-digit enclosures otherwise."""

    hole: Arc
    degree: int
    j: int
    rho_value: Value
    den: int
    ranges: tuple[tuple[int, int], tuple[int, int]]


def critical_strip(
    profile: HoleProfile, k: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> CriticalStrip:
    """The strip of the profile's rank-k hole, from its floor j and its
    remainder: j/d < len < (j+1)/d holds iff 1 <= j <= d-1 and the
    remainder is positive.  On an exact profile the range of c is read off
    the ints over d*L (u*d, u*d + remainder); nothing is measured again."""
    c, d = profile.order[k - 1], profile.degree
    j, H, rho = profile.floors[c], profile.holes[c], profile.remainder(k)
    if not 1 <= j <= d - 1:
        raise PreconditionError(f"j must be in 1..{d - 1}, got {j}")
    if profile.den is not None:
        den, lo, r = d * profile.den, d * profile.polygon.nums[c], profile._rems[c]
        positive, hi = r > 0, lo + r
    else:
        positive = cmp_values(rho, ZERO, budget) == GT
        lo, _, p = H.start.interval(REPORT_DIGITS)
        _, hi, q = shift_angle(H.end, -Fraction(j, d)).interval(REPORT_DIGITS)
        den = lcm(p, q, d)
        lo, hi = lo * (den // p), hi * (den // q)
        hi += den if hi < lo else 0  # the range runs past 0
    if not positive:
        raise PreconditionError("hole length must satisfy j/d < len < (j+1)/d")
    off = j * den // d
    return CriticalStrip(H, d, j, rho, den, ((lo, hi), (lo + off, hi + off)))
