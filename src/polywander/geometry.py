"""Chords, polygons, holes, remainders, orientation, linkage and rho.

Everything here is pure and immutable, except ``UnlinkedFamily``, a vertex
list that grows.
Lengths are exact ``Fraction``s when all endpoints are rational and
refinable enclosures otherwise.  One sort of a polygon's vertex images
(``_image_sort``) gives injectivity, the cyclic-order half of orientation,
the next iterate and where each vertex's image lands in it; an orbit step
(``orbit_step``) is that sort, the hole profile and orientation.

A rational polygon holds its vertex numerators over one denominator L.
The image of n/L is (d*n mod L)/L, so its whole orbit lives over L; each
step is one int pass over the numerators, and the linkage family runs on
ints.  A stream polygon carries one enclosure per vertex at
k* = min(REPORT_DIGITS, max_digits) digits over one denominator D, on
which the sort that built it decided where it could; every later reader
takes them from ``Polygon._bounds``.  Its whole orbit keeps T_0's D: a
rational vertex's pair (a, a) maps to d*a mod D, and a stream image's
k*-digit enclosure is scaled onto D, so a step takes no lcm and builds no
rational interval.

Either way a ``HoleProfile`` holds one int pair (lo, hi) per hole size over
one denominator: the exact size (lo == hi) over L, as differences of
numerators, or the difference of the ends' k*-digit enclosures over D.
Ranks, floors, orientation's remainder sum and every later stage's test
are decided on these ints; only what they leave open (an overlap, a vertex
widened at the 0/1 seam) takes the compare ladder's rungs above k*.  A
size's or remainder's value (a ``Fraction`` when exact, else an ``Approx``
seeded with its k*-digit enclosure) is built only when read, and only this
module reads the pairs or asks whether a profile is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
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
    cmp_bounds,
    cmp_values,
    compare,
    decide,
    floor_scaled,
    format_angle,
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
    ``vertices`` are built from them on first read.  Otherwise the polygon
    carries ``enclosures`` (k, bounds, D), its vertices' only stored
    enclosures: their k*-digit ones as int pairs (lo, hi) over one
    denominator D, in ccw order (else None)."""

    __slots__ = ("_vertices", "nums", "den", "enclosures")

    def __init__(self, vertices, budget: PrecisionBudget = DEFAULT_BUDGET):
        vs = list(vertices)
        if len(vs) < 2:
            raise PreconditionError("a polygon needs at least 2 distinct vertices")
        if len(set(vs)) < len(vs):  # before the sort, which may fail to separate others
            raise PreconditionError("polygon vertices must be pairwise distinct")
        k = min(REPORT_DIGITS, budget.max_digits)
        bounds, D = _over_lcm([v.interval(k) for v in vs])  # (n, n) for n/q
        order, tie, enclosures = _sort_on(vs, k, bounds, D, budget)
        if tie:
            raise PreconditionError("polygon vertices must be pairwise distinct")
        self._vertices = tuple(vs[i] for i in order)
        if all(v.source is None for v in vs):
            _, bounds, D = enclosures
            self.nums, self.den, self.enclosures = tuple(b[0] for b in bounds), D, None
        else:
            self.nums, self.den, self.enclosures = None, None, enclosures

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
        D, and D: (n, n) over L for a rational polygon, the carried ones when
        they are from k digits, else computed once for this call."""
        if self.nums is not None:
            return [(n, n) for n in self.nums], self.den
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


def _sort_on(angles, k: int, bounds, D: int, budget: PrecisionBudget):
    """``ccw_order`` of the angles, on their k-digit enclosures ``bounds``
    (int pairs over one denominator D) where these do not overlap, else on
    the compare ladder's rungs; and (k, the pairs in order, D)."""
    order = _decided_order(bounds, False)
    order, tie = (order, None) if order else ccw_order(angles, budget)
    return order, tie, (k, [bounds[i] for i in order], D)


def _image_sort(P: Polygon, d: int, budget: PrecisionBudget):
    """The next iterate, the polygon of P's vertex images, and ``landing``:
    for each vertex of P, the position of its image in it.  One sort: of
    the image numerators (d * n) % L over P's own denominator L when P is
    rational (``_exact_sort``), else of their k*-digit enclosures over P's
    D, then ``compare``; a stream iterate carries those enclosures.  Equal
    images are a collision and raise NotInjectiveError.

    P's D serves its images: the image of a rational vertex a/D is
    (d * a mod D)/D, and a stream image's enclosure denominator (base**k*
    times its offset's) divides D, since the map, times d = base, only
    shrinks an offset's denominator."""
    if P.den is not None:
        return _exact_sort(P, d)
    k = min(REPORT_DIGITS, budget.max_digits)
    ends, D = P._bounds(k)
    images = [map_angle(v, d) for v in P.vertices]
    bounds = []
    for v, (lo, hi) in zip(images, ends):
        if lo == hi:  # a rational vertex
            lo = hi = d * lo % D
        else:
            lo, hi, q = v.interval(k)
            lo, hi = lo * (m := D // q), hi * m
        bounds.append((lo, hi))
    order, tie, enclosures = _sort_on(images, k, bounds, D, budget)
    if tie:
        _collision(P, tie)
    landing = tuple(sorted(range(len(order)), key=order.__getitem__))
    return Polygon._sorted(tuple(images[c] for c in order), enclosures=enclosures), landing


def _exact_sort(P: Polygon, d: int):
    """``_image_sort`` of a rational P: its image numerators (d * n) % L
    over its L, sorted."""
    L, N = P.den, len(P.nums)
    images = [d * n % L for n in P.nums]
    order = sorted(range(N), key=images.__getitem__)  # stable on ties
    if len(set(images)) < N:
        _collision(P, next((i, j) for i, j in pairwise(order) if images[i] == images[j]))
    landing = tuple(sorted(range(N), key=order.__getitem__))
    return Polygon._sorted(None, tuple([images[c] for c in order]), L), landing


def _collision(P: Polygon, pair: tuple[int, int]):
    vs = P.vertices
    raise NotInjectiveError(
        "two vertices share an image under the map", pair=(vs[pair[0]], vs[pair[1]])
    )


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


@dataclass(frozen=True, init=False)
class HoleProfile:
    """Per-polygon record of holes, sizes (ascending) and remainders.

    ``order[r]`` is the cyclic index of the rank-(r+1) hole; rank 1 is the
    smallest.  ``floors[i]`` is floor(d * size) of cyclic hole i.  Accessors
    take the 1-based size rank.

    ``bounds[i]`` is cyclic hole i's size as ints (lo, hi) over one
    denominator ``D``: lo == hi for an exact size (each of a rational
    polygon's, over its L), else its enclosure from ``k`` = k* digits;
    ``total`` sums them.  A size or remainder is built on first read and
    kept in ``_sizes`` or ``_rems``: a ``Fraction`` when exact, else an
    ``Approx`` seeded with its k*-digit enclosure (a remainder's from its
    size's bounds and floor), so later refinements nest as if it had been
    built at once.  A size that the profile had to refine above k* to rank
    or floor it is built there, with its remainder.  Built values and
    ``holes`` take no part in equality or hashing.
    """

    polygon: Polygon
    degree: int
    order: tuple[int, ...]
    floors: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]
    D: int
    total: tuple[int, int]
    k: int = field(compare=False)  # exact pairs are the same at any k
    _sizes: list = field(compare=False, repr=False)
    _rems: list = field(compare=False, repr=False)

    def __init__(self, polygon, degree, order, floors, bounds, D, total, k, _sizes,
                 _rems):
        # one dict update: a frozen dataclass's generated __init__ sets each
        # field through object.__setattr__, as slow as a rational profile's ints
        vars(self).update(polygon=polygon, degree=degree, order=order, floors=floors,
                          bounds=bounds, D=D, total=total, k=k, _sizes=_sizes,
                          _rems=_rems)

    @cached_property
    def holes(self) -> tuple[Arc, ...]:
        vs = self.polygon.vertices
        M = len(vs)
        return tuple(Arc(vs[i], vs[(i + 1) % M]) for i in range(M))

    def _size_value(self, i: int) -> Value:
        return _size(self._sizes, self.polygon, i, self.bounds, self.D, self.k)

    def _remainder_iv(self, i: int) -> tuple[int, int, int]:
        """Hole i's remainder from its size's bounds and floor, clamped."""
        (lo, hi), D, d, j = self.bounds[i], self.D, self.degree, self.floors[i]
        return max(0, d * lo - j * D), min(d * D, d * hi - j * D), d * D

    def _remainder_value(self, i: int) -> Value:
        r = self._rems[i]
        if r is None:  # exact for an exact size, else seeded
            kept = self.k, self._remainder_iv(i)
            r = remainder(self._size_value(i), self.degree, j=self.floors[i], kept=kept)
            self._rems[i] = r
        return r

    @property
    def sizes_cyclic(self) -> tuple[Value, ...]:
        return tuple(map(self._size_value, range(self.card)))

    @property
    def remainders_cyclic(self) -> tuple[Value, ...]:
        return tuple(map(self._remainder_value, range(self.card)))

    @property
    def remainder_sum(self) -> Value:
        return sum_values(self.remainders_cyclic)

    @property
    def card(self) -> int:
        return len(self.order)

    def size(self, k: int) -> Value:
        return self._size_value(self.order[k - 1])

    def size_bounds(self, k: int) -> tuple[int, int, int]:
        """The rank-k size's int enclosure (lo, hi, den): its ``Approx``'s at k
        digits once built (tighter if refined), else its bounds over D."""
        c = self.order[k - 1]
        lo, hi = self.bounds[c]
        if lo < hi and isinstance(self._sizes[c], Approx):
            return self._sizes[c].interval(self.k)
        return lo, hi, self.D

    def remainder(self, k: int) -> Value:
        return self._remainder_value(self.order[k - 1])

    def remainder_bounds(self, k: int) -> tuple[int, int, int]:
        """The rank-k remainder's int enclosure, as ``size_bounds``."""
        c = self.order[k - 1]
        r = self._rems[c]
        if isinstance(r, Approx):
            return r.interval(self.k)
        return self._remainder_iv(c)

    def rank_of_cyclic(self, i: int) -> int:
        return self.order.index(i) + 1


def _size(sizes: list, P: Polygon, i: int, bounds, D: int, k: int) -> Value:
    """The size of P's hole i, built into ``sizes`` on first read from its
    int ``bounds`` over D: a ``Fraction`` when they are one point, else an
    ``Approx`` seeded with them as its k-digit enclosure."""
    if sizes[i] is None:
        lo, hi = bounds[i]
        if lo == hi:
            sizes[i] = Fraction(lo, D)
        else:
            vs, M = P.vertices, len(bounds)
            sizes[i] = arc_value(vs[i], vs[(i + 1) % M], i == M - 1, (k, (lo, hi, D)))
    return sizes[i]


def _exact_profile(P: Polygon, d: int, k: int) -> HoleProfile:
    """``hole_profile`` of a rational P over its L: a hole's size is a
    difference x of numerators (L added past 0), its floor d * x // L."""
    ns, L, M = P.nums, P.den, len(P.nums)
    xs = [b - a for a, b in pairwise(ns)]
    xs.append(ns[0] + L - ns[-1])
    order = tuple(sorted(range(M), key=xs.__getitem__))  # stable on ties
    floors = tuple([d * x // L for x in xs])
    return HoleProfile(P, d, order, floors, tuple(zip(xs, xs)), L, (L, L), k,
                       [None] * M, [None] * M)


def hole_profile(
    P: Polygon, d: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> HoleProfile:
    """Holes of P with sizes sorted ascending (ties broken by ccw position
    of the hole's start from angle 0, which is exactly the cyclic index
    since vertex 0 has minimal angle) and their remainders.

    When every vertex is rational, all of it is integer arithmetic over the
    polygon's denominator L (``P.den``): a size is a difference of
    consecutive numerators (the last one past 0), its floor is d * x // L,
    and the sizes sum to 1 since their numerators telescope to L.  Each
    size's bounds are (x, x) over L.

    Otherwise each size's bounds over one denominator D are differences of
    its ends' k*-digit bounds (carried by a stream iterate), D added past 0
    and clamped to [0, D].  These decide ranks and floors where they can,
    the compare ladder the rest; only the ladder builds size values here."""
    k = min(REPORT_DIGITS, budget.max_digits)
    if P.den is not None:
        return _exact_profile(P, d, k)

    M = P.card
    sizes, rems = [None] * M, [None] * M
    ends, D = P._bounds(k)
    bounds, floors, slo, shi = [], [], 0, 0
    last = ends[0][0] + D, ends[0][1] + D  # the last hole runs past 0
    for (ulo, uhi), (wlo, whi) in pairwise([*ends, last]):
        lo, hi = max(0, wlo - uhi), min(D, whi - ulo)
        bounds.append((lo, hi))
        floors.append(j if (j := d * lo // D) == d * hi // D else None)
        slo, shi = slo + lo, shi + hi
    order = _decided_order(bounds, True)
    if order is None or None in floors:  # the ladder's rungs above k*

        def value(i):
            return _size(sizes, P, i, bounds, D, k)

        if order is None:  # equal exact sizes in ccw order
            order = sorted(range(M), key=cmp_to_key(
                lambda i, j: cmp_values(value(i), value(j), budget) or i - j))
        floors = [floor_scaled(value(i), d, budget) if j is None else j
                  for i, j in enumerate(floors)]
        for i, s in enumerate(sizes):  # fix the k*-digit enclosures of the built
            if isinstance(s, Approx):  # sizes' remainders before a later stage refines s
                rems[i] = r = remainder(s, d, budget, floors[i])
                r.interval(k)
    return HoleProfile(P, d, tuple(order), tuple(floors), tuple(bounds), D, (slo, shi), k,
                       sizes, rems)


# ---------------------------------------------------------------------------
# orientation


@dataclass(frozen=True, init=False)
class OrientationCertificate:
    """Verdict of the orientation test plus a re-checkable witness: the d-1
    pairwise disjoint open 1/d arcs on success, the remainder sum on failure."""

    verdict: bool
    profile: HoleProfile = field(repr=False, compare=False)

    def __init__(self, verdict, profile):  # one dict update, as HoleProfile's
        vars(self).update(verdict=verdict, profile=profile)

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

    Three equivalent criteria are required to agree: the cyclic order of
    the sorted vertex images, the count of d-1 pairwise disjoint open 1/d
    arcs in the complement, and the remainder sum 1/d, which for a rational
    P is the second restated and is not evaluated apart (``orbit_step``).
    """
    return orbit_step(P, d, budget)[3]


def _orientation(
    landing, profile: HoleProfile, d: int, budget: PrecisionBudget
) -> OrientationCertificate:
    """The certificate of ``is_orientation_preserving`` from the image
    positions ``landing`` of ``_image_sort`` (the images keep the vertices'
    cyclic order iff they are a rotation of 0..N-1) and the hole profile."""
    N, s = len(landing), landing[0]
    by_cyclic_order = landing == (*range(s, N), *range(s))
    F = sum(profile.floors)
    by_disjoint_arcs = F == d - 1

    # the remainder sum's bounds over d * D, from the sizes' sum's; an
    # enclosure cannot prove the sum is 1/d = D/(dD), but it must not exclude it
    D, (slo, shi) = profile.D, profile.total
    lo, hi = d * slo - F * D, d * shi - F * D
    by_remainders = lo == D if lo == hi else (None if lo <= D <= hi else False)

    verdicts = {by_cyclic_order, by_disjoint_arcs}
    if by_remainders is not None:
        verdicts.add(by_remainders)
    if len(verdicts) != 1:
        raise _disagreement(by_cyclic_order, by_disjoint_arcs, by_remainders)
    return OrientationCertificate(verdict=by_cyclic_order, profile=profile)


def _disagreement(cyclic, arcs, remainders) -> AssertionBreach:
    return AssertionBreach(
        f"orientation criteria disagree: cyclic={cyclic} arcs={arcs} remainders={remainders}"
    )


def orbit_step(P: Polygon, d: int, budget: PrecisionBudget = DEFAULT_BUDGET):
    """One step of P's orbit: the next iterate and ``landing`` (as
    ``_image_sort``), P's hole profile and its orientation certificate.

    A stream P sorts its images, then builds its profile, and
    ``_orientation`` reads the certificate from both.  A rational P takes
    one int pass: ``_exact_sort`` and ``_exact_profile`` over its L, then
    two criteria on ints, the cyclic order and the floors' sum F.  Its
    exact sizes sum to L, so its remainder sum over d * L is d * L - F * L,
    which is L iff F = d - 1: the third criterion is the second one here
    (in ``_orientation`` too), and is not tested twice."""
    if P.den is None:
        nxt, landing = _image_sort(P, d, budget)
        profile = hole_profile(P, d, budget)
        return nxt, landing, profile, _orientation(landing, profile, d, budget)
    nxt, landing = _exact_sort(P, d)
    profile = _exact_profile(P, d, min(REPORT_DIGITS, budget.max_digits))
    N, s = len(landing), landing[0]
    by_cyclic_order = landing == (*range(s, N), *range(s))
    by_disjoint_arcs = sum(profile.floors) == d - 1
    if by_cyclic_order != by_disjoint_arcs:
        raise _disagreement(by_cyclic_order, by_disjoint_arcs, by_disjoint_arcs)
    return nxt, landing, profile, OrientationCertificate(by_cyclic_order, profile)


# ---------------------------------------------------------------------------
# linkage


class UnlinkedFamily:
    """The vertices of pairwise unlinked polygons in ccw order, each tagged
    with its polygon's label; ``cards[label]`` counts the vertices listed
    under it.  While every member is rational, ``keys`` are their numerators
    over ``den`` (the lcm of the members' ``den``) and a query over another
    denominator is cross-multiplied onto it; a stream polygon is searched
    with ``compare`` against the keys as ``Angle``s, and once one joins,
    ``den`` is None and the keys are ``Angle``s.

    A polygon P is unlinked from every member iff none of its vertices is a
    listed vertex and no label appears in two of the arcs into which P's
    vertices cut the list.  A label in two arcs shows up in each fewer
    times than its card, and one of them is not the most populated arc; so
    only the other arcs are counted, and a label is linked iff it shows up
    in one of them fewer times than its card.  Checking P costs O(N log V)
    searches of V listed vertices, plus a pass over the labels outside P's
    most populated arc: none when P sits in one gap of the list (all its
    cuts equal, so its one nonempty arc is the wrap-around one), a few for
    a small P that cuts the list once, still O(V) when P's two most
    populated arcs split the list evenly.  A P in one gap joins the list as
    one slice.
    """

    __slots__ = ("keys", "labels", "cards", "den", "budget")

    def __init__(self, budget: PrecisionBudget = DEFAULT_BUDGET):
        self.keys: list = []
        self.labels: list[int] = []
        self.cards: dict[int, int] = {}
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
        if cuts[0] == lo:  # one gap: every arc is empty but the largest, which wraps
            return cuts, linked
        V, cards = len(labels), self.cards
        arcs = [*zip(cuts, cuts[1:]), (cuts[-1], cuts[0] + V)]  # the last wraps past 0
        arcs.remove(max(arcs, key=lambda arc: arc[1] - arc[0]))
        for a, b in arcs:
            if a < b:
                inside = Counter(labels[a:b] if b <= V else labels[a:] + labels[: b - V])
                linked.update(m for m, c in inside.items() if c < cards[m])
        return cuts, linked

    def linked(self, P: Polygon) -> set[int]:
        """Labels of the members linked with P."""
        return self._linked(P)[1]

    def add(self, P: Polygon, label: int) -> set[int]:
        """Labels of the members linked with P; when there are none, P's
        vertices join the list under ``label``."""
        cuts, linked = self._linked(P)
        if not linked:
            M, L, new = self.den, P.den, P.nums
            if M is None or L is None:
                self.keys, self.den, new = self._angles(), None, P.vertices
            elif L != M:  # ints over lcm(M, L)
                self.den = D = lcm(M, L)
                if D != M:
                    self.keys = [k * (D // M) for k in self.keys]
                if D != L:
                    new = [n * (D // L) for n in new]
            if (c := cuts[0]) == cuts[-1]:  # one gap: P's vertices in order at c
                self.keys[c:c] = new
                self.labels[c:c] = [label] * P.card
            else:
                for i in reversed(range(P.card)):
                    self.keys.insert(cuts[i], new[i])
                    self.labels.insert(cuts[i], label)
            self.cards[label] = self.cards.get(label, 0) + P.card
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
    may exceed den when a range runs past 0), from the polygon's 64-digit
    bounds (exact for a rational polygon), or from more digits for an end
    that straddles the 0/1 seam at 64."""

    j: int
    rho_value: Value
    den: int
    ranges: tuple[tuple[int, int], tuple[int, int]]


def critical_strip(
    profile: HoleProfile, k: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> CriticalStrip:
    """The strip of the profile's rank-k hole, from its floor j and its
    remainder: j/d < len < (j+1)/d holds iff 1 <= j <= d-1 and the
    remainder is positive, decided on its int bounds first.  The range of c
    is read off the polygon's bounds (u, w) over D as [d*u_lo, d*w_hi - j*D]
    over d*D, D added to w for the hole past 0; nothing is measured again
    but an end that they widen to the whole circle at the 0/1 seam, which
    ``_off_seam`` reads (the range is then over d times an lcm)."""
    c, d = profile.order[k - 1], profile.degree
    j, rho = profile.floors[c], profile.remainder(k)
    if not 1 <= j <= d - 1:
        raise PreconditionError(f"j must be in 1..{d - 1}, got {j}")
    if (positive := cmp_bounds(profile.remainder_bounds(k), (0, 0, 1))) is None:
        positive = cmp_values(rho, ZERO, budget)
    if positive != GT:
        raise PreconditionError("hole length must satisfy j/d < len < (j+1)/d")
    P = profile.polygon
    bounds, D = P._bounds(REPORT_DIGITS)
    M = len(bounds)
    (lo, _, p), (_, hi, q) = (_off_seam(P, i, bounds, D, budget) for i in (c, (c + 1) % M))
    E = lcm(p, q)  # D, unless an end is read off the seam
    lo, hi = d * lo * (E // p), d * (hi + (q if c == M - 1 else 0)) * (E // q) - j * E
    return CriticalStrip(j, rho, d * E, ((lo, hi), (lo + j * E, hi + j * E)))


def vertex_midpoints(P: Polygon, budget: PrecisionBudget = DEFAULT_BUDGET):
    """Each vertex of P as ints (n, q): the midpoint of its REPORT_DIGITS-digit
    enclosure (the vertex itself when it is rational), read off the 0/1 seam
    by ``_off_seam`` where that enclosure is the whole circle."""
    bounds, D = P._bounds(REPORT_DIGITS)
    ends = (_off_seam(P, i, bounds, D, budget) for i in range(len(bounds)))
    return [(lo + hi, 2 * q) for lo, hi, q in ends]


def _off_seam(P: Polygon, i: int, bounds, D: int, budget: PrecisionBudget):
    """Vertex i's pair in ``bounds`` over D as (lo, hi, D); or, when that
    pair is the whole circle (the vertex's REPORT_DIGITS-digit enclosure
    straddles the 0/1 seam), its enclosure (lo, hi, den) from the first rung
    of the compare ladder above that moves it off (the sort that placed the
    vertex needed one)."""
    lo, hi = bounds[i]
    if hi - lo < D:
        return lo, hi, D
    v = P.vertices[i]
    return decide(
        lambda k: iv if k > REPORT_DIGITS and (iv := v.interval(k))[1] - iv[0] < iv[2] else None,
        budget, lambda: f"cannot move {format_angle(v)} off the 0/1 seam")
