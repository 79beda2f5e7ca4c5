"""Independent plain-Fraction oracles used to cross-check the library.

Everything here works on raw Fractions and deliberately avoids the package's
Angle/Polygon machinery, so agreement is meaningful.
"""

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import floor
from typing import NamedTuple


def f_map(x: Fraction, d: int) -> Fraction:
    return (d * x) % 1


def holes_of(points: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    vs = sorted(points)
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def hole_sizes(points: list[Fraction]) -> list[Fraction]:
    return [(b - a) % 1 for a, b in holes_of(points)]


def oracle_remainder(s: Fraction, d: int) -> Fraction:
    return s - Fraction(floor(d * s), d)


def oracle_profile(points: list[Fraction], d: int) -> dict:
    """The hole profile restated on raw fractions: per hole, in ccw order
    of its start from the least point, the size, its remainder and
    floor(d * size); the hole indices by size rank (equal sizes in ccw
    order); and the remainder sum."""
    sizes = hole_sizes(points)
    rems = [oracle_remainder(s, d) for s in sizes]
    return {
        "sizes": sizes,
        "remainders": rems,
        "floors": [floor(d * s) for s in sizes],
        "order": sorted(range(len(sizes)), key=lambda i: (sizes[i], i)),
        "remainder_sum": sum(rems),
    }


def oracle_injective(points: list[Fraction], d: int) -> bool:
    return len({f_map(x, d) for x in points}) == len(points)


def oracle_cyclic_order(points: list[Fraction], d: int) -> bool:
    """Images listed in domain ccw order have exactly one circular descent."""
    vs = sorted(points)
    imgs = [f_map(v, d) for v in vs]
    n = len(imgs)
    descents = sum(1 for i in range(n) if imgs[i] > imgs[(i + 1) % n])
    return descents == 1


def oracle_disjoint_arcs(points: list[Fraction], d: int) -> bool:
    """The complement holds d-1 pairwise disjoint open arcs of length 1/d
    iff the per-hole capacities floor(d*s) sum to d-1."""
    return sum(floor(d * s) for s in hole_sizes(points)) == d - 1


def oracle_remainder_sum(points: list[Fraction], d: int) -> bool:
    total = sum(oracle_remainder(s, d) for s in hole_sizes(points))
    return total == Fraction(1, d)


def oracle_unlinked(A: list[Fraction], B: list[Fraction]) -> bool:
    """A and B are unlinked iff they share no point and, in the merged
    cyclic order, all A-points are consecutive."""
    if set(A) & set(B):
        return False
    merged = sorted((x, 0) for x in A) + sorted((x, 1) for x in B)
    merged.sort()
    labels = [lab for _, lab in merged]
    # count label changes around the circle; unlinked iff exactly 2 blocks
    changes = sum(
        1 for i in range(len(labels)) if labels[i] != labels[(i - 1) % len(labels)]
    )
    return changes == 2


def oracle_certify(points: list[Fraction], d: int, horizon: int):
    """(status, detail): iterate raw fractions record by record.  For each
    i = 0..horizon, first f must be injective on T_i (else
    FailedNonPrecritical, i), then T_i must be unlinked from every earlier
    iterate (else FailedLinked, (smallest linked i', i))."""
    iterates: list[list[Fraction]] = []
    cur = sorted(points)
    for i in range(horizon + 1):
        if not oracle_injective(cur, d):
            return "FailedNonPrecritical", i
        for j, earlier in enumerate(iterates):
            if not oracle_unlinked(earlier, cur):
                return "FailedLinked", (j, i)
        iterates.append(cur)
        cur = sorted(f_map(x, d) for x in cur)
    return "CertifiedToHorizon", None


def oracle_rho(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> Fraction:
    """Arc between two non-crossing chords, as one minus two gaps: each
    chord's side arc that faces away from the other chord.  A point against
    a chord gets the chord's side arc that holds it; equal chords get 0 and
    two distinct points 1.  This is not the library's sum over sorted
    endpoints, so the two check each other."""
    a, b = sorted(x % 1 for x in p)
    c, e = sorted(x % 1 for x in q)
    if (a, b) == (c, e):
        return Fraction(0)
    if a == b and c == e:
        return Fraction(1)  # distinct points

    def side_len(u, w, x):
        # length of the side arc of chord (u,w) containing x, 0 if x is u or w
        if x in (u, w):
            return Fraction(0)
        return (w - u) % 1 if u < x < w else (u - w) % 1

    if a == b:  # p degenerate
        return side_len(c, e, a)
    if c == e:
        return side_len(a, b, c)
    # gap of p: the side arc of p away from q; pick a q endpoint not shared
    q_ref = e if c in (a, b) else c
    p_ref = b if a in (c, e) else a
    gap_p = (a - b) % 1 if a < q_ref < b else (b - a) % 1
    gap_q = (c - e) % 1 if c < p_ref < e else (e - c) % 1
    return 1 - gap_p - gap_q


def cycle_of(x: Fraction, d: int) -> list[Fraction]:
    """Forward orbit of a rational until it repeats."""
    seen = []
    seen_set = set()
    while x not in seen_set:
        seen.append(x)
        seen_set.add(x)
        x = f_map(x, d)
    return seen


def oracle_bins(arcs, B: int) -> set[int]:
    """The set of bins [m/B, (m+1)/B) that closed arcs (lo, hi), hi possibly
    past 1, touch; an arc of None covers the circle."""
    bins: set[int] = set()
    for iv in arcs:
        if iv is None:
            bins |= set(range(B))
        else:
            bins |= {m % B for m in range(floor(iv[0] * B), floor(iv[1] * B) + 1)}
    return bins


def oracle_hausdorff_bins(a: set[int], b: set[int], B: int) -> Fraction:
    """Hausdorff distance of two bin sets on a circle of B bins, every bin
    against every bin."""
    if not a or not b:
        return Fraction(1) if a != b else Fraction(0)

    def directed(src, dst):
        return max(min(min((m - n) % B, (n - m) % B) for n in dst) for m in src)

    return Fraction(max(directed(a, b), directed(b, a)), B)


def oracle_near_bins(x: Fraction, bins: set[int], B: int, tol: Fraction) -> bool:
    """Whether x lies in a closed bin [m/B, (m+1)/B] or within tol of an end
    of one, bin by bin."""

    def dist(y, z):
        g = (y - z) % 1
        return min(g, 1 - g)

    for m in bins:
        lo, hi = Fraction(m, B), Fraction(m + 1, B)
        if (x - lo) % 1 <= hi - lo or dist(x, lo) <= tol or dist(x, hi) <= tol:
            return True
    return False


def oracle_collision_step(points: list[Fraction], d: int, horizon: int):
    """First i <= horizon at which f is not injective on T_i, or None."""
    cur = sorted(points)
    for i in range(horizon + 1):
        if not oracle_injective(cur, d):
            return i
        cur = sorted(f_map(x, d) for x in cur)
    return None


def oracle_landing(points: list[Fraction], d: int) -> list[int]:
    """For each vertex in ccw order from 0, the position of its image among
    the sorted images (f injective on the points)."""
    images = [f_map(v, d) for v in sorted(points)]
    return [sorted(images).index(y) for y in images]


def ranked_holes(points: list[Fraction]):
    """Holes and their sizes by size rank: rank 1 (index 0) is the smallest,
    equal sizes in ccw order of their starts from 0."""
    holes, sizes = holes_of(points), hole_sizes(points)
    order = sorted(range(len(holes)), key=lambda i: (sizes[i], i))
    return [holes[i] for i in order], [sizes[i] for i in order]


def oracle_jumps(iterates: list[list[Fraction]], d: int, start: int = 0):
    """Jump detection restated on consecutive iterates T_i, T_{i+1}, where
    ``iterates[0]`` is T_start: the
    steps with d * s_{N-2}(T_i) > s_{N-2}(T_{i+1}), each with the size rank
    in T_{i+1} of the image of its critical hole (the hole longer than 1/d
    of least remainder) and that image.

    Returns ("ok", [(i, image rank, image hole)]); ("tie", i) when the least
    remainder is shared; ("no strip", i) when it is 0; or ("breach", i) at
    the first step where a fact of the jump argument fails: between jumps
    the N-2 smallest holes map rank to rank; at a jump some hole is longer
    than 1/d, the critical image lands in the N-2 smallest holes, and hole
    k of the N-2 smallest lands at rank k + 1 when longer than the critical
    remainder, else at rank k."""
    N = len(iterates[0])
    jumps = []
    for i, (P, Q) in enumerate(zip(iterates, iterates[1:]), start):
        holes, sizes = ranked_holes(P)
        next_holes, next_sizes = ranked_holes(Q)

        def image_rank(k):
            a, b = holes[k - 1]
            image = (f_map(a, d), f_map(b, d))
            return next_holes.index(image) + 1 if image in next_holes else None

        if d * sizes[N - 3] <= next_sizes[N - 3]:
            if any(image_rank(k) != k for k in range(1, N - 1)):
                return "breach", i
            continue
        rems = {
            k: oracle_remainder(sizes[k - 1], d)
            for k in range(1, N + 1)
            if sizes[k - 1] > Fraction(1, d)
        }
        if not rems:
            return "breach", i
        least = min(rems.values())
        if list(rems.values()).count(least) > 1:
            return "tie", i
        if least == 0:  # the critical chord would be a hole edge
            return "no strip", i
        cr = min(rems, key=rems.get)
        rank = image_rank(cr)
        if rank is None or rank > N - 2:
            return "breach", i
        for k in range(1, N - 1):
            if sizes[k - 1] == least:
                return "breach", i
            if image_rank(k) != (k + 1 if sizes[k - 1] > least else k):
                return "breach", i
        jumps.append((i, rank, next_holes[rank - 1]))
    return "ok", jumps


def oracle_traces(iterates: list[list[Fraction]], d: int, jumps, start: int = 0):
    """Each jump's critical value followed to the next jump, for the jumps
    ``(i, image rank, image hole)`` of ``oracle_jumps``: [(i, [(t, rank of
    the hole equal to the pushed-forward image hole in T_t)])], or
    ("no hole", t) when that image is no hole of T_t."""
    traces = []
    for n, (i, _, arc) in enumerate(jumps):
        end = jumps[n + 1][0] if n + 1 < len(jumps) else start + len(iterates) - 1
        steps = []
        for t in range(i + 1, end + 1):
            holes, _ = ranked_holes(iterates[t - start])
            if arc not in holes:
                return "no hole", t
            steps.append((t, holes.index(arc) + 1))
            arc = (f_map(arc[0], d), f_map(arc[1], d))
        traces.append((i, steps))
    return traces


def _arc(lo: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """The closed arc of the given width from lo, lo taken mod 1."""
    return lo % 1, lo % 1 + width


def oracle_meet(a, b):
    """The common part of closed circular arcs a = (s, s + w) and
    b = (t, t + v) with w, v < 1, or None.  When they meet in two pieces,
    the piece that starts at a's start (a lift of b reaching back over it)
    is the one taken."""
    s, w = a[0], a[1] - a[0]
    v = b[1] - b[0]
    delta = (b[0] - s) % 1  # where b starts, measured ccw from s
    if delta + v >= 1:
        return _arc(s, min(w, delta + v - 1))
    if delta <= w:
        return _arc(s + delta, min(w - delta, v))
    return None


def oracle_cluster_arc(arcs):
    """The common part of all the arcs, taken in order, when there is one;
    else their bounding arc, each arc lifted to start within half a turn
    of the least start."""
    common = arcs[0]
    for a in arcs[1:]:
        common = oracle_meet(common, a) if common is not None else None
    if common is not None:
        return common
    ref = min(lo for lo, _ in arcs)
    lifts = []
    for lo, hi in arcs:
        off = (lo - ref) % 1
        if off > Fraction(1, 2):
            off -= 1
        lifts.append((ref + off, ref + off + hi - lo))
    lo = min(l for l, _ in lifts)
    return _arc(lo, max(h for _, h in lifts) - lo)


def oracle_leaves(holes, d: int):
    """Jump strips clustered into candidate leaves, for holes given as
    (jump index, u, w): the strip of the hole (u, w), of length between j/d
    and (j+1)/d, is the range [u, u + rho] of c, rho = length - j/d, with
    partners c + j/d.  Two strips are joined when their endpoint ranges
    meet, matched directly or crossed; in each group of joined strips (by
    jump index) the first and the second ranges are each clustered; the
    value arc clusters the images of both that do not cover the circle, or
    is the circle.  Returns (arcs, support, value arc) per leaf, ordered by
    the arcs' starts."""
    holes = sorted(holes)
    pairs = []
    for _, u, w in holes:
        length = (w - u) % 1
        j = floor(d * length)
        rho = length - Fraction(j, d)
        pairs.append(sorted((_arc(u, rho), _arc(u + Fraction(j, d), rho))))

    def joined(p, q):
        return bool(
            (oracle_meet(p[0], q[0]) and oracle_meet(p[1], q[1]))
            or (oracle_meet(p[0], q[1]) and oracle_meet(p[1], q[0]))
        )

    group = list(range(len(pairs)))  # flood fill from each unvisited strip
    for start in range(len(pairs)):
        if group[start] != start:
            continue
        stack = [start]
        while stack:
            i = stack.pop()
            for k in range(len(pairs)):
                if k > start and group[k] == k and joined(pairs[i], pairs[k]):
                    group[k] = start
                    stack.append(k)
    leaves = []
    for g in sorted(set(group)):
        members = [i for i in range(len(pairs)) if group[i] == g]
        ends = ([pairs[i][e] for i in members] for e in (0, 1))
        arcs = sorted(oracle_cluster_arc(arcs) for arcs in ends)
        images = [
            _arc(d * lo, d * (hi - lo)) for lo, hi in arcs if d * (hi - lo) < 1
        ]
        value = oracle_cluster_arc(images) if images else (Fraction(0), Fraction(1))
        leaves.append((tuple(arcs), tuple(holes[i][0] for i in members), value))
    return sorted(leaves, key=lambda leaf: (leaf[0][0][0], leaf[0][1][0]))


# ---------------------------------------------------------------------------
# one orbit step of a polygon with digit-stream vertices, decided by the
# compare ladder alone (8, 16, 32, ... digits up to the budget) on Fraction
# enclosures computed from the generators' definitions


class Stream(NamedTuple):
    """The angle offset + 0.d_shift d_shift+1 ... (base ``base``, mod 1) of
    the generator ``name``; ``offset`` in [0, 1)."""

    name: str
    base: int
    shift: int
    offset: Fraction


class LadderUnresolved(Exception):
    """The ladder reached the budget without deciding."""


@lru_cache(maxsize=None)
def stream_digit(name: str, base: int, i: int) -> int:
    """Digit i of ``thue_morse`` (the parity of i's binary digit sum) or of
    ``champernowne`` (the base-``base`` numerals 1, 2, 3, ... in a row)."""
    if name == "thue_morse":
        return bin(i).count("1") & 1
    length, first = 1, 1
    while i >= (base - 1) * first * length:  # the numerals with `length` digits
        i -= (base - 1) * first * length
        length, first = length + 1, first * base
    number, pos = first + i // length, i % length
    return number // base ** (length - 1 - pos) % base


def point_enclosure(x, k: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] from k digits of a Stream, widened to [0, 1] while it
    straddles the 0/1 seam; (x, x) for a Fraction."""
    if not isinstance(x, Stream):
        return x, x
    n = 0
    for i in range(x.shift, x.shift + k):
        n = n * x.base + stream_digit(x.name, x.base, i)
    lo = Fraction(n, x.base**k) + x.offset
    hi = lo + Fraction(1, x.base**k)
    if lo >= 1:
        return lo - 1, hi - 1
    return (Fraction(0), Fraction(1)) if hi > 1 else (lo, hi)


def ladder(budget: int):
    k = 8
    while k < budget:
        yield k
        k *= 2
    yield budget


class LadderValue:
    """A real known through Fraction enclosures ``fn(k)`` from k digits;
    ``at(k)`` keeps the tightest enclosure asked for so far."""

    def __init__(self, fn):
        self.fn, self.k, self.iv = fn, 0, None

    def at(self, k: int) -> tuple[Fraction, Fraction]:
        if k > self.k:
            lo, hi = self.fn(k)
            if self.iv is not None:
                lo, hi = max(lo, self.iv[0]), min(hi, self.iv[1])
            self.iv, self.k = (lo, hi), k
        return self.iv


def _at(x, k):
    return x.at(k) if isinstance(x, LadderValue) else (x, x)


def ladder_compare(a, b, budget: int) -> int:
    if not isinstance(a, Stream) and not isinstance(b, Stream):
        return (a > b) - (a < b)
    if a == b:
        return 0
    for k in ladder(budget):
        (alo, ahi), (blo, bhi) = point_enclosure(a, k), point_enclosure(b, k)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
    raise LadderUnresolved


def ladder_cmp_values(x, y, budget: int) -> int:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return (x > y) - (x < y)
    for k in ladder(budget):
        (xlo, xhi), (ylo, yhi) = _at(x, k), _at(y, k)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
    raise LadderUnresolved


def ladder_floor(x, d: int, budget: int) -> int:
    if isinstance(x, Fraction):
        return floor(d * x)
    for k in ladder(budget):
        lo, hi = x.at(k)
        if floor(d * lo) == floor(d * hi):
            return floor(d * lo)
    raise LadderUnresolved


def ladder_sort(points, budget: int) -> tuple[list[int], bool]:
    """Indices of the points in ascending order, by one comparison sort that
    compares the pair (i, j) for i < j; and whether it found two equal."""
    tie = []

    def cmp(i, j):
        if i > j:
            return -cmp(j, i)
        c = ladder_compare(points[i], points[j], budget)
        tie.append(c == 0)
        return c

    return sorted(range(len(points)), key=cmp_to_key(cmp)), any(tie)


def stream_image(x, d: int):
    if isinstance(x, Stream):
        return x._replace(shift=x.shift + 1, offset=x.offset * d % 1)
    return x * d % 1


def ladder_step(points, d: int, budget: int) -> dict:
    """The step of the polygon on ``points`` (Fractions and Streams of base
    d) with every decision refined rung by rung: the vertices in ccw order
    from 0, their images sorted (None on a collision, and then nothing
    more) and each image's position (``landing``); per hole in ccw order
    its size, floor(d * size) and remainder (a Fraction between two
    rational vertices, else a LadderValue); the holes by size rank (equal
    exact sizes in ccw order); and the orientation verdict, on which the
    image order, the floors and the remainders' enclosure sum from 64
    digits (or the budget) agree.  Raises LadderUnresolved where a decision
    needs more digits than the budget."""
    order, _ = ladder_sort(points, budget)
    vs = [points[i] for i in order]
    images = [stream_image(v, d) for v in vs]
    by_image, tie = ladder_sort(images, budget)
    if tie:
        return {"vertices": vs, "images": None}
    M = len(vs)
    sizes = []
    for i in range(M):
        u, w = vs[i], vs[(i + 1) % M]
        wraps = ladder_compare(u, w, budget) > 0
        if not isinstance(u, Stream) and not isinstance(w, Stream):
            sizes.append((w - u) % 1)
            continue

        def size_at(k, u=u, w=w, wraps=wraps):
            (ulo, uhi), (wlo, whi) = point_enclosure(u, k), point_enclosure(w, k)
            if wraps:
                ulo, uhi = ulo - 1, uhi - 1
            return max(Fraction(0), wlo - uhi), min(Fraction(1), whi - ulo)

        sizes.append(LadderValue(size_at))

    def rank_cmp(i, j):
        c = ladder_cmp_values(sizes[i], sizes[j], budget)
        return c if c else -1 if i < j else 1

    ranks = sorted(range(M), key=cmp_to_key(rank_cmp))
    floors = [ladder_floor(s, d, budget) for s in sizes]
    rems = []
    for s, j in zip(sizes, floors):
        if isinstance(s, Fraction):
            rems.append(s - Fraction(j, d))
            continue

        def rem_at(k, s=s, j=j):
            lo, hi = s.at(k)
            cut = Fraction(j, d)
            return max(Fraction(0), lo - cut), min(Fraction(1), hi - cut)

        rems.append(LadderValue(rem_at))
    landing = [by_image.index(c) for c in range(M)]
    cyclic = all((landing[c] - landing[0]) % M == c for c in range(M))
    total = [sum(_at(r, min(64, budget))[e] for r in rems) for e in (0, 1)]
    if cyclic != (sum(floors) == d - 1) or (
        cyclic and not total[0] <= Fraction(1, d) <= total[1]
    ):
        raise AssertionError("the orientation criteria disagree")
    return {
        "vertices": vs,
        "images": [images[i] for i in by_image],
        "landing": landing,
        "sizes": sizes,
        "floors": floors,
        "remainders": rems,
        "order": ranks,
        "verdict": cyclic,
    }


# ---------------------------------------------------------------------------
# one orbit step decided on k-digit Fraction enclosures alone (no ladder)


class EnclosureUndecided(Exception):
    """k digits leave an order, a rank or a floor of the step open."""


def enclosure_step(points, d: int, k: int = 400) -> dict:
    """The step of the polygon on ``points`` (Fractions and Streams of base
    d), decided on k-digit ``point_enclosure``s alone: the vertices in ccw
    order; then either the collision, {"images": None, "pair": (a, b)}, the
    first pair of equal images that a comparison sort of the images (in
    vertex order, each pair compared as (earlier, later)) meets, or the
    images sorted, ``landing``, the holes by size rank (equal exact sizes
    in ccw order), floor(d * size) per hole and the orientation verdict, on
    which the image order and the floors agree.  A hole's size between two
    rationals is exact, else the enclosure [max(0, w_lo - u_hi),
    min(1, w_hi - u_lo)] of its ends', one turn added to w past 0.  Raises
    EnclosureUndecided where two enclosures that should be ordered overlap
    or a floor is open."""

    def bounds(x):
        return x if isinstance(x, tuple) else (x, x)

    def cmp(x, y):
        """Order of two points or sizes, each a Fraction or an enclosure."""
        (xlo, xhi), (ylo, yhi) = bounds(x), bounds(y)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            return 0
        raise EnclosureUndecided

    def sort(items, keys):
        """Indices in ascending order of ``keys``, by one comparison sort
        comparing each pair as (earlier, later); and the first equal pair."""
        ties = []

        def by_key(i, j):
            if i > j:
                return -by_key(j, i)
            c = 0 if items[i] == items[j] else cmp(keys[i], keys[j])
            if c == 0:
                ties.append((i, j))
            return c

        return sorted(range(len(items)), key=cmp_to_key(by_key)), next(iter(ties), None)

    def enclosure(x):
        return point_enclosure(x, k) if isinstance(x, Stream) else x

    order, _ = sort(points, [enclosure(x) for x in points])
    vs = [points[i] for i in order]
    images = [stream_image(v, d) for v in vs]
    by_image, tie = sort(images, [enclosure(x) for x in images])
    if tie is not None:
        return {"vertices": vs, "images": None, "pair": (vs[tie[0]], vs[tie[1]])}
    M = len(vs)
    sizes = []
    for i in range(M):
        u, w = vs[i], vs[(i + 1) % M]
        turn = 1 if i == M - 1 else 0
        if not isinstance(u, Stream) and not isinstance(w, Stream):
            sizes.append(w + turn - u)
            continue
        (ulo, uhi), (wlo, whi) = point_enclosure(u, k), point_enclosure(w, k)
        sizes.append((max(Fraction(0), wlo + turn - uhi), min(Fraction(1), whi + turn - ulo)))

    def rank_cmp(i, j):
        return cmp(sizes[i], sizes[j]) or i - j

    ranks = sorted(range(M), key=cmp_to_key(rank_cmp))
    floors = []
    for s in sizes:
        lo, hi = bounds(s)
        if floor(d * lo) != floor(d * hi):
            raise EnclosureUndecided
        floors.append(floor(d * lo))
    landing = [by_image.index(c) for c in range(M)]
    cyclic = all((landing[c] - landing[0]) % M == c for c in range(M))
    if cyclic != (sum(floors) == d - 1):
        raise AssertionError("the orientation criteria disagree")
    return {
        "vertices": vs,
        "images": [images[i] for i in by_image],
        "landing": landing,
        "order": ranks,
        "floors": floors,
        "verdict": cyclic,
    }
