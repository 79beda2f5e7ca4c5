"""Independent plain-Fraction oracles used to cross-check the library.

Everything here works on raw Fractions and deliberately avoids the package's
Angle/Polygon machinery, so agreement is meaningful.
"""

from fractions import Fraction
from math import floor


def f_map(x: Fraction, d: int) -> Fraction:
    return (d * x) % 1


def holes_of(points: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    vs = sorted(points)
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def hole_sizes(points: list[Fraction]) -> list[Fraction]:
    return [(b - a) % 1 for a, b in holes_of(points)]


def oracle_remainder(s: Fraction, d: int) -> Fraction:
    return s - Fraction(floor(d * s), d)


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
    """Arc between two non-crossing chords: sum of the lengths of the arcs
    of the region between them (brute arc-sum formulation)."""
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
