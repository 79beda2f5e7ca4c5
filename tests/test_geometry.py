import contextlib
import io
import itertools
import random
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polywander import (
    Angle,
    Arc,
    AssertionBreach,
    arc_length,
    Chord,
    ChordsCrossError,
    CrossPairLinked,
    DegenerateChordError,
    NotInjectiveError,
    Polygon,
    PrecisionBudget,
    PreconditionError,
    UnresolvedComparison,
    critical_strip,
    format_angle,
    hole_profile,
    image_hole,
    is_orientation_preserving,
    parse_angle,
    remainder,
    rho,
    unlinked,
)

from polywander import (
    NonInjectiveAtStep,
    angles,
    certify_wandering,
    geometry,
    iterate_orbit,
    orbit,
    recurrence,
    render_svg,
    verify_collection_bound,
)
from polywander.cli import main
from polywander.geometry import UnlinkedFamily
from polywander.recurrence import JumpAnalysis

from oracles import (
    EnclosureUndecided,
    LadderUnresolved,
    LadderValue,
    Stream,
    enclosure_step,
    f_map,
    hole_sizes,
    holes_of,
    ladder_sort,
    ladder_step,
    oracle_collision_step,
    oracle_certify,
    oracle_cyclic_order,
    oracle_injective,
    oracle_landing,
    oracle_profile,
    oracle_rho,
    oracle_unlinked,
    point_enclosure,
)


def ang(x) -> Angle:
    return Angle.from_fraction(F(x) if not isinstance(x, str) else F(x))


def poly(*vals) -> Polygon:
    return Polygon([ang(v) for v in vals])


def chord(a, b) -> Chord:
    return Chord(ang(a), ang(b))


def vertex_values(P: Polygon) -> list:
    return [v.value for v in P.vertices]


# ---------------------------------------------------------------------------
# hole profiles


def test_hole_profile_sevenths():
    prof = hole_profile(poly(0, F(1, 7), F(2, 7)), 2)
    assert [prof.size(k) for k in (1, 2, 3)] == [F(1, 7), F(1, 7), F(5, 7)]
    assert sorted(prof.remainders_cyclic) == [F(1, 7), F(1, 7), F(3, 14)]
    assert prof.remainder_sum == F(1, 2)


def test_hole_profile_halves():
    prof = hole_profile(poly(0, F(1, 2)), 2)
    assert [prof.size(k) for k in (1, 2)] == [F(1, 2), F(1, 2)]
    assert list(prof.remainders_cyclic) == [0, 0]


def test_hole_profile_decimals():
    prof = hole_profile(poly("0.05", "0.3", "0.6"), 2)
    sizes = [prof.size(k) for k in (1, 2, 3)]
    assert sizes == [F(1, 4), F(3, 10), F(9, 20)]
    assert sizes == [prof.remainder(k) for k in (1, 2, 3)]
    assert prof.remainder_sum == 1


def test_hole_profile_tie_break_is_ccw_from_zero():
    prof = hole_profile(poly("0.30", "0.31", "0.32"), 2)
    # two holes of size 1/100; rank 1 goes to the one starting at 0.30
    assert [prof.holes[prof.order[k - 1]].start.value for k in (1, 2)] == [
        F(30, 100),
        F(31, 100),
    ]


def test_polygon_rejects_duplicates_and_singletons():
    with pytest.raises(PreconditionError):
        poly(0, 0)
    with pytest.raises(PreconditionError):
        Polygon([ang(F(1, 3))])


def test_remainder_examples():
    assert remainder(F(7, 10), 2) == F(1, 5)
    assert remainder(F(5, 9), 3) == F(2, 9)
    assert remainder(F(1, 7), 2) == F(1, 7)


def test_image_hole_examples():
    h = image_hole(Arc(ang("0.3"), ang("0.45")), 2)
    assert (h.start.value, h.end.value) == (F(3, 5), F(9, 10))
    assert arc_length(h.start, h.end) == F(3, 10)

    h = image_hole(Arc(ang(F(2, 7)), ang(0)), 2)
    assert (h.start.value, h.end.value) == (F(4, 7), F(0))
    assert arc_length(h.start, h.end) == F(3, 7) == 2 * remainder(F(5, 7), 2)

    h = image_hole(Arc(ang("0.45"), ang("0.96")), 2)
    assert (h.start.value, h.end.value) == (F(9, 10), F(23, 25))
    assert arc_length(h.start, h.end) == F(1, 50)

    with pytest.raises(DegenerateChordError):
        image_hole(Arc(ang(0), ang(0)), 2)


# ---------------------------------------------------------------------------
# orientation


def test_orientation_true_with_witness():
    cert = is_orientation_preserving(poly(0, F(1, 7), F(2, 7)), 2)
    assert cert.verdict is True
    assert cert.remainder_sum == F(1, 2)
    assert len(cert.witness_arcs) == 1
    (w,) = cert.witness_arcs
    assert arc_length(w.start, w.end) == F(1, 2)


def test_orientation_false():
    cert = is_orientation_preserving(poly("0.05", "0.3", "0.6"), 2)
    assert cert.verdict is False
    assert cert.witness_arcs is None
    assert cert.remainder_sum == 1


def test_orientation_not_injective():
    with pytest.raises(NotInjectiveError):
        is_orientation_preserving(poly(0, F(1, 4), F(1, 2), F(3, 4)), 2)


@pytest.mark.parametrize("N", range(1, 7))
def test_orientation_reads_a_rotation_as_the_modular_test_does(N):
    """On every permutation of 0..N-1, N <= 6, ``_orientation``'s cyclic
    order test (the landing equals a rotation of 0..N-1) agrees with
    (landing[c] - landing[0]) % N == c for every c.  Its profile stands in
    with floors that give the arc count the same verdict, so a disagreement
    would raise AssertionBreach."""
    for landing in itertools.permutations(range(N)):
        want = all((landing[c] - landing[0]) % N == c for c in range(N))
        profile = SimpleNamespace(floors=(1 if want else 0,))
        cert = geometry._orientation(landing, profile, 2)
        assert cert.verdict is want


# ---------------------------------------------------------------------------
# linkage


def test_unlinked_examples():
    assert unlinked(poly("0.1", "0.2"), poly("0.3", "0.4")) is True
    assert unlinked(poly("0.1", "0.3"), poly("0.2", "0.4")) is False
    assert unlinked(poly("0.1", "0.2"), poly("0.2", "0.3")) is False


def test_unlinked_symmetric():
    a, b = poly("0.1", "0.5", "0.6"), poly("0.2", "0.3", "0.4")
    assert unlinked(a, b) == unlinked(b, a) is True


def test_unlinked_family_matches_unlinked():
    # polygons inside random arcs of the 48-gon: nested, disjoint, sharing
    # vertices and interleaved, in every mix, 2-gons among them
    rng = random.Random(404)
    for _ in range(200):
        family, members = UnlinkedFamily(), []
        for label in range(12):
            start, width = rng.randrange(48), rng.randrange(1, 16)
            ks = rng.sample(range(width + 1), rng.randrange(2, min(5, width + 1) + 1))
            P = poly(*(F((start + k) % 48, 48) for k in ks))
            expected = set()
            for m, Q in members:
                want = oracle_unlinked(vertex_values(Q), vertex_values(P))
                assert unlinked(Q, P) == unlinked(P, Q) == want
                if not want:
                    expected.add(m)
            assert family.linked(P) == expected
            assert family.add(P, label) == expected
            if not expected:
                members.append((label, P))
                assert family.linked(P) == {label}
        assert [F(k, family.den) for k in family.keys] == sorted(
            v.value for _, Q in members for v in Q.vertices
        )
        assert len(members) > 1


_ONE_GAP_MEMBERS = ([F(1, 10), F(2, 10), F(3, 10)], [F(5, 10), F(6, 10)], [F(8, 10), F(9, 10)])
_ONE_GAP_CASES = {  # query points, whether all its cuts are equal, linked labels
    "all cuts at 0": ([F(1, 100), F(2, 100), F(5, 100)], True, set()),
    "all cuts in the middle": ([F(41, 100), F(42, 100), F(45, 100)], True, set()),
    "all cuts at V": ([F(91, 100), F(95, 100), F(99, 100)], True, set()),
    "one gap, sharing a listed vertex": ([F(35, 100), F(4, 10), F(5, 10)], True, {1}),
    "one gap at 0, sharing the first key": ([F(5, 100), F(1, 10)], True, {0}),
    "straddling 0": ([F(2, 100), F(95, 100)], False, set()),
    "straddling 0, linked": ([F(15, 100), F(95, 100)], False, {0}),
    "last vertex on the next key": ([F(82, 100), F(85, 100), F(9, 10)], True, {2}),
    "first vertex on a key": ([F(2, 10), F(25, 100)], False, {0}),
    "one key between first and last": ([F(45, 100), F(47, 100), F(55, 100)], False, {1}),
    "same denominator, on the next key": ([F(4, 10), F(5, 10)], True, {1}),
    "coprime denominator, one gap": ([F(3, 7), F(4, 9)], True, set()),
    "coprime denominator, linked": ([F(1, 7), F(2, 7)], False, {0}),
}


@pytest.mark.parametrize("stream", [False, True], ids=["ints", "with a stream member"])
@pytest.mark.parametrize("case", list(_ONE_GAP_CASES))
def test_unlinked_family_one_gap_matches_oracle(case, stream, monkeypatch):
    """A polygon whose vertices all fall in one gap of the family's list
    (all cuts equal) is linked only through a shared vertex, is placed by
    two searches (its first and last vertex), and joins the list as one
    block; a polygon straddling 0 sits in the wrap-around gap with cuts 0
    and V.  Each answer of ``linked`` and ``add``, and the list after
    ``add``, equal ``oracle_unlinked`` and the sorted member points, on an
    int family (over the query's denominator, a multiple of it or one
    coprime to it) and on one holding a stream member."""
    family, members = UnlinkedFamily(), []
    for label, pts in enumerate(_ONE_GAP_MEMBERS):
        assert family.add(poly(*pts), label) == set()
        members.append((label, pts))
    s = parse_angle("gen:thue_morse?base=2&shift=11")  # 0.7058...: in the gap (0.6, 0.8)
    lo, _ = s.enclosure_bounds(200)
    if stream:
        assert family.add(Polygon([s, ang(F(7, 10))]), 3) == set()
        members.append((3, [F(7, 10), lo]))
    q, one_gap, linked = _ONE_GAP_CASES[case]
    P = poly(*q)
    searched = []

    def counted_bisect_left(a, x, *args, **kwargs):
        searched.append(x)
        return bisect_left(a, x, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(geometry, "bisect_left", counted_bisect_left)
        cuts = family._linked(P)[0]
    assert (len(set(cuts)) == 1) == one_gap
    assert len(searched) == (2 if one_gap else len(q))
    want = {m for m, Q in members if not oracle_unlinked(Q, q)}
    assert want == linked
    assert family.linked(P) == want
    assert family.add(P, 9) == want
    if not want:
        members.append((9, q))
    listed = sorted((x, m) for m, Q in members for x in Q)

    def point(k):  # a listed key as the oracle's point
        if family.den is not None:
            return F(k, family.den)
        return lo if k == s else k.value

    assert [point(k) for k in family.keys] == [x for x, _ in listed]
    assert family.labels == [m for _, m in listed]
    assert family.cards == {m: len(Q) for m, Q in members}


# ---------------------------------------------------------------------------
# rho


def test_rho_examples():
    assert rho(chord(0, F(1, 4)), chord(F(1, 2), F(3, 4))) == F(1, 2)
    assert rho(chord(0, F(1, 3)), chord(F(1, 2), F(5, 6))) == F(1, 3)
    assert rho(chord(0, F(1, 4)), chord(F(1, 4), F(1, 2))) == F(1, 2)


def test_rho_degenerate_cases():
    pt = chord(F(1, 8), F(1, 8))
    assert rho(pt, pt) == 0
    assert rho(pt, chord(F(3, 8), F(3, 8))) == 1
    # point against a chord: the side arc containing the point
    assert rho(pt, chord(F(1, 4), F(3, 4))) == F(1, 2)
    assert rho(chord(F(1, 4), F(1, 4)), chord(F(1, 4), F(3, 4))) == 0


def test_rho_crossing_raises():
    with pytest.raises(ChordsCrossError):
        rho(chord(0, F(1, 2)), chord(F(1, 4), F(3, 4)))


@given(
    st.lists(
        st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
        min_size=6,
        max_size=6,
        unique=True,
    )
)
@settings(max_examples=300, deadline=None)
def test_rho_partition_identity(vals):
    a1, a2, a3, a4, a5, a6 = sorted(vals)
    p, l, q = chord(a1, a2), chord(a3, a6), chord(a4, a5)
    assert rho(p, l) + rho(q, l) == rho(p, q)


@given(
    st.lists(
        st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
        min_size=4,
        max_size=4,
        unique=True,
    )
)
@settings(max_examples=200, deadline=None)
def test_rho_matches_arc_sum_oracle(vals):
    a1, a2, a3, a4 = sorted(vals)
    p, q = chord(a1, a2), chord(a3, a4)
    assert rho(p, q) == oracle_rho((a1, a2), (a3, a4))


# ---------------------------------------------------------------------------
# critical strips


def strip_of(u, w, d, third=None):
    """The critical strip of the hole (u, w) of the triangle on u, w and
    ``third`` (by default the midpoint of the arc from w to u); an
    ``Angle`` is taken as it is."""
    u, w = (x if isinstance(x, Angle) else ang(x) for x in (u, w))
    if third is None:
        third = (w.value + (u.value - w.value) % 1 / 2) % 1
    P = Polygon([u, w, ang(third)])
    profile = hole_profile(P, d)
    return critical_strip(profile, profile.rank_of_cyclic(P.vertices.index(u)))


def strip_range(s, end=0):
    lo, hi = s.ranges[end]
    return F(lo, s.den), F(hi, s.den)


def test_critical_strip_example():
    s = strip_of("0.1", "0.75", 2)
    assert (s.j, strip_range(s)) == (1, (F(1, 10), F(1, 4)))
    assert s.rho_value == F(3, 20)
    # sampled strip chords {c, c + j/d} are critical and sit at rho_value
    # from the edge
    edge, d = chord("0.1", "0.75"), 2
    for c in (F(1, 10), F(3, 20), F(1, 4)):
        ch = chord(c, c + F(s.j, d))
        a, b = ch.a.value, ch.b.value
        assert a != b and (d * (b - a)) % 1 == 0
        assert rho(edge, ch) == F(3, 20)


def test_critical_strip_jump_hole():
    s = strip_of("0.45", "0.96", 2)
    assert strip_range(s) == (F(9, 20), F(23, 50))
    assert s.rho_value == F(1, 100)
    assert strip_range(s, 1) == (F(19, 20), F(24, 25))  # partners, 1/2 further on


def test_critical_strip_runs_past_zero():
    """A range of c that runs past 0 keeps hi = lo + rho, above 1, on the
    exact path and on the enclosure path alike."""
    s = strip_of("0.9", "0.55", 2)
    assert (s.j, strip_range(s), s.rho_value) == (1, (F(9, 10), F(21, 20)), F(3, 20))
    t = parse_angle("gen:thue_morse?base=2&offset=1/2")  # about 0.9124
    s = strip_of(t, "0.7", 2, third="0.75")
    assert s.j == 1
    lo, hi = strip_range(s)
    assert hi == F(6, 5)  # 0.7 + 1 - 1/2
    lo_t, hi_t = t.enclosure_bounds(64)  # the hole starts at t
    assert lo == lo_t and lo <= hi_t


def test_critical_strip_precondition():
    with pytest.raises(PreconditionError, match="j must be in"):
        strip_of(0, "0.4", 2)  # shorter than 1/2, so j = 0
    with pytest.raises(PreconditionError, match="j/d < len"):
        strip_of("0.1", "0.6", 2)  # exactly 1/2, so the remainder is 0


def test_critical_strip_decides_a_remainder_its_bounds_leave_open():
    """A stream hole of size 1/3 + 3^-64 has floor 1 from its 64-digit
    bounds, whose low end is 1/3 exactly, so its remainder's bounds start at
    0: within 64 digits the strip cannot prove the remainder positive, and
    with 128 it can."""
    eps = F(1, 3**64)
    offsets = [F(1, 20), F(1, 20) + F(1, 3) + eps, F(1, 20) + F(5, 6) + eps]
    literals = [f"gen:thue_morse?base=3&offset={o}" for o in offsets]
    for digits in (64, 128):
        budget = PrecisionBudget(digits)
        prof = hole_profile(Polygon([parse_angle(x) for x in literals], budget), 3, budget)
        assert prof.floors[prof.order[1]] == 1 and prof.remainder_bounds(2)[0] == 0
        if digits == 64:
            with pytest.raises(UnresolvedComparison, match="within 64 digits"):
                critical_strip(prof, 2, budget)
        else:
            s = critical_strip(prof, 2, budget)
            assert s.j == 1 and s.rho_value.bounds(digits)[0] > 0


def _strip_polygon(rng, d):
    """Two to four distinct points: one to all of them streams of base d
    (a shift, and an offset or none), the rest rationals, or (one time in
    four) all rationals."""
    N = rng.randint(2, 4)
    streams = 0 if rng.random() < 0.25 else rng.randint(1, N)
    points = set()
    while len(points) < N:
        if len(points) < streams:
            name = rng.choice(["thue_morse", "champernowne"])
            q = rng.randint(1, 60)
            off = f"&offset={rng.randrange(q)}/{q}" if q > 1 else ""
            shift = rng.randint(0, 30)
            points.add(parse_angle(f"gen:{name}?base={d}&shift={shift}{off}"))
        else:
            q = rng.randint(2, 90)
            points.add(ang(F(rng.randrange(q), q)))
    return sorted(points, key=format_angle)


def test_strips_match_a_plain_fraction_restatement():
    """Seeded stream, mixed and rational polygons, d = 2..4, budgets below
    and at 64 digits: each strip's range of c is [u_lo, w_hi - j/d], one turn
    added to w for the hole past 0, from the ends' 64-digit
    ``enclosure_bounds`` (exact ends for rationals); the partner range lies
    j/d further on; j and rho are the profile's floor and remainder, and
    agree with 300-digit enclosures of the hole's size.  On a rational
    polygon the range is (d * n_c, d * n_c + r) over d * L, r the
    remainder's numerator over d * L."""
    rng = random.Random(20)
    seen = Counter()
    for _ in range(400):
        d = rng.randint(2, 4)
        budget = PrecisionBudget(rng.choice([16, 40, 64, 4096]))
        vs = _strip_polygon(rng, d)
        try:
            P = Polygon(vs, budget)
            profile = hole_profile(P, d, budget)
        except UnresolvedComparison:
            continue
        M = P.card
        for k in range(1, M + 1):
            try:
                s = critical_strip(profile, k, budget)
            except (PreconditionError, UnresolvedComparison):
                continue
            c = profile.order[k - 1]
            u, w = P.vertices[c], P.vertices[(c + 1) % M]
            turn = 1 if c == M - 1 else 0
            assert s.j == profile.floors[c] and s.rho_value is profile.remainder(k)
            j, rho_value = s.j, s.rho_value
            lo = u.enclosure_bounds(64)[0]
            hi = w.enclosure_bounds(64)[1] + turn - F(j, d)
            assert strip_range(s) == (lo, hi)
            assert strip_range(s, 1) == (lo + F(j, d), hi + F(j, d))
            (ulo, uhi), (wlo, whi) = (point_enclosure(_spec(x), 300) for x in (u, w))
            slo, shi = wlo + turn - uhi, whi + turn - ulo
            if d * slo // 1 == d * shi // 1:
                assert j == d * slo // 1
            if isinstance(rho_value, F):
                assert slo == shi and rho_value == slo - F(j, d)
            else:
                rlo, rhi = rho_value.bounds(300)
                assert rlo <= shi - F(j, d) and slo - F(j, d) <= rhi
            if P.nums is not None:
                r = d * profile.bounds[c][0] - j * P.den
                n_c = P.nums[c]
                assert s.den == d * P.den and s.ranges[0] == (d * n_c, d * n_c + r)
            seen["rational" if P.nums is not None else "stream"] += 1
            seen["past 0"] += turn
            seen["stream end"] += u.source is not None or w.source is not None
            seen["recomputed"] += P.nums is None and P.enclosures[0] < 64
            seen[f"d = {d}"] += 1
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 8, seen


def _seam_stream(rng, base):
    """A Thue-Morse or Champernowne stream put within base**-m of the 0/1
    seam (m in 65..72), just past 0 or just below 1, so that its 64-digit
    enclosure straddles the seam."""
    name, m = rng.choice(["thue_morse", "champernowne"]), rng.randint(65, 72)
    x = point_enclosure(Stream(name, base, 0, F(0)), m)[0]
    off = (1 - x + (F(1, 2 * base**m) if rng.random() < 0.5 else -F(1, base**m))) % 1
    return parse_angle(f"gen:{name}?base={base}&offset={off.numerator}/{off.denominator}")


def test_strips_with_an_end_on_the_seam_enclose_their_chords():
    """Seeded polygons with one or two vertices whose 64-digit enclosures
    straddle the 0/1 seam, at either end of a critical hole, the hole past 0
    included: each range of c starts in [0, 1), is less than a turn wide,
    holds [u, w - j/d] from 300-digit enclosures of the ends (lifted by a
    turn where the range starts above u), and is no wider than that by more
    than two 64-digit widths; the partner range lies j/d further on."""
    rng = random.Random(64)
    seen = Counter()
    for _ in range(150):
        d, base = rng.randint(2, 4), rng.choice([2, 3])
        vs = {_seam_stream(rng, base) for _ in range(rng.choice([1, 1, 2]))}
        N = rng.randint(2, 4)
        while len(vs) < N:
            q = rng.randint(2, 30)
            vs.add(ang(F(rng.randrange(q), q)))
        P = Polygon(sorted(vs, key=format_angle))
        profile = hole_profile(P, d)
        M = P.card
        for k in range(1, M + 1):
            try:
                s = critical_strip(profile, k)
            except PreconditionError:
                continue
            c = profile.order[k - 1]
            u, w = P.vertices[c], P.vertices[(c + 1) % M]
            turn, jd = (1 if c == M - 1 else 0), F(s.j, d)
            (ulo, uhi), (wlo, whi) = (point_enclosure(_spec(x), 300) for x in (u, w))
            assert uhi - ulo < 1 and whi - wlo < 1  # off the seam at 300 digits
            lo, hi = strip_range(s)
            lift = 1 if lo > ulo else 0
            assert 0 <= lo < 1 and lo <= hi < lo + 1
            assert lo <= ulo + lift and whi + turn + lift - jd <= hi
            assert hi - lo <= whi + turn - ulo - jd + 2 * F(1, base**64)
            assert strip_range(s, 1) == (lo + jd, hi + jd)
            for x, end in ((u, "u"), (w, "w")):
                if x.source is not None and x.enclosure_bounds(64) == (0, 1):
                    seen[end + " on the seam" + (", past 0" if turn else "")] += 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen
    # a budget with no rung above 64 digits cannot read such an end off the seam
    P = Polygon([_seam_stream(random.Random(1), 2), ang("1/5"), ang("3/10")])
    with pytest.raises(UnresolvedComparison, match="off the 0/1 seam within 64 digits"):
        critical_strip(hole_profile(P, 2), 3, PrecisionBudget(64))  # the largest hole


def test_vertex_midpoints_read_a_vertex_on_the_seam_off_the_seam():
    """A Thue-Morse stream 2^-70 past 0, whose 64-digit enclosure is the
    whole circle, has its midpoint just past 0 and not at 1/2: in
    ``vertex_midpoints``, in the limit leaf that ``approx_limit_leaf`` takes
    from them (once (0.5, 0.9)), and in the first point that ``render``
    draws (once on top of the vertex 1/2)."""
    x = point_enclosure(Stream("thue_morse", 2, 0, F(0)), 70)[0]
    off = 1 - x + F(1, 2**70)
    lits = [f"gen:thue_morse?base=2&offset={off}", "1/5", "3/10", "1/2"]
    P = Polygon([parse_angle(t) for t in lits])
    assert P.vertices[0].enclosure_bounds(64) == (0, 1)
    n, q = geometry.vertex_midpoints(P)[0]
    assert 0 < F(n, q) < F(1, 2**64)
    leaf = recurrence.approx_limit_leaf(iterate_orbit(P, 2, 0)[0])
    assert leaf[0] == F(1, 2) and 0 < leaf[1] - F(3, 20) < F(1, 2**64)
    svg = render_svg([parse_angle(t) for t in lits], 2, 0)
    assert 'id="polygon-0" d="M 950.000 500.000 L ' in svg


def test_polygon_rejects_repeats_and_too_few_before_sorting(monkeypatch):
    """Equal angles and inputs of fewer than 2 vertices are refused before
    the sort compares anything, so a pair the budget cannot separate does
    not hide a repeated vertex."""
    monkeypatch.setattr(geometry, "ccw_order", lambda *a: pytest.fail("sorted"))
    s = parse_angle("gen:thue_morse?base=5&shift=29")
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        Polygon([s, ang("5/7"), parse_angle("gen:thue_morse?base=5&shift=29")])
    for vs in ([], [s]):
        with pytest.raises(PreconditionError, match="at least 2 distinct"):
            Polygon(vs)


# ---------------------------------------------------------------------------
# the integer kernel of a rational orbit step


def _kernel_corpus():
    """Seeded rational polygons, N 2..6 and d 2..5, with denominators from
    small up to ~3^200: random points, points on a common grid (equal hole
    sizes) and points that differ by multiples of 1/d (colliding images)."""
    rng = random.Random(9009)
    cases = []
    for i in range(400):
        d, N = 2 + i % 4, rng.randrange(2, 7)
        q = rng.choice([rng.randrange(2, 60), 3 ** rng.randrange(1, 201),
                        rng.randrange(2, 10**6) * 3 ** rng.randrange(50, 201)])
        kind = i % 3
        if kind == 0:
            pts = set()
            for _ in range(N):
                den = rng.choice([q, q * d, rng.randrange(2, 90)])
                pts.add(F(rng.randrange(den), den))
        elif kind == 1:
            base, step = F(rng.randrange(q), q), F(1, q * rng.randrange(1, 9))
            pts = {(base + step * rng.randrange(3 * N)) % 1 for _ in range(N)}
        else:
            x = F(rng.randrange(q), q)
            pts = {(x + F(rng.randrange(d), d) + F(rng.randrange(4), q)) % 1
                   for _ in range(N)}
        if len(pts) >= 2:
            cases.append((d, sorted(pts)))
    return cases


def test_integer_kernel_matches_fraction_oracles():
    """Sizes, remainders, floors, rank order, remainder sum and holes, the
    orientation verdict, landing and the collision step of rational
    polygons agree with plain-Fraction restatements; so do every orbit
    record's profile, landing and verdict, and the next iterate that
    ``orbit_step`` returns from each record's polygon, which also gives
    that polygon's ``hole_profile``."""
    ties = collisions = 0
    for d, pts in _kernel_corpus():
        P = Polygon([ang(x) for x in pts])
        prof = hole_profile(P, d)
        want = oracle_profile(pts, d)
        assert list(prof.sizes_cyclic) == want["sizes"]
        assert list(prof.remainders_cyclic) == want["remainders"]
        assert list(prof.floors) == want["floors"]
        assert list(prof.order) == want["order"]
        assert prof.remainder_sum == want["remainder_sum"]
        assert [(h.start.value, h.end.value) for h in prof.holes] == holes_of(pts)
        ties += len(set(want["sizes"])) < len(pts)

        step = oracle_collision_step(pts, d, 6)
        if step is None:
            records = iterate_orbit(P, d, 6)
        else:
            with pytest.raises(NonInjectiveAtStep) as info:
                iterate_orbit(P, d, 6)
            assert info.value.step == step
            a, b = info.value.__cause__.pair
            assert f_map(a.value, d) == f_map(b.value, d) and a != b
            records = info.value.records
            collisions += 1
        iterates = _fraction_iterates(pts, d, len(records))
        for rec, vals, nxt_vals in zip(records, iterates, iterates[1:]):
            assert [v.value for v in rec.polygon.vertices] == vals
            want, p = oracle_profile(vals, d), rec.profile
            assert list(p.sizes_cyclic) == want["sizes"]
            assert list(p.remainders_cyclic) == want["remainders"]
            assert list(p.floors) == want["floors"]
            assert list(p.order) == want["order"]
            assert list(rec.landing) == oracle_landing(vals, d)
            assert rec.orientation.verdict == oracle_cyclic_order(vals, d)
            nxt, landing, profile, cert = geometry.orbit_step(rec.polygon, d)
            assert vertex_values(nxt) == nxt_vals
            assert (landing, profile, cert.verdict) == (rec.landing, p, rec.orientation.verdict)
            assert hole_profile(rec.polygon, d) == p
        if oracle_injective(pts, d):
            assert is_orientation_preserving(P, d).verdict == oracle_cyclic_order(pts, d)
    assert ties > 50 and collisions > 50


@pytest.mark.parametrize(
    "pts, d, verdict",
    [([F(1, 7), F(2, 7), F(4, 7)], 2, True), ([F(0), F(1, 5), F(2, 5)], 3, False)],
)
def test_rational_orbit_step_raises_when_orientation_criteria_disagree(
    monkeypatch, pts, d, verdict
):
    """A rational step whose floors' sum contradicts the cyclic order of its
    images (floors summing to d on a polygon that keeps its order, or to
    d - 1 on one that does not) raises ``AssertionBreach`` with
    ``_orientation``'s message."""
    P = Polygon([ang(x) for x in pts])
    assert geometry.orbit_step(P, d)[3].verdict is verdict
    floors = (d,) if verdict else (d - 1,)
    monkeypatch.setattr(
        geometry, "_exact_profile", lambda *_: SimpleNamespace(floors=floors)
    )
    want = f"cyclic={verdict} arcs={not verdict}$"
    with pytest.raises(AssertionBreach, match=want):
        geometry.orbit_step(P, d)


def test_mixed_polygon_keeps_the_enclosure_path():
    """One stream vertex among rationals: the profile holds enclosures and
    every size's and remainder's 64-digit enclosure contains the oracle's
    value at the stream's lower bound."""
    s = parse_angle("gen:thue_morse?base=4")
    P = Polygon([s, ang(F(1, 3)), ang(F(2, 3))])
    prof = hole_profile(P, 4)
    assert [lo < hi for lo, hi in prof.bounds] == [True, False, True]  # enclosures
    lo, _ = s.enclosure_bounds(64)
    want = oracle_profile([lo, F(1, 3), F(2, 3)], 4)
    assert list(prof.floors) == want["floors"] and list(prof.order) == want["order"]
    for got, x in zip(
        prof.sizes_cyclic + prof.remainders_cyclic, want["sizes"] + want["remainders"]
    ):
        if isinstance(got, F):
            assert got == x
        else:
            a, b = got.bounds(64)
            assert a <= x <= b
    assert is_orientation_preserving(P, 4).verdict == oracle_cyclic_order(
        [lo, F(1, 3), F(2, 3)], 4
    )


def _w1_points(base, K=40, d=3):
    """A W1-style quadrilateral: ``base``, then running sums adding 1, 3 and
    2 steps of 1/(3*4*d*d^K)."""
    delta = F(1, 3 * 4 * d * d**K)
    pts = [base]
    for m in (1, 3, 2):
        pts.append(pts[-1] + m * delta)
    return pts


def _fraction_iterates(pts, d, horizon):
    out = [sorted(pts)]
    for _ in range(horizon):
        out.append(sorted(f_map(x, d) for x in out[-1]))
    return out


def test_rational_orbit_step_does_not_compare_angles(monkeypatch):
    """W1-style quadrilaterals, built first, certify to horizon 20 and get
    their burn-in and jumps with the compare-based sort, ``compare``, arc
    lengths and the stages' ``cmp_values`` switched off: the image sort, the
    hole profile, orientation, the linkage family and the burn-in and jump
    tests run on ints.  So does the cross-pair check of a collection of two
    of them, whose orbits live over different denominators.  No iterate
    builds its vertex ``Angle``s until they are read."""
    a, b = _w1_points(F(1, 1000003)), _w1_points(F(500000, 999983))
    P, Q = Polygon([ang(x) for x in a]), Polygon([ang(x) for x in b])
    for name in ("ccw_order", "arc_length", "compare"):
        monkeypatch.setattr(geometry, name, lambda *_, name=name: pytest.fail(name))
    monkeypatch.setattr(orbit, "cmp_values", lambda *_: pytest.fail("cmp_values"))

    cert = certify_wandering(P, 3, 20, kiwi_precheck=False)
    assert cert.certified and len(cert.records) == 21
    run = JumpAnalysis(cert.records, 3)
    iterates = _fraction_iterates(a, 3, 20)
    past = [
        oracle_cyclic_order(T, 3) and sorted(hole_sizes(T))[1] < F(1, 36)
        for T in iterates
    ]
    b0 = next(i for i in range(21) if all(past[i:]))
    s2 = [sorted(hole_sizes(T))[1] for T in iterates]
    assert run.burn_in == b0
    assert run.jumps.indices == tuple(i for i in range(b0, 20) if 3 * s2[i] > s2[i + 1])

    assert all(r.polygon._vertices is None for r in cert.records[1:])
    assert {r.polygon.den for r in cert.records} == {P.den}
    assert [v.value for v in cert.records[5].polygon.vertices] == iterates[5]
    assert cert.records[5].polygon._vertices is not None
    assert cert.records[6].polygon._vertices is None

    report = verify_collection_bound([P, Q], 3, 20, F(1, 64), kiwi_precheck=False)
    assert report.cards == (4, 4)


def test_stream_orbit_step_does_not_compare_angles(monkeypatch):
    """The stream-orbit golden request, with ``compare`` and ``cmp_values``
    counted wherever the package refers to them: the sort of the input
    polygon and each orbit step, profile and orientation are decided on int
    enclosures, so nothing compares angles or values."""
    calls = {"compare": 0, "cmp_values": 0}
    for name in ("compare", "cmp_values"):
        fn = getattr(angles, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.startswith("polywander")]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["orbit", "gen:thue_morse?base=4", "1/3", "2/3", "-d", "4",
                     "--horizon", "20"])
    golden = Path(__file__).parent / "golden" / "stream-orbit.out"
    assert code == 0 and out.getvalue() == golden.read_text(encoding="utf-8")
    assert calls == {"compare": 0, "cmp_values": 0}


# ---------------------------------------------------------------------------
# the integer kernel against plain-Fraction oracles: orbits over one large
# denominator, and the linkage family across denominators and with streams

BIG_PRIMES = (1000003, 998244353, 10**9 + 7, 2**61 - 1, 2**89 - 1)


def test_integer_orbits_match_fraction_iterates():
    """Orbits of rational polygons over large coprime denominators (times a
    power of d, so the reduced denominators of the iterates shrink) keep
    one ``den`` and match plain-Fraction iterates, certification and the
    collision step, whose ``NotInjectiveError`` keeps the colliding pair."""
    rng = random.Random(1212)
    seen = set()
    for i in range(160):
        d, N = 2 + i % 4, rng.randrange(3, 6)
        L = rng.choice(BIG_PRIMES) * d ** rng.randrange(0, 25)
        pts = {F(rng.randrange(L), L) for _ in range(N)}
        if i % 4 == 0:  # a vertex one step of 1/d away: a collision
            x = min(pts)
            pts.add((x + F(rng.randrange(1, d), d)) % 1)
        elif i % 4 == 1:  # a tiny cluster, which may wander to the horizon
            x = rng.randrange(L)
            pts = {F((x + k) % L, L) for k in [0, *rng.sample(range(1, 9), N - 1)]}
        pts = sorted(pts)
        P = Polygon([ang(x) for x in pts])
        horizon = rng.randrange(1, 30)
        want = _fraction_iterates(pts, d, horizon)
        stop = oracle_collision_step(pts, d, horizon)
        if stop is None:
            records = iterate_orbit(P, d, horizon)
        else:
            with pytest.raises(NonInjectiveAtStep) as info:
                iterate_orbit(P, d, horizon)
            assert info.value.step == stop
            u, w = (v.value for v in info.value.__cause__.pair)
            assert u < w and u in want[stop] and w in want[stop]
            assert f_map(u, d) == f_map(w, d)
            records = info.value.records
        assert len(records) == (horizon + 1 if stop is None else stop)
        for rec, T in zip(records, want):
            assert rec.polygon.den == P.den
            assert [v.value for v in rec.polygon.vertices] == T
        cert = certify_wandering(P, d, horizon, kiwi_precheck=False)
        status, detail = oracle_certify(pts, d, horizon)
        assert cert.status == status
        assert (cert.pair if status == "FailedLinked" else cert.step) == detail
        seen.add(status)
    assert seen == {"CertifiedToHorizon", "FailedLinked", "FailedNonPrecritical"}


def _stream_below_others(rng, others):
    """A thue_morse stream vertex whose 200-digit enclosure holds none of
    ``others``, and the enclosure's lower end, which then sorts among
    ``others`` as the stream does."""
    while True:
        s = parse_angle(f"gen:thue_morse?base=2&shift={rng.randrange(1, 400)}")
        lo, hi = s.enclosure_bounds(200)
        if not any(lo <= x <= hi for x in others):
            return s, lo


def test_unlinked_family_over_denominators_and_streams_matches_oracle():
    """Families of polygons in random arcs, each over one of three large
    coprime denominators, some sharing a vertex with an earlier member, and
    (in half the families) some with a stream vertex: every ``linked`` and
    ``add`` answer, and each query of a polygon over a fourth denominator,
    equal ``oracle_unlinked`` against the members; the family keeps ints
    until a stream member joins."""
    rng = random.Random(3131)
    dens = [p * 3**20 for p in BIG_PRIMES[:3]]
    seen = set()
    for trial in range(60):
        family, members = UnlinkedFamily(), []  # (label, points, rationals)
        streams, joined_stream = trial % 2 == 1, False
        for label in range(10):
            L = rng.choice(dens)
            start, width = rng.randrange(L), L // rng.randrange(3, 40)
            size = rng.randrange(2, 5)
            pts = {F((start + rng.randrange(width)) % L, L) for _ in range(size)}
            if members and rng.random() < 0.3:  # share a vertex of a member
                pts.add(rng.choice(rng.choice(members)[2]))
            angles = [ang(x) for x in pts]
            rationals = sorted(pts)
            if streams and rng.random() < 0.4:
                known = [x for _, m, _ in members for x in m] + rationals
                s, lo = _stream_below_others(rng, known)
                angles.append(s)
                pts.add(lo)
            P = Polygon(angles)
            expected = {m for m, Q, _ in members if not oracle_unlinked(Q, sorted(pts))}
            assert family.linked(P) == expected
            assert family.add(P, label) == expected
            if not expected:
                members.append((label, sorted(pts), rationals))
                joined_stream |= P.den is None
            seen.add("linked" if expected else "unlinked")
            seen.add("stream" if P.den is None else "rational")
            seen.add("ints" if family.den is not None else "angles")
            L4 = BIG_PRIMES[4]
            q = sorted({F(rng.randrange(L4), L4) for _ in range(3)})
            assert family.linked(Polygon([ang(x) for x in q])) == {
                m for m, Q, _ in members if not oracle_unlinked(Q, q)
            }
        assert (family.den is None) == joined_stream
    assert seen == {"linked", "unlinked", "stream", "rational", "ints", "angles"}


def _label_pass_cases(q, members) -> set[str]:
    """The cases of ``UnlinkedFamily``'s label pass that a query with sorted
    points ``q`` meets against ``members`` [(label, sorted points)], read off
    the points: the arcs of q that hold each member's points, and q's most
    populated arcs."""
    if not members:
        return {"empty family"}
    N = len(q)
    at = {m: {(bisect_right(q, x) - 1) % N for x in Q} for m, Q in members}
    pop = Counter((bisect_right(q, x) - 1) % N for _, Q in members for x in Q)
    top = max(pop.values())
    largest = {a for a, c in pop.items() if c == top}
    cases = {"tied most populated arcs"} if len(largest) > 1 else set()
    for m, Q in members:
        if set(Q) & set(q):
            cases.add("shared vertex")
        elif len(at[m]) == 1:
            cases.add("inside the largest arc" if at[m] <= largest else
                      "inside a smaller arc")
        elif len(at[m] & largest) > 1:
            cases.add("split between tied arcs")
        elif at[m] & largest:
            cases.add("split between the largest arc and a smaller one")
        else:
            cases.add("in two smaller arcs")
    return cases


def test_label_pass_matches_oracle_in_every_case():
    """``linked`` and ``add``, which count labels outside the query's most
    populated arc against their cards, equal ``oracle_unlinked`` on every
    case of that pass: grid families over three denominators, some with a
    stream member; W1 clusters against the family that certified a W1
    orbit (cut once, interleaved, sharing a vertex) and 2-gons that split
    it, often in half; and the cross-pairs of a collection of two W1
    clusters, one of them interleaved with an iterate of the other."""
    rng = random.Random(1919)
    seen = set()

    def check(family, members, P, q):
        want = {m for m, Q in members if not oracle_unlinked(Q, q)}
        assert family.linked(P) == want
        seen.update(_label_pass_cases(q, members))
        return want

    for trial in range(80):
        family, members, grids = UnlinkedFamily(), [], set()
        for label in range(rng.randrange(1, 12)):
            g = rng.choice((48, 60, 77))
            start, width = rng.randrange(g), rng.randrange(1, g // 3)
            ks = rng.sample(range(width + 1), rng.randrange(2, min(5, width + 1) + 1))
            pts = sorted(F((start + k) % g, g) for k in ks)
            angles = [ang(x) for x in pts]
            if trial % 4 == 3 and rng.random() < 0.3:
                known = [x for _, Q in members for x in Q] + pts
                s, lo = _stream_below_others(rng, known)
                angles.append(s)
                pts = sorted([*pts, lo])
                seen.add("stream member")
            P = Polygon(angles)
            want = check(family, members, P, pts)
            assert family.add(P, label) == want
            if not want:
                members.append((label, pts))
                grids.add(g)
        if len(grids) > 1:
            seen.add("several denominators")

    d, H = 3, 40
    for p in BIG_PRIMES[:3]:
        b = _w1_points(F(rng.randrange(1, p), p), K=2 * H + 10)  # a runs ahead of b
        cert = certify_wandering(Polygon([ang(x) for x in b]), d, H, kiwi_precheck=False)
        assert cert.certified
        members = [(r.index, vertex_values(r.polygon)) for r in cert.records]
        listed = sorted(x for _, Q in members for x in Q)
        for _ in range(20):
            n = rng.randrange(H + 1)
            x = members[n][1]
            h = (x[1] - x[0]) / 2
            clusters = (
                _w1_points(F(rng.randrange(1, 10**9 + 9), 10**9 + 9)),  # cut once
                [y + h for y in x],  # interleaved with iterate n
                [x[0], x[0] + h, F(1, 2) + x[0] / 2],  # a shared vertex
            )
            for q in clusters:
                check(cert.family, members, Polygon([ang(y) for y in q]), sorted(q))
            V = len(listed)  # two arcs of i and V - i labels, often V / 2 each
            i = rng.choice((V // 2, rng.randrange(1, V)))
            q = [listed[0] / 2, (listed[i - 1] + listed[i]) / 2]
            check(cert.family, members, Polygon([ang(y) for y in q]), q)
        seen.add("W1 clusters against a large family")

        # a collection of b and a: a's iterates query b's family in order
        n = rng.randrange(H // 2)
        a = [y + (members[n][1][1] - members[n][1][0]) / 2 for y in members[n][1]]
        A = Polygon([ang(y) for y in a])
        first = None
        for m, r in enumerate(certify_wandering(A, d, H, kiwi_precheck=False).records):
            want = check(cert.family, members, r.polygon, vertex_values(r.polygon))
            if want and first is None:
                first = (m, min(want))
        assert first is not None and first[0] == 0
        with pytest.raises(CrossPairLinked) as exc:
            verify_collection_bound([A, cert.records[0].polygon], d, H, F(1, 64),
                                    kiwi_precheck=False)
        assert (exc.value.n, exc.value.m) == first
        seen.add("collection cross-pair")

    assert seen == {
        "empty family", "tied most populated arcs", "shared vertex",
        "inside the largest arc", "inside a smaller arc", "split between tied arcs",
        "split between the largest arc and a smaller one", "in two smaller arcs",
        "stream member", "several denominators", "W1 clusters against a large family",
        "collection cross-pair",
    }


# ---------------------------------------------------------------------------
# stream steps on one int enclosure per vertex against the ladder-only oracle

STEP_BUDGET = 256


def _prefix_value(x: Stream, j: int) -> F:
    """The value of the first j digits of x's digit stream, offset left out."""
    return point_enclosure(x._replace(offset=F(0)), j)[0]


@st.composite
def stream_polygons(draw, degrees=st.integers(2, 5), digits=st.integers(1, 70)):
    """A degree d = base from ``degrees`` and 2..5 points: at least one stream of
    either generator with a shift and an offset (none, random, just past
    the 0/1 seam after j digits, or its twin's plus base^-m, m around 64),
    the rest rationals (random, or inside a stream's j-digit enclosure);
    j is drawn from ``digits``."""
    d = draw(degrees)
    N = draw(st.integers(2, 5))
    points: list = []
    for _ in range(draw(st.integers(1, N))):
        kind = draw(st.sampled_from(["none", "random", "seam", "twin"]))
        streams = [x for x in points if isinstance(x, Stream)]
        if kind == "twin" and streams:
            x = draw(st.sampled_from(streams))
            m = draw(st.integers(56, 75))
            points.append(x._replace(offset=(x.offset + F(1, d**m)) % 1))
            continue
        name = draw(st.sampled_from(["thue_morse", "champernowne"]))
        x = Stream(name, d, draw(st.integers(0, 40)), F(0))
        if kind == "random":
            q = draw(st.integers(2, 10**6))
            x = x._replace(offset=F(draw(st.integers(0, q - 1)), q))
        elif kind == "seam":
            j = draw(digits)
            x = x._replace(offset=(1 - _prefix_value(x, j)) % 1)
        points.append(x)
    streams = [x for x in points if isinstance(x, Stream)]
    while len(points) < N:
        if draw(st.booleans()):
            q = draw(st.integers(2, 10**6))
            points.append(F(draw(st.integers(0, q - 1)), q))
        else:
            x, j = draw(st.sampled_from(streams)), draw(digits)
            points.append((x.offset + _prefix_value(x, j) + F(1, 2 * d**j)) % 1)
    return d, points


def _angle(x) -> Angle:
    if not isinstance(x, Stream):
        return ang(x)
    off = x.offset
    return parse_angle(
        f"gen:{x.name}?base={x.base}&shift={x.shift}"
        f"&offset={off.numerator}/{off.denominator}"
    )


def _spec(a: Angle):
    if a.source is None:
        return a.value
    return Stream(a.source.name, a.source.base, a.shift, a.offset)


def _package_step(P: Polygon, d: int, budget) -> tuple:
    """The package's step of P as ``ladder_step`` reports it, and the next
    iterate (None on a collision)."""
    got = {"vertices": [_spec(v) for v in P.vertices]}
    try:
        nxt, landing = geometry._image_sort(P, d, budget)
    except NotInjectiveError:
        return None, dict(got, images=None)
    prof = hole_profile(P, d, budget)
    cert = geometry._orientation(landing, prof, d)
    return nxt, dict(
        got,
        images=[_spec(v) for v in nxt.vertices],
        landing=list(landing),
        sizes=list(prof.sizes_cyclic),
        floors=list(prof.floors),
        remainders=list(prof.remainders_cyclic),
        order=list(prof.order),
        verdict=cert.verdict,
    )


def _enclosure(x, k):
    lo, hi, den = x.interval(k)
    return F(lo, den), F(hi, den)


@given(stream_polygons())
@settings(max_examples=150, deadline=None)
def test_stream_step_matches_the_ladder_only_oracle(case):
    """Two orbit steps of a polygon with stream vertices, each decided on
    one 64-digit int enclosure per vertex and, where that leaves a decision
    open, on the compare ladder's rungs above 64 digits, agree with the
    oracle that decides everything rung by rung: vertex and image order,
    landing, ranks, floors, the orientation verdict and each size's and
    remainder's enclosures from 64 to 70 digits, which nest from k to k+1.
    The two fail together: unresolved within the budget, or a collision."""
    d, points = case
    assume(len(set(points)) == len(points))
    budget = PrecisionBudget(STEP_BUDGET)
    try:
        ladder_sort(points, STEP_BUDGET)
    except LadderUnresolved:
        with pytest.raises(UnresolvedComparison):
            Polygon([_angle(x) for x in points], budget)
        return
    P, specs = Polygon([_angle(x) for x in points], budget), points
    for _ in range(2):
        try:
            want = ladder_step(specs, d, STEP_BUDGET)
        except LadderUnresolved:
            with pytest.raises(UnresolvedComparison):
                _package_step(P, d, budget)
            return
        nxt, got = _package_step(P, d, budget)
        if want["images"] is None:
            assert got == want
            return
        pairs = list(zip(got.pop("sizes") + got.pop("remainders"),
                         want.pop("sizes") + want.pop("remainders")))
        assert got == want
        for g, w in pairs:
            assert isinstance(g, F) == isinstance(w, F)
            if isinstance(w, F):
                assert g == w
                continue
            for k in range(64, 71):
                assert _enclosure(g, k) == w.at(k)
                (lo, hi), (lo1, hi1) = w.fn(k), w.fn(k + 1)
                assert lo <= lo1 <= hi1 <= hi
        P, specs = nxt, want["images"]


_TM2 = Stream("thue_morse", 2, 0, F(0))


@given(stream_polygons(st.integers(2, 3)))
# a 64-digit enclosure on the 0/1 seam for four steps, between two rationals
@example((2, [_TM2._replace(offset=1 - _prefix_value(_TM2, 68)), F(1, 3), F(2, 3)]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_stream_orbit_steps_over_one_denominator(case):
    """Along eight steps of a stream orbit of degree 2 or 3, each iterate
    carries its vertices' k*-digit enclosures over T_0's denominator D, and
    as rationals they are the vertices' enclosures computed afresh over
    their lcm (an enclosure on the 0/1 seam is the whole circle in both).
    Its order, floors, landing and orientation verdict are those of a
    polygon built from scratch on the same vertices."""
    d, points = case
    assume(len(set(points)) == len(points))
    budget = PrecisionBudget(STEP_BUDGET)
    records = []
    with contextlib.suppress(UnresolvedComparison, NotInjectiveError):
        P = Polygon([_angle(x) for x in points], budget)
        records.extend(orbit._records(P, d, 8, budget))
    for rec in records:
        vs = rec.polygon.vertices
        k, bounds, D = rec.polygon.enclosures
        assert D == records[0].polygon.enclosures[2]
        fresh, E = geometry._over_lcm([v.interval(k) for v in vs])
        assert [(F(lo, D), F(hi, D)) for lo, hi in bounds] == [
            (F(lo, E), F(hi, E)) for lo, hi in fresh
        ]
        Q = Polygon(vs, budget)
        _, landing = geometry._image_sort(Q, d, budget)
        want = hole_profile(Q, d, budget)
        verdict = geometry._orientation(landing, want, d).verdict
        got = rec.profile
        assert (got.order, got.floors, rec.landing, rec.orientation.verdict) == (
            want.order, want.floors, landing, verdict)


def _size_oracle(vs, i: int, k: int) -> tuple[F, F]:
    """Bounds on hole i's size from k-digit ``point_enclosure``s of its
    ends, one turn added past 0, clamped to [0, 1]."""
    ends = vs[i], vs[(i + 1) % len(vs)]
    (ulo, uhi), (wlo, whi) = (point_enclosure(_spec(v), k) for v in ends)
    turn = 1 if i == len(vs) - 1 else 0
    return max(F(0), wlo + turn - uhi), min(F(1), whi + turn - ulo)


@given(stream_polygons(), st.sampled_from([8, 32, 64, 128]))
@settings(max_examples=200, deadline=None)
def test_carried_enclosures_give_the_fresh_profile(case, digits):
    """Along four steps of a stream orbit, each iterate's profile, computed
    from the k*-digit enclosures its polygon carries (T_0's from its
    construction, a later iterate's from its step), has the order, floors
    and size bounds (as rationals) of the profile of a fresh polygon on the
    same vertices.  Sizes read afterwards, at k* and at the budget, enclose
    the sizes' bounds from 300-digit ``point_enclosure``s.  A size's bounds
    are one point exactly for the sizes between two rational vertices.
    ``size_bounds`` gives them while no value was built, and the built
    value's k*-digit enclosure afterwards, nested in them and tightened by
    a later refinement."""
    d, points = case
    assume(len(set(points)) == len(points))
    budget = PrecisionBudget(digits)
    k = min(64, digits)
    records = []
    with contextlib.suppress(UnresolvedComparison, NotInjectiveError):
        P = Polygon([_angle(x) for x in points], budget)
        records.extend(orbit._records(P, d, 4, budget))
    for rec in records:
        got, vs = rec.profile, rec.polygon.vertices
        assert rec.polygon.enclosures[0] == k
        want = hole_profile(Polygon(vs, budget), d, budget)
        assert (got.order, got.floors, got.k) == (want.order, want.floors, k)
        assert [(F(lo, got.D), F(hi, got.D)) for lo, hi in got.bounds] == [
            (F(lo, want.D), F(hi, want.D)) for lo, hi in want.bounds
        ]
        for rank in range(1, got.card + 1):
            i = got.order[rank - 1]
            exact = vs[i].source is None and vs[(i + 1) % len(vs)].source is None
            blo, bhi = F(got.bounds[i][0], got.D), F(got.bounds[i][1], got.D)
            assert (blo == bhi) == exact
            built = got._sizes[i] is not None
            if not built:
                assert got.size_bounds(rank) == (*got.bounds[i], got.D)
            s = got.size(rank)
            assert isinstance(s, F) == exact
            if not built:  # built from its bounds
                assert ((s, s) if exact else _enclosure(s, k)) == (blo, bhi)
            olo, ohi = _size_oracle(vs, i, 300)
            for j in (k, digits):
                lo, hi = (s, s) if exact else _enclosure(s, j)
                assert lo <= olo <= ohi <= hi
            lo, hi, den = got.size_bounds(rank)
            assert (F(lo, den), F(hi, den)) == ((s, s) if exact else _enclosure(s, k))
            assert blo <= F(lo, den) <= F(hi, den) <= bhi


_TM4 = Stream("thue_morse", 4, 209, F(0))


@st.composite
def colliding_stream_polygons(draw):
    """``stream_polygons`` with j often around 64, and in half the cases
    one more point: a copy of a point moved by j/d^t (1 <= j < d), whose
    image meets that point's at step t - 1."""
    d, points = draw(stream_polygons(digits=st.one_of(st.integers(1, 70),
                                                      st.integers(60, 72))))
    if len(points) < 5 and draw(st.booleans()):
        x = draw(st.sampled_from(points))
        delta = F(draw(st.integers(1, d - 1)), d ** draw(st.integers(1, 3)))
        if isinstance(x, Stream):
            points = [*points, x._replace(offset=(x.offset + delta) % 1)]
        else:
            points = [*points, (x + delta) % 1]
    return d, points


@given(colliding_stream_polygons())
@example((4, [_TM4, F(0), F(2, 3)]))  # the stream-orbit triangle
@example((2, [_TM2, _TM2._replace(offset=F(1, 2)), F(1, 3)]))  # stream images collide
@example((3, [_TM2._replace(base=3), F(1, 9), F(4, 9)]))  # rational images collide
@example((2, [_TM2._replace(offset=1 - _prefix_value(_TM2, 66)), F(1, 3), F(2, 3)]))
@example((4, [_TM4, _prefix_value(_TM4, 64) + F(1, 2 * 4**66), F(2, 3)]))  # overlap at 64
@settings(max_examples=150, deadline=None)
def test_orbit_step_records_match_the_400_digit_oracle(case):
    """Each ``orbit_step`` record of a stream orbit (budget 256) has the
    vertex order, ``landing``, rank order, floors and orientation verdict
    of ``enclosure_step`` on 400-digit Fraction enclosures, which decides
    whatever the package decides within 256 digits: so where it leaves a
    decision open, the package is out of digits.  A step whose images
    collide raises NonInjectiveAtStep at that step, with the colliding pair
    the oracle's comparison sort meets first (the one ``ccw_order`` names).
    The cases put a stream just past the 0/1 seam, a rational or a twin
    stream within base^-64 of a stream, and images that collide."""
    d, points = case
    assume(len(set(points)) == len(points))
    budget = PrecisionBudget(STEP_BUDGET)
    try:
        P = Polygon([_angle(x) for x in points], budget)
    except UnresolvedComparison:
        return
    records, error = [], None
    try:
        records.extend(orbit._records(P, d, 6, budget))
    except (NotInjectiveError, UnresolvedComparison) as exc:
        error = exc
    specs = points
    for rec in records:
        want = enclosure_step(specs, d)
        assert want["images"] is not None
        P, p = rec.polygon, rec.profile
        got = {"vertices": [_spec(v) for v in P.vertices], "landing": list(rec.landing),
               "order": list(p.order), "floors": list(p.floors),
               "verdict": rec.orientation.verdict}
        assert got == {key: want[key] for key in got}
        specs = want["images"]
    if error is None:
        return
    try:
        want = enclosure_step(specs, d)
    except EnclosureUndecided:
        assert isinstance(error, UnresolvedComparison)
        return
    if isinstance(error, UnresolvedComparison):
        return  # decided within 400 digits, not within 256
    assert want["images"] is None
    assert tuple(map(_spec, error.pair)) == want["pair"]
    with pytest.raises(NonInjectiveAtStep) as exc:
        iterate_orbit(Polygon([_angle(x) for x in points], budget), d, 6, budget)
    assert exc.value.step == len(records)
    assert tuple(map(_spec, exc.value.__cause__.pair)) == want["pair"]


def test_stream_iterate_builds_no_rational_angle(monkeypatch, capsys):
    """A stream orbit's step maps only its stream vertex: the rational
    vertices' images are read off their int pairs, and the report prints
    them from those pairs.  So ``orbit -d 4 --horizon 200`` on a stream and
    two rationals builds the three parsed literals' ``Angle``s and one
    image ``Angle`` per orbit step (201 steps, T_0 .. T_200), where the
    image sort used to build 603.  A stream iterate's rational slots stay
    empty until ``vertices`` is read; once filled, the iterate is equal to,
    and hashes as, a polygon built afresh on its vertices, which are the
    images of the previous iterate's vertices."""
    argv = ["orbit", "-d", "4", "--horizon", "200",
            "gen:thue_morse?base=4&shift=209", "0/1", "2/3"]
    built = []
    init = Angle.__init__

    def counting(self, n, q, source=None, *rest):
        built.append(source is not None)  # a stream angle
        init(self, n, q, source, *rest)

    monkeypatch.setattr(Angle, "__init__", counting)
    assert main(argv) == 0
    assert (len(built), built.count(True)) == (3 + 201, 1 + 201)
    monkeypatch.undo()
    capsys.readouterr()

    P = Polygon([parse_angle(t) for t in argv[5:]])
    records = iterate_orbit(P, 4, 6)
    for prev, rec in zip(records, records[1:]):
        Q = rec.polygon
        assert Q._vertices.count(None) == 2  # the two rationals, not yet built
        assert Q.card == 3
        vs = Q.vertices
        assert None not in Q._vertices
        fresh = Polygon(vs)
        assert Q == fresh and hash(Q) == hash(fresh)
        assert set(vs) == {angles.map_angle(v, 4) for v in prev.polygon.vertices}


# ---------------------------------------------------------------------------
# rho with stream endpoints against the oracle on truncations


@st.composite
def stream_chord_ends(draw):
    """The four endpoints of two chords over one base in 2..5: a stream of
    either generator with a shift and maybe an offset, then streams,
    rationals and repeats of earlier endpoints (shared endpoints and
    degenerate chords), in any order."""
    base = draw(st.integers(2, 5))
    ends: list = []
    while len(ends) < 4:
        kinds = ["stream", "rational", "repeat"] if ends else ["stream"]
        kind = draw(st.sampled_from(kinds))
        if kind == "stream":
            name = draw(st.sampled_from(["thue_morse", "champernowne"]))
            x = Stream(name, base, draw(st.integers(0, 40)), F(0))
            if draw(st.booleans()):
                q = draw(st.integers(2, 10**6))
                x = x._replace(offset=F(draw(st.integers(0, q - 1)), q))
            ends.append(x)
        elif kind == "rational":
            ends.append(draw(st.fractions(0, 1).filter(lambda f: f < 1)))
        else:
            ends.append(draw(st.sampled_from(ends)))
    return draw(st.permutations(ends))


TM2 = Stream("thue_morse", 2, 0, F(0))


@given(stream_chord_ends())
@example([TM2, F(3, 4), F(1, 4), F(1, 2)])  # 0.0110... lies in (1/4, 1/2): crossing
@example([TM2, F(1, 2), TM2, F(3, 4)])  # a shared stream endpoint
@example([TM2, TM2, F(1, 4), F(3, 4)])  # a stream point against a chord
@settings(max_examples=200, deadline=None)
def test_rho_of_stream_chords_encloses_the_oracle(ends):
    """The 64-digit enclosure of rho on chords with a stream endpoint holds
    ``oracle_rho`` of the endpoints' 300-digit truncations, and rho raises
    ChordsCrossError exactly when those truncations cross."""
    cuts = [point_enclosure(x, 300) for x in ends]
    assume(all(hi - lo < 1 for lo, hi in cuts))  # no enclosure straddles the seam
    a, b, c, e = (lo for lo, _ in cuts)
    p, q = Chord(*map(_angle, ends[:2])), Chord(*map(_angle, ends[2:]))
    a, b = sorted((a, b))
    if len({a, b, c, e}) == 4 and (a < c < b) != (a < e < b):
        with pytest.raises(ChordsCrossError):
            rho(p, q)
        return
    lo, hi, den = angles.value_interval(rho(p, q), 64)
    assert F(lo, den) <= oracle_rho((a, b), (c, e)) <= F(hi, den)
