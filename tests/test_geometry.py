import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywander import (
    Angle,
    Arc,
    Chord,
    ChordsCrossError,
    DegenerateChordError,
    NotInjectiveError,
    Polygon,
    PreconditionError,
    critical_strip,
    hole_profile,
    image_hole,
    is_orientation_preserving,
    parse_angle,
    remainder,
    rho,
    unlinked,
)

from polywander import NonInjectiveAtStep, certify_wandering, geometry, iterate_orbit
from polywander.geometry import UnlinkedFamily

from oracles import (
    f_map,
    holes_of,
    oracle_collision_step,
    oracle_cyclic_order,
    oracle_injective,
    oracle_landing,
    oracle_profile,
    oracle_rho,
    oracle_unlinked,
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
    assert prof.sizes_by_rank() == [F(1, 7), F(1, 7), F(5, 7)]
    assert sorted(prof.remainders_cyclic) == [F(1, 7), F(1, 7), F(3, 14)]
    assert prof.remainder_sum == F(1, 2)


def test_hole_profile_halves():
    prof = hole_profile(poly(0, F(1, 2)), 2)
    assert prof.sizes_by_rank() == [F(1, 2), F(1, 2)]
    assert list(prof.remainders_cyclic) == [0, 0]


def test_hole_profile_decimals():
    prof = hole_profile(poly("0.05", "0.3", "0.6"), 2)
    assert prof.sizes_by_rank() == [F(1, 4), F(3, 10), F(9, 20)]
    assert prof.sizes_by_rank() == [prof.remainder(k) for k in (1, 2, 3)]
    assert prof.remainder_sum == 1


def test_hole_profile_tie_break_is_ccw_from_zero():
    prof = hole_profile(poly("0.30", "0.31", "0.32"), 2)
    # two holes of size 1/100; rank 1 goes to the one starting at 0.30
    assert prof.hole(1).start.value == F(30, 100)
    assert prof.hole(2).start.value == F(31, 100)


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
    assert h.length() == F(3, 10)

    h = image_hole(Arc(ang(F(2, 7)), ang(0)), 2)
    assert (h.start.value, h.end.value) == (F(4, 7), F(0))
    assert h.length() == F(3, 7) == 2 * remainder(F(5, 7), 2)

    h = image_hole(Arc(ang("0.45"), ang("0.96")), 2)
    assert (h.start.value, h.end.value) == (F(9, 10), F(23, 25))
    assert h.length() == F(1, 50)

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
    assert w.length() == F(1, 2)


def test_orientation_false():
    cert = is_orientation_preserving(poly("0.05", "0.3", "0.6"), 2)
    assert cert.verdict is False
    assert cert.witness_arcs is None
    assert cert.remainder_sum == 1


def test_orientation_not_injective():
    with pytest.raises(NotInjectiveError):
        is_orientation_preserving(poly(0, F(1, 4), F(1, 2), F(3, 4)), 2)


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
        assert [a.value for a in family.angles] == sorted(
            v.value for _, Q in members for v in Q.vertices
        )
        assert len(members) > 1


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
@settings(max_examples=300)
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
@settings(max_examples=200)
def test_rho_matches_arc_sum_oracle(vals):
    a1, a2, a3, a4 = sorted(vals)
    p, q = chord(a1, a2), chord(a3, a4)
    assert rho(p, q) == oracle_rho((a1, a2), (a3, a4))


# ---------------------------------------------------------------------------
# critical strips


def test_critical_strip_example():
    s = critical_strip(Arc(ang("0.1"), ang("0.75")), 2, 1)
    assert s.start_lo.value == F(1, 10)
    assert s.start_hi.value == F(1, 4)
    assert s.rho_value == F(3, 20)
    # sampled strip chords {c, c + j/d} are critical and sit at rho_value
    # from the edge
    edge = chord("0.1", "0.75")
    d = s.degree
    for c in (F(1, 10), F(3, 20), F(1, 4)):
        ch = chord(c, c + F(s.j, d))
        a, b = ch.a.value, ch.b.value
        assert a != b and (d * (b - a)) % 1 == 0
        assert rho(edge, ch) == F(3, 20)


def test_critical_strip_jump_hole():
    s = critical_strip(Arc(ang("0.45"), ang("0.96")), 2, 1)
    assert (s.start_lo.value, s.start_hi.value) == (F(9, 20), F(23, 50))
    assert s.rho_value == F(1, 100)


def test_critical_strip_precondition():
    with pytest.raises(PreconditionError):
        critical_strip(Arc(ang(0), ang("0.4")), 2, 1)
    with pytest.raises(PreconditionError):
        critical_strip(Arc(ang("0.1"), ang("0.75")), 2, 2)


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
    polygons agree with plain-Fraction restatements."""
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
        for rec in records:
            vals = [v.value for v in rec.polygon.vertices]
            assert list(rec.landing) == oracle_landing(vals, d)
            assert rec.orientation.verdict == oracle_cyclic_order(vals, d)
        if oracle_injective(pts, d):
            assert is_orientation_preserving(P, d).verdict == oracle_cyclic_order(pts, d)
    assert ties > 50 and collisions > 50


def test_mixed_polygon_keeps_the_enclosure_path():
    """One stream vertex among rationals: the profile holds enclosures and
    every size's and remainder's 64-digit enclosure contains the oracle's
    value at the stream's lower bound."""
    s = parse_angle("gen:thue_morse?base=4")
    P = Polygon([s, ang(F(1, 3)), ang(F(2, 3))])
    prof = hole_profile(P, 4)
    assert prof.den is None
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


def test_rational_orbit_step_does_not_compare_angles(monkeypatch):
    """A rational W1-style quadrilateral certifies to horizon 20 with the
    compare-based sort and arc lengths switched off: image sort, hole
    profile and orientation run on ints."""
    delta = F(1, 3 * 4 * 3 * 3**40)
    pts = [F(1, 1000003)]
    for m in (1, 3, 2):
        pts.append(pts[-1] + m * delta)
    P = Polygon([ang(x) for x in pts])
    monkeypatch.setattr(geometry, "ccw_order", lambda *a: pytest.fail("ccw_order"))
    monkeypatch.setattr(geometry, "arc_length", lambda *a: pytest.fail("arc_length"))
    cert = certify_wandering(P, 3, 20, kiwi_precheck=False)
    assert cert.certified and len(cert.records) == 21
