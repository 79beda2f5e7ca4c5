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
    critical_value,
    hole_containing,
    hole_profile,
    image_hole,
    is_critical,
    is_orientation_preserving,
    parse_angle,
    remainder,
    rho,
    unlinked,
)

from polywander.geometry import UnlinkedFamily

from oracles import oracle_rho


def ang(x) -> Angle:
    return Angle.from_fraction(F(x) if not isinstance(x, str) else F(x))


def poly(*vals) -> Polygon:
    return Polygon([ang(v) for v in vals])


def chord(a, b) -> Chord:
    return Chord(ang(a), ang(b))


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
    # vertices and interleaved, in every mix
    rng = random.Random(404)
    for _ in range(200):
        family, members = UnlinkedFamily(), []
        for label in range(12):
            start, width = rng.randrange(48), rng.randrange(1, 16)
            ks = rng.sample(range(width + 1), rng.randrange(2, min(5, width + 1) + 1))
            P = poly(*(F((start + k) % 48, 48) for k in ks))
            expected = {m for m, Q in members if not unlinked(Q, P)}
            assert family.linked(P) == expected
            assert family.add(P, label) == expected
            if not expected:
                members.append((label, P))
                assert family.linked(P) == {label}
        assert [a.value for a in family.angles] == sorted(
            v.value for _, Q in members for v in Q.vertices
        )
        assert len(members) > 1


def test_hole_containing():
    Q = poly("0.3", "0.32", "0.34")
    B = poly("0.1", "0.2", "0.5", "0.9")
    arc, length = hole_containing(Q, B, F(1, 5))
    assert (arc.start.value, arc.end.value) == (F(1, 5), F(1, 2))
    assert length == F(3, 10) > F(1, 5)

    with pytest.raises(PreconditionError):
        hole_containing(poly("0.1", "0.3", "0.5"), poly("0.2", "0.4", "0.6"), F(1, 10))
    with pytest.raises(PreconditionError):
        hole_containing(Q, B, F(2, 5))  # only one hole of B reaches 2/5


# ---------------------------------------------------------------------------
# critical chords and rho


def test_is_critical_examples():
    c = chord(F(1, 4), F(3, 4))
    assert is_critical(c, 2) is True
    assert critical_value(c, 2).value == F(1, 2)
    c = chord(0, F(1, 3))
    assert is_critical(c, 3) is True
    assert critical_value(c, 3).value == 0
    assert is_critical(c, 2) is False
    with pytest.raises(DegenerateChordError):
        is_critical(chord(0, 0), 2)


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
    # sampled strip chords are critical and sit at rho_value from the edge
    edge = chord("0.1", "0.75")
    for c in (F(1, 10), F(3, 20), F(1, 4)):
        ch = s.chord_at(ang(c))
        assert is_critical(ch, 2)
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
