from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywander import (
    EQ,
    GT,
    LT,
    Angle,
    AngleSyntaxError,
    PrecisionBudget,
    UnknownGeneratorError,
    UnresolvedComparison,
    arc_length,
    compare,
    format_angle,
    map_angle,
    parse_angle,
    refine,
    register_generator,
)
from polywander.angles import angle_sorted

fractions_01 = st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1)


def test_parse_rational():
    assert parse_angle("3/7").value == F(3, 7)


def test_parse_periodic_stream_folds_to_rational():
    assert parse_angle("2:(01)").value == F(1, 3)
    assert parse_angle("2:1(0)").value == F(1, 2)


def test_parse_decimal():
    assert parse_angle("0.45").value == F(45, 100)


def test_parse_reduces_mod_one():
    assert parse_angle("9/7").value == F(2, 7)


def test_parse_errors():
    with pytest.raises(AngleSyntaxError):
        parse_angle("1/0")
    with pytest.raises(AngleSyntaxError):
        parse_angle("2:21")  # digit 2 in base 2
    with pytest.raises(UnknownGeneratorError):
        parse_angle("gen:nope")
    with pytest.raises(AngleSyntaxError):
        parse_angle("garbage")
    with pytest.raises(AngleSyntaxError):
        parse_angle("2:")


@pytest.mark.parametrize("shift", ["-5", "-1"])
def test_negative_generator_shift_rejected(shift):
    # -5 indexed past the front of the digit cache; -1 read its last digit,
    # so enclosures at growing k stopped nesting
    with pytest.raises(AngleSyntaxError):
        parse_angle(f"gen:thue_morse?shift={shift}")
    with pytest.raises(AngleSyntaxError):
        Angle.from_generator("thue_morse", {"shift": shift})


def test_zero_denominator_generator_offset_rejected():
    with pytest.raises(AngleSyntaxError):
        parse_angle("gen:thue_morse?offset=1/0")


def test_generator_literal_roundtrip():
    a = parse_angle("gen:thue_morse?base=4")
    assert compare(parse_angle(format_angle(a)), a) == EQ


@given(fractions_01)
def test_rational_print_parse_roundtrip(v):
    a = Angle.from_fraction(v)
    assert parse_angle(format_angle(a)).value == a.value


def test_map_angle_examples():
    assert map_angle(parse_angle("3/7"), 2).value == F(6, 7)
    assert map_angle(parse_angle("5/7"), 3).value == F(1, 7)
    # 2:01(10) = 5/12; the shifted stream 2:1(10) = 5/6 is its image
    assert parse_angle("2:01(10)").value == F(5, 12)
    assert map_angle(parse_angle("2:01(10)"), 2).value == parse_angle("2:1(10)").value


def test_map_stream_shifts():
    a = parse_angle("gen:thue_morse?base=2")
    b = map_angle(a, 2)
    assert b.shift == a.shift + 1
    with pytest.raises(Exception):
        map_angle(a, 3)  # base mismatch


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_map_distributes_over_representation(d, pre, per):
    pre = [x % d for x in pre]
    per = [x % d for x in per]
    lit = f"{d}:{''.join(map(str, pre))}({''.join(map(str, per))})"
    v = parse_angle(lit).value
    assert map_angle(parse_angle(lit), d).value == (d * v) % 1


def test_compare_examples():
    assert compare(parse_angle("1/3"), parse_angle("2:(01)")) == EQ
    assert compare(parse_angle("1/3"), parse_angle("2/5")) == LT
    assert compare(parse_angle("2/5"), parse_angle("1/3")) == GT


def test_compare_unresolved_within_budget():
    # digits 0101... agree with 1/3 forever, but the generator is opaque
    register_generator("alt01", lambda params: (2, lambda i: i & 1))
    a = Angle.from_generator("alt01")
    with pytest.raises(UnresolvedComparison):
        compare(a, parse_angle("1/3"), PrecisionBudget(max_digits=64))


def test_compare_stream_resolves():
    a = parse_angle("gen:thue_morse?base=2")  # 0.0110...
    assert compare(a, parse_angle("1/2")) == LT
    assert compare(a, parse_angle("1/4")) == GT
    assert compare(a, a) == EQ


def test_arc_length_examples():
    assert arc_length(parse_angle("1/4"), parse_angle("1/10")) == F(17, 20)
    assert arc_length(parse_angle("0/1"), parse_angle("1/7")) == F(1, 7)
    a = parse_angle("3/8")
    assert arc_length(a, a) == 0


@given(fractions_01, fractions_01)
def test_arc_length_complement(u, w):
    if u == w:
        return
    au, aw = Angle.from_fraction(u), Angle.from_fraction(w)
    assert arc_length(au, aw) + arc_length(aw, au) == 1


def test_arc_length_stream_bounds():
    a = parse_angle("gen:thue_morse?base=2")
    L = arc_length(parse_angle("0/1"), a)
    lo, hi = L.bounds(16)
    assert lo <= hi and hi - lo <= F(1, 2**16)


def test_refine_examples():
    register_generator("alt01b", lambda params: (2, lambda i: i & 1))
    a = Angle.from_generator("alt01b")  # value 1/3
    enc = refine(a, 2)
    assert enc.lower == F(1, 4) and enc.width == F(1, 4)
    assert refine(parse_angle("0/1"), 10).width == 0


def test_refine_nests():
    a = parse_angle("gen:thue_morse?base=2")
    prev = refine(a, 1)
    for k in range(2, 12):
        cur = refine(a, k)
        assert cur.width < prev.width
        assert prev.contains(cur.lower)
        prev = cur


@given(st.lists(fractions_01, min_size=1, max_size=12, unique=True))
def test_sorting_matches_fraction_order(vals):
    out = angle_sorted([Angle.from_fraction(v) for v in vals])
    assert [a.value for a in out] == sorted(vals)


def test_digit_generator_is_deterministic_and_validated():
    a = parse_angle("gen:champernowne?base=3")
    first = [a.source.digit(i) for i in range(20)]
    again = [a.source.digit(i) for i in range(20)]
    assert first == again
    # base-3 champernowne starts 1 2 10 11 12 20 ...
    assert first[:8] == [1, 2, 1, 0, 1, 1, 1, 2]
