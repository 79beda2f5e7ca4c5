import random
from fractions import Fraction as F
from math import floor, gcd

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
    register_generator,
    shift_angle,
)
from polywander.angles import (
    ONE,
    ZERO,
    _champernowne_factory,
    _dec12,
    ccw_order,
    cmp_values,
    floor_scaled,
    scale_value,
    sum_values,
)
from polywander.geometry import remainder

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


def test_generator_literal_sorts_its_parameters():
    """One stream written in several ways (keys in any order, the base
    zero-padded or left at its default 2, a zero shift or offset spelled
    out, an offset past 1) is one angle: equal, with one hash and one
    printed literal.  A key other than base, shift and offset is an error
    that names it."""
    spellings = [
        ("gen:thue_morse?offset=5/4&shift=2&base=4",
         "gen:thue_morse?base=04&shift=2&offset=1/4",
         "gen:thue_morse?base=4&shift=2&offset=1/4"),
        ("gen:thue_morse",
         "gen:thue_morse?base=2&shift=0&offset=0",
         "gen:thue_morse?base=2"),
        ("gen:champernowne?shift=3",
         "gen:champernowne?offset=2/2&base=002&shift=03",
         "gen:champernowne?base=2&shift=3"),
    ]
    for x, y, literal in spellings:
        a, b = parse_angle(x), parse_angle(y)
        assert a == b and hash(a) == hash(b)
        assert format_angle(a) == format_angle(b) == literal
        assert parse_angle(literal) == a
    assert parse_angle("gen:thue_morse?base=4") != parse_angle("gen:thue_morse?base=2")
    for literal in ["gen:thue_morse?base=2&foo=1", "gen:thue_morse?z=1&base=4"]:
        with pytest.raises(AngleSyntaxError, match="gen:thue_morse takes only "
                           "base, shift and offset, got '(foo|z)'"):
            parse_angle(literal)
    with pytest.raises(AngleSyntaxError, match=r"got 'k{24}'\.\.\."):
        Angle.from_generator("champernowne", {"k" * 30: "1"})


@given(fractions_01)
@settings(deadline=None)
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
@settings(max_examples=300, deadline=None)
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
    register_generator("alt01", lambda base: lambda i: i & 1)
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
@settings(deadline=None)
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
    register_generator("alt01b", lambda base: lambda i: i & 1)
    a = Angle.from_generator("alt01b")  # value 1/3
    assert a.enclosure_bounds(2) == (F(1, 4), F(1, 2))
    assert parse_angle("0/1").enclosure_bounds(10) == (ZERO, ZERO)


@given(st.lists(fractions_01, min_size=1, max_size=12, unique=True))
@settings(deadline=None)
def test_sorting_matches_fraction_order(vals):
    order, tie = ccw_order([Angle.from_fraction(v) for v in vals])
    assert [vals[i] for i in order] == sorted(vals)
    assert tie is None


def test_digit_generator_is_deterministic_and_validated():
    a = parse_angle("gen:champernowne?base=3")
    first = [a.source.digit(i) for i in range(20)]
    again = [a.source.digit(i) for i in range(20)]
    assert first == again
    # base-3 champernowne starts 1 2 10 11 12 20 ...
    assert first[:8] == [1, 2, 1, 0, 1, 1, 1, 2]
    # a shifted stream caches from its shift on and computes the digits
    # below it on request, after and before the cache fills
    b = parse_angle("gen:champernowne?base=3&shift=7")
    assert [b.source.digit(i) for i in range(20)] == first
    assert [b.source.digit(i) for i in range(19, -1, -1)] == first[::-1]
    assert b.source.prefix_numerator(7, 5) == a.source.prefix_numerator(7, 5)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_champernowne_digits_match_the_concatenated_numerals(base):
    """``gen:champernowne`` digits against the numerals 1, 2, 3, 10, ...
    of the base written out and joined, over the first 5,000 indices: read
    in order, backwards and in a seeded random order (the generator walks
    on from the block of the index it read last)."""

    def numeral(n):
        text = ""
        while n:
            n, r = divmod(n, base)
            text = "0123456789"[r] + text
        return text

    text, n = "", 1
    while len(text) < 5000:
        text, n = text + numeral(n), n + 1
    want = [int(c) for c in text[:5000]]
    indices = list(range(5000))
    shuffled = random.Random(base).sample(indices, len(indices))
    for order in (indices, indices[::-1], shuffled):
        digit = _champernowne_factory(base)
        assert [digit(i) for i in order] == [want[i] for i in order]


# ---------------------------------------------------------------------------
# the integer rational path against plain Fraction arithmetic

# denominators built from 2, 3 and a small cofactor, so they often share
# factors with the degree and the map shrinks them
denominators = st.builds(
    lambda e2, e3, m: 2**e2 * 3**e3 * m,
    st.integers(0, 40),
    st.integers(0, 25),
    st.integers(1, 60),
)
rationals = st.one_of(
    st.just(F(0)),
    st.builds(lambda n, q: F(n % q, q), st.integers(min_value=0), denominators),
)
degrees = st.integers(min_value=2, max_value=6)


def _sign(x: F) -> int:
    return LT if x < 0 else GT if x > 0 else EQ


def _canonical(a: Angle, v: F) -> bool:
    return (a.n, a.q) == (v.numerator, v.denominator) and a.value == v


@given(rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_integer_compare_and_arc_length_match_fractions(u, w):
    au, aw = Angle.from_fraction(u), Angle.from_fraction(w)
    assert compare(au, aw) == _sign(u - w)
    assert arc_length(au, aw) == (w - u) % 1
    assert (au == aw) == (u == w)
    if u == w:
        assert hash(au) == hash(aw)


@given(rationals, degrees)
@settings(max_examples=300, deadline=None)
def test_integer_map_matches_fractions(u, d):
    img = map_angle(Angle.from_fraction(u), d)
    assert _canonical(img, (d * u) % 1)
    assert img.q == u.denominator // gcd(d, u.denominator)
    # a rational on the same denominator compares by numerators alone
    same_q = Angle.from_fraction(F(img.q - 1, img.q))
    assert compare(img, same_q) == _sign(img.value - same_q.value)


@given(rationals, st.fractions(min_value=-3, max_value=3))
@settings(max_examples=300, deadline=None)
def test_integer_shift_matches_fractions(u, delta):
    assert _canonical(shift_angle(Angle.from_fraction(u), delta), (u + delta) % 1)


@given(rationals, st.integers(1, 12))
@settings(deadline=None)
def test_unreduced_literals_are_canonical(u, k):
    lit = f"{k * u.numerator}/{k * u.denominator}"
    a = parse_angle(lit)
    assert _canonical(a, u)
    assert a == Angle.from_fraction(u) and hash(a) == hash(Angle.from_fraction(u))
    assert format_angle(a) == f"{u.numerator}/{u.denominator}"


def test_map_shrinks_shared_denominator():
    img = map_angle(parse_angle("1/4"), 2)
    assert img == parse_angle("2/4") == parse_angle("1/2")
    assert (img.n, img.q) == (1, 2)
    assert map_angle(parse_angle("1/2"), 2) == parse_angle("0/1")
    zero = map_angle(parse_angle("0/1"), 5)
    assert (zero.n, zero.q) == (0, 1)
    assert map_angle(parse_angle("5/12"), 6) == parse_angle("1/2")


def test_rational_value_and_bounds_are_exact():
    a = map_angle(parse_angle("3/7"), 2)
    v = a.value
    assert v == F(6, 7) and a.value == v
    lo, hi = a.enclosure_bounds(8)
    assert lo == v and hi == v


def _thue_morse_bounds(k: int, offset: F) -> tuple[F, F]:
    """[lo, hi] of the base-2 Thue-Morse constant plus offset, from k digits
    computed here, without the package's digit source."""
    n = 0
    for i in range(k):
        n = 2 * n + (bin(i).count("1") & 1)
    lo = F(n, 2**k) + offset
    return lo, lo + F(1, 2**k)


@given(rationals, st.sampled_from([F(0), F(1, 3), F(1, 8)]))
@settings(max_examples=200, deadline=None)
def test_stream_vs_rational_compare_matches_fractions(u, offset):
    s = parse_angle(f"gen:thue_morse?base=2&offset={offset}")
    lo, hi = _thue_morse_bounds(200, offset)
    assert hi < 1  # these offsets keep the stream off the 0/1 seam
    r = Angle.from_fraction(u)
    want = LT if u < lo else GT if u > hi else None
    assert want is not None  # an irrational is not within 2^-200 of u
    assert compare(r, s) == want and compare(s, r) == -want
    # both enclosures hold the true arc length, so they overlap
    llo, lhi = arc_length(r, s).bounds(64)
    assert llo <= (hi - u) % 1 and (lo - u) % 1 <= lhi
    assert lhi - llo <= F(2, 2**64)


def _dec12_by_fractions(fr: F) -> str:
    """The 12-place decimal as it was first written, in Fraction arithmetic."""
    neg = fr < 0
    fr = abs(fr)
    whole = fr.numerator // fr.denominator
    rest = fr - whole
    digits = rest.numerator * 10**12 // rest.denominator
    return f"{'-' if neg else ''}{whole}.{str(digits).zfill(12)}"


@given(
    st.fractions()
    | st.integers().map(F)
    | st.builds(F, st.integers(), st.integers(min_value=1, max_value=3**2000)),
    st.integers(min_value=1, max_value=10**30),
)
@settings(max_examples=300, deadline=None)
def test_dec12_matches_fraction_formula(x, k):
    """The digits of n/q, from the pair in lowest terms or scaled by k."""
    n, q = x.numerator, x.denominator
    assert _dec12(n, q) == _dec12(k * n, k * q) == _dec12_by_fractions(x)


def test_dec12_examples():
    assert _dec12(-7, 2) == "-3.500000000000"
    assert _dec12(5, 1) == "5.000000000000" and _dec12(0, 1) == "0.000000000000"
    assert _dec12(-1, 3**2000) == "-0.000000000000"
    assert _dec12(1, 7) == _dec12(3, 21) == "0.142857142857"


# ---------------------------------------------------------------------------
# stream enclosures, computed on each call from the memoized digits


def _stream_literal(name: str, base: int, shift: int, offset: F) -> str:
    return (
        f"gen:{name}?base={base}&shift={shift}"
        f"&offset={offset.numerator}/{offset.denominator}"
    )


@st.composite
def stream_angles(draw, seam_digits=st.integers(1, 40)):
    """Stream angles; half of them get an offset that puts the m-digit
    enclosure's lower end at (e = 0) or just below (e = 1) the 0/1 seam, so
    shorter enclosures straddle it."""
    name = draw(st.sampled_from(["thue_morse", "champernowne"]))
    base = draw(st.integers(2, 5))
    shift = draw(st.integers(0, 60))
    if draw(st.booleans()):
        m, e = draw(seam_digits), draw(st.integers(0, 1))
        plain = parse_angle(_stream_literal(name, base, shift, F(0)))
        n = plain.source.prefix_numerator(shift, m)
        offset = F(base**m - n - e, base**m) % 1
    else:
        offset = draw(st.fractions(min_value=0, max_value=2))
    return parse_angle(_stream_literal(name, base, shift, offset))


@given(stream_angles(), st.lists(st.integers(1, 100), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_stream_enclosures_repeat_and_match_a_fresh_parse(a, ks):
    image = map_angle(a, a.base)
    for angle in (a, image):
        h = hash(angle)
        fresh = parse_angle(format_angle(angle))
        for k in ks:
            bounds = angle.enclosure_bounds(k)
            assert angle.enclosure_bounds(k) == bounds
            assert bounds == parse_angle(format_angle(angle)).enclosure_bounds(k)
        assert hash(angle) == h == hash(fresh) and angle == fresh


@given(stream_angles())
@settings(max_examples=200, deadline=None)
def test_stream_enclosures_nest(a):
    ks = range(80, 0, -1)  # the longest first, so the digit cache fills at once
    bounds = {k: a.enclosure_bounds(k) for k in ks}
    for k in range(1, 80):
        (lo, hi), (lo2, hi2) = bounds[k], bounds[k + 1]
        assert ZERO <= lo <= lo2 <= hi2 <= hi <= ONE
        assert (lo, hi) == (ZERO, ONE) or hi - lo == F(1, a.base**k)


def test_stream_enclosures_straddle_the_seam_until_enough_digits():
    plain = parse_angle("gen:champernowne?base=3&shift=7")
    m = 12
    while plain.source.digit(7 + m - 1) == 0:  # then m - 1 digits also reach 1
        m += 1
    n = plain.source.prefix_numerator(7, m)
    a = parse_angle(_stream_literal("champernowne", 3, 7, F(3**m - n, 3**m)))
    assert a.enclosure_bounds(m) == (ZERO, F(1, 3**m))
    assert a.enclosure_bounds(m - 1) == (ZERO, ONE)
    assert a.enclosure_bounds(m + 1)[1] <= F(1, 3**m)


# ---------------------------------------------------------------------------
# the integer enclosure kernel against a plain-Fraction restatement
#
# The package keeps every enclosure as ints (lo, hi, den) and refines an
# ``Approx`` only when asked; below, the same values are rebuilt with the
# formulas as first written in Fraction arithmetic, with an ``Approx`` that
# refines at k = 8 on creation and intersects every later refinement with
# the kept bounds.  Both sides make the same calls in the same order, so
# their kept bounds must agree whatever digit counts are asked for, and in
# whatever order.

KERNEL_BUDGET = PrecisionBudget(256)


class _Unresolved(Exception):
    """Both sides gave up on the same step."""


def _ref_ladder():
    k = 8
    while k < KERNEL_BUDGET.max_digits:
        yield k
        k *= 2
    yield KERNEL_BUDGET.max_digits


class _RefKernel:
    def __init__(self):
        self._enclosures = {}

    def enclosure(self, a, k):
        if a.is_rational:
            return a.value, a.value
        key = (a, k)
        if key not in self._enclosures:
            b, fn = a.base, a.source.fn
            n = 0
            for i in range(a.shift, a.shift + k):
                n = n * b + fn(i)
            lo = F(n, b**k) + a.offset
            hi = lo + F(1, b**k)
            if lo >= 1:
                lo, hi = lo - 1, hi - 1
            elif hi > 1:
                lo, hi = ZERO, ONE
            self._enclosures[key] = (lo, hi)
        return self._enclosures[key]

    def compare(self, a, b):
        if a.is_rational and b.is_rational:
            return LT if a.value < b.value else GT if a.value > b.value else EQ
        if a == b:
            return EQ
        for k in _ref_ladder():
            (alo, ahi), (blo, bhi) = self.enclosure(a, k), self.enclosure(b, k)
            if ahi < blo:
                return LT
            if bhi < alo:
                return GT
        raise _Unresolved

    def arc(self, u, w):
        c = self.compare(u, w)
        if c == EQ:
            return ZERO
        if u.is_rational and w.is_rational:
            return (w.value - u.value) % 1
        e = self.enclosure
        if c == LT:
            return _RefApprox(
                lambda k: (max(ZERO, e(w, k)[0] - e(u, k)[1]), min(ONE, e(w, k)[1] - e(u, k)[0]))
            )
        return _RefApprox(
            lambda k: (
                max(ZERO, 1 - e(u, k)[1] + e(w, k)[0]),
                min(ONE, 1 - e(u, k)[0] + e(w, k)[1]),
            )
        )


class _RefApprox:
    def __init__(self, fn):
        self.fn = fn
        self.lo, self.hi = fn(8)
        self.k = 8

    def bounds(self, k):
        if k > self.k:
            lo, hi = self.fn(k)
            self.lo, self.hi, self.k = max(self.lo, lo), min(self.hi, hi), k
        return self.lo, self.hi


def _rb(x, k):
    return (x, x) if isinstance(x, F) else x.bounds(k)


def _ref_add(x, y):
    if isinstance(x, F) and isinstance(y, F):
        return x + y
    return _RefApprox(lambda k: (_rb(x, k)[0] + _rb(y, k)[0], _rb(x, k)[1] + _rb(y, k)[1]))


def _ref_sum(values):
    total = ZERO
    for v in values:
        total = _ref_add(total, v)
    return total


def _ref_sub(x, y):
    if isinstance(x, F) and isinstance(y, F):
        return x - y
    return _RefApprox(lambda k: (_rb(x, k)[0] - _rb(y, k)[1], _rb(x, k)[1] - _rb(y, k)[0]))


def _ref_scale(x, n):
    if isinstance(x, F):
        return n * x
    return _RefApprox(lambda k: (n * _rb(x, k)[0], n * _rb(x, k)[1]))


def _ref_clamp(x):
    if isinstance(x, F):
        return min(ONE, max(ZERO, x))
    return _RefApprox(lambda k: (max(ZERO, _rb(x, k)[0]), min(ONE, _rb(x, k)[1])))


def _ref_floor(x, d):
    if isinstance(x, F):
        return (d * x.numerator) // x.denominator
    for k in _ref_ladder():
        lo, hi = x.bounds(k)
        if floor(d * lo) == floor(d * hi):
            return floor(d * lo)
    raise _Unresolved


def _ref_remainder(s, d):
    if isinstance(s, F):
        return F(d * s.numerator % s.denominator, d * s.denominator)
    return _ref_clamp(_ref_sub(s, F(_ref_floor(s, d), d)))


def _ref_cmp(x, y):
    if isinstance(x, F) and isinstance(y, F):
        return LT if x < y else GT if x > y else EQ
    for k in _ref_ladder():
        (xlo, xhi), (ylo, yhi) = _rb(x, k), _rb(y, k)
        if xhi < ylo:
            return LT
        if yhi < xlo:
            return GT
    raise _Unresolved


def _step(package, reference):
    """Run one step on both sides: the same result, or both unresolved."""
    try:
        want = reference()
    except _Unresolved:
        with pytest.raises(UnresolvedComparison):
            package()
        raise
    return package(), want


def _assert_same_bounds(pairs, k):
    for got, want in pairs:
        assert isinstance(got, F) == isinstance(want, F)
        assert _rb(got, k) == _rb(want, k)


@st.composite
def circle_points(draw):
    """Rationals and stream angles, some of them on the seam at a digit count
    the ladder asks for."""
    if draw(st.booleans()):
        return Angle.from_fraction(draw(fractions_01))
    return draw(stream_angles(st.integers(1, 40) | st.sampled_from([8, 16, 32, 64])))


@given(
    st.lists(circle_points(), min_size=2, max_size=4),
    st.integers(2, 5),
    st.lists(st.sampled_from([8, 16, 64]), min_size=1, max_size=6),
    st.permutations([8, 16, 64]),
)
@settings(max_examples=150, deadline=None)
def test_integer_kernel_matches_fraction_formulas(points, d, asked, order):
    ref = _RefKernel()
    try:
        pairs = [
            _step(lambda: arc_length(u, w, KERNEL_BUDGET), lambda: ref.arc(u, w))
            for u, w in zip(points, points[1:] + points[:1])
        ]
        sizes = list(pairs)
        rems = [
            _step(lambda: remainder(s, d, KERNEL_BUDGET), lambda: _ref_remainder(r, d))
            for s, r in sizes
        ]
        s0, r0 = sizes[0]
        pairs += rems
        pairs.append((sum_values(p for p, _ in rems), _ref_sum(r for _, r in rems)))
        pairs.append((scale_value(s0, d), _ref_scale(r0, d)))
        # laziness cannot change a bound: any order of digit counts agrees
        for k in asked + order:
            _assert_same_bounds(pairs, k)
        for x, rx in pairs:
            got, want = _step(
                lambda: floor_scaled(x, d, KERNEL_BUDGET), lambda: _ref_floor(rx, d)
            )
            assert got == want
            for y, ry in pairs:
                got, want = _step(
                    lambda: cmp_values(x, y, KERNEL_BUDGET), lambda: _ref_cmp(rx, ry)
                )
                assert got == want
    except _Unresolved:
        return
    for k in order:
        _assert_same_bounds(pairs, k)
