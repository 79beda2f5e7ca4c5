"""Exact points of the circle and the d-tupling map f(theta) = d*theta mod 1.

Angles are measured in fractions of a full turn, so every angle lives in
[0, 1).  Two representations coexist:

* rationals, stored canonically as coprime ints n/q with 0 <= n < q, so
  that comparing, mapping and measuring them is integer arithmetic; their
  ``Fraction`` value is built on each read;
* lazy base-d digit streams backed by a registered deterministic generator.

Eventually periodic digit literals are folded into their rational value at
parse time.  Generator streams are only ever known through finite digit
prefixes, so comparisons against them refine enclosures until they resolve
or the precision budget runs out.

Every enclosure, of a stream angle or of an ``Approx`` value, is an int
triple ``(lo, hi, den)`` meaning [lo/den, hi/den]: compares cross-multiply,
and sums, differences and clamps work on the numerators over one
denominator, so no ``gcd`` runs on the refinement path.  ``enclosure_bounds``
and ``Approx.bounds`` build ``Fraction`` pairs from these triples on each
call, for callers that want reduced fractions.  An angle stores none of
them; a polygon carries its vertices' (``geometry.Polygon``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Callable

from .errors import (
    AngleSyntaxError,
    BaseMismatchError,
    UnknownGeneratorError,
    UnresolvedComparison,
)

LT, EQ, GT = -1, 0, 1

DEFAULT_MAX_DIGITS = 4096
REPORT_DIGITS = 64  # stream digits behind every enclosure a report prints

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PrecisionBudget:
    """Cap on the number of stream digits a single comparison may consume."""

    max_digits: int = DEFAULT_MAX_DIGITS

    def __post_init__(self):
        if self.max_digits < 1:
            raise ValueError("max_digits must be positive")


DEFAULT_BUDGET = PrecisionBudget()


# ---------------------------------------------------------------------------
# digit generators


class DigitSource:
    """A deterministic, memoized base-d digit sequence.

    Digits from index ``start`` on (a literal's shift, the lowest index its
    orbit reads) are computed once, in index order, and cached; the cache
    only grows, so a digit never changes once read.  A digit below
    ``start`` is computed on each request and not kept.
    """

    def __init__(self, base: int, fn: Callable[[int], int], name: str, start: int):
        self.base = base
        self.fn = fn
        self.name = name
        self.start = start
        self._cache: list[int] = []  # digits start, start + 1, ...
        self._last = (-1, 0, 0)  # shift, k and numerator of the last prefix

    def _checked(self, i: int) -> int:
        d = self.fn(i)
        if not 0 <= d < self.base:
            raise AngleSyntaxError(
                f"generator {self.name!r} produced digit {d} "
                f"outside base {self.base} at index {i}"
            )
        return d

    def digit(self, i: int) -> int:
        cache, j = self._cache, i - self.start
        while len(cache) <= j:
            cache.append(self._checked(self.start + len(cache)))
        return cache[j] if j >= 0 else self._checked(i)

    def prefix_numerator(self, shift: int, k: int) -> int:
        """Integer n such that the first k digits from ``shift`` (at least
        ``start``, as for every angle on this source) denote n/base**k;
        rolled on from the last call's when that read k digits from shift - 1."""
        last = self.digit(shift + k - 1)  # fill cache in one pass
        base = self.base
        if self._last[:2] == (shift - 1, k):
            n = self._last[2] % base ** (k - 1) * base + last
        else:
            j = shift - self.start
            n = 0
            for d in self._cache[j:j + k]:
                n = n * base + d
        self._last = (shift, k, n)
        return n


_GENERATORS: dict[str, Callable[[int], Callable[[int], int]]] = {}


def register_generator(name: str, factory) -> None:
    """Register a named digit-stream generator.

    ``factory(base)`` receives the literal's base (an int >= 2) and must
    return ``digit_fn`` where ``digit_fn(i)`` is digit i.
    """
    _GENERATORS[name] = factory


def _cut(text: str) -> str:
    """``text`` quoted and cut to 24 characters, for error messages."""
    return repr(text[:24]) + ("..." if len(text) > 24 else "")


def _param(generator: str, key: str, text: str, kind=int):
    """``text``, parameter ``key`` of a generator literal, as an int (or as
    a ``Fraction`` for ``kind=Fraction``, written as an integer, "p/q" or a
    decimal: no exponent, which would build a huge denominator)."""
    try:
        if kind is Fraction and not re.fullmatch(r"\d+(?:[/.]\d+)?", text):
            raise ValueError
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a rational"
        raise AngleSyntaxError(
            f"gen:{generator} parameter {key} must be {noun}, got {_cut(text)}"
        ) from None


def _thue_morse_factory(base: int):
    return lambda i: bin(i).count("1") & 1


def _champernowne_factory(base: int):
    block = (1, 0, 1)  # a numeral length, its block's first index, base**(length-1)

    def digit(i: int) -> int:
        """Digit i, walking the blocks of numerals of one length on from the
        last call's block (from the first when i lies before it)."""
        nonlocal block
        length, start, first = block if i >= block[1] else (1, 0, 1)
        while i >= (end := start + (base - 1) * first * length):
            length, start, first = length + 1, end, first * base
        block = length, start, first
        number, pos = divmod(i - start, length)
        return (first + number) // base ** (length - 1 - pos) % base

    return digit


register_generator("thue_morse", _thue_morse_factory)
register_generator("champernowne", _champernowne_factory)


# ---------------------------------------------------------------------------
# angles


class Angle:
    """An exact point of the circle, in [0, 1) turns.

    Either ``n``/``q`` are coprime ints with 0 <= n < q (rational angle,
    ``source`` is None), or ``source``/``shift``/``offset`` describe a
    generator-backed digit stream whose value is
    ``offset + 0.d_shift d_shift+1 ...`` in base ``source.base`` (``n`` and
    ``q`` are None).  Instances are immutable and store no enclosure: a
    polygon carries its stream vertices' enclosures (``Polygon._bounds``).
    """

    __slots__ = ("n", "q", "source", "shift", "offset")

    def __init__(self, n, q, source=None, shift=0, offset=ZERO):
        """The one constructor, from reduced parts: every other builder
        reduces its inputs and calls it."""
        write = object.__setattr__
        write(self, "n", n)
        write(self, "q", q)
        write(self, "source", source)
        write(self, "shift", shift)
        write(self, "offset", offset)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Angle is immutable")

    # -- construction helpers

    @classmethod
    def from_fraction(cls, f) -> "Angle":
        f = Fraction(f) % 1
        return cls(f.numerator, f.denominator)

    @classmethod
    def from_generator(cls, name: str, params=None) -> "Angle":
        """The stream of generator ``name`` in ``base`` (default 2) read from
        digit ``shift`` (default 0) on, plus ``offset`` (default 0): the
        parameters of a literal, and the only ones it may name."""
        params = {k: str(v) for k, v in (params or {}).items()}
        if name not in _GENERATORS:
            raise UnknownGeneratorError(f"unknown generator {name!r}")
        for key in params:
            if key not in ("base", "shift", "offset"):
                raise AngleSyntaxError(
                    f"gen:{name} takes only base, shift and offset, got {_cut(key)}")
        base = _param(name, "base", params.get("base", "2"))
        if base < 2:
            raise AngleSyntaxError(f"gen:{name} parameter base must be >= 2, got {base}")
        shift = _param(name, "shift", params.get("shift", "0"))
        if shift < 0:
            raise AngleSyntaxError(f"generator shift must be >= 0, got {shift}")
        try:
            offset = _param(name, "offset", params.get("offset", "0"), Fraction)
        except ZeroDivisionError:
            raise AngleSyntaxError("zero denominator in generator offset") from None
        source = DigitSource(base, _GENERATORS[name](base), name, shift)
        return cls(None, None, source, shift, offset % 1)

    # -- basic queries

    @property
    def value(self) -> Fraction | None:
        """The rational value n/q as a ``Fraction``; None for streams."""
        return None if self.source is not None else Fraction(self.n, self.q)

    @property
    def is_rational(self) -> bool:
        return self.source is None

    @property
    def base(self):
        return None if self.source is None else self.source.base

    def interval(self, k: int) -> tuple[int, int, int]:
        """Ints (lo, hi, den) with [lo/den, hi/den] of width base**-k
        guaranteed to contain the angle's value ((n, n, q) for rationals),
        computed on each call."""
        if self.source is None:
            return self.n, self.n, self.q
        n = self.source.prefix_numerator(self.shift, k)
        step = self.source.base**k
        if self.offset:
            p, r = self.offset.numerator, self.offset.denominator
            den = step * r
            lo = n * r + p * step
            hi = lo + r
            if lo >= den:
                lo -= den
                hi -= den
            elif hi > den:
                # interval straddles the 0/1 seam; widen to the full circle
                # until more digits move it off the seam
                lo, hi = 0, den
            return lo, hi, den
        return n, n + 1, step

    def enclosure_bounds(self, k: int) -> tuple[Fraction, Fraction]:
        """``interval(k)`` as a pair of ``Fraction``s (the exact value twice
        for rationals)."""
        if self.source is None:
            v = self.value
            return v, v
        lo, hi, den = self.interval(k)
        return Fraction(lo, den), Fraction(hi, den)

    # -- equality is representation equality, not provable value equality

    def _key(self):
        if self.source is None:
            return (self.n, self.q)
        return ("gen", self.source.name, self.source.base, self.shift, self.offset)

    def __eq__(self, other):
        return isinstance(other, Angle) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Angle({format_angle(self)!r})"


# ---------------------------------------------------------------------------
# parsing and printing

_RATIONAL_RE = re.compile(r"^\d+[/.]\d+$")  # "p/q" or a decimal
_STREAM_RE = re.compile(r"^(\d+):([0-9a-z]*)(?:\(([0-9a-z]+)\))?$")
_GEN_RE = re.compile(r"^gen:([A-Za-z_][A-Za-z0-9_]*)(?:\?(.*))?$")


def _digits(text: str, base: int) -> tuple[int, int]:
    """The int that the digits of ``text`` denote in ``base``, and base**len(text)."""
    n = 0
    for ch in text:
        d = int(ch, 36)
        if d >= base:
            raise AngleSyntaxError(f"digit {ch!r} is not valid in base {base}")
        n = n * base + d
    return n, base ** len(text)


def parse_angle(text: str) -> Angle:
    """Parse an angle literal: "p/q", "<d>:<digits>", "<d>:<digits>(<digits>)",
    a decimal such as "0.45", or "gen:<name>[?base=<b>&shift=<n>&offset=<p/q>]"."""
    text = text.strip()
    if _RATIONAL_RE.match(text):
        try:
            v = Fraction(text)
        except ZeroDivisionError:
            raise AngleSyntaxError(f"zero denominator in {text!r}") from None
        return rational_angle(v.numerator % v.denominator, v.denominator)
    m = _STREAM_RE.match(text)
    if m:
        base = int(m.group(1))
        if base < 2:
            raise AngleSyntaxError(f"stream base must be >= 2 in {text!r}")
        pre, per = m.group(2), m.group(3)
        if not pre and not per:
            raise AngleSyntaxError(f"no digits in {text!r}")
        n, scale = _digits(pre, base)
        if per:  # 0.pre(per) = (n + n_per / (cycle - 1)) / scale
            n_per, cycle = _digits(per, base)
            n, scale = n * (cycle - 1) + n_per, scale * (cycle - 1)
        return rational_angle(n % scale, scale)
    m = _GEN_RE.match(text)
    if m:
        name, query = m.group(1), m.group(2)
        params = {}
        if query:
            for piece in query.split("&"):
                if "=" not in piece:
                    raise AngleSyntaxError(f"malformed generator parameter {piece!r}")
                k, v = piece.split("=", 1)
                params[k] = v
        return Angle.from_generator(name, params)
    raise AngleSyntaxError(f"cannot parse angle literal {text!r}")


def format_angle(a: Angle) -> str:
    """Canonical literal: "p/q" for rationals, a gen literal otherwise."""
    if a.is_rational:
        return f"{a.n}/{a.q}"
    literal = f"gen:{a.source.name}?base={a.source.base}"
    if a.shift:
        literal += f"&shift={a.shift}"
    if a.offset:
        literal += f"&offset={a.offset.numerator}/{a.offset.denominator}"
    return literal


# ---------------------------------------------------------------------------
# the d-tupling map


def map_angle(a: Angle, d: int) -> Angle:
    """Image of ``a`` under f(theta) = d*theta mod 1."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if a.source is None:
        return rational_angle(a.n * d % a.q, a.q)
    if a.source.base != d:
        raise BaseMismatchError(
            f"stream base {a.source.base} does not match degree {d}"
        )
    offset = a.offset * d % 1 if a.offset else ZERO  # Fraction arithmetic is slow
    return Angle(None, None, a.source, a.shift + 1, offset)


# ---------------------------------------------------------------------------
# comparison


def _precision_ladder(budget: PrecisionBudget):
    k = 8
    while k < budget.max_digits:
        yield k
        k *= 2
    yield budget.max_digits


def decide(test, budget: PrecisionBudget, what):
    """The first answer other than None of ``test(k)`` on the ladder's rungs
    k, the one loop that refines; else UnresolvedComparison worded by ``what()``."""
    for k in _precision_ladder(budget):
        if (got := test(k)) is not None:
            return got
    raise UnresolvedComparison(f"{what()} within {budget.max_digits} digits")


def compare(a: Angle, b: Angle, budget: PrecisionBudget = DEFAULT_BUDGET) -> int:
    """Total-order comparison of values in [0, 1): LT, EQ or GT.

    EQ is returned only when equality is provable from the representation.
    Raises UnresolvedComparison when the budget is exhausted.
    """
    if a.source is None and b.source is None:
        x, y = a.n * b.q, b.n * a.q
        return LT if x < y else GT if x > y else EQ
    if a._key() == b._key():
        return EQ
    return decide(lambda k: cmp_bounds(a.interval(k), b.interval(k)), budget,
                  lambda: f"cannot separate {_describe_angle(a)} and {_describe_angle(b)}")


# ---------------------------------------------------------------------------
# refinable real values in [0, 1] (lengths, remainders, sums)


class Approx:
    """A real known through a refinable enclosure.

    ``refine_fn(k)`` returns the enclosure from k stream digits as ints
    ``(lo, hi, den)`` meaning [lo/den, hi/den].  Nothing is computed until
    the first request, unless ``kept`` = (k, (lo, hi, den)) seeds the
    enclosure that ``refine_fn(k)`` would give; a request for more digits
    than before is intersected with the kept enclosure, so enclosures nest.
    ``bounds(k)`` is the kept enclosure as a pair of ``Fraction``s.
    """

    __slots__ = ("_refine", "_k", "_iv")

    def __init__(self, refine_fn, kept=None):
        self._refine = refine_fn
        self._k, self._iv = kept or (0, None)

    def interval(self, k: int) -> tuple[int, int, int]:
        if k > self._k:
            lo, hi, den = self._refine(k)
            if self._iv is not None:
                plo, phi, pden = self._iv
                if lo * pden < plo * den or hi * pden > phi * den:
                    # keep the tighter end of each side, over a common denominator
                    lo, hi = max(lo * pden, plo * den), min(hi * pden, phi * den)
                    den *= pden
            self._iv = (lo, hi, den)
            self._k = k
        return self._iv

    def bounds(self, k: int) -> tuple[Fraction, Fraction]:
        lo, hi, den = self.interval(k)
        return Fraction(lo, den), Fraction(hi, den)

    def __repr__(self):
        if self._iv is None:
            return "Approx[unrefined]"
        lo, hi = self.bounds(self._k)
        return f"Approx[{lo}, {hi}]"


Value = Fraction | Approx  # exact real or refinable enclosure


def _dec12(n: int, q: int) -> str:
    """Truncated 12-place decimal rendering of n/q (q > 0); non-authoritative."""
    whole, rest = divmod(abs(n), q)
    return f"{'-' if n < 0 else ''}{whole}.{rest * 10**12 // q:012d}"


def _describe(x: Value, k: int) -> str:
    """A value in a few dozen bytes for error messages: 12-place decimals,
    and the k-digit enclosure's width as a power of 2, never the full
    fractions."""
    if isinstance(x, Fraction):
        return _dec12(x.numerator, x.denominator)
    lo, hi, den = x.interval(k)
    w = Fraction(hi - lo, den)
    width = f"~2^-{w.denominator.bit_length() - w.numerator.bit_length()}" if w else "0"
    return f"[{_dec12(lo, den)}, {_dec12(hi, den)}] of width {width}"


def _describe_angle(a: Angle) -> str:
    """An angle in a few dozen bytes for error messages: a stream by its
    literal, a rational by its 12-place decimal and its denominator's size."""
    if a.source is None:
        return f"{_dec12(a.n, a.q)} (denominator of {a.q.bit_length()} bits)"
    return format_angle(a)


def value_interval(x: Value, k: int) -> tuple[int, int, int]:
    """The enclosure of ``x`` from k digits as ints (lo, hi, den)."""
    # Approx first: an isinstance check against Fraction (an ABC) is slow
    # when it fails
    if isinstance(x, Approx):
        return x.interval(k)
    n = x.numerator
    return n, n, x.denominator


def _over_common(x: tuple[int, int, int], y: tuple[int, int, int]):
    """Two int enclosures as xlo, xhi, ylo, yhi over one denominator den."""
    xlo, xhi, xd = x
    ylo, yhi, yd = y
    if xd == yd:
        return xlo, xhi, ylo, yhi, xd
    return xlo * yd, xhi * yd, ylo * xd, yhi * xd, xd * yd


def cmp_values(x: Value, y: Value, budget: PrecisionBudget = DEFAULT_BUDGET) -> int:
    """-1, 0 or 1; 0 only for provably equal (both exact) values."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return LT if x < y else GT if x > y else EQ
    # "or None": EQ is kept for two Fractions, so a rung's EQ (0) stays open
    return decide(lambda k: cmp_bounds(value_interval(x, k), value_interval(y, k)) or None,
                  budget, lambda: f"cannot order {_describe(x, budget.max_digits)} and "
                  f"{_describe(y, budget.max_digits)}")


def cmp_bounds(x: tuple[int, int, int], y: tuple[int, int, int]) -> int | None:
    """LT, GT or EQ of two reals from int enclosures (lo, hi, den) of each
    when those decide, EQ only for two equal points; None when they overlap."""
    (xlo, xhi, xd), (ylo, yhi, yd) = x, y
    if xd != yd:
        xlo, xhi, ylo, yhi = xlo * yd, xhi * yd, ylo * xd, yhi * xd
    if xhi < ylo:
        return LT
    if yhi < xlo:
        return GT
    return EQ if xlo == xhi == ylo == yhi else None


def scale_value(x: Value, n: int) -> Value:
    if isinstance(x, Fraction):
        return n * x

    def refine_fn(k):
        lo, hi, den = x.interval(k)
        return n * lo, n * hi, den

    return Approx(refine_fn)


def sum_values(values) -> Value:
    """The sum: a ``Fraction`` when every term is exact, else one ``Approx``
    whose enclosure adds the terms' numerators over one denominator."""
    values = tuple(values)
    if all(isinstance(v, Fraction) for v in values):
        return sum(values, ZERO)

    def refine_fn(k):
        lo, hi, den = 0, 0, 1
        for v in values:
            lo, hi, vlo, vhi, den = _over_common((lo, hi, den), value_interval(v, k))
            lo, hi = lo + vlo, hi + vhi
        return lo, hi, den

    return Approx(refine_fn)


def floor_scaled(x: Value, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> int:
    """floor(d * x), resolved by refinement for enclosure values."""
    if isinstance(x, Fraction):
        return (d * x.numerator) // x.denominator

    def test(k):
        lo, hi, den = x.interval(k)
        j = d * lo // den
        return j if j == d * hi // den else None

    return decide(test, budget, lambda: f"floor({d}*x) undecided for x in "
                  f"{_describe(x, budget.max_digits)}")


def arc_length(u: Angle, w: Angle, budget: PrecisionBudget = DEFAULT_BUDGET) -> Value:
    """Length of the arc running counterclockwise from u to w, in [0, 1)."""
    c = compare(u, w, budget)
    return ZERO if c == EQ else arc_value(u, w, c == GT)


def arc_value(u: Angle, w: Angle, wraps: bool, kept=None) -> Value:
    """The length of the ccw arc from u to a distinct w, which runs past 0
    (``wraps``) iff u > w: exact between rationals, else an ``Approx``
    (seeded with ``kept``)."""
    if u.source is None and w.source is None:
        q = u.q * w.q
        return Fraction((w.n * u.q - u.n * w.q) % q, q)

    def refine_fn(k):
        ulo, uhi, wlo, whi, den = _over_common(u.interval(k), w.interval(k))
        if wraps:  # 1 - (u - w)
            ulo, uhi = ulo - den, uhi - den
        return max(0, wlo - uhi), min(den, whi - ulo), den

    return Approx(refine_fn, kept)


def ccw_order(angles, budget: PrecisionBudget = DEFAULT_BUDGET):
    """Indices of ``angles`` in ccw order from 0, by one comparison sort
    calling ``compare`` on pairs as (earlier, later), and the first pair
    i < j it found equal, or None.  Equal angles keep their input order.  A
    comparison sort cannot order two equal items without comparing two, so
    the pair is None only when the angles are pairwise distinct."""
    ties = []

    def cmp(i, j):
        if i > j:
            return -cmp(j, i)
        c = compare(angles[i], angles[j], budget)
        if c == EQ:
            ties.append((i, j))
        return c

    return sorted(range(len(angles)), key=cmp_to_key(cmp)), next(iter(ties), None)


def shift_angle(a: Angle, delta: Fraction) -> Angle:
    """The angle a + delta mod 1 (delta exact rational)."""
    delta = Fraction(delta)
    if a.source is None:
        q = a.q * delta.denominator
        return rational_angle((a.n * delta.denominator + delta.numerator * a.q) % q, q)
    return Angle(None, None, a.source, a.shift, (a.offset + delta) % 1)


def rational_angle(n: int, q: int) -> Angle:
    """The angle n/q for ints 0 <= n < q, reduced."""
    g = gcd(n, q)
    return Angle(n // g, q // g)
