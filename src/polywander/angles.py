"""Exact points of the circle and the d-tupling map f(theta) = d*theta mod 1.

Angles are measured in fractions of a full turn, so every angle lives in
[0, 1).  Two representations coexist:

* rationals, stored canonically as ``Fraction`` p/q with 0 <= p < q;
* lazy base-d digit streams backed by a registered deterministic generator.

Eventually periodic digit literals are folded into their rational value at
parse time.  Generator streams are only ever known through finite digit
prefixes, so comparisons against them refine enclosures until they resolve
or the precision budget runs out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    AngleSyntaxError,
    BaseMismatchError,
    UnknownGeneratorError,
    UnresolvedComparison,
)

LT, EQ, GT = -1, 0, 1

DEFAULT_MAX_DIGITS = 4096

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


def _mod1(x: Fraction) -> Fraction:
    return x % 1


# ---------------------------------------------------------------------------
# digit generators


class DigitSource:
    """A deterministic, memoized base-d digit sequence.

    Digits are computed once, in index order, and cached; the cache only
    grows, so a digit never changes once read.
    """

    def __init__(self, base: int, fn: Callable[[int], int], name: str, params=None):
        if base < 2:
            raise AngleSyntaxError(f"stream base must be >= 2, got {base}")
        self.base = base
        self.fn = fn
        self.name = name
        self.params = dict(params or {})
        self._cache: list[int] = []

    def digit(self, i: int) -> int:
        while len(self._cache) <= i:
            k = len(self._cache)
            d = self.fn(k)
            if not 0 <= d < self.base:
                raise AngleSyntaxError(
                    f"generator {self.name!r} produced digit {d} "
                    f"outside base {self.base} at index {k}"
                )
            self._cache.append(d)
        return self._cache[i]

    def prefix_numerator(self, shift: int, k: int) -> int:
        """Integer n such that the first k digits from ``shift`` denote n/base**k."""
        self.digit(shift + k - 1)  # fill cache in one pass
        n = 0
        cache = self._cache
        base = self.base
        for i in range(shift, shift + k):
            n = n * base + cache[i]
        return n


_GENERATORS: dict[str, Callable[[dict], tuple[int, Callable[[int], int]]]] = {}


def register_generator(name: str, factory) -> None:
    """Register a named digit-stream generator.

    ``factory(params)`` receives the literal's key/value parameters (strings)
    and must return ``(base, digit_fn)`` where ``digit_fn(i)`` is digit i.
    """
    _GENERATORS[name] = factory


def generator_names():
    return sorted(_GENERATORS)


def _thue_morse_factory(params):
    base = int(params.get("base", "2"))
    return base, lambda i: bin(i).count("1") & 1


def _champernowne_factory(params):
    base = int(params.get("base", "2"))
    if base < 2:
        raise AngleSyntaxError("champernowne base must be >= 2")

    def digit(i: int) -> int:
        length = 1
        while True:
            block = (base - 1) * base ** (length - 1) * length
            if i < block:
                break
            i -= block
            length += 1
        number = base ** (length - 1) + i // length
        pos = i % length
        return (number // base ** (length - 1 - pos)) % base

    return base, digit


register_generator("thue_morse", _thue_morse_factory)
register_generator("champernowne", _champernowne_factory)


# ---------------------------------------------------------------------------
# angles


class Angle:
    """An exact point of the circle, in [0, 1) turns.

    Either ``value`` is a canonical ``Fraction`` (rational angle), or
    ``source``/``shift``/``offset`` describe a generator-backed digit stream
    whose value is ``offset + 0.d_shift d_shift+1 ...`` in base ``source.base``.
    Instances are immutable.
    """

    __slots__ = ("value", "source", "shift", "offset")

    def __init__(self, value=None, source=None, shift=0, offset=ZERO):
        if value is not None:
            object.__setattr__(self, "value", _mod1(Fraction(value)))
            object.__setattr__(self, "source", None)
            object.__setattr__(self, "shift", 0)
            object.__setattr__(self, "offset", ZERO)
        else:
            if source is None:
                raise ValueError("Angle needs a value or a digit source")
            object.__setattr__(self, "value", None)
            object.__setattr__(self, "source", source)
            object.__setattr__(self, "shift", shift)
            object.__setattr__(self, "offset", _mod1(offset))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Angle is immutable")

    # -- construction helpers

    @classmethod
    def from_fraction(cls, f) -> "Angle":
        return cls(value=Fraction(f))

    @classmethod
    def from_generator(cls, name: str, params=None) -> "Angle":
        params = {k: str(v) for k, v in (params or {}).items()}
        if name not in _GENERATORS:
            raise UnknownGeneratorError(f"unknown generator {name!r}")
        shift = int(params.pop("shift", "0"))
        if shift < 0:
            raise AngleSyntaxError(f"generator shift must be >= 0, got {shift}")
        try:
            offset = Fraction(params.pop("offset", "0"))
        except ZeroDivisionError:
            raise AngleSyntaxError("zero denominator in generator offset") from None
        base, fn = _GENERATORS[name](params)
        src = DigitSource(base, fn, name, params)
        return cls(source=src, shift=shift, offset=offset)

    # -- basic queries

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    @property
    def base(self):
        return None if self.source is None else self.source.base

    def enclosure_bounds(self, k: int) -> tuple[Fraction, Fraction]:
        """Closed interval [lo, hi] of width base**-k (0 for rationals)
        guaranteed to contain the angle's value."""
        if self.is_rational:
            return self.value, self.value
        b = self.source.base
        n = self.source.prefix_numerator(self.shift, k)
        lo = Fraction(n, b**k)
        hi = lo + Fraction(1, b**k)
        if self.offset:
            lo = lo + self.offset
            hi = hi + self.offset
            if lo >= 1:
                lo -= 1
                hi -= 1
            elif hi > 1:
                # interval straddles the 0/1 seam; widen to the full circle
                # until more digits move it off the seam
                return ZERO, ONE
        return lo, hi

    # -- equality is representation equality, not provable value equality

    def _key(self):
        if self.is_rational:
            return ("rat", self.value)
        src = self.source
        return (
            "gen",
            src.name,
            tuple(sorted(src.params.items())),
            src.base,
            self.shift,
            self.offset,
        )

    def __eq__(self, other):
        return isinstance(other, Angle) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Angle({format_angle(self)!r})"


# ---------------------------------------------------------------------------
# parsing and printing

_RATIONAL_RE = re.compile(r"^(\d+)/(\d+)$")
_DECIMAL_RE = re.compile(r"^\d+\.\d+$")
_STREAM_RE = re.compile(r"^(\d+):([0-9a-z]*)(?:\(([0-9a-z]+)\))?$")
_GEN_RE = re.compile(r"^gen:([A-Za-z_][A-Za-z0-9_]*)(?:\?(.*))?$")


def _digit_val(ch: str, base: int) -> int:
    d = int(ch, 36)
    if d >= base:
        raise AngleSyntaxError(f"digit {ch!r} is not valid in base {base}")
    return d


def parse_angle(text: str) -> Angle:
    """Parse an angle literal: "p/q", "<d>:<digits>", "<d>:<digits>(<digits>)",
    a decimal such as "0.45", or "gen:<name>[?k=v&...]"."""
    text = text.strip()
    m = _RATIONAL_RE.match(text)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if q == 0:
            raise AngleSyntaxError(f"zero denominator in {text!r}")
        return Angle(value=Fraction(p, q))
    if _DECIMAL_RE.match(text):
        return Angle(value=Fraction(text))
    m = _STREAM_RE.match(text)
    if m:
        base = int(m.group(1))
        if base < 2:
            raise AngleSyntaxError(f"stream base must be >= 2 in {text!r}")
        pre, per = m.group(2), m.group(3)
        if not pre and not per:
            raise AngleSyntaxError(f"no digits in {text!r}")
        pre_digits = [_digit_val(c, base) for c in pre]
        n_pre = 0
        for d in pre_digits:
            n_pre = n_pre * base + d
        value = Fraction(n_pre, base ** len(pre_digits)) if pre_digits else ZERO
        if per:
            per_digits = [_digit_val(c, base) for c in per]
            n_per = 0
            for d in per_digits:
                n_per = n_per * base + d
            value += Fraction(
                n_per, base ** len(pre_digits) * (base ** len(per_digits) - 1)
            )
        return Angle(value=value)
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
        return f"{a.value.numerator}/{a.value.denominator}"
    src = a.source
    parts = [f"{k}={v}" for k, v in sorted(src.params.items())]
    if a.shift:
        parts.append(f"shift={a.shift}")
    if a.offset:
        parts.append(f"offset={a.offset.numerator}/{a.offset.denominator}")
    query = "?" + "&".join(parts) if parts else ""
    return f"gen:{src.name}{query}"


# ---------------------------------------------------------------------------
# the d-tupling map


def map_angle(a: Angle, d: int) -> Angle:
    """Image of ``a`` under f(theta) = d*theta mod 1."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if a.is_rational:
        v = a.value
        return Angle(value=Fraction((v.numerator * d) % v.denominator, v.denominator))
    if a.source.base != d:
        raise BaseMismatchError(
            f"stream base {a.source.base} does not match degree {d}"
        )
    return Angle(source=a.source, shift=a.shift + 1, offset=_mod1(a.offset * d))


def iterate_angle(a: Angle, d: int, n: int) -> Angle:
    for _ in range(n):
        a = map_angle(a, d)
    return a


# ---------------------------------------------------------------------------
# comparison and enclosures


def _precision_ladder(budget: PrecisionBudget):
    k = 8
    while k < budget.max_digits:
        yield k
        k *= 2
    yield budget.max_digits


def compare(a: Angle, b: Angle, budget: PrecisionBudget = DEFAULT_BUDGET) -> int:
    """Total-order comparison of values in [0, 1): LT, EQ or GT.

    EQ is returned only when equality is provable from the representation.
    Raises UnresolvedComparison when the budget is exhausted.
    """
    if a.is_rational and b.is_rational:
        va, vb = a.value, b.value
        return LT if va < vb else GT if va > vb else EQ
    if (
        not a.is_rational
        and not b.is_rational
        and a.source is b.source
        and a.shift == b.shift
        and a.offset == b.offset
    ):
        return EQ
    if not a.is_rational and not b.is_rational and a._key() == b._key():
        return EQ
    for k in _precision_ladder(budget):
        alo, ahi = a.enclosure_bounds(k)
        blo, bhi = b.enclosure_bounds(k)
        if ahi < blo:
            return LT
        if bhi < alo:
            return GT
    raise UnresolvedComparison(
        f"cannot separate {format_angle(a)} and {format_angle(b)} "
        f"within {budget.max_digits} digits"
    )


@dataclass(frozen=True)
class AngleEnclosure:
    """Arc [lower, lower + width) certified to contain an angle."""

    lower: Fraction
    width: Fraction

    def contains(self, value: Fraction) -> bool:
        if self.width >= 1:
            return True
        v = _mod1(value - self.lower)
        return v < self.width or (v == 0)


def refine(a: Angle, k: int) -> AngleEnclosure:
    """Enclosure of width base**-k (0 for rationals) containing ``a``;
    nested for increasing k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if a.is_rational:
        return AngleEnclosure(lower=a.value, width=ZERO)
    lo, hi = a.enclosure_bounds(k)
    return AngleEnclosure(lower=_mod1(lo), width=hi - lo)


def midpoint(a: Angle, k: int) -> Fraction:
    """Midpoint, in [0, 1), of the angle's k-digit enclosure (exact for rationals)."""
    lo, hi = a.enclosure_bounds(k)
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# refinable real values in [0, 1] (lengths, remainders, sums)


class Approx:
    """A real in [0, 1] known through a refinable enclosure [lo, hi].

    ``refine_fn(k)`` recomputes bounds from k stream digits.  Successive
    refinements are intersected so the enclosure is guaranteed to nest.
    """

    __slots__ = ("_refine", "_k", "lo", "hi")

    def __init__(self, refine_fn, k: int = 8):
        self._refine = refine_fn
        lo, hi = refine_fn(k)
        self.lo, self.hi = lo, hi
        self._k = k

    def bounds(self, k: int) -> tuple[Fraction, Fraction]:
        if k > self._k:
            lo, hi = self._refine(k)
            self.lo = max(self.lo, lo)
            self.hi = min(self.hi, hi)
            self._k = k
        return self.lo, self.hi

    def __repr__(self):
        return f"Approx[{self.lo}, {self.hi}]"


Value = Fraction | Approx  # exact real or refinable enclosure


def value_bounds(x: Value, k: int) -> tuple[Fraction, Fraction]:
    if isinstance(x, Fraction):
        return x, x
    return x.bounds(k)


def cmp_values(x: Value, y: Value, budget: PrecisionBudget = DEFAULT_BUDGET) -> int:
    """-1, 0 or 1; 0 only for provably equal (both exact) values."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return LT if x < y else GT if x > y else EQ
    for k in _precision_ladder(budget):
        xlo, xhi = value_bounds(x, k)
        ylo, yhi = value_bounds(y, k)
        if xhi < ylo:
            return LT
        if yhi < xlo:
            return GT
    raise UnresolvedComparison(
        f"cannot order {x} and {y} within {budget.max_digits} digits"
    )


def add_values(x: Value, y: Value) -> Value:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y

    def refine_fn(k):
        xlo, xhi = value_bounds(x, k)
        ylo, yhi = value_bounds(y, k)
        return xlo + ylo, xhi + yhi

    return Approx(refine_fn)


def sub_values(x: Value, y: Value) -> Value:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x - y

    def refine_fn(k):
        xlo, xhi = value_bounds(x, k)
        ylo, yhi = value_bounds(y, k)
        return xlo - yhi, xhi - ylo

    return Approx(refine_fn)


def scale_value(x: Value, n: int) -> Value:
    if isinstance(x, Fraction):
        return n * x

    def refine_fn(k):
        lo, hi = value_bounds(x, k)
        return n * lo, n * hi

    return Approx(refine_fn)


def clamp01_value(x: Value) -> Value:
    if isinstance(x, Fraction):
        return min(ONE, max(ZERO, x))

    def refine_fn(k):
        lo, hi = value_bounds(x, k)
        return max(ZERO, lo), min(ONE, hi)

    return Approx(refine_fn)


def sum_values(values) -> Value:
    total: Value = ZERO
    for v in values:
        total = add_values(total, v)
    return total


def floor_scaled(x: Value, d: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> int:
    """floor(d * x), resolved by refinement for enclosure values."""
    if isinstance(x, Fraction):
        return (d * x.numerator) // x.denominator
    for k in _precision_ladder(budget):
        lo, hi = x.bounds(k)
        jlo = (d * lo.numerator) // lo.denominator
        jhi = (d * hi.numerator) // hi.denominator
        if jlo == jhi:
            return jlo
    raise UnresolvedComparison(
        f"floor({d}*x) undecided for {x} within {budget.max_digits} digits"
    )


def arc_length(u: Angle, w: Angle, budget: PrecisionBudget = DEFAULT_BUDGET) -> Value:
    """Length of the arc running counterclockwise from u to w, in [0, 1)."""
    c = compare(u, w, budget)
    if c == EQ:
        return ZERO
    if u.is_rational and w.is_rational:
        return _mod1(w.value - u.value)

    if c == LT:  # w - u as reals

        def refine_fn(k):
            ulo, uhi = u.enclosure_bounds(k)
            wlo, whi = w.enclosure_bounds(k)
            return max(ZERO, wlo - uhi), min(ONE, whi - ulo)

    else:  # 1 - (u - w)

        def refine_fn(k):
            ulo, uhi = u.enclosure_bounds(k)
            wlo, whi = w.enclosure_bounds(k)
            return max(ZERO, 1 - uhi + wlo), min(ONE, 1 - ulo + whi)

    return Approx(refine_fn)


def angle_sorted(angles, budget: PrecisionBudget = DEFAULT_BUDGET) -> list[Angle]:
    """Angles sorted by circle position (insertion sort via compare)."""
    out: list[Angle] = []
    for a in angles:
        i = 0
        while i < len(out) and compare(out[i], a, budget) == LT:
            i += 1
        out.insert(i, a)
    return out


def shift_angle(a: Angle, delta: Fraction) -> Angle:
    """The angle a + delta mod 1 (delta exact rational)."""
    delta = Fraction(delta)
    if a.is_rational:
        return Angle(value=a.value + delta)
    return Angle(source=a.source, shift=a.shift, offset=a.offset + delta)
