"""Exact arbitrary-precision rational arithmetic.

Values are kept in canonical reduced form at all times: positive
denominator, gcd(|numerator|, denominator) == 1, and zero stored as 0/1.
Everything here is immutable, so values can be shared freely between
threads.

The module also provides the word-budget bookkeeping used throughout the
package: a rational is *k-short* under a budget of B bits per word when
both |numerator| and denominator fit strictly below 2^(k*B - 1).  Adding,
subtracting, multiplying or dividing a j-short and a k-short value always
yields a (j+k)-short value, which is what lets the solvers budget the bit
growth of intermediate results.

All integer work is plain Python `int`; reduction uses `math.gcd`.
Decimal text converts at any size: CPython (3.11, and 3.10.7 on) refuses
an int-to-text or text-to-int conversion past `sys.get_int_max_str_digits()`
digits, 4300 by default and never below 640, so wider values convert in
pieces under that floor, with no process-wide setting changed.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

__all__ = [
    "BigRational",
    "WordBudget",
    "DEFAULT_BUDGET",
    "is_k_short",
    "sum_balanced",
    "sum_lt",
]


class BigRational:
    """A signed rational with arbitrary-precision numerator and denominator.

    ``BigRational(n)`` is n/1; ``BigRational(n, d)`` reduces n/d.  The
    denominator is always positive after construction.

    Arithmetic on two canonical operands follows Knuth (TAOCP 4.5.1), as
    ``fractions.Fraction`` does: ``+``/``-`` take the gcd of the two
    denominators and reduce the sum only by what that gcd leaves, ``*``
    and ``/`` cross-cancel before multiplying.  Every result is already
    canonical and is built by ``_make`` without a further gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        if num == 0:
            den = 1
        else:
            g = gcd(num if num >= 0 else -num, den)
            if g > 1:
                num //= g
                den //= g
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("BigRational is immutable")

    @classmethod
    def parse(cls, text: str) -> "BigRational":
        """Parse "num/den" or "num"; unreduced input is canonicalized.

        Surrounding whitespace is ignored.  The numerator is an optional
        sign and decimal digits, the denominator digits alone; digits are
        those of `str.isdecimal`, so any Unicode decimal digit counts.
        """
        top, slash, bottom = text.strip().partition("/")
        well_formed = top.isdecimal() or (top[1:].isdecimal() and top[0] in "+-")
        if not well_formed or (slash and not bottom.isdecimal()):
            raise ValueError(f"malformed rational: {text!r}")
        try:
            num = int(top)
            den = int(bottom) if slash else 1
        except ValueError:  # past CPython's digit limit: convert in pieces
            num = _int_of(top)
            den = _int_of(bottom) if slash else 1
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        return _make(num, den)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other.num, other.den, -self.num, self.den)

    def __mul__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _mul(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # times the reciprocal, written with its sign on the numerator
        if other.num > 0:
            return _mul(self.num, self.den, other.den, other.num)
        if other.num < 0:
            return _mul(self.num, self.den, -other.den, -other.num)
        raise ZeroDivisionError("rational division by zero")

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _make(-self.num, self.den)

    def __abs__(self):
        return self if self.num >= 0 else _make(-self.num, self.den)

    # -- comparisons ------------------------------------------------

    def _cmp(self, other: "BigRational") -> int:
        lhs = self.num * other.den
        rhs = other.num * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num * other.den < other.num * self.den

    def __le__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num * other.den > other.num * self.den

    def __ge__(self, other):
        if other.__class__ is not BigRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num * other.den >= other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return self.num != 0

    # -- misc -------------------------------------------------------

    @property
    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    def __str__(self):
        if self.den == 1:
            return _int_text(self.num)
        return _fraction_text(self)

    def __repr__(self):
        return f"BigRational({_int_text(self.num)}, {_int_text(self.den)})"

    def to_decimal(self, digits: int) -> str:
        """Exact truncated decimal expansion with `digits` fractional digits;
        ValueError when `digits` is negative."""
        if digits < 0:
            raise ValueError(f"digits must be non-negative, got {digits}")
        neg = self.num < 0
        n = -self.num if neg else self.num
        whole, rem = divmod(n, self.den)
        body = _int_text(whole)
        if digits > 0:
            body += "." + _int_text((rem * 10**digits) // self.den).zfill(digits)
        return "-" + body if neg else body


# Decimal digits per piece of a conversion: below 640, the least value
# `sys.set_int_max_str_digits` accepts, so no piece meets the limit.
_PIECE = 600
_PIECE_BOUND = 10**_PIECE


def _int_text(n: int) -> str:
    """Decimal text of n at any size, split at a power of ten into
    halves until each fits in `_PIECE` digits."""
    if n < 0:
        return "-" + _int_text(-n)
    if n < _PIECE_BOUND:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _int_of(text: str) -> int:
    """int(text) at any length, for an optional sign and decimal digits."""
    if len(text) <= _PIECE:
        return int(text)
    if text[0] in "+-":
        n = _int_of(text[1:])
        return -n if text[0] == "-" else n
    k = len(text) // 2
    return _int_of(text[:-k]) * 10**k + _int_of(text[-k:])


def _fraction_text(x: BigRational) -> str:
    """num/den in decimal at any size, den written even when it is 1."""
    return f"{_int_text(x.num)}/{_int_text(x.den)}"


# The slot descriptors write past the immutability guard in __setattr__.
_set_num = BigRational.num.__set__
_set_den = BigRational.den.__set__
_new = object.__new__


def _make(num: int, den: int) -> BigRational:
    # The one raw constructor: (num, den) must already be canonical.
    x = _new(BigRational)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _add(na: int, da: int, nb: int, db: int) -> BigRational:
    # na/da + nb/db for canonical operands (Knuth, TAOCP 4.5.1).
    g = gcd(da, db)
    if g == 1:
        return _make(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _make(t, s * db)
    return _make(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> BigRational:
    # (na/da) * (nb/db) for canonical operands, cross-cancelled.
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _make(na * nb, da * db)


ZERO = _make(0, 1)
ONE = _make(1, 1)


def sum_lt(a: BigRational, b: BigRational, c: BigRational) -> bool:
    """Exactly whether a + b < c, building no sum and taking no gcd.

    Cross-multiplies the operands as they are: with positive
    denominators, a + b < c iff (a.num*b.den + b.num*a.den) * c.den <
    c.num * a.den * b.den.  A relaxation that loses its comparison thus
    costs five integer products; the caller builds a + b only when this
    is True.
    """
    ad = a.den
    bd = b.den
    return (a.num * bd + b.num * ad) * c.den < c.num * ad * bd


def _coerce(x):
    if isinstance(x, BigRational):
        return x
    if isinstance(x, int):
        return _make(x, 1)
    return NotImplemented


class WordBudget:
    """Bit width of one machine word for shortness accounting.

    This is a configuration value (default 64), not a hardware property;
    shortness classes are measured against it.
    """

    __slots__ = ("B",)

    def __init__(self, B: int = 64):
        if B < 2:
            raise ValueError("word budget must be at least 2 bits")
        object.__setattr__(self, "B", B)

    def __setattr__(self, name, value):
        raise AttributeError("WordBudget is immutable")

    def __eq__(self, other):
        return isinstance(other, WordBudget) and other.B == self.B

    def __hash__(self):
        return hash(("WordBudget", self.B))

    def __repr__(self):
        return f"WordBudget({self.B})"


DEFAULT_BUDGET = WordBudget(64)

def is_k_short(x: BigRational, k: int, budget: WordBudget = DEFAULT_BUDGET) -> bool:
    """True iff |numerator| and denominator both fit below 2^(k*B - 1)."""
    if k < 1:
        raise ValueError("shortness class must be positive")
    bound = 1 << (k * budget.B - 1)
    n = x.num if x.num >= 0 else -x.num
    return n < bound and x.den < bound


def sum_balanced(xs: Iterable[BigRational]) -> BigRational:
    """Exact sum, pairing adjacent partial sums in a balanced binary tree.

    Balanced pairing keeps intermediate bit lengths near-linear in the total
    input bit length; a left-to-right fold can hit quadratic blowup.
    """
    layer: Sequence[BigRational] = list(xs)
    if not layer:
        return ZERO
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(layer[i] + layer[i + 1])
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]
