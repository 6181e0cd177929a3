"""Best b-bit rational approximations.

The best b-bit rational approximation of a value x is the pair (lo, hi) of
fractions with denominators below 2^b that bracket x as tightly as
possible: no fraction with denominator below 2^b lies strictly between
them.  Given such a pair, comparing x against any fraction with a small
denominator reduces to two exact comparisons against lo and hi, no matter
how many bits x itself needs.

Pairs are canonicalized: when x itself has a denominator below 2^b the
pair collapses to (x, x), which makes `compare_via_approx` total and
deterministic.
"""

from __future__ import annotations

import enum

from .rational import BigRational, _make

__all__ = [
    "Ordering",
    "ApproxPair",
    "best_approx",
    "best_approx_shift",
    "compare_via_approx",
]


class Ordering(enum.IntEnum):
    """Three-way comparison outcome; an int, so it may be used as the sign
    -1, 0 or 1 directly."""

    LESS = -1
    EQUAL = 0
    GREATER = 1

    @staticmethod
    def of(c: int) -> "Ordering":
        return Ordering.LESS if c < 0 else (Ordering.GREATER if c > 0 else Ordering.EQUAL)


class ApproxPair:
    """Best b-bit rational approximation: lo <= x <= hi, nothing between."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: BigRational, hi: BigRational, bits: int):
        if bits < 1:
            raise ValueError("bit budget must be positive")
        if lo > hi:
            raise ValueError("lo must not exceed hi")
        bound = 1 << bits
        if lo.den >= bound or hi.den >= bound:
            raise ValueError("approximation denominators exceed the bit budget")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("ApproxPair is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ApproxPair)
            and other.lo == self.lo
            and other.hi == self.hi
            and other.bits == self.bits
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.bits))

    def __repr__(self):
        return f"ApproxPair({self.lo}, {self.hi}, bits={self.bits})"

    def negated(self) -> "ApproxPair":
        return ApproxPair(-self.hi, -self.lo, self.bits)


def best_approx(x: BigRational, b: int) -> ApproxPair:
    """Best b-bit rational approximation of x.

    Streams the Euclidean quotients of x only until the convergent
    denominator reaches 2^b, so it takes O(b) quotients however long the
    full expansion of x is.  The last convergent below 2^b and the
    extreme semiconvergent that still fits bracket x from opposite sides.
    """
    if b < 1:
        raise ValueError("bit budget must be positive")
    bound = 1 << b
    if x.den < bound:
        return ApproxPair(x, x, b)
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0
    n, d = x.num, x.den
    while True:
        a, r = divmod(n, d)
        q_nxt = q_cur * a + q_prev
        if q_nxt >= bound:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_cur * a + p_prev, q_nxt
        n, d = d, r
    t = (bound - 1 - q_prev) // q_cur
    # Convergents and semiconvergents are already in lowest terms.
    conv = _make(p_cur, q_cur)
    semi = _make(t * p_cur + p_prev, t * q_cur + q_prev)
    return ApproxPair(min(conv, semi), max(conv, semi), b)


def best_approx_shift(ap: ApproxPair, offset: BigRational, reduce_bits: int) -> ApproxPair:
    """Approximation of x + offset at (bits - reduce_bits) bits.

    Requires the offset denominator at most 2^reduce_bits (a fraction y/z
    at the reduced budget then satisfies z * offset.den < 2^bits, which is
    all the correctness argument needs) and reduce_bits < ap.bits.  The
    result equals best_approx(x + offset, bits - reduce_bits) for every x
    consistent with ap: take the largest fraction at the reduced budget
    not above lo + offset and the smallest not below hi + offset.
    """
    if reduce_bits < 1 or reduce_bits >= ap.bits:
        raise ValueError("reduce_bits must satisfy 1 <= reduce_bits < ap.bits")
    if offset.den > (1 << reduce_bits):
        raise ValueError("offset denominator exceeds 2^reduce_bits")
    out_bits = ap.bits - reduce_bits
    lo = best_approx(ap.lo + offset, out_bits).lo
    hi = best_approx(ap.hi + offset, out_bits).hi
    return ApproxPair(lo, hi, out_bits)


def compare_via_approx(ap: ApproxPair, beta: BigRational) -> Ordering:
    """Order the approximated value against beta (denominator below 2^bits).

    Correct for canonicalized pairs: when lo < hi the approximated value is
    strictly inside the bracket, so beta hitting an endpoint resolves the
    comparison.
    """
    if beta.den >= (1 << ap.bits):
        raise ValueError("comparison denominator exceeds the approximation budget")
    if beta < ap.lo:
        return Ordering.GREATER
    if beta > ap.hi:
        return Ordering.LESS
    if ap.lo == ap.hi:
        return Ordering.EQUAL
    if beta == ap.lo:
        return Ordering.GREATER
    if beta == ap.hi:
        return Ordering.LESS
    raise AssertionError("a fraction below the budget lies strictly inside the bracket")
