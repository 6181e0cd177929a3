import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratpath.rational import (
    BigRational,
    WordBudget,
    ZERO,
    is_k_short,
    sum_balanced,
    sum_lt,
)
from conftest import UnreducedPair, reference_parse_rational


def R(n, d=1):
    return BigRational(n, d)


class TestInvariants:
    def test_canonical_form(self):
        x = R(4, -6)
        assert (x.num, x.den) == (-2, 3)
        assert (R(0, 17).num, R(0, 17).den) == (0, 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            R(1, 0)

    def test_immutable(self):
        x, y = R(-1, 2), R(1, 3)
        for v in (x, -x, abs(x), x + y):
            with pytest.raises(AttributeError):
                v.num = 5
            with pytest.raises(AttributeError):
                v.den = 7
            with pytest.raises(AttributeError):
                v.extra = 1
        assert (x.num, x.den) == (-1, 2)

    def test_not_a_tuple(self):
        # A tuple subclass would compare equal to (1, 2) through the
        # tuple's reflected __eq__ and would be iterable.
        x = R(1, 2)
        assert x != (1, 2) and not (x == (1, 2))
        with pytest.raises(TypeError):
            iter(x)


class TestArith:
    def test_add_example(self):
        assert R(1, 3) + R(1, 5) == R(8, 15)
        budget = WordBudget(4)
        assert is_k_short(R(1, 3), 1, budget) and is_k_short(R(1, 5), 1, budget)
        assert is_k_short(R(8, 15), 2, budget)

    def test_sub_cancellation(self):
        for x in (R(7, 3), R(-2, 9), ZERO):
            assert x - x == ZERO

    def test_div_identity(self):
        assert R(5, 7) / R(5, 7) == R(1)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            R(1, 2) / ZERO

    def test_against_unreduced_oracle_256bit(self):
        rng = np.random.default_rng(7)

        def big(signed):
            x = int.from_bytes(rng.bytes(32), "little")
            if signed and rng.integers(0, 2):
                x = -x
            return x or 1

        for _ in range(300):
            a_num, a_den = big(True), abs(big(False))
            b_num, b_den = big(True), abs(big(False))
            a, b = BigRational(a_num, a_den), BigRational(b_num, b_den)
            ua, ub = UnreducedPair(a_num, a_den), UnreducedPair(b_num, b_den)
            assert ua.add(ub).equals(a + b)
            assert ua.sub(ub).equals(a - b)
            assert ua.mul(ub).equals(a * b)
            if b_num:
                assert ua.div(ub).equals(a / b)

    def test_shortness_closure(self):
        rng = np.random.default_rng(8)
        budget = WordBudget(16)
        for _ in range(400):
            j = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            bound_j = 2 ** (j * 16 - 1) - 1
            bound_k = 2 ** (k * 16 - 1) - 1
            a = BigRational(int(rng.integers(-bound_j, bound_j)), int(rng.integers(1, bound_j)))
            b = BigRational(int(rng.integers(-bound_k, bound_k)), int(rng.integers(1, bound_k)))
            results = [a + b, a - b, a * b]
            if b != ZERO:
                results.append(a / b)
            for x in results:
                assert is_k_short(x, j + k, budget)


class TestShortness:
    def test_examples(self):
        b8 = WordBudget(8)
        assert is_k_short(R(3, 5), 1, b8)
        assert not is_k_short(R(2**20, 3), 1, b8)
        assert is_k_short(R(8, 15), 2, WordBudget(4))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            WordBudget(1)
        with pytest.raises(ValueError):
            is_k_short(R(1), 0)


class TestSumBalanced:
    def test_examples(self):
        assert sum_balanced([R(1, 2), R(1, 3), R(1, 6)]) == R(1)
        assert sum_balanced([]) == ZERO
        assert sum_balanced([R(1, 2), R(-1, 2), R(7, 3)]) == R(7, 3)

    def test_matches_left_fold(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            xs = [
                BigRational(int(rng.integers(-50, 51)), int(rng.integers(1, 30)))
                for _ in range(int(rng.integers(0, 12)))
            ]
            fold = ZERO
            for x in xs:
                fold = fold + x
            assert sum_balanced(xs) == fold


def _parse_outcome(parse, text):
    """(type, num, den) of what `parse` returns, or (type, message) of what
    it raises."""
    try:
        x = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), x.num, x.den


class TestTextual:
    def test_parse_unreduced(self):
        assert BigRational.parse("6/4") == R(3, 2)
        assert BigRational.parse("-7") == R(-7)
        assert str(R(-3, 4)) == "-3/4"
        assert str(R(5)) == "5"

    def test_parse_rejects(self):
        for bad in ("", "1/0", "a/b", "1.5", "1/-2"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                BigRational.parse(bad)

    @pytest.mark.parametrize("text", [
        "١٢/٣", "+0/5", "-0", " 7/4 ", "1_0/3", "1/+3", "1/-3", "", "/", "1/", "/3", "²",
        "1.5", "1/0",
    ])
    def test_parse_matches_regex(self, text):
        assert _parse_outcome(BigRational.parse, text) == _parse_outcome(reference_parse_rational, text)

    @given(st.text(alphabet="0123456789+-/ _١²", max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_parse_matches_regex_on_random_text(self, text):
        assert _parse_outcome(BigRational.parse, text) == _parse_outcome(reference_parse_rational, text)

    def test_decimal(self):
        assert R(1, 3).to_decimal(4) == "0.3333"
        assert R(-5, 2).to_decimal(2) == "-2.50"

    def test_decimal_rejects_negative_digits(self):
        # a remainder of about 1300 bits, which no float can scale
        wide = R((1 << 1300) - 1, 1 << 1300)
        for x in (R(1, 2), wide):
            with pytest.raises(ValueError, match="digits must be non-negative, got -1"):
                x.to_decimal(-1)


def _old_to_decimal(x, digits):
    """`BigRational.to_decimal` as it was, through CPython's own conversion."""
    neg = x.num < 0
    whole, rem = divmod(-x.num if neg else x.num, x.den)
    body = f"{whole}.{(rem * 10**digits) // x.den:0{digits}d}"
    return "-" + body if neg else body


class TestWideText:
    # CPython refuses int <-> decimal text past `sys.get_int_max_str_digits()`
    # digits (4300 by default, 640 at least); ratpath's text does not.
    DIGITS = 5000

    def test_str_and_repr(self):
        x = R(1, 10**self.DIGITS)
        assert str(x) == "1/1" + "0" * self.DIGITS
        assert repr(x) == f"BigRational(1, 1{'0' * self.DIGITS})"
        assert str(R(-(10**self.DIGITS))) == "-1" + "0" * self.DIGITS

    def test_to_decimal(self):
        assert R(1, 3).to_decimal(self.DIGITS) == "0." + "3" * self.DIGITS
        assert R(-2, 3).to_decimal(self.DIGITS) == "-0." + "6" * (self.DIGITS - 1) + "6"
        # a whole part of 5000 digits, and fraction digits with leading zeros
        x = R(10**self.DIGITS * 7 + 1, 10**self.DIGITS)
        assert x.to_decimal(self.DIGITS) == "7." + "0" * (self.DIGITS - 1) + "1"
        assert R(10**self.DIGITS + 1, 2).to_decimal(0) == "5" + "0" * (self.DIGITS - 1)

    def test_parse_of_a_wide_token_works(self):
        # The pinned choice: a token past the limit parses exactly.
        ones = "1" * self.DIGITS  # (10^DIGITS - 1) / 9
        assert BigRational.parse("-" + "7" * self.DIGITS + "/" + ones + "0") == R(-7, 10)
        assert BigRational.parse("+" + ones) == R((10**self.DIGITS - 1) // 9)

    @pytest.mark.parametrize("limit", [None, 640])
    def test_matches_unlimited_conversion(self, limit):
        # Against CPython's own conversion with the limit lifted, under the
        # default limit and under the least one CPython allows.
        if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
            pytest.skip("this Python converts ints of any size")
        rng = np.random.default_rng(5)
        values = [R((-1) ** k * int(rng.integers(1, 1 << 62)) ** k, 3**j + 1)
                  for k in (1, 30, 200, 300) for j in (1, 4000, 12000)]
        values.append(R(10**599, 10**600 - 1))
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            want = [(f"{x.num}" if x.den == 1 else f"{x.num}/{x.den}", _old_to_decimal(x, 50))
                    for x in values]
            sys.set_int_max_str_digits(old if limit is None else limit)
            for x, (text, decimal) in zip(values, want):
                assert str(x) == text
                assert BigRational.parse(text) == x
                assert x.to_decimal(50) == decimal
        finally:
            sys.set_int_max_str_digits(old)


@given(
    st.integers(-(10**12), 10**12),
    st.integers(1, 10**12),
    st.integers(-(10**12), 10**12),
    st.integers(1, 10**12),
)
@settings(max_examples=200, deadline=None)
def test_field_laws(an, ad, bn, bd):
    a, b = BigRational(an, ad), BigRational(bn, bd)
    assert a + b == b + a
    assert a + b - b == a
    assert a * b == b * a
    if b != ZERO:
        assert (a / b) * b == a
    assert (a < b) == (not (a >= b))


def _canonical(x):
    assert isinstance(x, BigRational)
    assert x.den > 0
    assert math.gcd(abs(x.num), x.den) == 1
    if x.num == 0:
        assert x.den == 1
    return Fraction(x.num, x.den)


# Denominators built from a few shared small primes, so that every branch
# of the Knuth add runs: gcd(da, db) == 1, gcd(da, db) > 1 with the sum
# coprime to it, a sum sharing a factor with it, and a zero sum.
_shared_dens = st.builds(
    lambda a, b, c, d: 2**a * 3**b * 5**c * 7**d,
    st.integers(0, 6),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 1),
)
_nums = st.one_of(
    st.integers(-60, 60),
    st.integers(-(10**30), 10**30),
    st.builds(lambda k, m: k * m, st.sampled_from([2, 3, 6, 10, 30, 64]), st.integers(-50, 50)),
)


@given(_nums, _shared_dens, _nums, _shared_dens, st.sampled_from(["free", "same", "neg"]),
       st.integers(-20, 20))
@settings(max_examples=600, deadline=None)
def test_against_fraction(an, ad, bn, bd, tie, k):
    a = BigRational(an, ad)
    b = {"free": BigRational(bn, bd), "same": a, "neg": -a}[tie]
    fa, fb = Fraction(a.num, a.den), Fraction(b.num, b.den)
    assert _canonical(a + b) == fa + fb
    assert _canonical(a - b) == fa - fb
    assert _canonical(a * b) == fa * fb
    if b:
        assert _canonical(a / b) == fa / fb
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert _canonical(k + a) == k + fa
    assert _canonical(a + k) == fa + k
    assert _canonical(k - a) == k - fa
    assert _canonical(a - k) == fa - k
    assert _canonical(k * a) == k * fa
    if a:
        assert _canonical(k / a) == k / fa
    assert _canonical(-a) == -fa
    assert _canonical(abs(a)) == abs(fa)
    for x, fx in ((b, fb), (k, k)):
        assert (a == x) == (fa == fx)
        assert (a != x) == (fa != fx)
        assert (a < x) == (fa < fx)
        assert (a <= x) == (fa <= fx)
        assert (a > x) == (fa > fx)
        assert (a >= x) == (fa >= fx)


@given(_nums, _shared_dens, _nums, _shared_dens, _nums, _shared_dens,
       st.sampled_from(["free", "tie", "above", "below"]))
@settings(max_examples=600, deadline=None)
def test_sum_lt_against_fraction(an, ad, bn, bd, cn, cd, where):
    # c either free or pinned to the exact sum and its two neighbours at
    # distance 1/cd, so that ties and the closest losses and wins occur.
    a, b = BigRational(an, ad), BigRational(bn, bd)
    exact = Fraction(an, ad) + Fraction(bn, bd)
    step = Fraction(1, cd)
    fc = {"free": Fraction(cn, cd), "tie": exact, "above": exact + step, "below": exact - step}[where]
    c = BigRational(fc.numerator, fc.denominator)
    assert sum_lt(a, b, c) == (exact < fc)
