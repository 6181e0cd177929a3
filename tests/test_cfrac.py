import math

import numpy as np
import pytest

from ratpath.cfrac import (
    Ordering,
    best_approx,
    best_approx_shift,
    compare_via_approx,
)
from ratpath.rational import BigRational
from conftest import assert_best_pair, brute_best_approx, random_rational


def R(n, d=1):
    return BigRational(n, d)


class TestBestApprox:
    def test_examples(self):
        ap = best_approx(R(5, 7), 2)
        assert (ap.lo, ap.hi) == (R(2, 3), R(1))
        ap = best_approx(R(1, 2), 2)
        assert ap.lo == ap.hi == R(1, 2)
        ap = best_approx(R(17, 14), 3)
        assert (ap.lo, ap.hi) == (R(6, 5), R(5, 4))

    def test_exhaustive_small(self):
        # Exhaustive agreement with the brute-force universe at a reduced
        # desk scale; the acceptance suite runs the full spec scale.
        for b in range(1, 5):
            for den in range(1, 33):
                for num in range(-32, 33):
                    if math.gcd(abs(num), den) != 1:
                        continue
                    x = R(num, den)
                    lo, hi = brute_best_approx(x, b)
                    ap = best_approx(x, b)
                    assert (ap.lo, ap.hi) == (lo, hi), (str(x), b)

    def test_invariants_random(self, rng):
        for _ in range(500):
            x = random_rational(rng, 10**6, 10**6)
            b = int(rng.integers(1, 20))
            assert_best_pair(x, b, best_approx(x, b))


class TestShift:
    def test_examples(self):
        assert best_approx_shift(best_approx(R(5, 7), 4), R(1, 2), 1) == best_approx(R(17, 14), 3)
        assert best_approx_shift(best_approx(R(5, 7), 3), R(0, 1), 1) == best_approx(R(5, 7), 2)
        sh = best_approx_shift(best_approx(R(1, 3), 5), R(1, 3), 2)
        assert sh.lo == sh.hi == R(2, 3)

    def test_matches_direct(self, rng):
        for _ in range(10_000):
            x = random_rational(rng, 2000, 2000)
            b = int(rng.integers(3, 14))
            reduce_bits = int(rng.integers(1, b - 1)) if b > 2 else 1
            max_q = 1 << reduce_bits
            q = int(rng.integers(1, max_q + 1))
            p = int(rng.integers(-3 * max_q, 3 * max_q + 1))
            offset = R(p, q)
            if offset.den > max_q:
                continue
            got = best_approx_shift(best_approx(x, b), offset, reduce_bits)
            want = best_approx(x + offset, b - reduce_bits)
            assert got == want, (str(x), b, str(offset), reduce_bits)

    def test_preconditions(self):
        ap = best_approx(R(5, 7), 4)
        with pytest.raises(ValueError):
            best_approx_shift(ap, R(1, 32), 5)
        with pytest.raises(ValueError):
            best_approx_shift(ap, R(1, 8), 2)


class TestOrdering:
    def test_is_the_int_sign(self):
        for c in (-(1 << 70), -5, -1, 0, 1, 2, 1 << 70):
            sign = (c > 0) - (c < 0)
            assert Ordering.of(c) == sign
            assert Ordering.of(c) is Ordering(sign)
        assert [int(o) for o in Ordering] == [-1, 0, 1]


class TestCompareViaApprox:
    def test_examples(self):
        ap = best_approx(R(5, 7), 2)  # (2/3, 1)
        assert compare_via_approx(ap, R(2, 3)) is Ordering.GREATER
        exact = best_approx(R(1, 2), 2)
        assert compare_via_approx(exact, R(1, 2)) is Ordering.EQUAL
        assert compare_via_approx(ap, R(2)) is Ordering.LESS

    def test_denominator_guard(self):
        with pytest.raises(ValueError):
            compare_via_approx(best_approx(R(5, 7), 2), R(1, 5))

    def test_exhaustive_agreement(self):
        # All reduced alpha with |num|, den <= 24, all b <= 5, all
        # admissible beta from the same universe.
        betas = {}
        for b in range(1, 6):
            betas[b] = [
                R(p, q)
                for q in range(1, 1 << b)
                for p in range(-25 * q, 25 * q + 1)
                if math.gcd(abs(p), q) == 1
            ]
        for den in range(1, 25):
            for num in range(-24, 25):
                if math.gcd(abs(num), den) != 1:
                    continue
                x = R(num, den)
                for b in range(1, 6):
                    ap = best_approx(x, b)
                    for beta in betas[b][:: 7]:
                        want = Ordering.of(x._cmp(beta))
                        assert compare_via_approx(ap, beta) is want
