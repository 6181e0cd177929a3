"""
Best b-bit rational approximations
==================================

A value with a huge denominator can be bracketed by two fractions with
small denominators so tightly that nothing representable fits between
them.  Comparing the value against any small fraction then costs two
cheap comparisons, no matter how many bits the value itself has.
"""

from ratpath import BigRational, best_approx, best_approx_shift, compare_via_approx

x = BigRational(17, 14)
print(f"x = {x}")

for bits in (2, 3, 5):
    ap = best_approx(x, bits)
    print(f"ra(x, {bits} bits): [{ap.lo}, {ap.hi}]")

# the bracket answers comparisons against any 3-bit fraction exactly
ap = best_approx(x, 3)
for beta in (BigRational(6, 5), BigRational(5, 4), BigRational(13, 7)):
    print(f"x vs {beta}: {compare_via_approx(ap, beta).name}")

# shifting: an approximation of x plus a coarse offset yields the
# approximation of the sum at reduced precision, without touching x
base = best_approx(BigRational(5, 7), 4)
shifted = best_approx_shift(base, BigRational(1, 2), 1)
print(f"ra(5/7 + 1/2, 3 bits) via shift: [{shifted.lo}, {shifted.hi}]")
print(f"directly:                        {best_approx(BigRational(17, 14), 3)}")

# a value with a 200-bit denominator still brackets instantly
tiny = BigRational(1, 3) + BigRational(1, 1 << 200)
ap = best_approx(tiny, 8)
print(f"1/3 + 2^-200 at 8 bits: [{ap.lo}, {ap.hi}]")
