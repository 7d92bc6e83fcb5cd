"""Independent oracles the tests check the library against.

Everything here is plain integer arithmetic with no imports from the
package under test: membership by residue checks, divisor sets by
trial division, quadratic arithmetic by solving the 2x2 integer
system directly, and radical comparisons by sign analysis and
squaring.  Deliberately unclever so mistakes would not correlate with
mistakes in the library.
"""

from fractions import Fraction


def nat_divisors(n: int) -> set[int]:
    return {d for d in range(1, n + 1) if n % d == 0}


def congruence_member(r: int, m: int, n: int) -> bool:
    return n == 1 or n % m == r % m


def congruence_members(r: int, m: int, bound: int) -> list[int]:
    return sorted({1} | {n for n in range(1, bound + 1)
                         if n % m == r % m})


def congruence_divisors(r: int, m: int, n: int) -> set[int]:
    """Divisors within the monoid: quotient must also be a member."""
    return {d for d in range(1, n + 1)
            if n % d == 0
            and congruence_member(r, m, d)
            and congruence_member(r, m, n // d)}


def scalar_simplifications(divs: set[int], a: int, b: int) -> set[tuple[int, int]]:
    common = {d for d in divs if a % d == 0 and b % d == 0}
    return {(a // d, b // d) for d in common}


def reduced_fraction(a: int, b: int) -> tuple[int, int]:
    f = Fraction(a, b)
    return f.numerator, f.denominator


# -- quadratic (a + b*sqrt(d), entries nonnegative, not both zero) ------------


def radical_sign(x: int, y: int, d: int) -> int:
    """Sign of x + y*sqrt(d), exactly."""
    if x >= 0 and y >= 0:
        return 1 if (x or y) else 0
    if x <= 0 and y <= 0:
        return -1 if (x or y) else 0
    if x > 0:  # y < 0: compare x^2 with d*y^2
        lhs, rhs = x * x, d * y * y
    else:  # y > 0, x < 0: compare d*y^2 with x^2
        lhs, rhs = d * y * y, x * x
    if lhs == rhs:
        return 0
    return 1 if lhs > rhs else -1


def quad_norm_le(pair: tuple[int, int], other: tuple[int, int], d: int) -> bool:
    """a + b*sqrt(d) <= A + B*sqrt(d), exactly."""
    a, b = pair
    aa, bb = other
    return radical_sign(aa - a, bb - b, d) >= 0


def quad_members(d: int, bound: tuple[int, int]) -> list[tuple[int, int]]:
    """All member pairs with norm at most the bound, unsorted."""
    out = []
    a = 0
    while a == 0 or quad_norm_le((a, 0), bound, d):
        b = 0
        while quad_norm_le((a, b), bound, d):
            if (a, b) != (0, 0):
                out.append((a, b))
            b += 1
        a += 1
    return out


def quad_mul(x: tuple[int, int], y: tuple[int, int], d: int) -> tuple[int, int]:
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def quad_try_divide(b: tuple[int, int], a: tuple[int, int],
                    d: int) -> tuple[int, int] | None:
    """b / a as a member pair, or None; solves the linear system."""
    (p, q), (c, e) = b, a
    det = c * c - d * e * e
    if det == 0:
        return None
    num_x = p * c - d * e * q
    num_y = c * q - e * p
    if num_x % det or num_y % det:
        return None
    x, y = num_x // det, num_y // det
    if x < 0 or y < 0 or (x, y) == (0, 0):
        return None
    return (x, y)


def quad_divisors(d: int, pair: tuple[int, int]) -> set[tuple[int, int]]:
    return {u for u in quad_members(d, pair)
            if quad_try_divide(pair, u, d) is not None}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing."""
    return [k for k in range(2, n + 1) if n % k == 0 and is_prime(k)]
