"""Monoid arithmetic in plain integers, written apart from euclidlab.

The benchmark builds its inputs and checks the program's answers with
this module alone, so a defect in the package cannot hide itself by
agreeing with its own checker.  Elements are the same part tuples the
CLI prints: ``(n,)`` for the naturals and congruence monoids,
``(a, b)`` for ``a + b*sqrt(d)``.  Nothing here imports euclidlab.
"""

from __future__ import annotations

import re
from functools import cmp_to_key
from math import isqrt


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def radical_sign(x: int, y: int, d: int) -> int:
    """Sign of ``x + y*sqrt(d)`` for square-free d >= 2, exactly."""
    if x >= 0 and y >= 0:
        return 1 if (x or y) else 0
    if x <= 0 and y <= 0:
        return -1
    if x > 0:  # y < 0: compare x^2 with d*y^2
        return _sign(x * x - d * y * y)
    return _sign(d * y * y - x * x)


class Space:
    """One monoid: membership, product, exact quotient and norm order.

    ``divisors`` is memoised per element, so checking thousands of
    witnesses over one monoid costs one divisor scan per element.
    """

    def __init__(self, spec: str):
        self.spec = spec
        self._divisors: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        words = spec.split()
        if words == ["nat"]:
            self.kind, self.residue, self.modulus = "scalar", 1, 1
        elif len(words) == 4 and words[0] == "congruence" and words[2] == "mod":
            self.kind = "scalar"
            self.residue, self.modulus = int(words[1]), int(words[3])
        elif len(words) == 2 and words[0] == "quadratic":
            self.kind, self.radicand = "quadratic", int(words[1])
        else:
            raise ValueError(f"not a monoid spec: {spec!r}")
        self.identity = (1,) if self.kind == "scalar" else (1, 0)
        self.sort_key = cmp_to_key(self.cmp)

    # -- arithmetic ---------------------------------------------------------

    def member(self, e: tuple[int, ...]) -> bool:
        if self.kind == "quadratic":
            return len(e) == 2 and min(e) >= 0 and e != (0, 0)
        n = e[0]
        return n == 1 or (n >= 1 and n % self.modulus == self.residue % self.modulus)

    def mul(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == "scalar":
            return (x[0] * y[0],)
        d = self.radicand
        return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def divide(self, b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...] | None:
        """The member q with ``a*q == b``, or None."""
        if self.kind == "scalar":
            q, rem = divmod(b[0], a[0])
            return (q,) if rem == 0 and self.member((q,)) else None
        d = self.radicand
        (p, q), (c, e) = b, a
        det = c * c - d * e * e
        x, rx = divmod(p * c - d * e * q, det)
        y, ry = divmod(c * q - e * p, det)
        if rx or ry or not self.member((x, y)):
            return None
        return (x, y)

    def divides(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return self.divide(b, a) is not None

    def cmp(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """Norm order, ties broken by the parts, as the CLI sorts."""
        if self.kind == "scalar":
            c = _sign(x[0] - y[0])
        else:
            c = radical_sign(x[0] - y[0], x[1] - y[1], self.radicand)
        return c or (x > y) - (x < y)

    # -- enumeration --------------------------------------------------------

    def _a_max(self, bound: tuple[int, int], b: int) -> int:
        """Largest a with a + b*sqrt(d) <= bound, or -1."""
        big_a, big_b = bound
        k = big_b - b
        if k >= 0:
            return big_a + isqrt(self.radicand * k * k)
        return big_a - (isqrt(self.radicand * k * k - 1) + 1)

    def count_up_to(self, x: tuple[int, ...]) -> int:
        """Number of members of norm at most x."""
        if self.kind == "scalar":
            n, m = x[0], self.modulus
            least = self.residue % m or m
            in_class = 0 if least > n else (n - least) // m + 1
            return in_class if least == 1 else in_class + 1
        b_max = x[1] + isqrt(x[0] * x[0] // self.radicand)
        total = sum(max(self._a_max(x, b), -1) + 1 for b in range(b_max + 1))
        return total - 1  # (0, 0) is not a member

    def members_up_to(self, x: tuple[int, ...]) -> list[tuple[int, ...]]:
        if self.kind == "scalar":
            n, m = x[0], self.modulus
            least = self.residue % m or m
            out = [] if least == 1 else [(1,)]
            return out + [(k,) for k in range(least, n + 1, m)]
        b_max = x[1] + isqrt(x[0] * x[0] // self.radicand)
        out = [(a, b) for b in range(b_max + 1)
               for a in range(self._a_max(x, b) + 1) if a or b]
        return sorted(out, key=self.sort_key)

    def divisors(self, x: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Every divisor of x in the monoid, in norm order."""
        found = self._divisors.get(x)
        if found is not None:
            return found
        if self.kind == "scalar":
            n = x[0]
            small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
            cands = sorted(set(small) | {n // d for d in small})
            found = tuple((d,) for d in cands
                          if self.member((d,)) and self.member((n // d,)))
        else:
            d = self.radicand
            norm = abs(x[0] * x[0] - d * x[1] * x[1])
            found = tuple(u for u in self.members_up_to(x)
                          if norm % abs(u[0] * u[0] - d * u[1] * u[1]) == 0
                          and self.divide(x, u) is not None)
        self._divisors[x] = found
        return found

    def is_irreducible(self, x: tuple[int, ...]) -> bool:
        return x != self.identity and len(self.divisors(x)) == 2

    def common_divisors(self, a, b) -> list[tuple[int, ...]]:
        return [u for u in self.divisors(a) if self.divides(u, b)]

    def algebraic_gcd(self, a, b) -> tuple[list, tuple[int, ...] | None]:
        """(maximal common divisors, the gcd or None)."""
        common = self.common_divisors(a, b)
        maximal = [u for u in common
                   if not any(v != u and self.divides(u, v) for v in common)]
        g = None
        if len(maximal) == 1 and all(self.divides(u, maximal[0]) for u in common):
            g = maximal[0]
        return maximal, g

    def factorizations(self, x) -> list[tuple[tuple[int, ...], ...]]:
        """Every multiset of irreducibles with product x, sorted."""
        memo: dict = {}

        def descend(y, floor):
            if y == self.identity:
                return [()]
            key = (y, floor)
            if key not in memo:
                out = []
                for p in self.divisors(y):
                    if p == self.identity or not self.is_irreducible(p):
                        continue
                    if floor is not None and self.cmp(p, floor) < 0:
                        continue
                    out += [(p,) + tail
                            for tail in descend(self.divide(y, p), p)]
                memo[key] = out
            return memo[key]

        elem_key = self.sort_key
        return sorted(descend(x, None),
                      key=lambda fs: [elem_key(p) for p in fs])

    def proportion_witness(self, a, b, c, d):
        """The least (x, y, m, n) with a=mx, b=nx, c=my, d=ny, or None."""
        for x in self.common_divisors(a, b):
            m, n = self.divide(a, x), self.divide(b, x)
            y = self.divide(c, m)
            if y is not None and self.mul(n, y) == d:
                return x, y, m, n
        return None

    # -- text forms ---------------------------------------------------------

    def payload(self, e: tuple[int, ...]):
        return e[0] if self.kind == "scalar" else list(e)

    def from_payload(self, p) -> tuple[int, ...]:
        return (p,) if self.kind == "scalar" else tuple(p)

    def literal(self, e: tuple[int, ...]) -> str:
        return str(e[0]) if self.kind == "scalar" else f"({e[0]},{e[1]})"


_LITERAL_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)\Z|(\d+)\Z")


def parse_literal(space: Space, text: str) -> tuple[int, ...]:
    """Parts of an element literal as the benchmark writes them."""
    m = _LITERAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an element literal: {text!r}")
    if m.group(3) is not None:
        n = int(m.group(3))
        return (n,) if space.kind == "scalar" else (n, 0)
    return (int(m.group(1)), int(m.group(2)))
