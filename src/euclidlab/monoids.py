"""Commutative cancellative monoids with exact arithmetic.

Three monoids are built in:

* ``Congruence(r, m)``: ``{n >= 1 : n = r (mod m)}`` with 1 adjoined as
  identity.  Requires ``r*r = r (mod m)`` so the set is closed.
* ``Naturals``: the positive integers under multiplication, the class of
  1 mod 1.  It runs on the same scalar kernel as ``Congruence``.
* ``Quadratic(d)``: numbers ``a + b*sqrt(d)`` with integer ``a, b >= 0``,
  not both zero, for a square-free radicand ``d >= 2``.

All arithmetic is exact: arbitrary-precision integers throughout, and
order comparisons involving ``sqrt(d)`` are decided by one integer
identity, never by floating point: ``x + y*sqrt(d)`` has the sign of
``x*|x| + d*y*|y|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key, lru_cache, total_ordering
from itertools import combinations
from math import isqrt
from typing import ClassVar, Iterator

from .errors import (
    BoundExceededError,
    InvalidInputError,
    MonoidMismatchError,
)

#: Cap on the candidates a single enumeration or divisor scan may inspect.
DEFAULT_ENUMERATION_CEILING = 1_000_000

#: Entries kept by the divisor cache.  A divisor set is reused mostly
#: within one ``factorizations`` descent, which asks for one set per
#: divisor of its input.
DIVISORS_CACHE_SIZE = 4096


def _require_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return value


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


@total_ordering
@dataclass(frozen=True)
class Element:
    """A monoid element: an immutable parts tuple tagged with its monoid.

    Scalar monoids use one part ``(n,)``; quadratic monoids use two,
    ``(a, b)`` standing for ``a + b*sqrt(d)``.  Build elements through
    ``Monoid.element`` so membership is validated.
    """

    monoid: "Monoid"
    parts: tuple[int, ...]

    @property
    def value(self) -> int:
        """The integer value, for scalar monoids only."""
        if len(self.parts) != 1:
            raise InvalidInputError("value is only defined for scalar monoids")
        return self.parts[0]

    @property
    def pair(self) -> tuple[int, int]:
        """The ``(a, b)`` pair, for quadratic monoids only."""
        if len(self.parts) != 2:
            raise InvalidInputError("pair is only defined for quadratic monoids")
        return self.parts  # type: ignore[return-value]

    def is_identity(self) -> bool:
        return self.parts == self.monoid._identity_parts()

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if other.monoid != self.monoid:
            raise MonoidMismatchError(
                f"cannot multiply across monoids: {self.monoid.spec_text()!r} "
                f"vs {other.monoid.spec_text()!r}")
        return Element(self.monoid, self.monoid._mul_parts(self.parts, other.parts))

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if other.monoid != self.monoid:
            raise MonoidMismatchError(
                f"cannot order across monoids: {self.monoid.spec_text()!r} "
                f"vs {other.monoid.spec_text()!r}")
        # The kernel's order alone: distinct members have distinct values,
        # since sqrt(d) is irrational.
        return self.monoid._norm_cmp_parts(self.parts, other.parts) < 0

    def render(self) -> str:
        """Canonical text form, e.g. ``42`` or ``3+8*sqrt(2)``."""
        return self.monoid._render_parts(self.parts)

    def to_payload(self) -> int | list[int]:
        """Canonical JSON form: an integer, or ``[a, b]`` for quadratic."""
        return self.monoid._parts_payload(self.parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.render()} in {self.monoid.spec_text()}>"


class Monoid:
    """Descriptor and arithmetic kernel for one monoid.

    Subclasses are frozen dataclasses, so descriptors compare and hash by
    value and can tag elements cheaply.
    """

    # -- public surface ----------------------------------------------------

    def spec_text(self) -> str:
        """The canonical spec string this monoid parses from."""
        raise NotImplementedError

    @property
    def identity(self) -> Element:
        return Element(self, self._identity_parts())

    def contains(self, *parts: int) -> bool:
        """Membership test for raw components.

        Negative components are malformed and raise InvalidInputError;
        well-formed non-members (such as 0, or the pair (0, 0)) return
        False.
        """
        raise NotImplementedError

    def element(self, *parts: int) -> Element:
        """Validated element constructor."""
        if not self.contains(*parts):
            rendered = self._render_parts(tuple(parts))
            raise InvalidInputError(
                f"{rendered} is not a member of {self.spec_text()!r}")
        return Element(self, tuple(parts))

    # -- kernel methods on raw parts ---------------------------------------

    def _identity_parts(self) -> tuple[int, ...]:
        raise NotImplementedError

    def _mul_parts(self, p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def _try_divide_parts(self, b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...] | None:
        raise NotImplementedError

    def _norm_cmp_parts(self, p: tuple[int, ...], q: tuple[int, ...]) -> int:
        raise NotImplementedError

    def _norm_parts(self, p: tuple[int, ...]) -> int:
        """A multiplicative integer norm, never 0: ``u | x`` forces
        ``N(u) | N(x)`` in the integers."""
        raise NotImplementedError

    def _bound_parts(self, bound: "int | Element") -> tuple[int, ...]:
        """Normalize an integer or element bound to comparable parts: an
        integer n stands for the element n, ``(n,)`` or ``(n, 0)``."""
        if isinstance(bound, Element):
            if bound.monoid != self:
                raise MonoidMismatchError("bound element belongs to another monoid")
            return bound.parts
        return (_require_int(bound, "bound"),) + self._identity_parts()[1:]

    def _count_up_to(self, bound: tuple[int, ...]) -> int:
        """The member count up to the bound, or a lower bound past the ceiling."""
        raise NotImplementedError

    def _iter_parts_up_to(self, bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The members of norm at most the bound, in increasing norm order."""
        raise NotImplementedError

    def _iter_root_parts(self, x: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The members u with ``u * u <= x``, in any order."""
        raise NotImplementedError

    def _render_parts(self, p: tuple[int, ...]) -> str:
        raise NotImplementedError

    def _parts_payload(self, p: tuple[int, ...]) -> int | list[int]:
        raise NotImplementedError


class _ScalarMonoid(Monoid):
    """Kernel of every one-part monoid: the integers ``n >= 1`` with
    ``n = residue (mod modulus)`` under multiplication, with 1 adjoined.
    The naturals are the class of 1 mod 1."""

    residue: int
    modulus: int
    _ONE_COMPONENT: ClassVar[str] = "a congruence element has one component"

    def _least_member(self) -> int:
        """Smallest positive integer congruent to the residue."""
        s = self.residue % self.modulus
        return s if s else self.modulus

    def contains(self, *parts: int) -> bool:
        if len(parts) != 1:
            raise InvalidInputError(self._ONE_COMPONENT)
        n = _require_int(parts[0], "component")
        if n < 0:
            raise InvalidInputError(f"component must not be negative, got {n}")
        return n == 1 or n > 1 and n % self.modulus == self.residue % self.modulus

    def _identity_parts(self):
        return (1,)

    def _mul_parts(self, p, q):
        return (p[0] * q[0],)

    def _try_divide_parts(self, b, a):
        quot, rem = divmod(b[0], a[0])
        if rem != 0 or quot < 1:
            return None
        if quot != 1 and quot % self.modulus != self.residue % self.modulus:
            return None
        return (quot,)

    def _norm_cmp_parts(self, p, q):
        return _sign(p[0] - q[0])

    def _norm_parts(self, p):
        return p[0]

    def _count_up_to(self, bound):
        n = bound[0]
        s = self._least_member()
        in_class = 0 if s > n else (n - s) // self.modulus + 1
        return in_class if s == 1 else in_class + 1

    def _iter_parts_up_to(self, bound):
        n = bound[0]
        s = self._least_member()
        if s != 1:
            yield (1,)
        for k in range(s, n + 1, self.modulus):
            yield (k,)

    def _iter_root_parts(self, x):
        return self._iter_parts_up_to((isqrt(x[0]),))

    def _render_parts(self, p):
        return str(p[0])

    def _parts_payload(self, p):
        return p[0]


@dataclass(frozen=True)
class Naturals(_ScalarMonoid):
    """Positive integers under multiplication: the class of 1 mod 1."""

    residue: ClassVar[int] = 1
    modulus: ClassVar[int] = 1
    _ONE_COMPONENT: ClassVar[str] = "a natural number has one component"

    def spec_text(self) -> str:
        return "nat"


@dataclass(frozen=True)
class Congruence(_ScalarMonoid):
    """``{n >= 1 : n = residue (mod modulus)}`` with 1 adjoined.

    Closure under multiplication needs ``residue**2 = residue (mod
    modulus)``; the constructor rejects descriptors violating that, naming
    a concrete product as witness.
    """

    residue: int
    modulus: int

    def __post_init__(self):
        r = _require_int(self.residue, "residue")
        m = _require_int(self.modulus, "modulus")
        if r < 1:
            raise InvalidInputError(f"residue must be positive, got {r}")
        if m < 1:
            raise InvalidInputError(f"modulus must be positive, got {m}")
        if (r * r - r) % m != 0:
            s = self._least_member()
            raise InvalidInputError(
                f"monoid 'congruence {r} mod {m}' is not multiplicatively "
                f"closed: product {s * s} has residue {(s * s) % m}, "
                f"expected {r % m}")

    def spec_text(self) -> str:
        return f"congruence {self.residue} mod {self.modulus}"


def _square_free(n: int) -> bool:
    """Square-freeness of n >= 1 by trial division up to the cube root.

    Each factor found is divided out, so once f**3 exceeds the cofactor m,
    every prime factor of m is above its cube root: m has at most two of
    them and is square-free unless it is a perfect square.  Raises
    BoundExceededError when a trial divisor would pass
    DEFAULT_ENUMERATION_CEILING.
    """
    ceiling = DEFAULT_ENUMERATION_CEILING
    m = n
    f = 2
    while f * f * f <= m:
        if f > ceiling:
            raise BoundExceededError(
                f"the square-free test of {n} needs trial divisors past "
                f"the ceiling of {ceiling}", ceiling=ceiling)
        if m % f == 0:
            m //= f
            if m % f == 0:
                return False
        f += 1 if f == 2 else 2
    r = isqrt(m)
    return m == 1 or r * r != m


@dataclass(frozen=True)
class Quadratic(Monoid):
    """``a + b*sqrt(d)`` with integers ``a, b >= 0``, not both zero.

    The radicand must be square-free and at least 2, which keeps
    ``sqrt(d)`` irrational; distinct pairs then have distinct values, and
    one integer identity decides every comparison exactly.
    """

    radicand: int = 2

    def __post_init__(self):
        d = _require_int(self.radicand, "radicand")
        if d < 2:
            raise InvalidInputError(f"radicand must be at least 2, got {d}")
        if not _square_free(d):
            raise InvalidInputError(f"radicand must be square-free, got {d}")

    def spec_text(self) -> str:
        return f"quadratic {self.radicand}"

    def contains(self, *parts: int) -> bool:
        if len(parts) != 2:
            raise InvalidInputError("a quadratic element has two components")
        a = _require_int(parts[0], "component")
        b = _require_int(parts[1], "component")
        if a < 0 or b < 0:
            raise InvalidInputError(
                f"components must not be negative, got ({a}, {b})")
        return (a, b) != (0, 0)

    def _identity_parts(self):
        return (1, 0)

    def _mul_parts(self, p, q):
        a, b = p
        c, d = q
        r = self.radicand
        return (a * c + r * b * d, a * d + b * c)

    def _try_divide_parts(self, b, a):
        # Solve (c + d*sqrt(r)) * (e + f*sqrt(r)) = x + y*sqrt(r) for e, f.
        x, y = b
        c, d = a
        r = self.radicand
        det = c * c - r * d * d  # nonzero: sqrt(r) is irrational
        e_num = x * c - r * y * d
        f_num = y * c - x * d
        e, e_rem = divmod(e_num, det)
        f, f_rem = divmod(f_num, det)
        if e_rem or f_rem or e < 0 or f < 0 or (e, f) == (0, 0):
            return None
        return (e, f)

    def _norm_cmp_parts(self, p, q):
        # t -> t*|t| is odd and strictly increasing, so x > -y*sqrt(r)
        # exactly when x*|x| > -r*y*|y|: x + y*sqrt(r) has that sign.
        x, y = p[0] - q[0], p[1] - q[1]
        return _sign(x * abs(x) + self.radicand * y * abs(y))

    def _norm_parts(self, p):
        # The field norm |a^2 - r*b^2|: nonzero because sqrt(r) is irrational.
        a, b = p
        return abs(a * a - self.radicand * b * b)

    def _rows(self, bound: tuple[int, ...]) -> Iterator[tuple[int, int]]:
        # (b, a_max) for each row b holding some a >= 0 with a + b*sqrt(r)
        # <= A + B*sqrt(r): a_max = A + floor(k*sqrt(r)), k = B - b.  r*k*k
        # is no square for k != 0, so that floor is isqrt(r*k*k) for k >= 0
        # and ~isqrt(r*k*k) for k < 0.  Up to the last row, b = B +
        # floor(A/sqrt(r)), -k*sqrt(r) <= A: a_max = A - ceil(-k*sqrt(r)) >= 0.
        a_cap, b_cap = bound
        r = self.radicand
        for b in range(b_cap + isqrt(a_cap * a_cap // r) + 1):
            k = b_cap - b
            f = isqrt(r * k * k)
            yield b, a_cap + (f if b <= b_cap else ~f)

    def _count_up_to(self, bound):
        total = -1  # (0, 0) is no member
        for _, a_max in self._rows(bound):
            total += a_max + 1
            if total > DEFAULT_ENUMERATION_CEILING:
                break  # enough to know the ceiling is passed
        return total

    def _iter_parts_up_to(self, bound):
        return iter(sorted(((a, b) for b, a_max in self._rows(bound)
                            for a in range(a_max + 1) if a or b),
                           key=cmp_to_key(self._norm_cmp_parts)))

    def _iter_root_parts(self, x):
        # Row by row in b, a grows while u*u <= x; values grow with a and
        # with b, so the first row whose least member squares past x ends
        # the scan.
        b = 0
        while True:
            a = first = 0 if b else 1
            while self._norm_cmp_parts(self._mul_parts((a, b), (a, b)), x) <= 0:
                yield (a, b)
                a += 1
            if a == first:
                return
            b += 1

    def _render_parts(self, p):
        a, b = p
        return f"{a}+{b}*sqrt({self.radicand})"

    def _parts_payload(self, p):
        return list(p)


# ---------------------------------------------------------------------------
# Module-level operations


def contains(monoid: Monoid, *parts: int) -> bool:
    """Membership test; see Monoid.contains for the error contract."""
    return monoid.contains(*parts)


def mul(x: Element, y: Element) -> Element:
    """Product of two elements of the same monoid."""
    return x * y


def try_divide(b: Element, a: Element) -> Element | None:
    """The unique q with ``a * q == b``, or None when b is not a multiple
    of a within the monoid.  Uniqueness comes from cancellativity."""
    if b.monoid != a.monoid:
        raise MonoidMismatchError(
            f"cannot divide across monoids: {b.monoid.spec_text()!r} "
            f"vs {a.monoid.spec_text()!r}")
    parts = b.monoid._try_divide_parts(b.parts, a.parts)
    return None if parts is None else Element(b.monoid, parts)


def _check_ceiling(monoid: Monoid, bound: tuple[int, ...]) -> None:
    """Raise BoundExceededError when more than DEFAULT_ENUMERATION_CEILING
    candidates have norm at most the bound."""
    ceiling = DEFAULT_ENUMERATION_CEILING
    count = monoid._count_up_to(bound)
    if count > ceiling:
        raise BoundExceededError(
            f"enumeration up to norm {monoid._render_parts(bound)} needs "
            f"at least {count} candidates, over the ceiling of {ceiling}",
            candidates=count, ceiling=ceiling)


def _parts_up_to(monoid: Monoid, bound: int | Element) -> list[tuple[int, ...]]:
    """The parts of ``enumerate_up_to``, in the same order."""
    bound_parts = monoid._bound_parts(bound)
    if monoid._norm_cmp_parts(bound_parts, monoid._identity_parts()) < 0:
        raise InvalidInputError("bound must be at least the identity norm")
    _check_ceiling(monoid, bound_parts)
    return list(monoid._iter_parts_up_to(bound_parts))


def enumerate_up_to(monoid: Monoid, bound: int | Element) -> list[Element]:
    """All elements of norm at most ``bound``, in increasing norm order.

    ``bound`` is an integer or an element of the monoid.  Raises
    BoundExceededError when more than DEFAULT_ENUMERATION_CEILING
    candidates would be inspected; never returns a silently truncated
    list.
    """
    return [Element(monoid, p) for p in _parts_up_to(monoid, bound)]


@lru_cache(maxsize=DIVISORS_CACHE_SIZE)
def _divisors_cached(x: Element) -> tuple[Element, ...]:
    monoid = x.monoid
    _check_ceiling(monoid, x.parts)
    norm = monoid._norm_parts(x.parts)
    found = []
    for u in monoid._iter_root_parts(x.parts):
        if norm % monoid._norm_parts(u):
            continue
        q = monoid._try_divide_parts(x.parts, u)
        if q is not None:
            found.append(u)
            if q != u:
                found.append(q)
    found.sort(key=cmp_to_key(monoid._norm_cmp_parts))
    return tuple(Element(monoid, p) for p in found)


def divisors(x: Element, *, nontrivial: bool = False) -> list[Element]:
    """Every divisor of x within the monoid, in nondecreasing norm order.

    The identity always divides and is included; pass ``nontrivial=True``
    to drop it.  Each divisor u comes with its cofactor q = x/u, and
    values are positive, so min(u, q) squared is at most u*q = x: the
    scan tries only the members u with ``u * u <= x``, divides only those
    whose norm divides norm(x), and keeps both u and x/u.  The ceiling
    guard still counts every candidate of norm at most norm(x), as an
    enumeration up to x would, so the inputs that raise
    BoundExceededError do not depend on how the divisors are found.
    """
    found = _divisors_cached(x)
    if nontrivial:
        return [u for u in found if not u.is_identity()]
    return list(found)


def common_divisors(a: Element, b: Element) -> list[Element]:
    """Divisors shared by a and b, in nondecreasing norm order."""
    if a.monoid != b.monoid:
        raise MonoidMismatchError("common divisors need a single monoid")
    monoid = a.monoid
    return [u for u in divisors(a)
            if monoid._try_divide_parts(b.parts, u.parts) is not None]


def _maximal_common_divisors(common: list, divisors_of) -> list:
    """The members of ``common`` that divide no other member, in order:
    the maximal common divisors.  ``divisors_of(v)`` lists the divisors
    of v.

    ``common`` is in increasing norm order, and one scan from the top
    keeps u unless u is in the running union of the kept members'
    divisor sets.  A proper multiple has the larger norm, so every
    member u divides comes after u and is scanned first.  A maximal u
    divides none of them and is kept.  A member that divides another
    divides, going up through multiples, some maximal member, already
    kept, and is dropped.
    """
    maximal: list = []
    covered: set = set()
    for u in reversed(common):
        if u not in covered:
            maximal.append(u)
            covered.update(divisors_of(u))
    return maximal[::-1]


# ---------------------------------------------------------------------------
# Shared divisibility table for surveys


class DivisibilityTable:
    """Divisibility structure of all elements up to a norm bound.

    Built by one pairwise product scan: each relation ``u * v == x`` with
    ``u <= v`` and ``norm(x) <= bound`` appends u to ``low[x]`` and v to
    ``high[x]``, so ``low[x][k] * high[x][k] == x``, the first pair being
    ``(identity, x)``.  The scan takes u in increasing order and meets x
    at most once per u (cancellativity), so ``low[x]`` rises; elements
    are positive reals under the real product, so the cofactors in
    ``high[x]`` fall.  Of a divisor and its cofactor, the smaller is in
    ``low[x]``: the pairs cover every divisor.  Divisor sets, quotients,
    elements and payloads are built from them on first read.  This is a
    second route to divisor sets, independent of ``divisors`` above.
    """

    def __init__(self, monoid: Monoid, bound: int | Element):
        self.monoid = monoid
        self.parts = parts = _parts_up_to(monoid, bound)
        self.index = {p: i for i, p in enumerate(parts)}
        mul, find = monoid._mul_parts, self.index.get
        self.low = low = [[] for _ in parts]
        self.high = high = [[] for _ in parts]
        for ui, u in enumerate(parts):
            for vi in range(ui, len(parts)):
                # A product is a member, so it is listed exactly when it
                # is within the bound; products grow with v.
                pi = find(mul(u, parts[vi]))
                if pi is None:
                    break
                low[pi].append(ui)
                high[pi].append(vi)

    @cached_property
    def elements(self) -> list[Element]:
        return [Element(self.monoid, p) for p in self.parts]

    @cached_property
    def divisor_ids(self) -> list[frozenset[int]]:
        return [frozenset(lo + hi) for lo, hi in zip(self.low, self.high)]

    @cached_property
    def quotient(self) -> dict[tuple[int, int], int]:
        """``quotient[(x, u)]`` is x/u, for each divisor u of x."""
        quotient: dict[tuple[int, int], int] = {}
        for xi, (lo, hi) in enumerate(zip(self.low, self.high)):
            for ui, vi in zip(lo, hi):
                quotient[(xi, ui)] = vi
                quotient[(xi, vi)] = ui
        return quotient

    def divides(self, ui: int, xi: int) -> bool:
        return ui in self.divisor_ids[xi]

    def is_irreducible(self, xi: int) -> bool:
        return xi != 0 and len(self.low[xi]) == 1

    @cached_property
    def factorization_ids(self) -> list[tuple[tuple[int, ...], ...]]:
        """Each element's factorizations into irreducibles, as sorted index
        tuples in increasing order, read off the divisor pairs.  Index
        order is element order: the table is sorted by norm, and norms
        are distinct.  An irreducible x factors as ``(x,)``; any other
        factorization is its least factor p, an irreducible divisor, then
        a factorization of x/p whose least factor is p or more.  So p is
        at most x/p < x: ``(p, x/p)`` is a pair of x past ``(identity, x)``.
        """
        low, high = self.low, self.high
        out: list[tuple[tuple[int, ...], ...]] = [((),)]  # the identity
        for xi in range(1, len(low)):
            out.append(((xi,),) if len(low[xi]) == 1 else tuple(
                (pi,) + tail for pi, qi in zip(low[xi][1:], high[xi][1:])
                if len(low[pi]) == 1 for tail in out[qi] if tail[0] >= pi))
        return out

    @cached_property
    def pairs_without_gcd(self) -> list[tuple[int, int, list[int]]]:
        """``(ai, bi, maximal)`` for the index pairs ``ai <= bi`` with no
        algebraic gcd, in ``(ai, bi)`` order, ``maximal`` the pair's
        maximal common divisor ids, increasing.  Every common divisor
        divides a maximal one, so the maximal ones are all a flag needs:
        the common divisors are the union of their divisor sets.

        A pair whose members each have one factorization has a gcd.  If
        a = d*e, a factorization of d joined to one of e factors a, so
        every factorization of a divisor d of a is a sub-multiset of a's
        only factorization.  A common divisor d of a and b thus factors
        inside the multiset intersection I of their factorizations.  The
        product g of I divides a and b, and d divides g, the cofactor
        being the product of I minus d's factors.  So g is a gcd.  When
        every element factors uniquely the scan returns at once, and
        otherwise it visits only pairs with a member that factors in
        several ways.

        Only pairs that share two distinct irreducibles can lack a gcd.
        Every element factors into irreducibles, by descent on the norm
        order.  If p is the only irreducible dividing both a and b, each
        nontrivial common divisor has p as its only irreducible factor,
        so it is a power of p; the common divisors form a chain, and its
        top is a gcd.  With no shared irreducible the identity is the
        gcd.  So the scan indexes the elements with several
        factorizations by each pair {p, q} of their distinct irreducible
        divisors, and each a walks the lists of its own pairs.  These
        are the factors of its factorizations: p | x gives x = p*(x/p),
        and p joined to a factorization of x/p factors x.  A uniquely
        factoring a keeps every b it finds; an a with several
        factorizations keeps only b > a, its pairs with smaller such
        elements being kept when those were walked.  So each pair is
        found once, and one sort puts the result in ``(ai, bi)`` order;
        no two entries share ``(ai, bi)``, so it never compares lists.

        The gcd test is decided from counts.  Let g be the common divisor
        of largest norm, the largest id in both divisor sets (ids are in
        norm order).  Every divisor of g divides a and b, so the divisors
        of g are common divisors, and g is a gcd exactly when they are
        all of them: when ``len(divisor_ids[g])`` equals the number of
        common divisors.
        """
        factorizations = self.factorization_ids
        several = [len(fs) > 1 for fs in factorizations]
        if not any(several):
            return []
        irreducibles = [sorted({p for f in fs for p in f}) for fs in factorizations]
        div_ids = self.divisor_ids
        divisors_of = div_ids.__getitem__
        by_pair: dict[tuple[int, int], list[int]] = {}
        for xi, irr in enumerate(irreducibles):
            if several[xi]:
                for key in combinations(irr, 2):
                    by_pair.setdefault(key, []).append(xi)
        out = []
        for ai, irr in enumerate(irreducibles):
            seen: set[int] = set()
            for key in combinations(irr, 2):
                seen.update(by_pair.get(key, ()))
            div_a = div_ids[ai]
            for bi in seen:
                if several[ai] and bi <= ai:
                    continue
                common = div_a & div_ids[bi]
                if len(div_ids[max(common)]) != len(common):
                    maximal = _maximal_common_divisors(sorted(common), divisors_of)
                    out.append((min(ai, bi), max(ai, bi), maximal))
        out.sort()
        return out

    @cached_property
    def payloads(self) -> list[int | list[int]]:
        """Each element's JSON payload, by index."""
        return list(map(self.monoid._parts_payload, self.parts))
