"""Irreducibles, factorizations and algebraic gcds, by exhaustive search.

An element is irreducible when its only divisors are the identity and
itself.  ``factorizations`` enumerates every multiset of irreducibles
with the given product, so non-unique factorization shows up as a list
with more than one entry.  An algebraic gcd is a common divisor that
every common divisor divides; the report keeps the full common-divisor
set and its maximal elements so absence is explainable.

The survey functions sweep all elements up to a norm bound and record
which classical divisibility properties hold there, each failure backed
by a concrete witness.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, isqrt
from typing import Optional

from .euclid import _trial_divisor_limit
from .monoids import (
    DivisibilityTable,
    Element,
    Monoid,
    _maximal_common_divisors,
    common_divisors,
    divisors,
    try_divide,
)


@dataclass(frozen=True)
class Factorization:
    """A multiset of irreducibles, stored sorted, whose product is element."""

    element: Element
    factors: tuple[Element, ...]

    def verifies(self) -> bool:
        prod = self.element.monoid.identity
        for f in self.factors:
            prod = prod * f
        return prod == self.element


@dataclass(frozen=True)
class GcdReport:
    pair: tuple[Element, Element]
    common: tuple[Element, ...]
    maximal: tuple[Element, ...]
    gcd: Optional[Element]

    @property
    def exists(self) -> bool:
        return self.gcd is not None


class PropertyFlag:
    """A surveyed property: holds, or fails with recorded witnesses.

    A survey flag records each witness as an index tuple into the
    survey's table.  Its witness class ``kind`` reads one through
    ``kind.arguments(ids, at)``, which returns the constructor's
    arguments with each index i read as ``at(i)``, and renders payload
    arguments through ``kind.payload``, the one payload function of the
    kind, which ``to_payload`` calls too.  ``witnesses`` builds the
    objects on its first read; ``witness_count`` and
    ``witness_payloads`` build none.  The flag holds when ``ids`` is
    empty.  Flags compare by ``(holds, witnesses)``.
    """

    def __init__(self, table: DivisibilityTable, kind: type, ids):
        self.table, self.kind, self.ids = table, kind, tuple(ids)
        self.holds = not self.ids

    @cached_property
    def witnesses(self) -> tuple:
        at = self.table.elements.__getitem__
        return tuple(self.kind(*self.kind.arguments(i, at)) for i in self.ids)

    @property
    def witness_count(self) -> int:
        return len(self.ids)

    def witness_payloads(self) -> list[dict]:
        """The witnesses' JSON payloads, read off the table's per-index
        payload list, if any, through the kind's one payload function."""
        if not self.ids:
            return []
        at = self.table.payloads.__getitem__
        return [self.kind.payload(*self.kind.arguments(i, at))
                for i in self.ids]

    def __eq__(self, other):
        if not isinstance(other, PropertyFlag):
            return NotImplemented
        return (self.holds, self.witnesses) == (other.holds, other.witnesses)

    def __hash__(self):
        return hash((self.holds, self.witnesses))

    def __repr__(self):
        return f"PropertyFlag(holds={self.holds!r}, witnesses={self.witnesses!r})"


@dataclass
class SurveyReport:
    monoid: Monoid
    bound: int
    flags: dict[str, PropertyFlag] = field(default_factory=dict)


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class GcdAbsenceWitness:
    pair: tuple[Element, Element]
    maximal: tuple[Element, ...]

    @staticmethod
    def arguments(ids, at):
        a, b, maximal = ids
        return (at(a), at(b)), tuple(map(at, maximal))

    @staticmethod
    def payload(pair, maximal) -> dict:
        return {"kind": "missing_algebraic_gcd", "pair": list(pair),
                "maximal_common_divisors": list(maximal)}

    def to_payload(self) -> dict:
        return self.payload(*self.arguments((*self.pair, self.maximal),
                                            Element.to_payload))


@dataclass(frozen=True)
class FactorizationWitness:
    element: Element
    factorizations: tuple[tuple[Element, ...], ...]

    @staticmethod
    def arguments(ids, at):
        element, factorizations = ids
        return at(element), tuple(tuple(map(at, fs)) for fs in factorizations)

    @staticmethod
    def payload(element, factorizations) -> dict:
        return {"kind": "non_unique_factorization", "element": element,
                "factorizations": [list(fs) for fs in factorizations]}

    def to_payload(self) -> dict:
        return self.payload(*self.arguments(
            (self.element, self.factorizations), Element.to_payload))


@dataclass(frozen=True)
class EuclidLemmaWitness:
    irreducible: Element
    a: Element
    b: Element
    product: Element

    @staticmethod
    def arguments(ids, at):
        # The product may lie past the bound, outside the table: it is
        # kept as an element.
        irreducible, a, b, product = ids
        return at(irreducible), at(a), at(b), product

    @staticmethod
    def payload(irreducible, a, b, product) -> dict:
        return {"kind": "euclid_lemma_failure", "irreducible": irreducible,
                "a": a, "b": b, "product": product.to_payload()}

    def to_payload(self) -> dict:
        return self.payload(*self.arguments(
            (self.irreducible, self.a, self.b, self.product),
            Element.to_payload))


# -- single-element operations ----------------------------------------------


def is_irreducible(x: Element) -> bool:
    """True when x is not the identity and divides only trivially."""
    return not x.is_identity() and len(divisors(x)) == 2


def factorizations(x: Element) -> list[Factorization]:
    """Every factorization of x into irreducibles, as sorted multisets.

    The identity factors as the empty product.  The rule is the table's
    (``DivisibilityTable.factorization_ids``), with divisors found by
    definition: a factorization of y is its least factor p, an
    irreducible divisor, followed by a factorization of y/p whose least
    factor is p or more.  So each multiset appears exactly once, and as
    p rises in norm order over lists already in order, the result list
    is canonically ordered.
    """
    memo: dict[Element, tuple[tuple[Element, ...], ...]] = {}

    def descend(y: Element) -> tuple[tuple[Element, ...], ...]:
        if y.is_identity():
            return ((),)
        if y not in memo:
            memo[y] = tuple((p,) + tail
                            for p in divisors(y, nontrivial=True)
                            if is_irreducible(p)
                            for tail in descend(try_divide(y, p))
                            if not tail or tail[0] >= p)
        return memo[y]

    return [Factorization(x, fs) for fs in descend(x)]


def algebraic_gcd(a: Element, b: Element) -> GcdReport:
    """Search for a common divisor that every common divisor divides.

    The report lists all common divisors and the maximal ones under
    divisibility; the gcd is present exactly when there is a single
    maximal common divisor.  Every common divisor divides some maximal
    one, so a single maximal one is a multiple of them all.
    """
    common = common_divisors(a, b)
    maximal = _maximal_common_divisors(common, divisors)
    gcd_elem = maximal[0] if len(maximal) == 1 else None
    return GcdReport(pair=(a, b), common=tuple(common),
                     maximal=tuple(maximal), gcd=gcd_elem)


# -- surveys ------------------------------------------------------------------


def _smallest_prime_factors(limit: int) -> list[int]:
    """``spf[k]``, the least prime factor of k, for ``2 <= k <= limit``."""
    spf = list(range(limit + 1))
    for k in range(2, isqrt(limit) + 1):
        if spf[k] == k:
            for j in range(k * k, limit + 1, k):
                if spf[j] == j:
                    spf[j] = k
    return spf


def _prime_factors(n: int, spf: list[int]) -> list[int]:
    """The distinct prime factors of ``1 <= n < len(spf)**2``, increasing.

    While n is below the sieve's limit ``len(spf)``, its least prime
    factor is read off the sieve.  From the limit up, it is the least
    prime q of the sieve, past the last factor found, that divides n;
    when no prime up to sqrt(n) divides n, n itself is prime.
    """
    out, q = [], 2
    while n > 1:
        if n < len(spf):
            q = spf[n]
        else:
            root = isqrt(n)
            while q <= root and (spf[q] != q or n % q):
                q += 1
            if q > root:
                q = n
        out.append(q)
        while n % q == 0:
            n //= q
    return out


def euclid_lemma_survey(monoid: Monoid, bound: int) -> PropertyFlag:
    """Check p | a*b implies p | a or p | b for all irreducibles p and
    elements a, b of norm at most bound.

    Only p, a and b are bounded; the product a*b is tested directly even
    when its norm exceeds the bound.  Reports the first failing triple in
    (p, a, b) order, or holds with no witnesses.  Only b >= a is
    scanned: a*b = b*a, so (b, a) tests the same product as (a, b), and
    the first failing triple of the full scan has b >= a, since otherwise
    its mirror (p, b, a) would fail and come earlier.

    The exact division runs only on pairs that pass an integer norm
    certificate.  The monoid's norm N (the value for scalar monoids,
    |a^2 - d*b^2| for quadratic ones) is multiplicative and never 0, so
    p | a*b forces N(p) | N(a)*N(b), and hence N(p) | g_a*g_b with
    g = gcd(N(.), N(p)): if q^e exactly divides N(p) and q^i, q^j exactly
    divide N(a), N(b), then i + j >= e gives min(i, e) + min(j, e) >= e.
    A pair that fails this test cannot fail the lemma, so skipping
    it leaves the first failing triple, and the report, unchanged.

    An irreducible p with N(p) > 1 is skipped outright when every
    element whose norm shares a rational prime with N(p) is a multiple
    of p: then g_a = 1 for every a that p does not divide, and N(p) does
    not divide g_a*g_b = 1.  The multiples of p in the table are p*v for
    its k least v (a product is a member, so it is in the table when it
    is within the bound, and products grow with v): one bisection finds k.
    N(p) divides their norms, so p is skipped exactly when each prime q
    of N(p) divides k norms.  Norms are factored by a smallest-prime-
    factor sieve up to sqrt(N), N the largest norm; a sqrt(N) past the
    ceiling raises BoundExceededError.  An irreducible of norm 1, such
    as 1+sqrt(2), is never skipped: N(p) = 1 divides every product.  In
    the naturals and in congruence 1 mod 2 every irreducible is a prime
    p = N(p) whose multiples are the elements whose norm p divides, so
    every irreducible is skipped: no set of multiples is built and no
    gcd runs.
    """
    table = DivisibilityTable(monoid, bound)
    return _euclid_lemma_flag(table)


def _euclid_lemma_flag(table: DivisibilityTable) -> PropertyFlag:
    """Euclid's lemma over the table, on raw parts; see euclid_lemma_survey."""
    monoid = table.monoid
    mul_parts, divide_parts = monoid._mul_parts, monoid._try_divide_parts
    parts, index = table.parts, table.index
    norms = [monoid._norm_parts(x) for x in parts]
    n = len(parts)
    # Up to sqrt(max norm) the sieve is needed; up to the element count,
    # which the enumeration ceiling bounds, it spares trial divisions.
    spf = _smallest_prime_factors(
        max(_trial_divisor_limit(max(norms), "the factorization") + 1, n))
    # Each rational prime q, with the number of norms q divides.
    count = Counter(q for norm in norms for q in _prime_factors(norm, spf))
    for pi in range(n):
        if not table.is_irreducible(pi):
            continue
        p, norm_p = parts[pi], norms[pi]
        k = bisect_left(parts, True, key=lambda v: mul_parts(p, v) not in index)
        if norm_p > 1 and all(count[q] == k for q in _prime_factors(norm_p, spf)):
            continue
        multiples = {index[mul_parts(p, v)] for v in parts[:k]}
        coprime = [i for i in range(n) if i not in multiples]
        gs = [gcd(norms[i], norm_p) for i in coprime]
        distinct = set(gs)
        # For each g with any admissible partner, the positions in coprime
        # of those partners, in order.
        partners = {ga: [k for k, gb in enumerate(gs) if ga * gb % norm_p == 0]
                    for ga in distinct
                    if any(ga * gb % norm_p == 0 for gb in distinct)}
        if not partners:
            continue
        for j, ai in enumerate(coprime):
            ks = partners.get(gs[j])
            if not ks:
                continue
            a = parts[ai]
            for k in ks[bisect_left(ks, j):]:
                product = mul_parts(a, parts[coprime[k]])
                if divide_parts(product, p) is not None:
                    return PropertyFlag(table, EuclidLemmaWitness, [
                        (pi, ai, coprime[k], Element(monoid, product))])
    return PropertyFlag(table, EuclidLemmaWitness, [])


def _gcd_existence_flag(table: DivisibilityTable) -> PropertyFlag:
    """Algebraic gcds for every pair of elements in the table."""
    return PropertyFlag(table, GcdAbsenceWitness, table.pairs_without_gcd)


def _unique_factorization_flag(table: DivisibilityTable) -> PropertyFlag:
    return PropertyFlag(table, FactorizationWitness, [
        (xi, fs) for xi, fs in enumerate(table.factorization_ids)
        if len(fs) > 1])


def three_property_survey(monoid: Monoid, bound: int) -> SurveyReport:
    """Survey the three classically equivalent divisibility properties.

    Flags: transitivity of Pythagorean proportionality, existence of
    algebraic gcds for all pairs, and uniqueness of factorization, all
    over elements of norm at most bound; Euclid's lemma rides along as a
    fourth, derived flag.  The report records the flags as found and
    asserts nothing about their agreement.  All flags read one table.
    """
    from .proportion import _transitivity_flag  # deferred: proportion imports us

    table = DivisibilityTable(monoid, bound)
    report = SurveyReport(monoid=monoid, bound=bound)
    report.flags["pythagorean_transitive"] = _transitivity_flag(table)
    report.flags["algebraic_gcds_exist"] = _gcd_existence_flag(table)
    report.flags["unique_factorization"] = _unique_factorization_flag(table)
    report.flags["euclid_lemma"] = _euclid_lemma_flag(table)
    return report
