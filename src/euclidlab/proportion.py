"""Proportionality of pairs by simplification to common parts.

Four elements stand in proportion a:b = c:d when some pair (x, y) of
parts and some pair (m, n) of multipliers satisfy a=mx, b=nx, c=my,
d=ny.  The decision procedure is exhaustive: every common divisor x of
(a, b) is tried in nondecreasing norm order, so a returned witness is
the least one and absence is a proof.  Fraction equality (ad = bc) is
the competing, coarser relation; ``vii19_check`` records both so their
divergence can be exhibited.

The classical consequences (alternation, componentwise addition, least
pairs, the gcd repair argument) each get a report-producing checker,
and ``transitivity_survey`` hunts for chains a:b = c:d = e:f where
a:b = e:f nevertheless fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional

from . import euclid
from .errors import MonoidMismatchError, UnsupportedStructureError
from .factorization import PropertyFlag, SurveyReport, algebraic_gcd
from .monoids import (
    Congruence,
    DivisibilityTable,
    Element,
    Monoid,
    Naturals,
    Quadratic,
    _ScalarMonoid,
    common_divisors,
    try_divide,
)


class CanonicalPartsMode(Enum):
    """Witness admissibility: any parts, or only gcd-canonical ones."""

    ANY_WITNESS = "any-witness"
    CANONICAL_ONLY = "canonical-only"


@dataclass(frozen=True)
class ProportionQuad:
    """Four elements of one monoid, read as the claim a:b = c:d."""

    a: Element
    b: Element
    c: Element
    d: Element

    def __post_init__(self):
        monoids = {e.monoid for e in self.elements}
        if len(monoids) != 1:
            raise MonoidMismatchError(
                "proportion quad mixes elements of different monoids")

    @property
    def elements(self) -> tuple[Element, Element, Element, Element]:
        return (self.a, self.b, self.c, self.d)

    @property
    def monoid(self) -> Monoid:
        return self.a.monoid


@dataclass(frozen=True)
class ProportionWitness:
    """Parts x, y and multipliers m, n with a=mx, b=nx, c=my, d=ny."""

    x: Element
    y: Element
    m: Element
    n: Element

    def verifies(self, quad: ProportionQuad) -> bool:
        return (self.m * self.x == quad.a and self.n * self.x == quad.b
                and self.m * self.y == quad.c and self.n * self.y == quad.d)

    def to_payload(self) -> dict:
        return {
            "kind": "proportion_witness",
            "x": self.x.to_payload(),
            "y": self.y.to_payload(),
            "m": self.m.to_payload(),
            "n": self.n.to_payload(),
        }


def fraction_equal(quad: ProportionQuad) -> bool:
    """True iff a*d = b*c exactly."""
    return quad.a * quad.d == quad.b * quad.c


def pythagorean(quad: ProportionQuad,
                mode: CanonicalPartsMode = CanonicalPartsMode.ANY_WITNESS
                ) -> Optional[ProportionWitness]:
    """Exhaustive witness search for a:b = c:d.

    Common divisors x of (a, b) are tried in nondecreasing norm order;
    for each, m = a/x and n = b/x are forced and y must satisfy c = my
    and d = ny.  The first witness found is returned, so results are
    deterministic.  None means no witness exists, not a timeout.

    Under CANONICAL_ONLY the only admissible x is the algebraic gcd of
    (a, b) and y must equal the algebraic gcd of (c, d); if either gcd
    is absent there is no canonical witness.
    """
    a, b, c, d = quad.elements
    if mode is CanonicalPartsMode.CANONICAL_ONLY:
        g1 = algebraic_gcd(a, b).gcd
        g2 = algebraic_gcd(c, d).gcd
        if g1 is None or g2 is None:
            return None
        candidates = [g1]
    else:
        g2 = None
        candidates = common_divisors(a, b)
    for x in candidates:
        m = try_divide(a, x)
        n = try_divide(b, x)
        y = try_divide(c, m)
        if y is None or n * y != d:
            continue
        if mode is CanonicalPartsMode.CANONICAL_ONLY and y != g2:
            continue
        return ProportionWitness(x=x, y=y, m=m, n=n)
    return None


# -- Classical consequences, each as a report ---------------------------------


@dataclass(frozen=True)
class AlternandoReport:
    """a:b = c:d rearranged to a:c = b:d."""

    quad: ProportionQuad
    premise: bool
    conclusion: bool
    holds: bool
    premise_witness: Optional[ProportionWitness]
    conclusion_witness: Optional[ProportionWitness]


def alternando_check(quad: ProportionQuad) -> AlternandoReport:
    """Check a:b = c:d implies a:c = b:d.

    When the premise holds with witness (x, y, m, n), exchanging the
    parts with the multipliers gives (m, n, x, y), a witness for the
    rearranged quad; that fast path is cross-checked against the full
    search, which must agree.
    """
    premise_w = pythagorean(quad)
    rearranged = ProportionQuad(quad.a, quad.c, quad.b, quad.d)
    searched = pythagorean(rearranged)
    conclusion_w = searched
    if premise_w is not None:
        swapped = ProportionWitness(x=premise_w.m, y=premise_w.n,
                                    m=premise_w.x, n=premise_w.y)
        if not swapped.verifies(rearranged) or searched is None:
            raise RuntimeError("witness swap disagrees with full search")
        conclusion_w = swapped
    premise = premise_w is not None
    conclusion = conclusion_w is not None
    return AlternandoReport(quad=quad, premise=premise, conclusion=conclusion,
                            holds=(not premise) or conclusion,
                            premise_witness=premise_w,
                            conclusion_witness=conclusion_w)


def add_elements(x: Element, y: Element) -> Element:
    """Componentwise sum, for the monoids closed under it.

    Quadratic monoids add componentwise, and so do the scalar monoids of
    modulus 1 (``nat`` and ``congruence r mod 1``), which hold every
    n >= 1.  Any other congruence monoid is rejected: it is not closed
    under addition, and the error carries a concrete escaping sum.
    """
    if x.monoid != y.monoid:
        raise MonoidMismatchError("cannot add elements of different monoids")
    monoid = x.monoid
    if (isinstance(monoid, Quadratic)
            or isinstance(monoid, _ScalarMonoid) and monoid.modulus == 1):
        return monoid.element(*(p + q for p, q in zip(x.parts, y.parts)))
    if isinstance(monoid, Congruence):
        u, v = _congruence_sum_escape(monoid)
        raise UnsupportedStructureError(
            f"'{monoid.spec_text()}' is not closed under addition: "
            f"{u}+{v}={u + v} is not a member")
    raise UnsupportedStructureError(
        f"'{monoid.spec_text()}' has no additive structure")


def _congruence_sum_escape(monoid: Congruence) -> tuple[int, int]:
    """Two members whose sum falls outside, for a modulus m >= 2."""
    m = monoid.modulus
    t = monoid.residue % m
    if t == 0:
        return 1, m  # 1 + m has residue 1, members have residue 0
    if t == 1:
        return 1 + m, 1 + m  # doubling leaves the class: 2 != 1 mod m
    return t, t  # 2t != t mod m since 0 < t < m


@dataclass(frozen=True)
class Vii6Report:
    """a:b = c:d extended componentwise to a:b = (a+c):(b+d)."""

    quad: ProportionQuad
    extended: ProportionQuad
    premise: bool
    conclusion: bool
    holds: bool
    premise_witness: Optional[ProportionWitness]
    conclusion_witness: Optional[ProportionWitness]


def vii6_check(quad: ProportionQuad,
               mode: CanonicalPartsMode = CanonicalPartsMode.ANY_WITNESS
               ) -> Vii6Report:
    """Check a:b = c:d implies a:b = (a+c):(b+d).

    A premise witness (x, y, m, n) extends directly: multiplication
    distributes over the componentwise sum, so a+c = m(x+y) and
    b+d = n(x+y) and the extended quad has witness (x, x+y, m, n).
    The direct witness is verified and cross-checked against the full
    search; under CANONICAL_ONLY the part x+y must additionally be the
    algebraic gcd of (a+c, b+d), which is the repair theorem's claim.
    """
    a, b, c, d = quad.elements
    extended = ProportionQuad(a, b, add_elements(a, c), add_elements(b, d))
    premise_w = pythagorean(quad, mode)
    searched = pythagorean(extended, mode)
    conclusion_w = searched
    if premise_w is not None:
        direct = ProportionWitness(x=premise_w.x,
                                   y=add_elements(premise_w.x, premise_w.y),
                                   m=premise_w.m, n=premise_w.n)
        if not direct.verifies(extended) or searched is None:
            raise RuntimeError("direct sum witness disagrees with full search")
        if mode is CanonicalPartsMode.CANONICAL_ONLY:
            g = algebraic_gcd(extended.c, extended.d).gcd
            if direct.y != g:
                raise RuntimeError(
                    "extended part is not the algebraic gcd of the sums")
        conclusion_w = direct
    premise = premise_w is not None
    conclusion = conclusion_w is not None
    return Vii6Report(quad=quad, extended=extended, premise=premise,
                      conclusion=conclusion,
                      holds=(not premise) or conclusion,
                      premise_witness=premise_w,
                      conclusion_witness=conclusion_w)


@dataclass(frozen=True)
class Vii19Report:
    """Side-by-side record of the two proportionality notions."""

    quad: ProportionQuad
    pyth: bool
    frac: bool
    equivalent: bool
    witness: Optional[ProportionWitness]


def vii19_check(quad: ProportionQuad) -> Vii19Report:
    """Record whether a:b = c:d and ad = bc agree on this quad."""
    witness = pythagorean(quad)
    pyth = witness is not None
    frac = fraction_equal(quad)
    return Vii19Report(quad=quad, pyth=pyth, frac=frac,
                       equivalent=(pyth == frac), witness=witness)


def least_pair(c: Element, d: Element) -> tuple[Element, Element]:
    """The least pair (u, v) with u:v in the same ratio as c:d.

    Defined over the naturals only, where u = c/g and v = d/g for
    g = gcd(c, d).  Minimality is re-asserted by the stdlib's gcd(u, v)
    == 1: a u' in the same ratio has u'*v = 0 (mod u), so u | u'.
    """
    if c.monoid != d.monoid:
        raise MonoidMismatchError("least pair needs both elements in one monoid")
    monoid = c.monoid
    if not isinstance(monoid, Naturals):
        raise UnsupportedStructureError(
            f"least pair is defined over 'nat' only, not '{monoid.spec_text()}'")
    g = euclid.gcd(c.value, d.value)
    u, v = c.value // g, d.value // g
    if math.gcd(u, v) != 1:
        raise RuntimeError("least pair certificate failed: u and v share a factor")
    return monoid.element(u), monoid.element(v)


@dataclass(frozen=True)
class Vii20Report:
    """The least pair of a ratio divides the original pair."""

    c: Element
    d: Element
    u: Element
    v: Element
    u_divides_c: bool
    v_divides_d: bool
    quotient: Optional[Element]
    holds: bool


def vii20_check(c: Element, d: Element) -> Vii20Report:
    """Check u | c and v | d for the least pair (u, v) of c:d.

    The quotient is the shared multiplier: c = u*q and d = v*q.
    """
    u, v = least_pair(c, d)
    qc = try_divide(c, u)
    qd = try_divide(d, v)
    holds = qc is not None and qd is not None and qc == qd
    return Vii20Report(c=c, d=d, u=u, v=v,
                       u_divides_c=qc is not None,
                       v_divides_d=qd is not None,
                       quotient=qc if holds else None,
                       holds=holds)


@dataclass(frozen=True)
class RepairReport:
    """Canonical-parts repair of an arbitrary proportion witness.

    status is "checked" when the premise and both gcds are available,
    "premise_failed" when the quad is not proportional at all, and
    "inapplicable" when an algebraic gcd is missing (offending_pair
    names the pair without one).  holds is None unless checked.
    """

    quad: ProportionQuad
    status: str
    holds: Optional[bool]
    offending_pair: Optional[tuple[Element, Element]] = None
    witness: Optional[ProportionWitness] = None
    g1: Optional[Element] = None
    g2: Optional[Element] = None
    p: Optional[Element] = None
    q: Optional[Element] = None
    i: Optional[Element] = None
    j: Optional[Element] = None


def repair_check(quad: ProportionQuad) -> RepairReport:
    """Rebuild a proportion witness on canonical parts.

    With g1 the algebraic gcd of (a, b) and g2 that of (c, d), the
    multipliers p = a/g1 and q = b/g1 must also produce c = p*g2 and
    d = q*g2.  The inner claim of the argument is checked too: the
    cofactors i = g1/x and j = g2/y of any witness coincide.
    """
    a, b, c, d = quad.elements
    witness = pythagorean(quad)
    if witness is None:
        return RepairReport(quad=quad, status="premise_failed", holds=None)
    g1 = algebraic_gcd(a, b).gcd
    if g1 is None:
        return RepairReport(quad=quad, status="inapplicable", holds=None,
                            offending_pair=(a, b), witness=witness)
    g2 = algebraic_gcd(c, d).gcd
    if g2 is None:
        return RepairReport(quad=quad, status="inapplicable", holds=None,
                            offending_pair=(c, d), witness=witness)
    p = try_divide(a, g1)
    q = try_divide(b, g1)
    i = try_divide(g1, witness.x)  # the gcd is a multiple of every common divisor
    j = try_divide(g2, witness.y)
    holds = (p * g2 == c and q * g2 == d
             and i is not None and j is not None and i == j)
    return RepairReport(quad=quad, status="checked", holds=holds,
                        witness=witness, g1=g1, g2=g2, p=p, q=q, i=i, j=j)


# -- Transitivity survey -------------------------------------------------------


@dataclass(frozen=True)
class TransitivityWitness:
    """A chain left:middle:right with the outer proportion failing.

    left = middle/x1 and right = middle/x2 for common divisors x1, x2
    of the middle pair such that no common divisor of the middle pair
    is a multiple of both x1 and x2; left and right then share no
    common simplification, so left ~ middle ~ right but not left ~ right.
    Any failing chain over the surveyed space reduces to one of these.
    """

    left: tuple[Element, Element]
    middle: tuple[Element, Element]
    right: tuple[Element, Element]

    def verifies(self) -> bool:
        la, lb = self.left
        ma, mb = self.middle
        ra, rb = self.right
        return (pythagorean(ProportionQuad(la, lb, ma, mb)) is not None
                and pythagorean(ProportionQuad(ma, mb, ra, rb)) is not None
                and pythagorean(ProportionQuad(la, lb, ra, rb)) is None)

    @staticmethod
    def arguments(ids, at):
        la, lb, ma, mb, ra, rb = map(at, ids)
        return (la, lb), (ma, mb), (ra, rb)

    @staticmethod
    def payload(left, middle, right) -> dict:
        return {"kind": "transitivity_failure", "left": list(left),
                "middle": list(middle), "right": list(right)}

    def to_payload(self) -> dict:
        return self.payload(*self.arguments(
            (*self.left, *self.middle, *self.right), Element.to_payload))


def transitivity_survey(monoid: Monoid, bound: int) -> SurveyReport:
    """Hunt for failures of transitivity of proportionality.

    Chains a:b = c:d = e:f with a:b != e:f are reported in a reduced
    form: any such chain forces two common divisors x1, x2 of its
    middle pair whose quotient pairs share no simplification, and
    conversely each of those quotient-pair conflicts is a failing
    chain.  The survey therefore walks middle pairs (c, d) with
    norm(c) <= norm(d) and emits one witness per conflict, each
    re-checkable through the search itself.  A conflict needs two
    nontrivial common divisors and no algebraic gcd g (each common x
    gives g = x*y and (c/x, d/x) simplifies by y to (c/g, d/g)), so the
    middle pairs are the table's ``pairs_without_gcd``.

    The quotient pairs k1 = (c/x1, d/x1) and k2 = (c/x2, d/x2) share a
    simplification exactly when some common divisor z of (c, d) is a
    multiple of both x1 and x2.  If k1/y1 = k2/y2 = (s, t), then
    c = x1*y1*s = x2*y2*s, and cancelling s gives z = x1*y1 = x2*y2,
    which divides c and d; conversely such a z gives (c/z, d/z) as
    k1/y1 and k2/y2.  Such a z exists exactly when a maximal common
    divisor is a multiple of both: the common divisors are finite and
    divisibility is transitive, so every z divides a maximal one.  So
    the flag compares the maximal common divisors above x1 with those
    above x2, over the table's maximal lists; a comparable x1 | x2
    never conflicts.
    """
    table = DivisibilityTable(monoid, bound)
    report = SurveyReport(monoid=monoid, bound=bound)
    report.flags["pythagorean_transitive"] = _transitivity_flag(table)
    return report


def _transitivity_flag(table: DivisibilityTable) -> PropertyFlag:
    """Transitivity over the table; see transitivity_survey."""
    ids, pairs = [], table.pairs_without_gcd
    if not pairs:  # every pair has a gcd: read no divisor set
        return PropertyFlag(table, TransitivityWitness, ids)
    div_ids, quotient = table.divisor_ids, table.quotient
    for ci, di, maximal in pairs:
        # Bit k of above[x] is set when x divides maximal[k].  Every
        # common divisor divides a maximal one, so the keys are exactly
        # the common divisors, walked in id order.
        above: dict[int, int] = {}
        for k, m in enumerate(maximal):
            for x in div_ids[m]:
                above[x] = above.get(x, 0) | 1 << k
        rows = [(above[x], quotient[(ci, x)], quotient[(di, x)])
                for x in sorted(above)]
        # Rows rise in x, so x1 < x2; ids follow values, so c/x2 < c/x1.
        for (above1, c1, d1), (above2, c2, d2) in combinations(rows, 2):
            if not above1 & above2:
                ids.append((c2, d2, ci, di, c1, d1))
    return PropertyFlag(table, TransitivityWitness, ids)
