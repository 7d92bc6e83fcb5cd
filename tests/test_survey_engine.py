"""The table-first survey engine against independent routes.

Each survey flag runs over one ``DivisibilityTable``; these tests check
its shortcuts against the plain computations they replace: the shared
pair scans against double loops over all pairs and the definitional
``algebraic_gcd``, the table-built factorization witnesses against
``factorizations``, the half-square Euclid-lemma scan against a
full-square scan in plain integers, and the three-property survey
against the standalone surveys.
"""

from functools import cmp_to_key

import pytest

import oracles
from euclidlab import (
    Congruence,
    DivisibilityTable,
    Naturals,
    Quadratic,
    algebraic_gcd,
    euclid_lemma_survey,
    factorizations,
    three_property_survey,
    transitivity_survey,
)
from euclidlab.factorization import _factorization_ids

NAT = Naturals()
C12 = Congruence(1, 2)
C13 = Congruence(1, 3)
C14 = Congruence(1, 4)
Q2 = Quadratic(2)
Q5 = Quadratic(5)

SPACES = [(NAT, 60), (C12, 100), (C13, 250), (C14, 200), (Q2, 20), (Q5, 30)]


@pytest.mark.parametrize("monoid,bound", SPACES)
def test_common_divisor_pairs_match_double_loop(monoid, bound):
    table = DivisibilityTable(monoid, bound)
    n = len(table.elements)
    expected = []
    for ai in range(n):
        for bi in range(ai, n):
            common = sorted(table.divisor_ids[ai] & table.divisor_ids[bi])
            if len(common) >= 3:
                expected.append((ai, bi, common))
    assert list(table.common_divisor_pairs()) == expected


@pytest.mark.parametrize("monoid,bound", [(C13, 250), (Q2, 20)])
def test_table_factorizations_match_definitional_route(monoid, bound):
    table = DivisibilityTable(monoid, bound)
    ids = _factorization_ids(table)
    assert any(len(fs) > 1 for fs in ids)
    for x, fs in zip(table.elements, ids):
        if len(fs) > 1:
            via_table = [tuple(table.elements[i] for i in f) for f in fs]
            assert via_table == [f.factors for f in factorizations(x)]
    witnesses = three_property_survey(monoid, bound).flags[
        "unique_factorization"].witnesses
    for w in witnesses:
        assert list(w.factorizations) == [f.factors
                                          for f in factorizations(w.element)]


@pytest.mark.parametrize("monoid,bound", SPACES)
def test_survey_flags_match_standalone_surveys(monoid, bound):
    flags = three_property_survey(monoid, bound).flags
    assert (flags["pythagorean_transitive"]
            == transitivity_survey(monoid, bound).flags["pythagorean_transitive"])
    assert flags["euclid_lemma"] == euclid_lemma_survey(monoid, bound)


@pytest.mark.parametrize("monoid,bound", [(NAT, 40), (C13, 250), (Q2, 16)])
def test_pairs_without_gcd_match_definitional_gcd(monoid, bound):
    table = DivisibilityTable(monoid, bound)
    elems = table.elements
    expected = [(ai, bi) for ai in range(len(elems)) for bi in range(ai, len(elems))
                if algebraic_gcd(elems[ai], elems[bi]).gcd is None]
    assert [(ai, bi) for ai, bi, _ in table.pairs_without_gcd] == expected


@pytest.mark.parametrize("monoid,bound", SPACES)
def test_transitivity_skips_no_conflicting_pair(monoid, bound):
    # Every pair and every incomparable pair of common divisors, including
    # the pairs with an algebraic gcd that the survey passes over.
    table = DivisibilityTable(monoid, bound)
    n = len(table.elements)
    expected = []
    for ci in range(n):
        for di in range(ci, n):
            common = sorted(table.divisor_ids[ci] & table.divisor_ids[di])
            for pos, x1 in enumerate(common):
                for x2 in common[pos + 1:]:
                    if table.divides(x1, x2) or table.divides(x2, x1):
                        continue
                    k1 = (table.quotient[(ci, x1)], table.quotient[(di, x1)])
                    k2 = (table.quotient[(ci, x2)], table.quotient[(di, x2)])
                    if not table.simplifications(*k1) & table.simplifications(*k2):
                        expected.append((ci, di, *sorted([k1, k2])))
    flag = transitivity_survey(monoid, bound).flags["pythagorean_transitive"]
    got = [(table.index[w.middle[0].parts], table.index[w.middle[1].parts],
            tuple(table.index[e.parts] for e in w.left),
            tuple(table.index[e.parts] for e in w.right))
           for w in flag.witnesses]
    assert got == expected
    assert flag.holds == (not expected)


def test_one_table_per_three_property_survey(monkeypatch):
    built = []
    original = DivisibilityTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DivisibilityTable, "__init__", counting_init)
    three_property_survey(C13, 250)
    assert len(built) == 1
    three_property_survey(Q2, 20)
    assert len(built) == 2


# -- Euclid's lemma: full-square scan in plain integers --------------------------


def scalar_space(r, m, bound):
    members = oracles.congruence_members(r, m, bound)

    def divide(x, p):
        return x // p if x % p == 0 and oracles.congruence_member(r, m, x // p) \
            else None

    irreducible = [p for p in members
                   if len(oracles.congruence_divisors(r, m, p)) == 2]
    return members, irreducible, lambda a, b: a * b, divide


def quadratic_space(d, bound):
    def cmp(x, y):
        return oracles.radical_sign(x[0] - y[0], x[1] - y[1], d)

    members = sorted(oracles.quad_members(d, (bound, 0)), key=cmp_to_key(cmp))
    irreducible = [p for p in members if len(oracles.quad_divisors(d, p)) == 2]
    return (members, irreducible, lambda a, b: oracles.quad_mul(a, b, d),
            lambda x, p: oracles.quad_try_divide(x, p, d))


def full_square_first_failure(members, irreducible, mul, divide):
    for p in irreducible:
        coprime = [x for x in members if divide(x, p) is None]
        for a in coprime:
            for b in coprime:
                if divide(mul(a, b), p) is not None:
                    return p, a, b, mul(a, b)
    return None


@pytest.mark.parametrize("monoid,bound,space", [
    (NAT, 40, lambda b: scalar_space(1, 1, b)),
    (C12, 60, lambda b: scalar_space(1, 2, b)),
    (C13, 100, lambda b: scalar_space(1, 3, b)),
    (C13, 250, lambda b: scalar_space(1, 3, b)),
    (C14, 200, lambda b: scalar_space(1, 4, b)),
    (Q2, 12, lambda b: quadratic_space(2, b)),
    (Q5, 20, lambda b: quadratic_space(5, b)),
])
def test_half_square_lemma_scan_matches_full_square(monoid, bound, space):
    expected = full_square_first_failure(*space(bound))
    flag = euclid_lemma_survey(monoid, bound)
    if expected is None:
        assert flag.holds and flag.witnesses == ()
        return
    (w,) = flag.witnesses
    got = tuple(e.parts[0] if len(e.parts) == 1 else e.parts
                for e in (w.irreducible, w.a, w.b, w.product))
    assert got == expected
