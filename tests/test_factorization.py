"""Irreducibles, factorization multisets, algebraic gcds, property surveys."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from euclidlab import (
    Congruence,
    Naturals,
    Quadratic,
    algebraic_gcd,
    euclid_lemma_survey,
    factorizations,
    is_irreducible,
    three_property_survey,
)

NAT = Naturals()
C13 = Congruence(1, 3)
Q2 = Quadratic(2)


def values(elems):
    return [e.value for e in elems]


def pairs(elems):
    return [e.pair for e in elems]


# -- irreducibility ----------------------------------------------------------

def test_irreducible_frozen_congruence():
    assert is_irreducible(C13.element(4))
    assert is_irreducible(C13.element(10))
    assert is_irreducible(C13.element(25))
    assert not is_irreducible(C13.element(100))
    assert not is_irreducible(C13.element(1))


def test_irreducible_frozen_quadratic():
    assert is_irreducible(Q2.element(0, 1))
    assert is_irreducible(Q2.element(1, 1))
    assert not is_irreducible(Q2.element(2, 0))  # (0,1)*(0,1)
    assert not is_irreducible(Q2.element(1, 0))


@given(st.integers(min_value=2, max_value=500))
def test_irreducible_naturals_means_prime(n):
    assert is_irreducible(NAT.element(n)) == all(
        n % d for d in range(2, math.isqrt(n) + 1))


# -- factorizations ------------------------------------------------------------

def test_factorizations_identity_is_empty_product():
    fs = factorizations(C13.element(1))
    assert len(fs) == 1 and fs[0].factors == ()
    assert fs[0].verifies()


def test_factorizations_frozen_congruence_100():
    fs = factorizations(C13.element(100))
    assert [values(f.factors) for f in fs] == [[4, 25], [10, 10]]
    assert all(f.verifies() for f in fs)


def test_factorizations_frozen_congruence_40():
    fs = factorizations(C13.element(40))
    assert [values(f.factors) for f in fs] == [[4, 10]]


def test_factorizations_frozen_quadratic_35_14():
    fs = factorizations(Q2.element(35, 14))
    assert [pairs(f.factors) for f in fs] == [
        [(1, 2), (3, 8)],
        [(3, 1), (11, 1)],
        [(7, 0), (5, 2)],
    ]
    assert all(f.verifies() for f in fs)
    for f in fs:
        assert all(is_irreducible(p) for p in f.factors)


@given(st.integers(min_value=1, max_value=200))
def test_factorizations_naturals_unique_and_sorted(n):
    fs = factorizations(NAT.element(n))
    assert len(fs) == 1
    factors = fs[0].factors
    assert list(factors) == sorted(factors)
    assert math.prod(p.value for p in factors) == n


# -- algebraic gcd ---------------------------------------------------------------

@given(st.integers(min_value=1, max_value=150), st.integers(min_value=1, max_value=150))
def test_algebraic_gcd_naturals_matches_stdlib(a, b):
    report = algebraic_gcd(NAT.element(a), NAT.element(b))
    assert report.exists
    assert report.gcd.value == math.gcd(a, b)
    assert report.maximal == (report.gcd,)


def test_algebraic_gcd_absent_congruence_40_100():
    report = algebraic_gcd(C13.element(40), C13.element(100))
    assert not report.exists and report.gcd is None
    assert values(report.common) == [1, 4, 10]
    assert values(report.maximal) == [4, 10]


def test_algebraic_gcd_absent_quadratic_7_14_35_14():
    report = algebraic_gcd(Q2.element(7, 14), Q2.element(35, 14))
    assert not report.exists
    assert pairs(report.maximal) == [(1, 2), (7, 0)]
    assert pairs(report.common) == [(1, 0), (1, 2), (7, 0)]


def test_algebraic_gcd_present_congruence():
    report = algebraic_gcd(C13.element(40), C13.element(4))
    assert report.exists and report.gcd.value == 4


# -- Euclid lemma survey -----------------------------------------------------------

def test_lemma_survey_naturals_holds():
    flag = euclid_lemma_survey(NAT, 50)
    assert flag.holds and flag.witnesses == ()


def test_lemma_survey_congruence_first_witness():
    flag = euclid_lemma_survey(C13, 100)
    assert not flag.holds
    w = flag.witnesses[0]
    assert (w.irreducible.value, w.a.value, w.b.value) == (4, 10, 10)
    assert w.product.value == 100
    # the witness genuinely refutes the lemma
    assert w.product.value % w.irreducible.value == 0
    assert w.a.value % w.irreducible.value != 0
    assert w.b.value % w.irreducible.value != 0


def test_lemma_survey_quadratic_first_witness():
    flag = euclid_lemma_survey(Q2, 10)
    assert not flag.holds
    w = flag.witnesses[0]
    assert w.irreducible.pair == (1, 1)
    assert (w.a.pair, w.b.pair) == ((1, 2), (3, 1))
    assert w.product.pair == (7, 7)


def test_lemma_witness_payload_shape():
    w = euclid_lemma_survey(C13, 100).witnesses[0]
    assert w.to_payload() == {
        "kind": "euclid_lemma_failure",
        "irreducible": 4,
        "a": 10,
        "b": 10,
        "product": 100,
    }


# -- three-property survey ----------------------------------------------------------

def test_survey_naturals_60_all_hold():
    report = three_property_survey(NAT, 60)
    assert list(report.flags) == [
        "pythagorean_transitive",
        "algebraic_gcds_exist",
        "unique_factorization",
        "euclid_lemma",
    ]
    assert all(flag.holds for flag in report.flags.values())
    assert all(flag.witnesses == () for flag in report.flags.values())


def test_survey_congruence_250_frozen():
    report = three_property_survey(C13, 250)
    counts = {name: len(flag.witnesses) for name, flag in report.flags.items()}
    assert counts == {
        "pythagorean_transitive": 7,
        "algebraic_gcds_exist": 7,
        "unique_factorization": 2,
        "euclid_lemma": 1,
    }
    assert not any(flag.holds for flag in report.flags.values())

    gcd_first = report.flags["algebraic_gcds_exist"].witnesses[0]
    assert values(gcd_first.pair) == [40, 100]
    assert values(gcd_first.maximal) == [4, 10]

    uf = report.flags["unique_factorization"].witnesses
    assert [w.element.value for w in uf] == [100, 220]
    assert [values(fs) for fs in uf[0].factorizations] == [[4, 25], [10, 10]]
    assert [values(fs) for fs in uf[1].factorizations] == [[4, 55], [10, 22]]

    lemma = report.flags["euclid_lemma"].witnesses[0]
    assert (lemma.irreducible.value, lemma.a.value, lemma.b.value) == (4, 10, 10)


def test_survey_quadratic_40_frozen():
    report = three_property_survey(Q2, 40)
    assert not any(flag.holds for flag in report.flags.values())

    gcd_first = report.flags["algebraic_gcds_exist"].witnesses[0]
    assert pairs(gcd_first.pair) == [(5, 3), (7, 7)]
    assert pairs(gcd_first.maximal) == [(1, 1), (1, 2)]

    uf_first = report.flags["unique_factorization"].witnesses[0]
    assert uf_first.element.pair == (7, 7)
    assert [pairs(fs) for fs in uf_first.factorizations] == [
        [(1, 1), (7, 0)],
        [(1, 2), (3, 1)],
    ]

    lemma = report.flags["euclid_lemma"].witnesses[0]
    assert lemma.irreducible.pair == (1, 1)
    assert (lemma.a.pair, lemma.b.pair) == ((1, 2), (3, 1))


@pytest.mark.parametrize("monoid,bound", [(NAT, 60), (C13, 100), (Q2, 40)])
def test_survey_three_classical_flags_agree(monoid, bound):
    report = three_property_survey(monoid, bound)
    classical = [
        report.flags["pythagorean_transitive"].holds,
        report.flags["algebraic_gcds_exist"].holds,
        report.flags["unique_factorization"].holds,
    ]
    assert len(set(classical)) == 1
    assert report.flags["euclid_lemma"].holds == classical[0]


def test_gcd_witness_payload_shape():
    report = three_property_survey(C13, 250)
    payload = report.flags["algebraic_gcds_exist"].witnesses[0].to_payload()
    assert payload == {
        "kind": "missing_algebraic_gcd",
        "pair": [40, 100],
        "maximal_common_divisors": [4, 10],
    }
    payload = report.flags["unique_factorization"].witnesses[0].to_payload()
    assert payload == {
        "kind": "non_unique_factorization",
        "element": 100,
        "factorizations": [[4, 25], [10, 10]],
    }
