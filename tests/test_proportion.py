"""Pythagorean proportionality and its classical consequences."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from euclidlab import euclid
from euclidlab import (
    CanonicalPartsMode,
    Congruence,
    MonoidMismatchError,
    Naturals,
    ProportionQuad,
    ProportionWitness,
    Quadratic,
    UnsupportedStructureError,
    alternando_check,
    add_elements,
    fraction_equal,
    least_pair,
    pythagorean,
    repair_check,
    transitivity_survey,
    vii6_check,
    vii19_check,
    vii20_check,
)

NAT = Naturals()
C13 = Congruence(1, 3)
Q2 = Quadratic(2)

nat_small = st.integers(min_value=1, max_value=40)


def nat_quad(a, b, c, d):
    return ProportionQuad(*(NAT.element(v) for v in (a, b, c, d)))


def c13_quad(a, b, c, d):
    return ProportionQuad(*(C13.element(v) for v in (a, b, c, d)))


def q2_quad(*pairs):
    return ProportionQuad(*(Q2.element(*p) for p in pairs))


def witness_values(w):
    return (w.x.value, w.y.value, w.m.value, w.n.value)


# -- the witness search --------------------------------------------------------

def test_pythagorean_frozen_naturals():
    w = pythagorean(nat_quad(4, 10, 10, 25))
    assert witness_values(w) == (2, 5, 2, 5)
    assert w.verifies(nat_quad(4, 10, 10, 25))


def test_pythagorean_frozen_congruence_example():
    quad = c13_quad(4, 10, 100, 250)
    w = pythagorean(quad)
    assert witness_values(w) == (1, 25, 4, 10)
    assert w.verifies(quad)
    # the same quad loses its witness when 2 and 5 leave the monoid
    assert pythagorean(c13_quad(4, 10, 10, 25)) is None


def test_pythagorean_returns_least_witness():
    # both x=1 and x=2 work; the search reports the least
    w = pythagorean(nat_quad(2, 4, 4, 8))
    assert witness_values(w) == (1, 2, 2, 4)


def test_pythagorean_canonical_mode_requires_both_gcds():
    quad = c13_quad(4, 10, 100, 250)
    assert pythagorean(quad, CanonicalPartsMode.CANONICAL_ONLY) is None
    w = pythagorean(nat_quad(4, 6, 10, 15), CanonicalPartsMode.CANONICAL_ONLY)
    assert witness_values(w) == (2, 5, 2, 3)


def test_quad_rejects_mixed_monoids():
    with pytest.raises(MonoidMismatchError):
        ProportionQuad(NAT.element(1), NAT.element(2),
                       C13.element(1), C13.element(4))


@given(nat_small, nat_small, nat_small, nat_small)
def test_constructed_proportions_always_witnessed(x, y, m, n):
    quad = nat_quad(m * x, n * x, m * y, n * y)
    w = pythagorean(quad)
    assert w is not None and w.verifies(quad)


@given(nat_small, nat_small, nat_small, nat_small)
def test_pythagorean_iff_equal_fractions_naturals(a, b, c, d):
    quad = nat_quad(a, b, c, d)
    assert (pythagorean(quad) is not None) == (a * d == b * c)


@given(st.data())
def test_witness_implies_fraction_equality_everywhere(data):
    monoid, mk = data.draw(st.sampled_from(
        [(NAT, lambda v: NAT.element(1 + v)),
         (C13, lambda v: C13.element(1 + 3 * v)),
         (Q2, lambda v: Q2.element(1 + v % 5, v % 7))]))
    vals = [data.draw(st.integers(min_value=0, max_value=30)) for _ in range(4)]
    quad = ProportionQuad(*(mk(v) for v in vals))
    if pythagorean(quad) is not None:
        assert fraction_equal(quad)


@given(nat_small, nat_small, nat_small, nat_small)
def test_pythagorean_symmetric(a, b, c, d):
    fwd = pythagorean(nat_quad(a, b, c, d)) is not None
    rev = pythagorean(nat_quad(c, d, a, b)) is not None
    assert fwd == rev


def test_pythagorean_symmetric_congruence_sample():
    elems = [1 + 3 * k for k in range(1, 34)]
    for a, b, c, d in [(4, 10, 40, 100), (4, 10, 100, 250), (40, 100, 10, 25),
                       (4, 4, 25, 25), (10, 40, 25, 100)]:
        assert a in elems and d in elems or True
        fwd = pythagorean(c13_quad(a, b, c, d)) is not None
        rev = pythagorean(c13_quad(c, d, a, b)) is not None
        assert fwd == rev


@given(nat_small, nat_small, nat_small, nat_small)
def test_canonical_agrees_with_any_witness_when_gcds_exist(a, b, c, d):
    quad = nat_quad(a, b, c, d)
    any_w = pythagorean(quad)
    canon = pythagorean(quad, CanonicalPartsMode.CANONICAL_ONLY)
    assert (any_w is None) == (canon is None)


def test_search_agrees_with_simplification_sets():
    # independent route: a:b = c:d iff the pairs share a simplification
    elems = [1 + 3 * k for k in range(0, 20)]
    for a in elems[1:8]:
        for b in elems[1:8]:
            for c in elems:
                for d in elems:
                    quad = c13_quad(a, b, c, d)
                    s1 = oracles.scalar_simplifications(
                        oracles.congruence_divisors(1, 3, a)
                        & oracles.congruence_divisors(1, 3, b), a, b)
                    s2 = oracles.scalar_simplifications(
                        oracles.congruence_divisors(1, 3, c)
                        & oracles.congruence_divisors(1, 3, d), c, d)
                    assert (pythagorean(quad) is not None) == bool(s1 & s2)


# -- alternation -----------------------------------------------------------------

def test_alternando_frozen_congruence():
    report = alternando_check(c13_quad(4, 10, 100, 250))
    assert report.premise and report.conclusion and report.holds
    assert witness_values(report.premise_witness) == (1, 25, 4, 10)
    assert witness_values(report.conclusion_witness) == (4, 10, 1, 25)
    assert report.conclusion_witness.verifies(c13_quad(4, 100, 10, 250))


def test_alternando_vacuous_when_premise_fails():
    report = alternando_check(c13_quad(4, 10, 10, 25))
    assert not report.premise and report.holds
    assert report.premise_witness is None


@given(nat_small, nat_small, nat_small, nat_small)
def test_alternando_holds_on_naturals(a, b, c, d):
    report = alternando_check(nat_quad(a, b, c, d))
    assert report.holds
    if report.premise:
        assert report.conclusion_witness.verifies(nat_quad(a, c, b, d))


# -- componentwise addition --------------------------------------------------------

def test_add_elements_naturals_and_quadratic():
    assert add_elements(NAT.element(2), NAT.element(3)).value == 5
    assert add_elements(Q2.element(1, 2), Q2.element(3, 4)).pair == (4, 6)
    with pytest.raises(MonoidMismatchError):
        add_elements(NAT.element(2), Q2.element(1, 1))


def test_add_elements_rejects_congruence_with_escape():
    with pytest.raises(UnsupportedStructureError) as err:
        add_elements(C13.element(4), C13.element(7))
    msg = str(err.value)
    assert "'congruence 1 mod 3' is not closed under addition" in msg
    assert "4+4=8 is not a member" in msg


def test_congruence_escape_shapes():
    with pytest.raises(UnsupportedStructureError) as err:
        add_elements(Congruence(3, 3).element(3), Congruence(3, 3).element(6))
    assert "1+3=4 is not a member" in str(err.value)
    with pytest.raises(UnsupportedStructureError) as err:
        add_elements(Congruence(3, 6).element(3), Congruence(3, 6).element(9))
    assert "3+3=6 is not a member" in str(err.value)
    c11 = Congruence(1, 1)  # every n >= 1: closed under addition
    assert add_elements(c11.element(2), c11.element(3)) == c11.element(5)


def test_vii6_frozen_naturals():
    report = vii6_check(nat_quad(2, 3, 4, 6))
    ext = report.extended
    assert [e.value for e in ext.elements] == [2, 3, 6, 9]
    assert report.premise and report.conclusion and report.holds
    assert witness_values(report.conclusion_witness) == (1, 3, 2, 3)
    assert report.conclusion_witness.verifies(ext)


def test_vii6_quadratic():
    quad = q2_quad((1, 1), (0, 1), (3, 2), (2, 1))
    report = vii6_check(quad)
    assert report.holds and report.premise
    assert report.conclusion_witness.x.pair == (1, 0)
    assert report.conclusion_witness.y.pair == (2, 1)
    assert [e.pair for e in report.extended.elements] == [
        (1, 1), (0, 1), (4, 3), (2, 2)]


def test_vii6_canonical_mode():
    report = vii6_check(nat_quad(4, 6, 10, 15), CanonicalPartsMode.CANONICAL_ONLY)
    assert report.holds
    assert witness_values(report.conclusion_witness) == (2, 7, 2, 3)


def test_vii6_congruence_unsupported():
    with pytest.raises(UnsupportedStructureError):
        vii6_check(c13_quad(4, 10, 100, 250))


def test_vii6_vacuous_premise():
    report = vii6_check(nat_quad(2, 3, 3, 5))
    assert not report.premise and report.holds
    assert report.conclusion_witness is None


@given(nat_small, nat_small, nat_small, nat_small)
def test_vii6_holds_on_naturals(a, b, c, d):
    report = vii6_check(nat_quad(a, b, c, d))
    assert report.holds
    if report.premise:
        assert report.conclusion_witness.verifies(report.extended)


# -- the two notions side by side ---------------------------------------------------

def test_vii19_frozen_divergence():
    report = vii19_check(c13_quad(4, 10, 10, 25))
    assert report.frac and not report.pyth and not report.equivalent
    assert report.witness is None


def test_vii19_frozen_agreement():
    report = vii19_check(c13_quad(4, 10, 100, 250))
    assert report.frac and report.pyth and report.equivalent
    assert witness_values(report.witness) == (1, 25, 4, 10)


def test_vii19_quadratic_agreement():
    quad = q2_quad((7, 14), (35, 14), (1, 2), (5, 2))
    report = vii19_check(quad)
    assert report.frac and report.pyth and report.equivalent


# -- least pairs ----------------------------------------------------------------------

def test_least_pair_frozen():
    u, v = least_pair(NAT.element(12), NAT.element(18))
    assert (u.value, v.value) == (2, 3)
    u, v = least_pair(NAT.element(7), NAT.element(7))
    assert (u.value, v.value) == (1, 1)


def test_least_pair_requires_naturals():
    with pytest.raises(UnsupportedStructureError) as err:
        least_pair(C13.element(4), C13.element(10))
    assert "least pair is defined over 'nat' only" in str(err.value)


def test_least_pair_certificate_catches_a_wrong_gcd(monkeypatch):
    # a gcd routine that answers 1 leaves 12:18 unreduced; gcd(12, 18) != 1
    monkeypatch.setattr(euclid, "gcd", lambda a, b: 1)
    with pytest.raises(RuntimeError):
        least_pair(NAT.element(12), NAT.element(18))


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_least_pair_matches_reduced_fraction(c, d):
    u, v = least_pair(NAT.element(c), NAT.element(d))
    assert (u.value, v.value) == oracles.reduced_fraction(c, d)


def test_vii20_frozen():
    report = vii20_check(NAT.element(12), NAT.element(18))
    assert (report.u.value, report.v.value) == (2, 3)
    assert report.u_divides_c and report.v_divides_d
    assert report.quotient.value == 6
    assert report.holds


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_vii20_quotient_is_the_gcd(c, d):
    report = vii20_check(NAT.element(c), NAT.element(d))
    assert report.holds
    assert report.quotient.value * report.u.value == c
    assert report.quotient.value * report.v.value == d


# -- the repair argument ----------------------------------------------------------------

def test_repair_checked_naturals():
    report = repair_check(nat_quad(4, 6, 10, 15))
    assert report.status == "checked" and report.holds is True
    assert (report.g1.value, report.g2.value) == (2, 5)
    assert (report.p.value, report.q.value) == (2, 3)
    assert (report.i.value, report.j.value) == (1, 1)
    assert witness_values(report.witness) == (2, 5, 2, 3)


def test_repair_premise_failed():
    report = repair_check(c13_quad(4, 10, 10, 25))
    assert report.status == "premise_failed"
    assert report.holds is None and report.witness is None


def test_repair_inapplicable_second_pair():
    report = repair_check(c13_quad(4, 10, 100, 250))
    assert report.status == "inapplicable" and report.holds is None
    assert [e.value for e in report.offending_pair] == [100, 250]
    assert report.witness is not None  # the premise did hold


def test_repair_inapplicable_first_pair_checked_first():
    report = repair_check(c13_quad(40, 100, 40, 100))
    assert report.status == "inapplicable"
    assert [e.value for e in report.offending_pair] == [40, 100]


@given(nat_small, nat_small, nat_small, nat_small)
def test_repair_always_checks_out_on_naturals(x, y, m, n):
    report = repair_check(nat_quad(m * x, n * x, m * y, n * y))
    assert report.status == "checked" and report.holds is True
    assert report.i == report.j


# -- transitivity ---------------------------------------------------------------------

def test_transitivity_survey_naturals_empty():
    report = transitivity_survey(NAT, 30)
    flag = report.flags["pythagorean_transitive"]
    assert flag.holds and flag.witnesses == ()


def test_transitivity_survey_congruence_250_frozen():
    report = transitivity_survey(C13, 250)
    flag = report.flags["pythagorean_transitive"]
    assert not flag.holds
    assert len(flag.witnesses) == 7

    def triple(w):
        return tuple(tuple(e.value for e in pair)
                     for pair in (w.left, w.middle, w.right))

    assert triple(flag.witnesses[0]) == ((4, 10), (40, 100), (10, 25))
    assert triple(flag.witnesses[5]) == ((4, 10), (100, 250), (10, 25))
    for w in flag.witnesses:
        assert w.verifies()


def test_transitivity_survey_quadratic_first_witness():
    report = transitivity_survey(Q2, 40)
    flag = report.flags["pythagorean_transitive"]
    assert not flag.holds
    first = flag.witnesses[0]
    assert tuple(e.pair for e in first.left) == ((1, 1), (3, 1))
    assert tuple(e.pair for e in first.middle) == ((5, 3), (7, 7))
    assert tuple(e.pair for e in first.right) == ((1, 2), (7, 0))
    assert first.verifies()


def test_transitivity_witness_payload():
    report = transitivity_survey(C13, 250)
    w = report.flags["pythagorean_transitive"].witnesses[0]
    assert w.to_payload() == {
        "kind": "transitivity_failure",
        "left": [4, 10],
        "middle": [40, 100],
        "right": [10, 25],
    }


def test_proportion_witness_payload():
    w = pythagorean(c13_quad(4, 10, 100, 250))
    assert w.to_payload() == {
        "kind": "proportion_witness",
        "x": 1,
        "y": 25,
        "m": 4,
        "n": 10,
    }
