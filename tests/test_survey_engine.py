"""The table-first survey engine against independent routes.

Each survey flag runs over one ``DivisibilityTable``; these tests check
its shortcuts against the plain computations they replace: the shared
pair scans and the top-down maximal-divisor scan against double loops
over all pairs and the definitional
``algebraic_gcd``, the table-built factorization witnesses against
``factorizations``, the half-square, norm-pruned Euclid-lemma scan
against a full-square scan in plain integers (for the first failure and
for each irreducible alone), the prime-factor sieve and the trial
division above its limit against plain trial division, and the
three-property survey against the standalone surveys.
"""

import json
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from euclidlab import (
    Congruence,
    DivisibilityTable,
    Naturals,
    PropertyFlag,
    Quadratic,
    TransitivityWitness,
    algebraic_gcd,
    euclid_lemma_survey,
    factorizations,
    three_property_survey,
    transitivity_survey,
)
from euclidlab import factorization, monoids
from euclidlab.cli import run_command
from euclidlab.factorization import (
    EuclidLemmaWitness,
    FactorizationWitness,
    GcdAbsenceWitness,
    _euclid_lemma_flag,
    _maximal_common_divisors,
    _prime_factors,
    _smallest_prime_factors,
)

NAT = Naturals()
C12 = Congruence(1, 2)
C13 = Congruence(1, 3)
C14 = Congruence(1, 4)
Q2 = Quadratic(2)
Q3 = Quadratic(3)
Q5 = Quadratic(5)
Q7 = Quadratic(7)
C46 = Congruence(4, 6)

SPACES = [(NAT, 60), (C12, 100), (C13, 250), (C14, 200), (Q2, 20), (Q5, 30)]


@pytest.mark.parametrize(
    "monoid,bound",
    SPACES + [(Q3, 24), (Q7, 30), (C46, 300), (NAT, 200)])
def test_common_divisor_pairs_match_double_loop(monoid, bound):
    # The one-index walk, over the elements with several factorizations
    # keyed by irreducible pairs, and its count test against every pair and
    # its full common-divisor set: a gcd is the largest common divisor, if
    # that one is a multiple of all the others.  Each pair keeps the
    # members of `common` that divide no other member.
    table = DivisibilityTable(monoid, bound)
    n = len(table.elements)
    expected = []
    for ai in range(n):
        for bi in range(ai, n):
            common = sorted(table.divisor_ids[ai] & table.divisor_ids[bi])
            if not table.divisor_ids[common[-1]].issuperset(common):
                expected.append((ai, bi, [u for u in common if not any(
                    v != u and table.divides(u, v) for v in common)]))
    assert table.pairs_without_gcd == expected


@pytest.mark.parametrize("monoid,bound", [(C13, 250), (C14, 500), (Q2, 20), (C46, 300)])
def test_maximal_common_divisors_match_all_pairs_definition(monoid, bound):
    # The top-down scan against the members of `common` that divide no
    # other member, on every pair: most pairs have a chain of common
    # divisors, and some have several maximal ones.
    table = DivisibilityTable(monoid, bound)
    n = len(table.elements)
    several = False
    for ai in range(n):
        for bi in range(ai, n):
            common = sorted(table.divisor_ids[ai] & table.divisor_ids[bi])
            expected = [u for u in common if not any(
                v != u and table.divides(u, v) for v in common)]
            assert _maximal_common_divisors(
                common, table.divisor_ids.__getitem__) == expected
            several = several or len(expected) > 1
    assert several


@pytest.mark.parametrize("monoid,bound", [
    (C13, 250), (Q2, 20), (NAT, 60), (C12, 100), (C14, 200), (Q5, 30),
    (Q3, 24), (Q7, 30), (C46, 300)])
def test_table_factorizations_match_definitional_route(monoid, bound):
    # Every element, the table's quotients against the divisor scans.
    # Below these bounds only nat and 1 mod 2 and 1 mod 4 factor uniquely.
    table = DivisibilityTable(monoid, bound)
    ids = table.factorization_ids
    if monoid not in (NAT, C12, C14):
        assert any(len(fs) > 1 for fs in ids)
    for x, fs in zip(table.elements, ids):
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


@pytest.mark.parametrize("monoid,bound", [(NAT, 40), (C13, 250), (Q2, 16),
                                          (Q3, 24), (C46, 300), (Q5, 20)])
def test_pairs_without_gcd_match_definitional_gcd(monoid, bound):
    table = DivisibilityTable(monoid, bound)
    elems = table.elements
    expected = [(ai, bi) for ai in range(len(elems)) for bi in range(ai, len(elems))
                if algebraic_gcd(elems[ai], elems[bi]).gcd is None]
    assert [(ai, bi) for ai, bi, _ in table.pairs_without_gcd] == expected


@pytest.mark.parametrize("monoid,bound", [(C13, 250), (Q2, 20), (Q5, 20), (C46, 300)])
def test_pairs_of_uniquely_factoring_members_have_a_gcd(monoid, bound):
    # The cut of the pair scan, on the definitional routes alone: each
    # member's factorizations by descent, the gcd by its common divisors.
    elems = DivisibilityTable(monoid, bound).elements
    unique = [x for x in elems if len(factorizations(x)) == 1]
    assert len(unique) < len(elems)
    for pos, a in enumerate(unique):
        for b in unique[pos:]:
            assert algebraic_gcd(a, b).gcd is not None, (a, b)


def test_pair_scan_indexes_nothing_where_every_element_factors_uniquely(
        monkeypatch):
    calls = []
    original = monoids.combinations

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(monoids, "combinations", counting)
    for monoid, bound in [(NAT, 400), (C12, 600)]:
        report = three_property_survey(monoid, bound)
        assert all(flag.holds for flag in report.flags.values())
    assert calls == []
    assert not three_property_survey(Q2, 20).flags["algebraic_gcds_exist"].holds
    assert calls  # the counter sees the scan where it runs


def simplifications(table, ai, bi):
    """Every ``(a/x, b/x)`` index pair over the common divisors x of (a, b)."""
    common = table.divisor_ids[ai] & table.divisor_ids[bi]
    quot = table.quotient
    return {(quot[(ai, xi)], quot[(bi, xi)]) for xi in common}


@pytest.mark.parametrize("monoid,bound",
                         SPACES + [(Q3, 24), (Q7, 30), (C46, 300)])
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
                    if not (simplifications(table, *k1)
                            & simplifications(table, *k2)):
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


def as_oracle_value(e):
    return e.parts[0] if len(e.parts) == 1 else e.parts


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
    (Q3, 24, lambda b: quadratic_space(3, b)),
    (Q7, 30, lambda b: quadratic_space(7, b)),
    (C14, 1000, lambda b: scalar_space(1, 4, b)),
    (C46, 600, lambda b: scalar_space(4, 6, b)),
])
def test_half_square_lemma_scan_matches_full_square(monoid, bound, space):
    expected = full_square_first_failure(*space(bound))
    flag = euclid_lemma_survey(monoid, bound)
    if expected is None:
        assert flag.holds and flag.witnesses == ()
        return
    (w,) = flag.witnesses
    got = tuple(as_oracle_value(e) for e in (w.irreducible, w.a, w.b, w.product))
    assert got == expected


@pytest.mark.parametrize("monoid,bound,space", [
    (C14, 400, lambda b: scalar_space(1, 4, b)),
    (C46, 400, lambda b: scalar_space(4, 6, b)),
    (Q2, 16, lambda b: quadratic_space(2, b)),
    (Q3, 16, lambda b: quadratic_space(3, b)),
    (Q7, 16, lambda b: quadratic_space(7, b)),
    (Q5, 20, lambda b: quadratic_space(5, b)),
    (C13, 250, lambda b: scalar_space(1, 3, b)),
    # At 30 the irreducible 9 has one non-multiple whose norm 3 divides,
    # 21, and 9 | 21*21: a skip that tolerates one such element misses it.
    (C14, 30, lambda b: scalar_space(1, 4, b)),
])
def test_norm_pruned_scan_matches_full_square_per_irreducible(
        monkeypatch, monoid, bound, space):
    # The scan reports only the first failure over all p; taking one
    # irreducible at a time checks the norm groups of every later p too,
    # and the skip of each p whose norm primes list only its multiples.
    members, irreducible, mul, divide = space(bound)
    if monoid == Q2:  # 1+sqrt(2) has norm 1, which the skip must pass over
        assert (1, 1) in irreducible
    table = DivisibilityTable(monoid, bound)
    index = {as_oracle_value(e): i for i, e in enumerate(table.elements)}
    for p in irreducible:
        monkeypatch.setattr(table, "is_irreducible",
                            lambda i, pi=index[p]: i == pi)
        expected = full_square_first_failure(members, [p], mul, divide)
        flag = _euclid_lemma_flag(table)
        if expected is None:
            assert flag.holds
            continue
        (w,) = flag.witnesses
        got = tuple(as_oracle_value(e) for e in (w.irreducible, w.a, w.b, w.product))
        assert got == expected


@given(st.integers(1, 3000), st.integers(0, 3000), st.integers(1, 300),
       st.data())
def test_prime_factors_match_trial_division(n, extra, limit, data):
    spf = _smallest_prime_factors(n + extra)
    assert _prime_factors(n, spf) == oracles.prime_factors(n)
    if n > 1:
        assert spf[n] == oracles.prime_factors(n)[0]
    # At or above the sieve's limit, below its square: trial division.
    spf = _smallest_prime_factors(limit)
    big = data.draw(st.integers(len(spf), len(spf) ** 2 - 1))
    assert _prime_factors(big, spf) == oracles.prime_factors(big)


def test_prime_factors_above_small_sieves_match_trial_division():
    for limit in range(1, 30):
        spf = _smallest_prime_factors(limit)
        for n in range(1, len(spf) ** 2):
            assert _prime_factors(n, spf) == oracles.prime_factors(n), (limit, n)


def test_euclid_lemma_sieve_stops_at_the_root_of_the_largest_norm(monkeypatch):
    # Congruence 1 mod 1000 up to 10**6 has 1,000 elements, the largest
    # 999,001; its norms need primes up to 999 only.
    limits = []

    def recording(limit):
        limits.append(limit)
        return _smallest_prime_factors(limit)

    monkeypatch.setattr(factorization, "_smallest_prime_factors", recording)
    flag = euclid_lemma_survey(Congruence(1, 1000), 10**6)
    assert limits and max(limits) <= 1000
    (w,) = flag.witnesses
    assert [e.value for e in (w.irreducible, w.a, w.b)] == [1001, 8001, 144001]


@pytest.mark.parametrize("monoid,bound",
                         [(NAT, 150), (C12, 200), (NAT, 400), (C12, 600)])
def test_euclid_scan_divides_nothing_where_irreducibles_are_primes(
        monkeypatch, monoid, bound):
    # Each irreducible is a prime p = N(p), and every element whose norm p
    # divides is a multiple of p, so the scan skips every p: no product is
    # divided and no norm gcd is taken.
    calls = []
    gcds = []

    def counting_gcd(*args):
        gcds.append(args)
        return gcd(*args)

    monkeypatch.setattr(factorization, "gcd", counting_gcd)
    for cls in (Naturals, Congruence, Quadratic):
        original = cls._try_divide_parts

        def counting(self, b, a, original=original):
            calls.append(a)
            return original(self, b, a)

        monkeypatch.setattr(cls, "_try_divide_parts", counting)
    assert euclid_lemma_survey(monoid, bound).holds
    assert calls == [] and gcds == []
    assert not euclid_lemma_survey(Q2, 20).holds
    assert calls and gcds  # the counters see the work where pairs pass


def test_euclid_lemma_flag_builds_no_divisor_set(monkeypatch):
    # The flag finds p's multiples as p's own products in the table.
    for monoid, bound in [(NAT, 3000), (C14, 400), (Q2, 40)]:
        table = DivisibilityTable(monoid, bound)
        _euclid_lemma_flag(table)
        assert "divisor_ids" not in vars(table), (monoid, bound)

    def refuse(self):
        raise AssertionError("built a divisor set")

    # Where every element factors uniquely, no flag reads a divisor set.
    monkeypatch.setattr(DivisibilityTable, "divisor_ids", property(refuse))
    report = three_property_survey(NAT, 3000)
    assert all(flag.holds for flag in report.flags.values())


def test_euclid_lemma_sieve_reaches_the_element_count(monkeypatch):
    # nat up to 3,000: the square root of the largest norm is 54, and the
    # sieve runs up to the 3,000 elements, sparing every trial division.
    limits = []

    def recording(limit):
        limits.append(limit)
        return _smallest_prime_factors(limit)

    monkeypatch.setattr(factorization, "_smallest_prime_factors", recording)
    assert euclid_lemma_survey(NAT, 3000).holds
    assert limits and max(limits) >= 3000


# -- lazy witnesses -----------------------------------------------------------


def direct_witness(kind, ids, elements):
    """The witness an index tuple stands for, built here by hand."""
    at = elements.__getitem__
    if kind is GcdAbsenceWitness:
        a, b, maximal = ids
        return GcdAbsenceWitness(pair=(at(a), at(b)),
                                 maximal=tuple(map(at, maximal)))
    if kind is FactorizationWitness:
        x, all_fs = ids
        return FactorizationWitness(
            element=at(x),
            factorizations=tuple(tuple(map(at, fs)) for fs in all_fs))
    if kind is EuclidLemmaWitness:
        p, a, b, product = ids
        assert product == at(a) * at(b)
        return EuclidLemmaWitness(irreducible=at(p), a=at(a), b=at(b),
                                  product=product)
    assert kind is TransitivityWitness
    la, lb, ma, mb, ra, rb = map(at, ids)
    return TransitivityWitness(left=(la, lb), middle=(ma, mb), right=(ra, rb))


@pytest.mark.parametrize("monoid,bound", [(C13, 250), (Q2, 20), (Q3, 24)])
def test_lazy_witnesses_match_index_tuples_and_json(monoid, bound):
    report = three_property_survey(monoid, bound)
    code, text = run_command(["survey", "--three-properties", "--json",
                              "--monoid", monoid.spec_text(),
                              "--bound", str(bound)])
    assert code == 1
    entries = json.loads(text)["witnesses"]
    for name, flag in report.flags.items():
        assert "witnesses" not in vars(flag)  # nothing built yet
        expected = tuple(direct_witness(flag.kind, ids, flag.table.elements)
                         for ids in flag.ids)
        assert flag.witnesses == expected
        assert flag.witness_count == len(expected)
        assert flag.holds == (not expected)
        rendered = [{k: v for k, v in entry.items() if k != "flag"}
                    for entry in entries if entry["flag"] == name]
        assert rendered == [w.to_payload() for w in flag.witnesses]
        assert flag == PropertyFlag(flag.table, flag.kind, flag.ids)
        if expected:
            assert flag != PropertyFlag(flag.table, flag.kind, flag.ids[1:])
    assert not all(flag.holds for flag in report.flags.values())
