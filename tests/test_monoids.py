"""Monoid arithmetic, membership, enumeration and divisor sets."""

import inspect
from functools import cmp_to_key
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import euclidlab
import oracles
from euclidlab import (
    BoundExceededError,
    Congruence,
    DivisibilityTable,
    InvalidInputError,
    MonoidMismatchError,
    Naturals,
    Quadratic,
    common_divisors,
    contains,
    divisors,
    enumerate_up_to,
    is_irreducible,
    mul,
    three_property_survey,
    try_divide,
)
from euclidlab import euclid, monoids, specparse
from euclidlab.monoids import _square_free

NAT = Naturals()
C13 = Congruence(1, 3)
Q2 = Quadratic(2)

members_nat = st.integers(min_value=1, max_value=400)
members_c13 = st.integers(min_value=0, max_value=130).map(lambda k: 1 + 3 * k)
members_q2 = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
    lambda p: p != (0, 0))


def elem(monoid, v):
    return monoid.element(*v) if isinstance(v, tuple) else monoid.element(v)


# -- construction and membership ----------------------------------------------

def test_congruence_requires_closure():
    with pytest.raises(InvalidInputError) as err:
        Congruence(2, 3)
    assert "not multiplicatively closed" in str(err.value)
    assert "product 4 has residue 1, expected 2" in str(err.value)


def test_congruence_closure_witness_mod_4():
    with pytest.raises(InvalidInputError) as err:
        Congruence(2, 4)
    assert "product 4 has residue 0, expected 2" in str(err.value)


def test_congruence_accepts_closed_classes():
    for r, m in [(1, 3), (1, 4), (3, 6), (4, 6), (5, 20), (1, 1)]:
        monoid = Congruence(r, m)
        s = [e.value for e in enumerate_up_to(monoid, 40)]
        for x in s:
            for y in s:
                assert monoid.contains(x * y)


def test_quadratic_requires_square_free_radicand():
    for d in (4, 8, 9, 12, 18, 1, 0, -2):
        with pytest.raises(InvalidInputError):
            Quadratic(d)
    for d in (2, 3, 5, 6, 7, 10):
        Quadratic(d)


def test_square_free_matches_trial_division_by_squares():
    for n in range(1, 5000):
        expected = all(n % (f * f) for f in range(2, int(n ** 0.5) + 1))
        assert _square_free(n) == expected, n


def test_square_free_decides_large_radicands_from_the_cube_root():
    # Past the cube root at most two prime factors remain.
    q, r = 1_000_000_007, 1_000_000_009  # both prime
    assert _square_free(q * r)
    assert not _square_free(q * q)
    assert not _square_free(2 * q * q)
    assert _square_free(10**18 + 3)  # prime
    with pytest.raises(InvalidInputError):
        Quadratic(q * q)
    # 2**61 - 1 is prime, and its cube root passes the ceiling of 10**6.
    with pytest.raises(BoundExceededError) as err:
        Quadratic(2**61 - 1)
    assert err.value.ceiling == 1_000_000
    with pytest.raises(InvalidInputError):
        Quadratic(4 * (2**61 - 1))  # the factor 4 shows before the ceiling


def test_quadratic_default_radicand_is_two():
    assert Quadratic().radicand == 2
    assert Quadratic().spec_text() == "quadratic 2"


def test_membership_edges():
    assert not NAT.contains(0)
    assert NAT.contains(1)
    assert not C13.contains(5)
    assert C13.contains(1) and C13.contains(4)
    assert not Q2.contains(0, 0)
    assert Q2.contains(0, 1)
    # malformed raw components are errors, not non-members
    with pytest.raises(InvalidInputError):
        NAT.contains(-3)
    with pytest.raises(InvalidInputError):
        Q2.contains(-1, 2)
    with pytest.raises(InvalidInputError):
        NAT.contains(True)
    with pytest.raises(InvalidInputError):
        NAT.contains("4")


def test_element_constructor_validates():
    with pytest.raises(InvalidInputError):
        NAT.element(0)
    with pytest.raises(InvalidInputError):
        C13.element(6)
    with pytest.raises(InvalidInputError):
        Q2.element(0, 0)


def test_contains_module_level():
    assert contains(C13, 10)
    assert not contains(C13, 8)
    assert contains(Q2, 3, 8)


# -- multiplication ------------------------------------------------------------

def test_quadratic_product_example():
    x = Q2.element(3, 8)
    y = Q2.element(1, 2)
    assert (x * y).pair == (35, 14)
    assert (Q2.element(7, 0) * Q2.element(5, 2)).pair == (35, 14)


def test_mul_rejects_mixed_monoids():
    with pytest.raises(MonoidMismatchError):
        mul(NAT.element(2), C13.element(4))


@given(members_q2, members_q2)
def test_quadratic_mul_matches_oracle(x, y):
    assert mul(elem(Q2, x), elem(Q2, y)).pair == oracles.quad_mul(x, y, 2)


@given(members_c13, members_c13)
def test_closure_congruence(x, y):
    assert C13.contains(mul(elem(C13, x), elem(C13, y)).value)


@given(members_q2, members_q2, members_q2)
def test_mul_commutative_associative(x, y, z):
    ex, ey, ez = elem(Q2, x), elem(Q2, y), elem(Q2, z)
    assert ex * ey == ey * ex
    assert (ex * ey) * ez == ex * (ey * ez)


# -- division -------------------------------------------------------------------

def test_quadratic_division_example():
    q = try_divide(Q2.element(35, 14), Q2.element(1, 2))
    assert q is not None and q.pair == (3, 8)
    assert try_divide(Q2.element(35, 14), Q2.element(7, 0)).pair == (5, 2)
    assert try_divide(Q2.element(7, 0), Q2.element(1, 2)) is None


def test_division_requires_member_quotient():
    # 10/2 = 5 in the integers, but 2 and 5 are not members mod 3
    assert try_divide(C13.element(10), C13.element(10)).value == 1
    assert try_divide(C13.element(40), C13.element(4)).value == 10
    assert try_divide(C13.element(100), C13.element(40)) is None


@given(members_q2, members_q2)
def test_try_divide_mul_round_trip_quadratic(a, q):
    ea, eq = elem(Q2, a), elem(Q2, q)
    assert try_divide(ea * eq, ea) == eq


@given(members_nat, members_nat)
def test_try_divide_mul_round_trip_nat(a, q):
    ea, eq = elem(NAT, a), elem(NAT, q)
    assert try_divide(ea * eq, ea) == eq


@given(members_c13, members_c13)
def test_cancellation_by_construction(a, x):
    # a*x = a*y forces x = y: division recovers the cofactor uniquely
    ea, ex = elem(C13, a), elem(C13, x)
    assert try_divide(ea * ex, ea) == ex


@given(members_q2, members_q2)
def test_quadratic_divide_matches_oracle(b, a):
    got = try_divide(elem(Q2, b), elem(Q2, a))
    want = oracles.quad_try_divide(b, a, 2)
    assert (got.pair if got is not None else None) == want


# -- norm order and enumeration -------------------------------------------------

def test_enumeration_frozen_lists():
    assert [e.value for e in enumerate_up_to(NAT, 3)] == [1, 2, 3]
    assert [e.value for e in enumerate_up_to(C13, 13)] == [1, 4, 7, 10, 13]
    assert [e.pair for e in enumerate_up_to(Q2, 3)] == [
        (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]


def test_enumeration_matches_oracle_membership():
    got = {e.pair for e in enumerate_up_to(Q2, 12)}
    assert got == set(oracles.quad_members(2, (12, 0)))
    got = {e.value for e in enumerate_up_to(C13, 100)}
    assert got == set(oracles.congruence_members(1, 3, 100))


@pytest.mark.parametrize("monoid,bound", [
    (Q2, 25), (Quadratic(3), 25), (Quadratic(5), 30), (Quadratic(7), 30),
    (C13, 300), (Congruence(4, 6), 300)])
def test_enumeration_strictly_ordered_quadratic(monoid, bound):
    # The kernel yields members in norm order; no enumeration sorts after it.
    elems = enumerate_up_to(monoid, bound)
    for prev, cur in zip(elems, elems[1:]):
        assert prev < cur  # no norm ties: sqrt(d) is irrational


def test_enumeration_bound_can_be_an_element():
    for d, pair in [(2, (3, 1)), (2, (0, 6)), (2, (9, 4)), (3, (2, 3)),
                    (3, (0, 5)), (5, (4, 2)), (5, (1, 4)), (7, (0, 3)),
                    (7, (6, 2))]:
        monoid = Quadratic(d)
        got = [e.pair for e in enumerate_up_to(monoid, monoid.element(*pair))]
        assert got[-1] == pair, (d, pair)
        assert got == sorted(oracles.quad_members(d, pair),
                             key=quad_norm_order(d)), (d, pair)
    with pytest.raises(MonoidMismatchError):
        enumerate_up_to(Q2, NAT.element(5))


@given(members_q2, members_q2)
def test_norm_monotone_under_mul(x, y):
    ex, ey = elem(Q2, x), elem(Q2, y)
    p = ex * ey
    assert p >= ex and p >= ey
    if p == ex:
        assert ey.is_identity()


def test_enumeration_ceiling_raises():
    with pytest.raises(BoundExceededError) as err:
        enumerate_up_to(NAT, 99_999_999)
    assert err.value.candidates == 99_999_999
    assert err.value.ceiling == 1_000_000
    assert len(enumerate_up_to(NAT, 100)) == 100
    # The quadratic count stops at the first row past the ceiling, so it
    # is a lower bound: within the box a <= A, b <= A/sqrt(2) of pairs.
    for call in (lambda: enumerate_up_to(Q2, 2000),
                 lambda: divisors(Q2.element(2000, 0))):
        with pytest.raises(BoundExceededError) as err:
            call()
        assert 1_000_000 < err.value.candidates <= 2001 * (isqrt(2000**2 // 2) + 1)
        assert f"needs at least {err.value.candidates} candidates" in str(err.value)


def no_scan(self, parts):
    raise AssertionError("scanned past the ceiling")


@pytest.mark.parametrize("call", [
    lambda: enumerate_up_to(NAT, 1_000_001),
    lambda: divisors(NAT.element(1_000_001)),
], ids=["enumerate_up_to", "divisors"])
def test_one_past_the_ceiling_raises_before_any_scan(monkeypatch, call):
    monkeypatch.setattr(type(NAT), "_iter_parts_up_to", no_scan)
    monkeypatch.setattr(type(NAT), "_iter_root_parts", no_scan)
    with pytest.raises(BoundExceededError) as err:
        call()
    assert (err.value.candidates, err.value.ceiling) == (1_000_001, 1_000_000)


def test_ceiling_guards_divisor_scans():
    # The ceiling is one constant, and a norm at the ceiling is legal.
    assert monoids.DEFAULT_ENUMERATION_CEILING == 1_000_000
    assert len(divisors(NAT.element(1_000_000))) == 49  # 2**6 * 5**6


def test_no_public_callable_takes_a_ceiling():
    # The ceiling is one constant.  Only an error carries it, as a field.
    found = []
    for name in euclidlab.__all__:
        obj = getattr(euclidlab, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        named = [(name, obj)]
        if isinstance(obj, type):
            named += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                      if not attr.startswith("_") or attr == "__init__"]
        found += [label for label, fn in named
                  if callable(fn) and "ceiling" in inspect.signature(fn).parameters]
    assert found == []


# -- divisor sets ----------------------------------------------------------------

def test_divisors_frozen_congruence_40_100():
    assert [d.value for d in divisors(C13.element(40))] == [1, 4, 10, 40]
    assert [d.value for d in divisors(C13.element(100))] == [1, 4, 10, 25, 100]
    assert [d.value for d in divisors(C13.element(40), nontrivial=True)] == [4, 10, 40]


def test_common_divisors_frozen():
    got = common_divisors(C13.element(40), C13.element(100))
    assert [d.value for d in got] == [1, 4, 10]


def test_divisors_identity():
    assert [d.value for d in divisors(NAT.element(1))] == [1]
    assert divisors(C13.element(1), nontrivial=True) == []


# Each draw is a member or the square of a member: a square x has a
# divisor u with u*u == x, on the bound of the square-root scan.

def drop_identity(divs, identity, nontrivial):
    return [d for d in divs if not (nontrivial and d == identity)]


@given(st.one_of(st.integers(1, 300), st.integers(1, 40).map(lambda k: k * k)),
       st.booleans())
def test_nat_divisors_match_trial_division(n, nontrivial):
    got = [d.value for d in divisors(NAT.element(n), nontrivial=nontrivial)]
    assert got == drop_identity(sorted(oracles.nat_divisors(n)), 1, nontrivial)


def congruence_members(r, m, cap):
    """1 and the first cap + 1 members of the residue class."""
    return st.one_of(st.just(1),
                     st.integers(0, cap).map(lambda k: (r % m or m) + m * k))


@given(data=st.data())
def test_congruence_divisors_match_oracle(data):
    # 1 is adjoined below the least member in congruence 4 mod 6.
    r, m = data.draw(st.sampled_from([(1, 3), (4, 6)]))
    n = data.draw(st.one_of(congruence_members(r, m, 110),
                            congruence_members(r, m, 15).map(lambda u: u * u)))
    nontrivial = data.draw(st.booleans())
    got = [d.value for d in divisors(Congruence(r, m).element(n),
                                     nontrivial=nontrivial)]
    want = sorted(oracles.congruence_divisors(r, m, n))
    assert got == drop_identity(want, 1, nontrivial)


def quad_pairs(cap):
    return st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(
        lambda p: p != (0, 0))


def quad_norm_order(d):
    return cmp_to_key(lambda p, q: 0 if p == q
                      else -1 if oracles.quad_norm_le(p, q, d) else 1)


@given(data=st.data())
@settings(deadline=None)
def test_quadratic_divisors_match_oracle(data):
    d = data.draw(st.sampled_from([2, 3, 5, 7]))
    pair = data.draw(st.one_of(
        quad_pairs(9), quad_pairs(3).map(lambda u: oracles.quad_mul(u, u, d))))
    nontrivial = data.draw(st.booleans())
    got = [u.pair for u in divisors(Quadratic(d).element(*pair),
                                    nontrivial=nontrivial)]
    want = sorted(oracles.quad_divisors(d, pair), key=quad_norm_order(d))
    assert got == drop_identity(want, (1, 0), nontrivial)


def root_candidates(monoid, parts):
    """Members u with u*u <= x whose norm divides norm(x), in plain integers."""
    if isinstance(monoid, Quadratic):
        d = monoid.radicand
        norm = lambda p: abs(p[0] * p[0] - d * p[1] * p[1])  # noqa: E731
        return [u for u in oracles.quad_members(d, parts)
                if oracles.quad_norm_le(oracles.quad_mul(u, u, d), parts, d)
                and norm(parts) % norm(u) == 0]
    n = parts[0]
    return [(u,) for u in range(1, n + 1)
            if u * u <= n and monoid.contains(u) and n % u == 0]


@pytest.mark.parametrize("monoid,parts", [
    (NAT, (999983,)), (NAT, (3600,)), (NAT, (720720,)), (C13, (2500,)),
    (C13, (2401,)), (Congruence(4, 6), (256,)), (Q2, (7, 3)),
    (Q2, (17, 12)), (Quadratic(7), (72, 18)), (Quadratic(5), (29, 7))],
    ids=lambda v: v.spec_text() if hasattr(v, "spec_text") else repr(v))
def test_divisor_scan_divides_only_norm_divisors_up_to_the_root(
        monkeypatch, monoid, parts):
    calls = []
    original = type(monoid)._try_divide_parts

    def counting(self, b, a):
        calls.append(a)
        return original(self, b, a)

    monkeypatch.setattr(type(monoid), "_try_divide_parts", counting)
    monoids._divisors_cached.cache_clear()
    divisors(monoid.element(*parts))
    assert sorted(calls) == sorted(root_candidates(monoid, parts))


def test_caches_are_bounded():
    for cached in (monoids._divisors_cached, euclid._divisor_set,
                   specparse.parse_monoid_spec):
        assert cached.cache_info().maxsize is not None


# -- the product-scan table agrees with the definitional route -------------------

@pytest.mark.parametrize("monoid,bound", [
    (NAT, 60), (C13, 250), (Q2, 20), (NAT, 200), (C13, 400),
    (Congruence(4, 6), 400), (Quadratic(3), 20), (Quadratic(5), 24),
    (Quadratic(7), 24)])
def test_divisibility_table_agrees_with_divisors(monoid, bound):
    table = DivisibilityTable(monoid, bound)
    elems = table.elements
    for i, x in enumerate(elems):
        via_table = {elems[j].parts for j in table.divisor_ids[i]}
        via_definition = {d.parts for d in divisors(x)}
        assert via_table == via_definition
        # The scan's pairs: low rises, high falls, each pair multiplies
        # to x, and together they are exactly x's divisors.
        low, high = table.low[i], table.high[i]
        assert low == sorted(set(low)) and high == sorted(set(high))[::-1]
        assert all(try_divide(x, elems[u]) == elems[v]
                   for u, v in zip(low, high))
        assert {elems[j].parts for j in low + high} == via_definition
        assert table.is_irreducible(i) == is_irreducible(x)
    for (xi, ui), vi in table.quotient.items():
        assert table.elements[ui] * table.elements[vi] == table.elements[xi]


# -- the integer norm -------------------------------------------------------------

NORM_MONOIDS = [NAT, C13, Congruence(4, 6), Quadratic(2), Quadratic(3),
                Quadratic(5), Quadratic(7)]


def raw_members(monoid):
    if isinstance(monoid, Quadratic):
        return st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(
            lambda p: p != (0, 0))
    if isinstance(monoid, Naturals):
        return st.integers(1, 10**6).map(lambda n: (n,))
    least = monoid.residue % monoid.modulus or monoid.modulus
    return st.one_of(st.just((1,)), st.integers(0, 10**6).map(
        lambda k: (least + monoid.modulus * k,)))


@pytest.mark.parametrize("monoid", NORM_MONOIDS, ids=lambda m: m.spec_text())
@given(data=st.data())
def test_norm_is_multiplicative_and_never_zero(monoid, data):
    p = data.draw(raw_members(monoid))
    q = data.draw(raw_members(monoid))
    assert monoid.contains(*p) and monoid.contains(*q)
    norm = monoid._norm_parts
    assert norm(monoid._mul_parts(p, q)) == norm(p) * norm(q)
    assert norm(p) >= 1


@pytest.mark.parametrize("monoid", NORM_MONOIDS[3:], ids=lambda m: m.spec_text())
@given(data=st.data())
def test_quadratic_order_matches_radical_sign(monoid, data):
    # Free draws, and pairs differing by (-m, n) with m next to n*sqrt(d),
    # the nearest a difference comes to a tie.
    d = monoid.radicand
    p, q = data.draw(raw_members(monoid)), data.draw(raw_members(monoid))
    n, x, y = (data.draw(st.integers(1, 10**6)) for _ in range(3))
    m = isqrt(d * n * n) + data.draw(st.integers(0, 1))
    near, far = (x - 1, y + n), (x - 1 + m, y)
    for u, v in [(p, q), (q, p), (near, far), (far, near), (p, p)]:
        want = oracles.radical_sign(u[0] - v[0], u[1] - v[1], d)
        assert monoid._norm_cmp_parts(u, v) == want
        assert (monoid.element(*u) < monoid.element(*v)) == (want < 0)


@pytest.mark.parametrize("monoid,bound", [
    (NAT, 200), (C13, 400), (Congruence(4, 6), 400), (Quadratic(2), 20),
    (Quadratic(3), 20), (Quadratic(5), 24), (Quadratic(7), 24)])
def test_table_divisors_divide_in_norm(monoid, bound):
    table = DivisibilityTable(monoid, bound)
    norms = [monoid._norm_parts(e.parts) for e in table.elements]
    for xi, ds in enumerate(table.divisor_ids):
        assert all(norms[xi] % norms[ui] == 0 for ui in ds)


# -- element behaviour ------------------------------------------------------------

def test_element_rendering():
    assert NAT.element(7).render() == "7"
    assert Q2.element(35, 14).render() == "35+14*sqrt(2)"
    assert Q2.element(35, 14).to_payload() == [35, 14]
    assert C13.element(10).to_payload() == 10


def test_element_ordering_is_norm_order():
    assert Q2.element(1, 1) < Q2.element(0, 2)  # 1+sqrt2 < 2*sqrt2
    assert Q2.element(3, 0) > Q2.element(1, 1)
    assert NAT.element(2) < NAT.element(3)
    with pytest.raises(MonoidMismatchError):
        _ = NAT.element(2) < C13.element(4)


def test_element_value_pair_accessors():
    assert NAT.element(9).value == 9
    assert Q2.element(2, 5).pair == (2, 5)
    with pytest.raises(InvalidInputError):
        _ = Q2.element(2, 5).value
    with pytest.raises(InvalidInputError):
        _ = NAT.element(9).pair


# -- one scalar kernel: the naturals are the class of 1 mod 1 -------------------

C11 = Congruence(1, 1)


def outcome(call, *args):
    """A call's result, or the type of the error it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def test_naturals_keep_their_identity_on_the_shared_kernel():
    assert repr(NAT) == "Naturals()"
    assert NAT == Naturals() and hash(NAT) == hash(Naturals())
    assert NAT != C11
    assert not isinstance(NAT, Congruence)
    assert (NAT.residue, NAT.modulus) == (1, 1)
    kernel = [name for name, value in vars(Naturals).items()
              if callable(value) and not name.startswith("__")]
    assert kernel == ["spec_text"]
    with pytest.raises(InvalidInputError, match="a natural number has one component"):
        NAT.contains(1, 2)
    with pytest.raises(InvalidInputError, match="a congruence element has one component"):
        C11.contains(1, 2)


def test_naturals_agree_with_congruence_1_mod_1():
    for n in list(range(-2, 501)) + [True, 2.0, "3", None]:
        assert outcome(NAT.contains, n) == outcome(C11.contains, n), n
    assert outcome(NAT.contains) == outcome(C11.contains) == InvalidInputError
    for b in range(1, 301):
        for a in range(1, 301):
            assert (NAT._try_divide_parts((b,), (a,))
                    == C11._try_divide_parts((b,), (a,))), (b, a)
    for n in range(1, 2001):
        assert NAT._count_up_to((n,)) == C11._count_up_to((n,)) == n
        assert ([d.parts for d in divisors(NAT.element(n))]
                == [d.parts for d in divisors(C11.element(n))])
    assert ([e.parts for e in enumerate_up_to(NAT, 2000)]
            == [e.parts for e in enumerate_up_to(C11, 2000)]
            == [(n,) for n in range(1, 2001)])


def test_naturals_and_congruence_1_mod_1_survey_alike():
    nat, c11 = ({name: (f.holds, len(f.witnesses))
                 for name, f in three_property_survey(m, 300).flags.items()}
                for m in (NAT, C11))
    assert nat == c11 and set(nat.values()) == {(True, 0)} and len(nat) == 4
