"""Subtractive Euclid traces, loop invariants, gcd, Bezout, the lemma."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from euclidlab import (
    BezoutCertificate,
    BoundExceededError,
    EuclidTrace,
    InvalidInputError,
    TraceStep,
    bezout,
    check_loop_invariants,
    euclid_lemma_bezout_proof,
    euclid_subtractive,
    gcd,
    porism_check,
)
from euclidlab.euclid import _common_divisor_set, _subtractive_step_count

positives = st.integers(min_value=1, max_value=3000)
small_positives = st.integers(min_value=1, max_value=400)


# -- traces ----------------------------------------------------------------------

def test_trace_6_15_frozen():
    trace = euclid_subtractive(6, 15)
    assert [(s.a, s.b, s.kind) for s in trace.steps] == [
        (6, 15, "subtract"),
        (6, 9, "subtract"),
        (6, 3, "swap"),
        (3, 6, "terminate"),
    ]
    assert trace.result == 3


def test_trace_terminates_immediately_on_divisibility():
    trace = euclid_subtractive(1, 5)
    assert [(s.a, s.b, s.kind) for s in trace.steps] == [(1, 5, "terminate")]
    assert trace.result == 1
    trace = euclid_subtractive(12, 12)
    assert [(s.a, s.b, s.kind) for s in trace.steps] == [(12, 12, "terminate")]
    assert trace.result == 12


def test_trace_normalizes_argument_order():
    assert euclid_subtractive(15, 6) == euclid_subtractive(6, 15)


def test_trace_rejects_nonpositive_inputs():
    for a, b in [(0, 5), (5, 0), (-3, 4)]:
        with pytest.raises(InvalidInputError):
            euclid_subtractive(a, b)
    with pytest.raises(InvalidInputError):
        euclid_subtractive(2.0, 4)


@given(positives, positives)
def test_step_count_matches_the_recorded_trace(a, b):
    trace = euclid_subtractive(a, b)
    assert _subtractive_step_count(min(a, b), max(a, b)) == len(trace.steps)


def test_trace_past_the_ceiling_raises_before_recording():
    # (2, 2k+1) takes k subtractions, a swap and the termination.
    assert _subtractive_step_count(2, 1_999_997) == 1_000_000
    with pytest.raises(BoundExceededError) as err:
        euclid_subtractive(2, 1_999_999)
    assert (err.value.candidates, err.value.ceiling) == (1_000_001, 1_000_000)
    with pytest.raises(BoundExceededError) as err:
        euclid_subtractive(100_000_000_001, 2)
    assert err.value.candidates == 50_000_000_002
    assert len(euclid_subtractive(5, 10**30).steps) == 1


@given(small_positives, small_positives)
def test_trace_steps_replay_their_kinds(a, b):
    # each kind is the action taken from the recorded state
    trace = euclid_subtractive(a, b)
    for cur, nxt in zip(trace.steps, trace.steps[1:]):
        if cur.kind == "subtract":
            assert (nxt.a, nxt.b) == (cur.a, cur.b - cur.a)
        elif cur.kind == "swap":
            assert (nxt.a, nxt.b) == (cur.b, cur.a)
        else:
            pytest.fail("terminate must be the final step")
    last = trace.steps[-1]
    assert last.kind == "terminate"
    assert last.b % last.a == 0
    assert trace.result == last.a


@given(small_positives, small_positives)
def test_subtractive_result_equals_remainder_form_gcd(a, b):
    assert euclid_subtractive(a, b).result == gcd(a, b)


# -- loop invariants ---------------------------------------------------------------

def test_invariants_hold_on_real_traces():
    report = check_loop_invariants(euclid_subtractive(46, 240))
    assert report.divisor_set_ok and report.subgroup_ok
    assert len(report.per_step) == len(euclid_subtractive(46, 240).steps) - 1
    for check in report.per_step:
        assert check.divisor_set_ok and check.subgroup_ok


def test_invariants_catch_a_corrupted_trace():
    trace = euclid_subtractive(4, 10)
    steps = list(trace.steps)
    assert (steps[1].a, steps[1].b) == (4, 6)
    steps[1] = TraceStep(4, 7, steps[1].kind)
    report = check_loop_invariants(EuclidTrace(tuple(steps), trace.result))
    assert not report.divisor_set_ok
    assert not report.subgroup_ok
    assert not report.per_step[0].divisor_set_ok  # (4,10) -> (4,7)
    assert not report.per_step[1].divisor_set_ok  # (4,7) -> (4,2)


def test_invariants_reject_malformed_traces():
    with pytest.raises(InvalidInputError):
        check_loop_invariants(EuclidTrace((), 1))
    with pytest.raises(InvalidInputError):
        check_loop_invariants(EuclidTrace((TraceStep(0, 4, "subtract"),), 1))
    with pytest.raises(InvalidInputError) as err:
        check_loop_invariants(EuclidTrace((TraceStep(2, 4, "hop"),), 2))
    assert "unknown step kind 'hop'" in str(err.value)


@given(small_positives, small_positives)
def test_invariants_hold_for_all_generated_traces(a, b):
    report = check_loop_invariants(euclid_subtractive(a, b))
    assert report.divisor_set_ok and report.subgroup_ok


# -- gcd and Bezout ------------------------------------------------------------------

@given(positives, positives)
def test_gcd_matches_stdlib(a, b):
    assert gcd(a, b) == math.gcd(a, b)


@given(positives, positives)
def test_gcd_symmetry_and_division_step(a, b):
    assert gcd(a, b) == gcd(b, a)
    if b % a:
        assert gcd(a, b) == gcd(a, b % a)


def test_bezout_frozen_240_46():
    cert = bezout(240, 46)
    assert cert == BezoutCertificate(a=240, b=46, g=2, s=-9, t=47)
    assert cert.verifies()


def test_bezout_identity_left_argument():
    assert bezout(1, 5) == BezoutCertificate(a=1, b=5, g=1, s=1, t=0)


@given(positives, positives)
def test_bezout_certificate_verifies(a, b):
    cert = bezout(a, b)
    assert cert.g == math.gcd(a, b)
    assert cert.verifies()
    assert cert.s * a + cert.t * b == cert.g


def test_bezout_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        bezout(0, 3)


# -- porism ----------------------------------------------------------------------------

@given(positives, positives)
def test_porism_every_common_divisor_divides_the_gcd(a, b):
    assert porism_check(a, b)


@given(small_positives, small_positives)
def test_common_divisor_set_is_the_intersection(a, b):
    assert _common_divisor_set(a, b) == (
        oracles.nat_divisors(a) & oracles.nat_divisors(b))


def test_porism_frozen():
    assert porism_check(240, 46)
    assert porism_check(7, 7)


def test_trial_division_past_the_ceiling_raises_before_dividing():
    # The square root of 10**12 is the ceiling itself; one past it, the
    # divisor sets and the primality test stop before their first division.
    assert porism_check(10**12, 10**12)
    n = (10**6 + 1) ** 2
    for call in (lambda: porism_check(n, n + 1),
                 lambda: check_loop_invariants(euclid_subtractive(n, n + 1)),
                 lambda: euclid_lemma_bezout_proof(n, n, 1)):
        with pytest.raises(BoundExceededError) as err:
            call()
        assert (err.value.candidates, err.value.ceiling) == (1_000_001, 1_000_000)


# -- the lemma through Bezout -----------------------------------------------------------

def test_lemma_direct_branch():
    assert euclid_lemma_bezout_proof(2, 4, 5)
    assert euclid_lemma_bezout_proof(5, 10, 3)


def test_lemma_bezout_branch():
    assert euclid_lemma_bezout_proof(3, 4, 9)
    assert euclid_lemma_bezout_proof(7, 6, 35)


def test_lemma_preconditions():
    with pytest.raises(InvalidInputError) as err:
        euclid_lemma_bezout_proof(6, 2, 3)
    assert "p must be prime, got 6" in str(err.value)
    with pytest.raises(InvalidInputError) as err:
        euclid_lemma_bezout_proof(7, 2, 3)
    assert "7 does not divide 2*3" in str(err.value)


@given(st.integers(min_value=0, max_value=24), small_positives, small_positives)
def test_lemma_holds_whenever_preconditions_do(i, a, b):
    primes = [p for p in range(2, 100) if oracles.is_prime(p)]
    p = primes[i]  # 25 primes below 100
    if (a * b) % p == 0:
        assert euclid_lemma_bezout_proof(p, a, b)
        assert a % p == 0 or b % p == 0
