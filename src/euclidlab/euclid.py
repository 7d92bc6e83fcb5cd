"""The subtractive Euclidean algorithm over the positive integers.

The three-step loop is kept literal: terminate when a divides b, subtract
a from b while a < b, then swap.  Traces record every state so the two
loop invariants (unchanged common-divisor set, unchanged generated
subgroup of the integers) can be replayed and checked by brute force.
The remainder form of the algorithm backs ``gcd`` and the Bezout
certificates; a property test pins it to the subtractive form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import BoundExceededError, InvalidInputError
from .monoids import DEFAULT_ENUMERATION_CEILING

#: Entries kept by the trial-division cache.  A trace reuses one number's
#: divisors over each run of subtractions, which keeps its smaller entry.
DIVISOR_SET_CACHE_SIZE = 1024

STEP_KINDS = ("subtract", "swap", "terminate")


@dataclass(frozen=True)
class TraceStep:
    """One state of the loop plus the action taken from it.

    ``subtract`` means the next state has b replaced by b - a; ``swap``
    exchanges the pair; ``terminate`` marks the exit state, where a
    divides b.
    """

    a: int
    b: int
    kind: str


@dataclass(frozen=True)
class EuclidTrace:
    steps: tuple[TraceStep, ...]
    result: int


@dataclass(frozen=True)
class StepCheck:
    before: tuple[int, int]
    after: tuple[int, int]
    divisor_set_ok: bool
    subgroup_ok: bool


@dataclass(frozen=True)
class LoopInvariantReport:
    divisor_set_ok: bool
    subgroup_ok: bool
    per_step: tuple[StepCheck, ...]


@dataclass(frozen=True)
class BezoutCertificate:
    """Integers with ``s*a + t*b == g``; the equation is the contract."""

    a: int
    b: int
    g: int
    s: int
    t: int

    def verifies(self) -> bool:
        return self.s * self.a + self.t * self.b == self.g


def _check_positive(n: object, what: str) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidInputError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise InvalidInputError(f"{what} must be positive, got {n}")
    return n


def _subtractive_step_count(a: int, b: int) -> int:
    """Length of the trace for 1 <= a <= b, from the quotient sequence:
    each round that a does not divide b records b // a subtractions and
    a swap, and the last round records the termination."""
    count = 1
    while b % a:
        q, r = divmod(b, a)
        count += q + 1
        a, b = r, a
    return count


def euclid_subtractive(a: int, b: int) -> EuclidTrace:
    """Run the subtractive loop, recording every state.

    Inputs are normalized so the smaller number sits in position a; equal
    inputs terminate immediately.  Raises BoundExceededError, before
    recording anything, when the trace would hold more than
    DEFAULT_ENUMERATION_CEILING steps.
    """
    a = _check_positive(a, "a")
    b = _check_positive(b, "b")
    if a > b:
        a, b = b, a
    count = _subtractive_step_count(a, b)
    if count > DEFAULT_ENUMERATION_CEILING:
        raise BoundExceededError(
            f"the subtractive trace of ({a}, {b}) has {count} steps, over "
            f"the ceiling of {DEFAULT_ENUMERATION_CEILING}",
            candidates=count, ceiling=DEFAULT_ENUMERATION_CEILING)
    steps: list[TraceStep] = []
    while True:
        if b % a == 0:
            steps.append(TraceStep(a, b, "terminate"))
            return EuclidTrace(tuple(steps), a)
        while a < b:
            steps.append(TraceStep(a, b, "subtract"))
            b -= a
        steps.append(TraceStep(a, b, "swap"))
        a, b = b, a


def _trial_divisor_limit(n: int, what: str) -> int:
    """isqrt(n), the last trial divisor for n; raises BoundExceededError
    before any division when it passes DEFAULT_ENUMERATION_CEILING."""
    root = isqrt(n)
    if root > DEFAULT_ENUMERATION_CEILING:
        raise BoundExceededError(
            f"{what} of {n} needs {root} trial divisors, over the ceiling "
            f"of {DEFAULT_ENUMERATION_CEILING}",
            candidates=root, ceiling=DEFAULT_ENUMERATION_CEILING)
    return root


@lru_cache(maxsize=DIVISOR_SET_CACHE_SIZE)
def _divisor_set(n: int) -> frozenset[int]:
    """All positive divisors of n, by trial division."""
    small, large = [], []
    for d in range(1, _trial_divisor_limit(n, "the divisor set") + 1):
        quot, rem = divmod(n, d)
        if rem == 0:
            small.append(d)
            large.append(quot)
    return frozenset(small + large)


def _common_divisor_set(a: int, b: int) -> frozenset[int]:
    """All common divisors of a and b: the divisors of the smaller one,
    found by trial division, that divide the larger one."""
    if a > b:
        a, b = b, a
    return frozenset(d for d in _divisor_set(a) if b % d == 0)


def check_loop_invariants(trace: EuclidTrace) -> LoopInvariantReport:
    """Replay a trace and test both invariants on every transition.

    For each consecutive pair of states the common-divisor set must be
    identical, and the subgroup of the integers generated by the pair
    (recognized by its least positive member, the brute-force gcd) must
    be identical.  Structurally broken traces raise InvalidInputError;
    traces whose steps fail the invariants come back with false flags.
    """
    if not trace.steps:
        raise InvalidInputError("trace has no steps")
    for step in trace.steps:
        _check_positive(step.a, "trace entry a")
        _check_positive(step.b, "trace entry b")
        if step.kind not in STEP_KINDS:
            raise InvalidInputError(f"unknown step kind {step.kind!r}")
    common = [_common_divisor_set(s.a, s.b) for s in trace.steps]
    checks = []
    for before, after, cd_before, cd_after in zip(
            trace.steps, trace.steps[1:], common, common[1:]):
        checks.append(StepCheck(
            before=(before.a, before.b),
            after=(after.a, after.b),
            divisor_set_ok=cd_before == cd_after,
            subgroup_ok=max(cd_before) == max(cd_after),
        ))
    return LoopInvariantReport(
        divisor_set_ok=all(c.divisor_set_ok for c in checks),
        subgroup_ok=all(c.subgroup_ok for c in checks),
        per_step=tuple(checks),
    )


def gcd(a: int, b: int) -> int:
    """Greatest common divisor: the g of the Bezout certificate."""
    return bezout(a, b).g


def bezout(a: int, b: int) -> BezoutCertificate:
    """Extended Euclidean algorithm; returns g with ``s*a + t*b == g``."""
    a = _check_positive(a, "a")
    b = _check_positive(b, "b")
    r0, r1 = a, b
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return BezoutCertificate(a=a, b=b, g=r0, s=s0, t=t0)


def porism_check(a: int, b: int) -> bool:
    """Does every common divisor of a and b divide gcd(a, b)?

    The common divisors come from brute-force trial division, so the
    check is independent of the gcd computation it validates.
    """
    g = gcd(a, b)
    return all(g % d == 0 for d in _common_divisor_set(a, b))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, _trial_divisor_limit(p, "the primality test") + 1):
        if p % d == 0:
            return False
    return True


def euclid_lemma_bezout_proof(p: int, a: int, b: int) -> bool:
    """Establish ``p | a or p | b`` from ``p | a*b`` by the Bezout route.

    When p does not divide a, gcd(p, a) = 1 gives s*p + t*a = 1, so
    b = s*p*b + t*(a*b); both terms are visibly multiples of p, and the
    resulting quotient is checked against a direct division.  Returns
    True; precondition violations (p not prime, or p not dividing a*b)
    raise InvalidInputError.
    """
    p = _check_positive(p, "p")
    a = _check_positive(a, "a")
    b = _check_positive(b, "b")
    if not _is_prime(p):
        raise InvalidInputError(f"p must be prime, got {p}")
    if (a * b) % p != 0:
        raise InvalidInputError(f"{p} does not divide {a}*{b}")
    if a % p == 0:
        return True
    cert = bezout(p, a)
    c = (a * b) // p
    quotient = cert.s * b + cert.t * c
    if cert.g != 1 or p * quotient != b or b % p != 0:
        raise RuntimeError("Bezout argument failed to certify divisibility")
    return True
