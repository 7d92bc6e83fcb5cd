"""Seeded input streams for the three benchmark workloads.

``rounds(workload, seed)`` is a pure function of its arguments: it
yields the same rounds of operations for the same pair, and the
program only ever sees the generated argv.  Each round holds one
operation per (family, size stratum): a family is one kind of
invocation (a command over a monoid), and its size parameter is drawn
on a log scale over the family's range, stratified into ``strata``
cells: family f of F draws near the (f + 1/2)/F point of each cell,
moved by a seeded jitter, so the families' sizes interleave over the
whole range.  Every round therefore has the same mix of sizes, and a
round is visited in an order that spreads sizes evenly, so any stretch
of the stream has that mix however long the clock lets a run go.  Each
round holds an odd number of draws, so the median of whole rounds is
one draw rather than the gap between two sizes.  The seed chooses the
jitter and the secondary parts of each input (the second element, the
flag set).  No argv repeats within a stream: a draw that hits one
already used moves outward until it is new, so per-input caches never
turn a timed operation into a repeat of an earlier one.

Why each workload exists:

* ``survey-refute``: ``survey --three-properties --json`` over monoids
  where every property fails (quadratic 2/3/5/7, congruence 1 mod
  3/4/5).  Thousands of witnesses per operation, so the transitivity,
  gcd and unique-factorization flags and JSON rendering dominate.
* ``survey-holds``: the same command over ``nat`` and ``congruence 1
  mod 2``, where all four properties hold.  Every search runs to
  exhaustion with empty witness lists; the Euclid-lemma product scan
  dominates.
* ``queries``: per-element commands over nat, congruence 1 mod 3 and
  quadratic 2, with a small share of refusals (exit 2) and budget
  stops (exit 3).  No divisibility table is built; per-call divisor
  scans and cache growth dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt, sqrt
from typing import Callable, Iterator

from arith import Space

#: Expected outcome of an operation: an answer (exit 0 or 1), a refusal
#: (exit 2) or a declared budget stop (exit 3).
ANSWER = "answer"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: str | int = ANSWER  # ANSWER, 2 or 3


@dataclass(frozen=True)
class Family:
    """One kind of invocation; ``build`` maps a size to an operation."""

    lo: float
    hi: float
    build: Callable[[float, random.Random], Op]
    strata: int = 3


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[Family, ...]
    warmup: Op
    #: Rounds over which peak RSS is taken; the timed loop always runs
    #: at least this many, so the figure covers a fixed amount of work.
    rss_rounds: int
    #: When set, the run is a sequence of segments of this many rounds,
    #: each in a fresh interpreter, rather than one process for the
    #: whole run.  Every segment then does the same amount of work, so
    #: its cache growth, garbage-collection passes and tail are those of
    #: a fixed stretch of the stream, not of however far the clock let a
    #: single process go.
    segment_rounds: int = 0


NAT, C3, Q2 = Space("nat"), Space("congruence 1 mod 3"), Space("quadratic 2")


def near_member(space: Space, t: float, rng: random.Random) -> tuple[int, ...]:
    """A member of norm close to t (at least the identity)."""
    if space.kind == "scalar":
        m = space.modulus
        k = max(0, round((t - space.residue) / m))
        return (space.residue + m * k,)
    b = rng.randint(0, int(t / sqrt(space.radicand)))
    a = max(0, round(t - b * sqrt(space.radicand)))
    return (a, b) if (a, b) != (0, 0) else (1, 0)


# -- survey families -----------------------------------------------------------


def _survey_op(spec: str, bound: int) -> Op:
    return Op(("survey", "--three-properties", "--monoid", spec,
               "--bound", str(bound), "--json"))


def _survey(spec: str, lo: int, hi: int, strata: int = 3) -> Family:
    return Family(lo, hi, lambda t, rng: _survey_op(spec, round(t)), strata)


# Bound ranges run from about 10 ms to about 1 s per operation on a
# 2-core x86-64 machine (Python 3.11).
SURVEY_REFUTE = Workload(
    "survey-refute",
    (_survey("quadratic 2", 14, 48), _survey("quadratic 3", 15, 50),
     _survey("quadratic 5", 22, 75), _survey("quadratic 7", 22, 75),
     _survey("congruence 1 mod 3", 300, 3200),
     _survey("congruence 1 mod 4", 200, 2400),
     _survey("congruence 1 mod 5", 400, 5500)),
    warmup=_survey_op("quadratic 2", 8), rss_rounds=1)

SURVEY_HOLDS = Workload(
    "survey-holds",
    (_survey("nat", 21, 150, strata=4),
     _survey("congruence 1 mod 2", 32, 200, strata=3)),
    warmup=_survey_op("nat", 12), rss_rounds=2)


# -- query families --------------------------------------------------------------

SPACES = {"nat": NAT, "congruence 1 mod 3": C3, "quadratic 2": Q2}
# Norm ranges per monoid for element queries.  The CLI enumerates every
# candidate of norm at most the input and caches the result, so these
# caps keep one run's memory modest.
NORMS = {"nat": (10, 3_000), "congruence 1 mod 3": (10, 9_000),
         "quadratic 2": (5, 50)}


def _monoid_args(spec: str) -> tuple[str, ...]:
    return () if spec == "nat" else ("--monoid", spec)


def _element_query(command: str, spec: str) -> Family:
    space = SPACES[spec]

    def build(t: float, rng: random.Random) -> Op:
        x = near_member(space, t, rng)
        flags = ("--nontrivial-divisors",) if (
            command == "divisors" and rng.random() < 0.5) else ()
        return Op((command, space.literal(x), *_monoid_args(spec), *flags,
                   "--json"))
    return Family(*NORMS[spec], build)


def _proportion(mode: str, spec: str) -> Family:
    space = SPACES[spec]

    def build(t: float, rng: random.Random) -> Op:
        # a = m*x with norm(a) about t; the quad is proportional by
        # construction half of the time and perturbed otherwise.
        share = rng.uniform(0.2, 0.8)
        x = near_member(space, t ** share, rng)
        m = near_member(space, t ** (1 - share), rng)
        n = near_member(space, t ** rng.uniform(0.0, 1 - share), rng)
        y = near_member(space, t ** rng.uniform(0.0, share), rng)
        d_part = y if rng.random() < 0.5 else near_member(
            space, t ** rng.uniform(0.0, share), rng)
        quad = (space.mul(m, x), space.mul(n, x), space.mul(m, y),
                space.mul(n, d_part))
        return Op(("proportion", f"--{mode}",
                   *(space.literal(e) for e in quad),
                   *_monoid_args(spec), "--json"))
    return Family(*NORMS[spec], build)


def _nat_pair(command: str, lo: float, hi: float) -> Family:
    def build(t: float, rng: random.Random) -> Op:
        b = max(1, round(t))
        a = rng.randint(1, b)
        if rng.random() < 0.5:
            a, b = b, a
        return Op((command, str(a), str(b), "--json"))
    return Family(lo, hi, build)


def _unsupported() -> Family:
    """A nat-only command over another monoid: exit 2."""
    def build(t: float, rng: random.Random) -> Op:
        spec = rng.choice(["congruence 1 mod 3", "quadratic 2"])
        space = SPACES[spec]
        a, b = near_member(space, t, rng), near_member(space, t, rng)
        command = rng.choice(["gcd", "bezout", "trace", "least-pair"])
        return Op((command, space.literal(a), space.literal(b),
                   "--monoid", spec, "--json"), expect=2)
    return Family(10, 10_000, build)


def _bad_element() -> Family:
    """An element literal outside its monoid, or not a literal: exit 2."""
    def build(t: float, rng: random.Random) -> Op:
        command = rng.choice(["divisors", "factor", "irreducible"])
        n = max(2, round(t))
        spec = rng.choice(list(SPACES))
        if spec == "congruence 1 mod 3":
            literal = str(n + (n % 3 == 1))  # residue 0 or 2
        elif spec == "nat":
            literal = f"{n}x"
        else:
            literal = f"{n}+{n % 7 + 1}*sqrt(3)"  # wrong radicand
        return Op((command, literal, *_monoid_args(spec), "--json"), expect=2)
    return Family(10, 10_000, build)


def _malformed_spec() -> Family:
    """A monoid spec that does not parse or does not describe a monoid."""
    def build(t: float, rng: random.Random) -> Op:
        k = max(2, round(t))
        spec = rng.choice([
            f"congruence {2 * k} mod {4 * k}",  # (2k)^2 != 2k mod 4k
            f"quadratic {4 * k}",                # not square-free
            f"quadratic {k} mod 3",              # trailing tokens
            f"congruence {k} mod",               # missing modulus
            f"qudratic {k}",                     # unknown head word
        ])
        return Op(("divisors", "1", "--monoid", spec, "--json"), expect=2)
    return Family(10, 10_000, build, strata=2)


def _over_ceiling() -> Family:
    """Element queries whose enumeration would pass the ceiling: exit 3."""
    def build(t: float, rng: random.Random) -> Op:
        command = rng.choice(["divisors", "factor", "irreducible"])
        spec = rng.choice(list(SPACES))
        space = SPACES[spec]
        size = t if space.kind == "scalar" else isqrt(round(t))
        x = near_member(space, size, rng)
        return Op((command, space.literal(x), *_monoid_args(spec), "--json"),
                  expect=3)
    return Family(4e6, 1e15, build)


QUERIES = Workload(
    "queries",
    tuple(_element_query(cmd, spec)
          for cmd in ("divisors", "factor", "irreducible") for spec in SPACES)
    + tuple(_proportion(mode, spec)
            for mode in ("pythagorean", "fraction", "vii19", "alternando",
                         "repair")
            for spec in SPACES)
    + (_nat_pair("gcd", 10, 1e12), _nat_pair("bezout", 10, 1e12),
       _nat_pair("trace", 10, 10_000), _nat_pair("least-pair", 10, 100_000),
       _unsupported(), _bad_element(), _malformed_spec(), _over_ceiling()),
    # Segments of five rounds (about 475 operations): the caches grow
    # with every distinct query and full garbage-collection passes grow
    # with them, so longer segments put a varying count of those passes
    # at the 11th-largest latency.
    warmup=Op(("divisors", "6", "--json")), rss_rounds=5, segment_rounds=5)

WORKLOADS = {w.name: w for w in (SURVEY_REFUTE, SURVEY_HOLDS, QUERIES)}

#: Width of the seeded jitter around a family's point in a cell, as a
#: share of the cell's 1/F slice.
JITTER = 0.2


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless rounds of distinct operations; a pure function of its args."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    used = {spec.warmup.argv}
    n_families = len(spec.families)
    while True:
        drawn = []
        for f, family in enumerate(spec.families):
            span = family.hi / family.lo
            for k in range(family.strata):
                # Family f sits near the (f + 1/2)/F point of each of its
                # cells, so the families' sizes interleave.
                cell = (f + 0.5 + JITTER * (rng.random() - 0.5)) / n_families
                position = (k + cell) / family.strata
                t = family.lo * span ** position
                op = family.build(t, rng)
                t0, step = t, 1
                while op.argv in used:
                    # Walk outward from the draw until the argv is new;
                    # never below the family's range, which the warm-up
                    # input sits under.
                    j = (step + 1) // 2
                    t = (t0 * 1.01 ** j if step % 2
                         else max(family.lo, t0 / 1.01 ** j))
                    op = family.build(t, rng)
                    step += 1
                used.add(op.argv)
                drawn.append((position, op))
        # Visit the draws, ranked by size, with a stride near n/phi: any
        # stretch of a round then spans the whole size range, so a round
        # cut short by the clock keeps the round's mix.
        drawn.sort(key=lambda d: d[0])
        n = len(drawn)
        stride = round(n * 0.618) or 1
        while gcd(stride, n) != 1:
            stride += 1
        yield [drawn[j * stride % n][1] for j in range(n)]
