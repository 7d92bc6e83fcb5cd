"""Checks one operation's outcome with plain integer arithmetic.

``check(op, code, stdout)`` recomputes what the CLI must have printed
for the argv the benchmark generated, using ``arith`` only; it never
imports euclidlab.  Witnesses are re-verified one by one (a survey's
transitivity, gcd, factorization and Euclid-lemma failures), and every
per-element answer is recomputed from its definition.  It returns an
empty string when the outcome is right and a one-line reason when not.
"""

from __future__ import annotations

import json
import math

from arith import Space, parse_literal
from workloads import ANSWER, Op

FLAG_NAMES = ("algebraic_gcds_exist", "euclid_lemma", "pythagorean_transitive",
              "unique_factorization")
#: Monoids in which every surveyed property holds at every bound: the
#: naturals and the odd numbers both factor uniquely into primes.
HOLDS_EVERYWHERE = {"nat", "congruence 1 mod 2"}

_spaces: dict[str, Space] = {}


def space(spec: str) -> Space:
    if spec not in _spaces:
        _spaces[spec] = Space(spec)
    return _spaces[spec]


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _parse_argv(argv: tuple[str, ...]) -> tuple[str, dict, list[str]]:
    command, options, positional = argv[0], {}, []
    it = iter(argv[1:])
    for word in it:
        if word in ("--monoid", "--bound"):
            options[word] = next(it)
        elif word.startswith("--"):
            options[word] = True
        else:
            positional.append(word)
    return command, options, positional


def check(op: Op, code, raised, stdout: str, err: str) -> str:
    """'' when the outcome is right, else why not."""
    if raised is not None:
        return f"raised {raised}"
    if op.expect != ANSWER:
        if code != op.expect:
            return f"exit {code}, expected {op.expect}"
        return "" if stdout == "" else "wrote to stdout on a refusal"
    if code not in (0, 1):
        return f"exit {code}, expected an answer (0 or 1)"
    if err:
        return f"wrote to stderr on exit {code}"
    try:
        _check_answer(op, code, stdout)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return ""


def _check_answer(op: Op, code: int, stdout: str) -> None:
    command, options, args = _parse_argv(op.argv)
    spec = options.get("--monoid", "nat")
    s = space(spec)
    _expect(stdout.endswith("\n"), "output does not end in a newline")
    doc = json.loads(stdout)
    _expect(doc["schema_version"] == "1.0", "schema version")
    _expect(doc["monoid"] == spec and doc["command"] == command, "envelope")
    payload, witnesses = doc["payload"], doc["witnesses"]
    P = s.payload
    if command == "survey":
        _check_survey(s, int(options["--bound"]), code, payload, witnesses)
        return
    if command in ("gcd", "bezout", "trace", "least-pair"):
        _check_nat_pair(command, *(int(a) for a in args), code, payload)
        _expect(witnesses == [], "unexpected witnesses")
        return
    elems = [parse_literal(s, a) for a in args]
    if command == "divisors":
        x = elems[0]
        nontrivial = "--nontrivial-divisors" in options
        want = [P(u) for u in s.divisors(x)
                if not (nontrivial and u == s.identity)]
        _expect(code == 0 and payload == {"element": P(x), "nontrivial": nontrivial,
                                          "divisors": want}, "divisor list")
    elif command == "factor":
        x = elems[0]
        fs = [[P(f) for f in fac] for fac in s.factorizations(x)]
        _expect(code == 0 and payload == {"element": P(x), "factorizations": fs,
                                          "unique": len(fs) == 1},
                "factorization list")
    elif command == "irreducible":
        x = elems[0]
        irr = s.is_irreducible(x)
        _expect(payload == {"element": P(x), "irreducible": irr}, "irreducible flag")
        _expect(code == (0 if irr else 1), "irreducible exit code")
        if irr:
            want = []
        elif x == s.identity:
            want = [{"kind": "identity_element", "element": P(x)}]
        else:
            u = s.divisors(x)[1]
            want = [{"kind": "reducibility", "element": P(x), "divisor": P(u),
                     "quotient": P(s.divide(x, u))}]
        _expect(witnesses == want, "reducibility witness")
    else:
        _check_proportion(s, options, elems, code, payload, witnesses)


# -- surveys -------------------------------------------------------------------


def _check_survey(s: Space, bound: int, code, payload, witnesses) -> None:
    _expect(payload["bound"] == bound, "survey bound")
    flags = payload["flags"]
    _expect(tuple(sorted(flags)) == FLAG_NAMES, "survey flag names")
    counts = {name: 0 for name in FLAG_NAMES}
    for w in witnesses:
        counts[w["flag"]] += 1
    for name, entry in flags.items():
        _expect(entry["witness_count"] == counts[name], f"{name} witness count")
        _expect(entry["holds"] == (counts[name] == 0), f"{name} holds flag")
    all_hold = all(entry["holds"] for entry in flags.values())
    _expect(code == (0 if all_hold else 1), "survey exit code")
    if s.spec in HOLDS_EVERYWHERE:
        _expect(all_hold, f"a property fails in {s.spec}")
    for w in witnesses:
        _check_survey_witness(s, w)


def _check_survey_witness(s: Space, w: dict) -> None:
    E = s.from_payload
    kind = w["kind"]
    if kind == "transitivity_failure":
        (la, lb), (ma, mb), (ra, rb) = ([E(p) for p in w[k]]
                                        for k in ("left", "middle", "right"))
        q1, q2 = s.divide(ma, la), s.divide(ma, ra)
        _expect(q1 is not None and q1 == s.divide(mb, lb), "left ~ middle")
        _expect(q2 is not None and q2 == s.divide(mb, rb), "middle ~ right")
        _expect(s.proportion_witness(la, lb, ra, rb) is None, "left ~ right holds")
    elif kind == "missing_algebraic_gcd":
        a, b = (E(p) for p in w["pair"])
        maximal, g = s.algebraic_gcd(a, b)
        _expect(g is None, "the pair has an algebraic gcd")
        _expect([s.payload(u) for u in maximal] == w["maximal_common_divisors"],
                "maximal common divisors")
    elif kind == "non_unique_factorization":
        x = E(w["element"])
        fs = [[s.payload(f) for f in fac] for fac in s.factorizations(x)]
        _expect(len(fs) > 1 and fs == w["factorizations"], "factorizations")
    elif kind == "euclid_lemma_failure":
        p, a, b, prod = (E(w[k]) for k in ("irreducible", "a", "b", "product"))
        _expect(s.is_irreducible(p), "p is not irreducible")
        _expect(prod == s.mul(a, b) and s.divides(p, prod), "p does not divide ab")
        _expect(not s.divides(p, a) and not s.divides(p, b), "p divides a or b")
    else:
        raise Mismatch(f"unknown witness kind {kind!r}")


# -- per-element queries ---------------------------------------------------------


def _witness_payload(s: Space, w, quad) -> dict:
    x, y, m, n = w
    return {"kind": "proportion_witness", "x": s.payload(x), "y": s.payload(y),
            "m": s.payload(m), "n": s.payload(n),
            "quad": [s.payload(e) for e in quad]}


def _check_proportion(s: Space, options, quad, code, payload, witnesses) -> None:
    a, b, c, d = quad
    P = s.payload
    base = {"quad": [P(e) for e in quad]}
    w = s.proportion_witness(a, b, c, d)
    if "--pythagorean" in options:
        want = {**base, "check": "pythagorean", "present": w is not None}
        want_code = 0 if w else 1
        want_w = [_witness_payload(s, w, quad)] if w else []
    elif "--fraction" in options:
        ad, bc = s.mul(a, d), s.mul(b, c)
        want = {**base, "check": "fraction", "frac": ad == bc,
                "ad": P(ad), "bc": P(bc)}
        want_code, want_w = (0 if ad == bc else 1), []
    elif "--vii19" in options:
        frac = s.mul(a, d) == s.mul(b, c)
        want = {**base, "check": "vii19", "pyth": w is not None, "frac": frac,
                "equivalent": (w is not None) == frac}
        want_code = 0 if want["equivalent"] else 1
        want_w = [_witness_payload(s, w, quad)] if w else []
    elif "--alternando" in options:
        rearranged = (a, c, b, d)
        searched = s.proportion_witness(*rearranged)
        conclusion = (w[2], w[3], w[0], w[1]) if w else searched
        holds = w is None or conclusion is not None
        want = {**base, "check": "alternando", "premise": w is not None,
                "conclusion": conclusion is not None, "holds": holds}
        want_code = 0 if holds else 1
        want_w = ([_witness_payload(s, w, quad)] if w else []) + (
            [_witness_payload(s, conclusion, rearranged)] if conclusion else [])
        if w:
            _expect(searched is not None, "alternando search disagrees")
    else:
        want, want_code, want_w = _repair(s, quad, w)
        want.update(base)
    _expect(payload == want, f"{want['check']} payload")
    _expect(code == want_code, f"{want['check']} exit code")
    _expect(witnesses == want_w, f"{want['check']} witnesses")


def _repair(s: Space, quad, w):
    a, b, c, d = quad
    P = s.payload
    if w is None:
        return {"check": "repair", "status": "premise_failed", "holds": None}, 0, []
    wp = [_witness_payload(s, w, quad)]
    _, g1 = s.algebraic_gcd(a, b)
    _, g2 = s.algebraic_gcd(c, d)
    if g1 is None or g2 is None:
        pair = (a, b) if g1 is None else (c, d)
        return {"check": "repair", "status": "inapplicable", "holds": None,
                "offending_pair": [P(e) for e in pair]}, 0, wp
    p, q = s.divide(a, g1), s.divide(b, g1)
    i, j = s.divide(g1, w[0]), s.divide(g2, w[1])
    holds = (s.mul(p, g2) == c and s.mul(q, g2) == d
             and i is not None and j is not None and i == j)
    want = {"check": "repair", "status": "checked", "holds": holds}
    for name, value in (("g1", g1), ("g2", g2), ("p", p), ("q", q),
                        ("i", i), ("j", j)):
        if value is not None:
            want[name] = P(value)
    return want, (1 if holds is False else 0), wp


def _subtractive_steps(a: int, b: int) -> list[dict]:
    if a > b:
        a, b = b, a
    steps = []
    while b % a:
        while a < b:
            steps.append({"a": a, "b": b, "kind": "subtract"})
            b -= a
        steps.append({"a": a, "b": b, "kind": "swap"})
        a, b = b, a
    steps.append({"a": a, "b": b, "kind": "terminate"})
    return steps


def _check_nat_pair(command: str, a: int, b: int, code, payload) -> None:
    g = math.gcd(a, b)
    _expect(code == 0, f"{command} exit code")
    if command == "gcd":
        s, t = payload["bezout"]["s"], payload["bezout"]["t"]
        _expect(payload["a"] == a and payload["b"] == b and payload["gcd"] == g
                and s * a + t * b == g, "gcd certificate")
    elif command == "bezout":
        _expect(payload["a"] == a and payload["b"] == b and payload["g"] == g
                and payload["s"] * a + payload["t"] * b == g, "bezout certificate")
    elif command == "trace":
        _expect(payload == {"a": a, "b": b, "result": g,
                            "steps": _subtractive_steps(a, b),
                            "invariants": {"divisor_set_ok": True,
                                           "subgroup_ok": True}}, "trace")
    else:
        _expect(payload == {"c": a, "d": b, "u": a // g, "v": b // g}, "least pair")
