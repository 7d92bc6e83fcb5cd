"""Command line front end.

One invocation runs one subcommand against one monoid (``--monoid``,
default "nat") and renders either plain text or, with ``--json``, a
report envelope::

    {"schema_version": "1.0", "monoid": <canonical spec text>,
     "command": <subcommand>, "payload": {...}, "witnesses": [...]}

JSON is emitted with sorted keys and no insignificant whitespace, so
equal inputs produce byte-identical output.  Exit statuses: 0 the
computation succeeded or the property holds, 1 the property was
refuted (the report carries witnesses), 2 usage or input error, 3
ceiling exceeded (enumeration, radicand test, trace length or INT length).
Nothing is written to stderr on exit 0 or 1.

One command table, ``_COMMANDS``, declares every subcommand.  An argv
is parsed in one pass over it; argparse is imported and built from the
same table only for help, usage errors and the spellings only argparse
accepts (abbreviations, ``--opt=value``, ``--``, dash-led values).
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import euclid
from .errors import (
    BoundExceededError,
    InvalidInputError,
    MonoidMismatchError,
    MonoidSpecSyntaxError,
    UnsupportedStructureError,
)
from .factorization import (
    euclid_lemma_survey,
    factorizations,
    is_irreducible,
    three_property_survey,
)
from .monoids import Monoid, Naturals, divisors, try_divide
from .proportion import (
    ProportionQuad,
    ProportionWitness,
    alternando_check,
    least_pair,
    pythagorean,
    repair_check,
    transitivity_survey,
    vii19_check,
)
from .specparse import parse_element, parse_monoid_spec

SCHEMA_VERSION = "1.0"


class _UsageError(Exception):
    pass


class _Command(NamedTuple):
    """One subcommand as both parsing routes read it."""

    handler: Callable
    help: str
    positionals: tuple[str, ...]
    #: required, mutually exclusive mode flags: option -> help
    modes: dict[str, str] = {}
    #: whether the command requires ``--bound INT``
    bound: bool = False


#: The switches every command takes besides ``--monoid SPEC``: option -> help.
_SWITCHES = {"--json": "emit a JSON report envelope",
             "--nontrivial-divisors": "omit the identity from divisor listings"}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build for ``argv``, in one pass over
    the command table, or None when ``argv`` needs argparse: help,
    abbreviations, ``--opt=value``, ``--``, a value or positional that
    starts with a dash, and every usage error."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    ns = {"command": argv[0], "monoid": "nat"}
    ns.update((_dest(option), False) for option in (*_SWITCHES, *command.modes))
    mode = None
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token in _SWITCHES:
            ns[_dest(token)] = True
        elif token in command.modes and mode is None:
            mode = token
            ns[_dest(token)] = True
        elif token == "--monoid" or (token == "--bound" and command.bound):
            value = next(tokens, "-")  # a missing value is argparse's error
            if value.startswith("-"):
                return None
            if token == "--bound":
                try:
                    value = int(value)
                except ValueError:
                    return None
            ns[_dest(token)] = value
        else:
            return None
    if (len(positionals) != len(command.positionals)
            or (command.modes and mode is None)
            or (command.bound and "bound" not in ns)):
        return None
    ns.update(zip(command.positionals, positionals))
    return SimpleNamespace(**ns)


@functools.cache
def _build_parser():
    """The argparse parser, built from the command table on first use.
    ``parse_args`` leaves it unchanged, and usage and help text are
    formatted only when they are asked for."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse that reports usage problems instead of exiting."""

        def error(self, message):
            raise _UsageError(
                f"{self.format_usage()}{self.prog}: error: {message}")

    parser = Parser(prog="euclidlab",
                    description="divisibility and proportion, computed exactly")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--monoid", default="nat", metavar="SPEC",
                       help="monoid spec text (default: nat)")
        for option, text in _SWITCHES.items():
            p.add_argument(option, action="store_true", help=text)
        if command.modes:
            group = p.add_mutually_exclusive_group(required=True)
            for option, text in command.modes.items():
                group.add_argument(option, action="store_true", help=text)
        for positional in command.positionals:
            p.add_argument(positional)
        if command.bound:
            p.add_argument("--bound", type=int, required=True,
                           help="norm bound for the element space")
    return parser


def _require_naturals(monoid: Monoid, command: str) -> None:
    if not isinstance(monoid, Naturals):
        raise UnsupportedStructureError(
            f"'{command}' works on 'nat' only, not '{monoid.spec_text()}'")


def _positive_int(monoid: Monoid, literal: str) -> int:
    return parse_element(monoid, literal).value


def _witness_with_quad(witness: ProportionWitness, quad: ProportionQuad) -> dict:
    payload = witness.to_payload()
    payload["quad"] = _quad_payload(quad)
    return payload


def _quad_payload(quad: ProportionQuad) -> list:
    return [e.to_payload() for e in quad.elements]


# Each handler returns (exit code, payload, witnesses, text lines).


def _cmd_gcd(ns, monoid):
    _require_naturals(monoid, "gcd")
    a = _positive_int(monoid, ns.a)
    b = _positive_int(monoid, ns.b)
    cert = euclid.bezout(a, b)
    payload = {"a": a, "b": b, "gcd": cert.g,
               "bezout": {"s": cert.s, "t": cert.t}}
    lines = [f"gcd({a}, {b}) = {cert.g}",
             f"bezout: ({cert.s})*{a} + ({cert.t})*{b} = {cert.g}"]
    return 0, payload, [], lines


def _cmd_bezout(ns, monoid):
    _require_naturals(monoid, "bezout")
    a = _positive_int(monoid, ns.a)
    b = _positive_int(monoid, ns.b)
    cert = euclid.bezout(a, b)
    payload = {"a": a, "b": b, "g": cert.g, "s": cert.s, "t": cert.t}
    lines = [f"({cert.s})*{a} + ({cert.t})*{b} = {cert.g}"]
    return 0, payload, [], lines


def _cmd_trace(ns, monoid):
    _require_naturals(monoid, "trace")
    a = _positive_int(monoid, ns.a)
    b = _positive_int(monoid, ns.b)
    trace = euclid.euclid_subtractive(a, b)
    report = euclid.check_loop_invariants(trace)
    payload = {
        "a": a, "b": b, "result": trace.result,
        "steps": [{"a": s.a, "b": s.b, "kind": s.kind} for s in trace.steps],
        "invariants": {"divisor_set_ok": report.divisor_set_ok,
                       "subgroup_ok": report.subgroup_ok},
    }
    lines = [f"{s.a:>6} {s.b:>6}  {s.kind}" for s in trace.steps]
    lines.append(f"result {trace.result}")
    lines.append("invariants hold along the trace"
                 if report.divisor_set_ok and report.subgroup_ok
                 else "INVARIANT VIOLATION")
    return 0, payload, [], lines


def _cmd_divisors(ns, monoid):
    x = parse_element(monoid, ns.element)
    ds = divisors(x, nontrivial=ns.nontrivial_divisors)
    payload = {"element": x.to_payload(),
               "nontrivial": ns.nontrivial_divisors,
               "divisors": [d.to_payload() for d in ds]}
    lines = [" ".join(d.render() for d in ds) if ds else "(none)"]
    return 0, payload, [], lines


def _cmd_factor(ns, monoid):
    x = parse_element(monoid, ns.element)
    fs = factorizations(x)
    payload = {"element": x.to_payload(),
               "factorizations": [[f.to_payload() for f in fac.factors]
                                  for fac in fs],
               "unique": len(fs) == 1}
    lines = []
    for fac in fs:
        lines.append(" * ".join(f.render() for f in fac.factors)
                     or "(empty product)")
    return 0, payload, [], lines


def _cmd_irreducible(ns, monoid):
    x = parse_element(monoid, ns.element)
    irr = is_irreducible(x)
    payload = {"element": x.to_payload(), "irreducible": irr}
    if irr:
        return 0, payload, [], [f"{x.render()} is irreducible"]
    if x.is_identity():
        witness = {"kind": "identity_element", "element": x.to_payload()}
        lines = [f"{x.render()} is the identity, hence not irreducible"]
    else:
        ds = divisors(x, nontrivial=True)
        u = next(d for d in ds if d != x)
        v = try_divide(x, u)
        witness = {"kind": "reducibility", "element": x.to_payload(),
                   "divisor": u.to_payload(), "quotient": v.to_payload()}
        lines = [f"{x.render()} = {u.render()} * {v.render()}"]
    return 1, payload, [witness], lines


def _cmd_proportion(ns, monoid):
    quad = ProportionQuad(*(parse_element(monoid, t)
                            for t in (ns.a, ns.b, ns.c, ns.d)))
    if ns.pythagorean:
        w = pythagorean(quad)
        payload = {"check": "pythagorean", "quad": _quad_payload(quad),
                   "present": w is not None}
        if w is None:
            return 1, payload, [], ["not proportional (exhaustive search)"]
        lines = [f"proportional: x={w.x.render()} y={w.y.render()} "
                 f"m={w.m.render()} n={w.n.render()}"]
        return 0, payload, [_witness_with_quad(w, quad)], lines
    if ns.fraction:
        ad = quad.a * quad.d
        bc = quad.b * quad.c
        eq = ad == bc
        payload = {"check": "fraction", "quad": _quad_payload(quad),
                   "frac": eq, "ad": ad.to_payload(), "bc": bc.to_payload()}
        lines = [f"a*d = {ad.render()}", f"b*c = {bc.render()}",
                 "equal" if eq else "not equal"]
        return 0 if eq else 1, payload, [], lines
    if ns.vii19:
        rep = vii19_check(quad)
        payload = {"check": "vii19", "quad": _quad_payload(quad),
                   "pyth": rep.pyth, "frac": rep.frac,
                   "equivalent": rep.equivalent}
        witnesses = ([_witness_with_quad(rep.witness, quad)]
                     if rep.witness else [])
        lines = [f"pythagorean: {rep.pyth}", f"fraction: {rep.frac}",
                 "the two notions agree here" if rep.equivalent
                 else "the two notions DISAGREE here"]
        return 0 if rep.equivalent else 1, payload, witnesses, lines
    if ns.alternando:
        rep = alternando_check(quad)
        rearranged = ProportionQuad(quad.a, quad.c, quad.b, quad.d)
        payload = {"check": "alternando", "quad": _quad_payload(quad),
                   "premise": rep.premise, "conclusion": rep.conclusion,
                   "holds": rep.holds}
        witnesses = []
        if rep.premise_witness:
            witnesses.append(_witness_with_quad(rep.premise_witness, quad))
        if rep.conclusion_witness:
            witnesses.append(_witness_with_quad(rep.conclusion_witness,
                                                rearranged))
        lines = [f"premise a:b = c:d: {rep.premise}",
                 f"conclusion a:c = b:d: {rep.conclusion}",
                 "holds" if rep.holds else "REFUTED"]
        return 0 if rep.holds else 1, payload, witnesses, lines
    rep = repair_check(quad)
    payload = {"check": "repair", "quad": _quad_payload(quad),
               "status": rep.status, "holds": rep.holds}
    if rep.offending_pair:
        payload["offending_pair"] = [e.to_payload() for e in rep.offending_pair]
    for name in ("g1", "g2", "p", "q", "i", "j"):
        value = getattr(rep, name)
        if value is not None:
            payload[name] = value.to_payload()
    witnesses = ([_witness_with_quad(rep.witness, quad)] if rep.witness else [])
    if rep.status == "premise_failed":
        lines = ["not proportional, nothing to repair"]
    elif rep.status == "inapplicable":
        pair = ", ".join(e.render() for e in rep.offending_pair)
        lines = [f"inapplicable: ({pair}) has no algebraic gcd"]
    else:
        lines = [f"g1={rep.g1.render()} g2={rep.g2.render()} "
                 f"p={rep.p.render()} q={rep.q.render()}",
                 "repaired witness checks out" if rep.holds else "REFUTED"]
    return (1 if rep.holds is False else 0), payload, witnesses, lines


def _cmd_least_pair(ns, monoid):
    c = parse_element(monoid, ns.c)
    d = parse_element(monoid, ns.d)
    u, v = least_pair(c, d)
    payload = {"c": c.to_payload(), "d": d.to_payload(),
               "u": u.to_payload(), "v": v.to_payload()}
    lines = [f"least pair of {c.render()}:{d.render()} is "
             f"{u.render()}:{v.render()}"]
    return 0, payload, [], lines


def _cmd_survey(ns, monoid):
    if ns.transitivity:
        flags = transitivity_survey(monoid, ns.bound).flags
    elif ns.euclid_lemma:
        flags = {"euclid_lemma": euclid_lemma_survey(monoid, ns.bound)}
    else:
        flags = three_property_survey(monoid, ns.bound).flags
    payload = {"bound": ns.bound, "flags": {}}
    witnesses = []
    lines = []
    for name, flag in flags.items():
        payload["flags"][name] = {"holds": flag.holds,
                                  "witness_count": flag.witness_count}
        if ns.json:  # text mode prints counts only and builds no witness
            for entry in flag.witness_payloads():
                entry["flag"] = name
                witnesses.append(entry)
        if flag.holds:
            lines.append(f"{name}: holds up to bound {ns.bound}")
        else:
            lines.append(f"{name}: REFUTED "
                         f"({flag.witness_count} witness(es))")
    all_hold = all(flag.holds for flag in flags.values())
    return 0 if all_hold else 1, payload, witnesses, lines


_COMMANDS = {
    "gcd": _Command(_cmd_gcd, "greatest common divisor with Bezout certificate",
                    ("a", "b")),
    "bezout": _Command(_cmd_bezout,
                       "coefficients s, t with s*a + t*b = gcd(a, b)",
                       ("a", "b")),
    "trace": _Command(_cmd_trace,
                      "subtractive gcd loop trace with invariant check",
                      ("a", "b")),
    "divisors": _Command(_cmd_divisors, "divisor set", ("element",)),
    "factor": _Command(_cmd_factor, "all factorizations into irreducibles",
                       ("element",)),
    "irreducible": _Command(_cmd_irreducible, "test for irreducibility",
                            ("element",)),
    "proportion": _Command(
        _cmd_proportion, "proportionality checks on a quad a b c d",
        ("a", "b", "c", "d"),
        modes={"--pythagorean": "witness search for a:b = c:d",
               "--fraction": "test a*d = b*c",
               "--vii19": "compare the two notions on this quad",
               "--alternando": "a:b = c:d implies a:c = b:d",
               "--repair": "rebuild the witness on canonical parts"}),
    "least-pair": _Command(_cmd_least_pair,
                           "least pair in the same ratio (naturals)",
                           ("c", "d")),
    "survey": _Command(
        _cmd_survey, "bounded counterexample hunts", (),
        modes={"--transitivity": "transitivity of proportionality",
               "--euclid-lemma": "p | ab implies p | a or p | b",
               "--three-properties":
                   "transitivity, gcd existence, unique factorization"},
        bound=True),
}


def run_command(argv: list[str]) -> tuple[int, str]:
    """Run one invocation; return (exit status, rendered report)."""
    ns = _parse_table(argv)
    if ns is None:
        try:
            ns = _build_parser().parse_args(argv)
        except _UsageError as exc:
            return 2, str(exc)
        except SystemExit as exc:  # --help prints and exits on its own
            return int(exc.code or 0), ""
    try:
        monoid = parse_monoid_spec(ns.monoid)
        code, payload, witnesses, lines = _COMMANDS[ns.command].handler(
            ns, monoid)
    except BoundExceededError as exc:
        return 3, f"euclidlab: bound exceeded: {exc}"
    except MonoidSpecSyntaxError as exc:
        return 2, f"euclidlab: {exc}"
    except (InvalidInputError, MonoidMismatchError,
            UnsupportedStructureError) as exc:
        return 2, f"euclidlab: error: {exc}"
    if ns.json:
        envelope = {"schema_version": SCHEMA_VERSION,
                    "monoid": monoid.spec_text(),
                    "command": ns.command,
                    "payload": payload,
                    "witnesses": witnesses}
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    else:
        text = "\n".join(lines)
    return code, text


def main(argv: list[str] | None = None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        print(text, file=sys.stdout if code in (0, 1) else sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
