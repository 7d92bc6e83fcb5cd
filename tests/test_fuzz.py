"""Fuzzing the command line: every argv ends in an answer, a refusal or a
budget stop.

The argv are drawn from the grammar plus junk: the nine commands and some
non-commands, valid and invalid monoid specs, element literals in every
form (malformed and overlong ones too), the flags, and survey bounds up
to 40.  Each call must return an exit status in {0, 1, 2, 3} without
raising, and ``main`` must write to stdout only on exit 0 or 1.  Wherever
the command table answers an argv, argparse must build the same namespace.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from euclidlab.cli import _build_parser, _parse_table, main, run_command

COMMANDS = ["gcd", "bezout", "trace", "divisors", "factor", "irreducible",
            "proportion", "least-pair", "survey"]
ARITY = {"gcd": 2, "bezout": 2, "trace": 2, "divisors": 1, "factor": 1,
         "irreducible": 1, "proportion": 4, "least-pair": 2, "survey": 0}
MODES = {"proportion": ["--pythagorean", "--fraction", "--vii19",
                        "--alternando", "--repair"],
         "survey": ["--transitivity", "--euclid-lemma", "--three-properties"]}

SPECS = st.sampled_from([
    "nat", "congruence 1 mod 1", "congruence 1 mod 2", "congruence 1 mod 3",
    "congruence 1 mod 4", "congruence 4 mod 6", "congruence 3 mod 3",
    "quadratic 2", "quadratic 3", "quadratic 7",
    # refused: not closed, not square-free, too small, malformed
    "congruence 2 mod 3", "congruence 0 mod 0", "congruence 1 mod 0",
    "quadratic 4", "quadratic 1", "quadratic 0", "nat 3", "quadratic",
    "congruence 1 mod", "mod 3", "", " ", "Nat", "quadratic ٣",
    "congruence 1 mod 3 x", "quadratic 2\x00",
    # past the interpreter's 4,300-digit int-string limit
    "congruence 1 mod " + "7" * 4400, "quadratic " + "3" * 5000,
]) | st.text(max_size=12)

ELEMENTS = st.one_of(
    st.integers(0, 60).map(str),
    st.integers(0, 5000).map(str),
    st.sampled_from(["720720", "1000000007", "99999999999999999999",
                     "10" + "0" * 40, "9" * 1000]),
    # past the INT limit, and past the interpreter's int-string limit
    st.sampled_from(["9" * 1001, "1" * 4400]),
    st.builds("({},{})".format, st.integers(0, 12), st.integers(0, 12)),
    st.builds("{}+{}*sqrt({})".format, st.integers(0, 12),
              st.integers(0, 12), st.sampled_from([2, 3, 7, 5])),
    st.sampled_from(["-3", "+4", "1.5", "0x10", "", " 7 ", "٣", "(1,)",
                     "3+sqrt(2)", "(0,0)", "--", "-"]),
    st.text(max_size=6),
)

FLAGS = st.sampled_from([
    "--json", "--nontrivial-divisors", "--pythagorean", "--fraction",
    "--vii19", "--alternando", "--repair", "--transitivity",
    "--euclid-lemma", "--three-properties", "--monoid", "--bound", "-h",
    "--unknown",
])

BOUNDS = st.one_of(st.integers(-3, 40).map(str),
                   st.sampled_from(["", "x", "1e3", "4.0", "٤"]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS) | st.sampled_from(
        ["", "nope", "--json", "survey-holds"]))
    arity = ARITY.get(command, 1)
    count = draw(st.sampled_from([arity, arity, arity, arity + 1,
                                  max(arity - 1, 0)]))
    args = [draw(ELEMENTS) for _ in range(count)]
    args += draw(st.lists(FLAGS, max_size=3))
    if draw(st.booleans()):
        args += ["--monoid", draw(SPECS)]
    if command == "survey" or draw(st.integers(0, 4)) == 0:
        args += ["--bound", draw(BOUNDS)]
    args += draw(st.lists(ELEMENTS | FLAGS, max_size=1))
    if draw(st.booleans()):
        args = list(draw(st.permutations(args)))
    return [command] + args


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_argv_ends_in_an_answer_a_refusal_or_a_budget_stop(argv):
    code, text = run_command(argv)
    assert code in (0, 1, 2, 3)
    assert isinstance(text, str)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert not out.getvalue() or code in (0, 1)


@st.composite
def table_shaped_argvs(draw):
    """A command with its arity, its one mode flag and its bound, plus some
    switches and a monoid, with each option kept next to its value (which
    may itself be a flag)."""
    command = draw(st.sampled_from(COMMANDS))
    groups = [[draw(ELEMENTS)] for _ in range(ARITY[command])]
    if command in MODES:
        groups.append([draw(st.sampled_from(MODES[command]))])
    groups += [[flag] for flag in draw(st.lists(st.sampled_from(
        ["--json", "--nontrivial-divisors"]), max_size=2))]
    if draw(st.booleans()):
        groups.append(["--monoid", draw(SPECS | FLAGS)])
    if command == "survey":
        groups.append(["--bound", draw(BOUNDS | FLAGS)])
    return [command] + [token for group in draw(st.permutations(groups))
                        for token in group]


@settings(max_examples=300, deadline=None)
@given(argvs() | table_shaped_argvs())
def test_the_command_table_builds_the_namespace_argparse_builds(argv):
    ns = _parse_table(argv)
    if ns is not None:
        assert vars(ns) == vars(_build_parser().parse_args(argv))
