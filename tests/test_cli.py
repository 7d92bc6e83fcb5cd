"""The command line interface: exit codes, text reports, JSON envelopes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_euclidlab
from euclidlab.cli import _build_parser, _parse_table, _UsageError, run_command
from euclidlab.factorization import (
    EuclidLemmaWitness,
    FactorizationWitness,
    GcdAbsenceWitness,
)
from euclidlab.proportion import TransitivityWitness

C13 = ["--monoid", "congruence 1 mod 3"]
Q2 = ["--monoid", "quadratic 2"]


def run_json(argv):
    code, text = run_command(argv + ["--json"])
    return code, json.loads(text)


def envelope_keys(doc):
    return sorted(doc)


# -- computation commands ----------------------------------------------------------

def test_gcd_text_and_json():
    code, text = run_command(["gcd", "240", "46"])
    assert code == 0
    assert "gcd(240, 46) = 2" in text
    code, doc = run_json(["gcd", "240", "46"])
    assert code == 0
    assert envelope_keys(doc) == [
        "command", "monoid", "payload", "schema_version", "witnesses"]
    assert doc["schema_version"] == "1.0"
    assert doc["monoid"] == "nat"
    assert doc["command"] == "gcd"
    assert doc["payload"] == {"a": 240, "b": 46, "gcd": 2,
                              "bezout": {"s": -9, "t": 47}}
    assert doc["witnesses"] == []


def test_gcd_needs_naturals():
    code, text = run_command(["gcd", "4", "10"] + C13)
    assert code == 2
    assert text.startswith("euclidlab: error:")
    assert "works on 'nat' only" in text


def test_bezout():
    code, text = run_command(["bezout", "240", "46"])
    assert code == 0
    assert text == "(-9)*240 + (47)*46 = 2"


def test_trace():
    code, doc = run_json(["trace", "6", "15"])
    assert code == 0
    assert doc["payload"]["result"] == 3
    assert doc["payload"]["steps"] == [
        {"a": 6, "b": 15, "kind": "subtract"},
        {"a": 6, "b": 9, "kind": "subtract"},
        {"a": 6, "b": 3, "kind": "swap"},
        {"a": 3, "b": 6, "kind": "terminate"},
    ]
    assert doc["payload"]["invariants"] == {"divisor_set_ok": True,
                                            "subgroup_ok": True}
    code, text = run_command(["trace", "6", "15"])
    assert code == 0
    assert text.splitlines()[-1] == "invariants hold along the trace"


def test_divisors():
    code, text = run_command(["divisors", "100"] + C13)
    assert code == 0
    assert text == "1 4 10 25 100"
    code, text = run_command(["divisors", "100", "--nontrivial-divisors"] + C13)
    assert code == 0
    assert text == "4 10 25 100"
    code, doc = run_json(["divisors", "100", "--nontrivial-divisors"] + C13)
    assert doc["payload"] == {"element": 100, "nontrivial": True,
                              "divisors": [4, 10, 25, 100]}


def test_factor():
    code, doc = run_json(["factor", "35+14*sqrt(2)"] + Q2)
    assert code == 0
    assert doc["payload"]["element"] == [35, 14]
    assert doc["payload"]["factorizations"] == [
        [[1, 2], [3, 8]], [[3, 1], [11, 1]], [[7, 0], [5, 2]]]
    assert doc["payload"]["unique"] is False
    code, text = run_command(["factor", "12"])
    assert code == 0
    assert text == "2 * 2 * 3"
    code, text = run_command(["factor", "1"])
    assert code == 0
    assert text == "(empty product)"


def test_irreducible_yes_no_identity():
    code, text = run_command(["irreducible", "(1,1)"] + Q2)
    assert code == 0
    assert text == "1+1*sqrt(2) is irreducible"
    code, doc = run_json(["irreducible", "100"] + C13)
    assert code == 1
    assert doc["payload"] == {"element": 100, "irreducible": False}
    assert doc["witnesses"] == [{"kind": "reducibility", "element": 100,
                                 "divisor": 4, "quotient": 25}]
    code, doc = run_json(["irreducible", "1"])
    assert code == 1
    assert doc["witnesses"] == [{"kind": "identity_element", "element": 1}]


def test_quadratic_literal_forms_accepted():
    for literal in ["(1,1)", "1+1*sqrt(2)"]:
        code, _ = run_command(["irreducible", literal] + Q2)
        assert code == 0


# -- proportion ---------------------------------------------------------------------

def test_proportion_pythagorean_present():
    code, doc = run_json(
        ["proportion", "--pythagorean", "4", "10", "100", "250"] + C13)
    assert code == 0
    assert doc["payload"]["present"] is True
    assert doc["witnesses"] == [{
        "kind": "proportion_witness", "x": 1, "y": 25, "m": 4, "n": 10,
        "quad": [4, 10, 100, 250]}]


def test_proportion_pythagorean_absent():
    code, text = run_command(
        ["proportion", "--pythagorean", "4", "10", "10", "25"] + C13)
    assert code == 1
    assert text == "not proportional (exhaustive search)"


def test_proportion_pythagorean_quadratic_literals():
    code, doc = run_json(["proportion", "--pythagorean", "7+14*sqrt(2)",
                          "35+14*sqrt(2)", "1+2*sqrt(2)", "5+2*sqrt(2)"] + Q2)
    assert code == 0
    w = doc["witnesses"][0]
    assert (w["x"], w["y"], w["m"], w["n"]) == ([7, 0], [1, 0], [1, 2], [5, 2])
    assert w["quad"] == [[7, 14], [35, 14], [1, 2], [5, 2]]


def test_proportion_fraction():
    code, text = run_command(
        ["proportion", "--fraction", "4", "10", "10", "25"] + C13)
    assert code == 0
    assert text.splitlines() == ["a*d = 100", "b*c = 100", "equal"]
    code, _ = run_command(["proportion", "--fraction", "4", "10", "10", "40"] + C13)
    assert code == 1


def test_proportion_vii19_divergence():
    code, doc = run_json(["proportion", "--vii19", "4", "10", "10", "25"] + C13)
    assert code == 1
    assert doc["payload"]["pyth"] is False
    assert doc["payload"]["frac"] is True
    assert doc["payload"]["equivalent"] is False
    assert doc["witnesses"] == []
    code, text = run_command(["proportion", "--vii19", "4", "10", "10", "25"] + C13)
    assert "DISAGREE" in text


def test_proportion_alternando():
    code, doc = run_json(
        ["proportion", "--alternando", "4", "10", "100", "250"] + C13)
    assert code == 0
    assert doc["payload"]["holds"] is True
    assert [w["quad"] for w in doc["witnesses"]] == [
        [4, 10, 100, 250], [4, 100, 10, 250]]


def test_proportion_repair_statuses():
    code, doc = run_json(["proportion", "--repair", "4", "6", "10", "15"])
    assert code == 0
    assert doc["payload"]["status"] == "checked"
    assert doc["payload"]["holds"] is True
    assert doc["payload"]["g1"] == 2 and doc["payload"]["g2"] == 5

    code, doc = run_json(["proportion", "--repair", "4", "10", "100", "250"] + C13)
    assert code == 0  # inapplicable is not a refutation
    assert doc["payload"]["status"] == "inapplicable"
    assert doc["payload"]["offending_pair"] == [100, 250]
    assert doc["payload"]["holds"] is None

    code, doc = run_json(["proportion", "--repair", "4", "10", "10", "25"] + C13)
    assert code == 0
    assert doc["payload"]["status"] == "premise_failed"


def test_proportion_mode_flags_are_exclusive_and_required():
    code, text = run_command(["proportion", "4", "10", "10", "25"])
    assert code == 2
    code, text = run_command(
        ["proportion", "--vii19", "--fraction", "4", "10", "10", "25"])
    assert code == 2


# -- least pair and surveys ------------------------------------------------------------

def test_least_pair():
    code, text = run_command(["least-pair", "12", "18"])
    assert code == 0
    assert text == "least pair of 12:18 is 2:3"
    code, text = run_command(["least-pair", "4", "10"] + C13)
    assert code == 2
    assert "least pair is defined over 'nat' only" in text


def test_survey_transitivity_holds():
    code, text = run_command(["survey", "--transitivity", "--bound", "30"])
    assert code == 0
    assert text == "pythagorean_transitive: holds up to bound 30"


def test_survey_euclid_lemma_refuted():
    code, doc = run_json(["survey", "--euclid-lemma", "--bound", "100"] + C13)
    assert code == 1
    assert doc["payload"]["flags"] == {
        "euclid_lemma": {"holds": False, "witness_count": 1}}
    assert doc["witnesses"] == [{
        "kind": "euclid_lemma_failure", "flag": "euclid_lemma",
        "irreducible": 4, "a": 10, "b": 10, "product": 100}]


def test_survey_three_properties():
    code, doc = run_json(["survey", "--three-properties", "--bound", "40"] + Q2)
    assert code == 1
    flags = doc["payload"]["flags"]
    assert sorted(flags) == ["algebraic_gcds_exist", "euclid_lemma",
                             "pythagorean_transitive", "unique_factorization"]
    assert all(entry["holds"] is False for entry in flags.values())
    assert all("flag" in w for w in doc["witnesses"])


def test_text_survey_renders_no_witness(monkeypatch):
    argv = ["survey", "--three-properties", "--bound", "250"] + C13
    expected = run_command(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("text mode rendered a witness")

    # Text mode builds no witness object and renders no payload; --json
    # renders each kind's witnesses through that kind's payload function.
    kinds = (TransitivityWitness, GcdAbsenceWitness,
             FactorizationWitness, EuclidLemmaWitness)
    with monkeypatch.context() as m:
        for cls in kinds:
            m.setattr(cls, "__init__", refuse)
            m.setattr(cls, "payload", staticmethod(refuse))
        assert run_command(argv) == expected
    assert expected[0] == 1 and "REFUTED" in expected[1]
    for cls in kinds:
        with monkeypatch.context() as m:
            m.setattr(cls, "payload", staticmethod(refuse))
            with pytest.raises(AssertionError, match="rendered a witness"):
                run_command(argv + ["--json"])  # the patch does reach --json


def test_survey_requires_bound_and_mode():
    code, _ = run_command(["survey", "--transitivity"])
    assert code == 2
    code, _ = run_command(["survey", "--bound", "30"])
    assert code == 2


# -- error mapping ----------------------------------------------------------------------

def test_monoid_spec_syntax_error_exit_2():
    code, text = run_command(["divisors", "4", "--monoid", "congruence 1 mood 3"])
    assert code == 2
    assert text == ("euclidlab: syntax error at line 1, column 14: "
                    "expected 'mod', got 'mood'")


def test_monoid_semantic_error_exit_2():
    code, text = run_command(["divisors", "4", "--monoid", "congruence 2 mod 3"])
    assert code == 2
    assert text.startswith("euclidlab: error:")
    assert "not multiplicatively closed" in text


def test_bad_element_literal_exit_2():
    code, text = run_command(["divisors", "8"] + C13)
    assert code == 2
    assert "not a member" in text


def test_bound_exceeded_exit_3():
    code, text = run_command(["divisors", "99999999"])
    assert code == 3
    assert text.startswith("euclidlab: bound exceeded:")


def test_unknown_command_exit_2():
    code, text = run_command(["frobnicate"])
    assert code == 2
    assert "error" in text


def test_help_exits_zero():
    code, text = run_command(["--help"])
    assert code == 0 and text == ""
    code, text = run_command(["gcd", "--help"])
    assert code == 0 and text == ""


# Help and usage texts as argparse words them at 80 columns on Python 3.11.
# Both are built from the command table, so these pin every help string,
# metavar, option order and the mode groups.
HELP_TEXTS = {
    "--help": """\
usage: euclidlab [-h] COMMAND ...

divisibility and proportion, computed exactly

positional arguments:
  COMMAND
    gcd        greatest common divisor with Bezout certificate
    bezout     coefficients s, t with s*a + t*b = gcd(a, b)
    trace      subtractive gcd loop trace with invariant check
    divisors   divisor set
    factor     all factorizations into irreducibles
    irreducible
               test for irreducibility
    proportion
               proportionality checks on a quad a b c d
    least-pair
               least pair in the same ratio (naturals)
    survey     bounded counterexample hunts

options:
  -h, --help   show this help message and exit
""",
    "gcd --help": """\
usage: euclidlab gcd [-h] [--monoid SPEC] [--json] [--nontrivial-divisors] a b

positional arguments:
  a
  b

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
""",
    "bezout --help": """\
usage: euclidlab bezout [-h] [--monoid SPEC] [--json] [--nontrivial-divisors]
                        a b

positional arguments:
  a
  b

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
""",
    "trace --help": """\
usage: euclidlab trace [-h] [--monoid SPEC] [--json] [--nontrivial-divisors]
                       a b

positional arguments:
  a
  b

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
""",
    "divisors --help": """\
usage: euclidlab divisors [-h] [--monoid SPEC] [--json]
                          [--nontrivial-divisors]
                          element

positional arguments:
  element

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
""",
    "factor --help": """\
usage: euclidlab factor [-h] [--monoid SPEC] [--json] [--nontrivial-divisors]
                        element

positional arguments:
  element

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
""",
    "irreducible --help": """\
usage: euclidlab irreducible [-h] [--monoid SPEC] [--json]
                             [--nontrivial-divisors]
                             element

positional arguments:
  element

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
""",
    "proportion --help": """\
usage: euclidlab proportion [-h] [--monoid SPEC] [--json]
                            [--nontrivial-divisors]
                            (--pythagorean | --fraction | --vii19 | --alternando | --repair)
                            a b c d

positional arguments:
  a
  b
  c
  d

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
  --pythagorean         witness search for a:b = c:d
  --fraction            test a*d = b*c
  --vii19               compare the two notions on this quad
  --alternando          a:b = c:d implies a:c = b:d
  --repair              rebuild the witness on canonical parts
""",
    "least-pair --help": """\
usage: euclidlab least-pair [-h] [--monoid SPEC] [--json]
                            [--nontrivial-divisors]
                            c d

positional arguments:
  c
  d

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
""",
    "survey --help": """\
usage: euclidlab survey [-h] [--monoid SPEC] [--json] [--nontrivial-divisors]
                        (--transitivity | --euclid-lemma | --three-properties)
                        --bound BOUND

options:
  -h, --help            show this help message and exit
  --monoid SPEC         monoid spec text (default: nat)
  --json                emit a JSON report envelope
  --nontrivial-divisors
                        omit the identity from divisor listings
  --transitivity        transitivity of proportionality
  --euclid-lemma        p | ab implies p | a or p | b
  --three-properties    transitivity, gcd existence, unique factorization
  --bound BOUND         norm bound for the element space
""",
}
USAGE_ERRORS = {
    "gcd 240": """\
usage: euclidlab gcd [-h] [--monoid SPEC] [--json] [--nontrivial-divisors] a b
euclidlab gcd: error: the following arguments are required: b""",
    "proportion 1 2 3 4": """\
usage: euclidlab proportion [-h] [--monoid SPEC] [--json]
                            [--nontrivial-divisors]
                            (--pythagorean | --fraction | --vii19 | --alternando | --repair)
                            a b c d
euclidlab proportion: error: one of the arguments --pythagorean --fraction --vii19 --alternando --repair is required""",
    "survey --transitivity": """\
usage: euclidlab survey [-h] [--monoid SPEC] [--json] [--nontrivial-divisors]
                        (--transitivity | --euclid-lemma | --three-properties)
                        --bound BOUND
euclidlab survey: error: the following arguments are required: --bound""",
    "survey --three-properties --bound x": """\
usage: euclidlab survey [-h] [--monoid SPEC] [--json] [--nontrivial-divisors]
                        (--transitivity | --euclid-lemma | --three-properties)
                        --bound BOUND
euclidlab survey: error: argument --bound: invalid int value: 'x'""",
    "frobnicate": """\
usage: euclidlab [-h] COMMAND ...
euclidlab: error: argument COMMAND: invalid choice: 'frobnicate' (choose from 'gcd', 'bezout', 'trace', 'divisors', 'factor', 'irreducible', 'proportion', 'least-pair', 'survey')""",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words its help differently elsewhere")
def test_help_and_usage_texts_stay_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for args, want in HELP_TEXTS.items():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run_command(args.split()) == (0, "")
        assert printed.getvalue() == want, args
    for args, want in USAGE_ERRORS.items():
        assert run_command(args.split()) == (2, want), args


def test_json_output_is_deterministic():
    argv = ["survey", "--three-properties", "--bound", "100", "--json"] + C13
    first = run_command(argv)
    second = run_command(argv)
    assert first == second
    code, text = first
    assert code == 1
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- process-level behaviour ---------------------------------------------------------

def run_process(args, **kwargs):
    return run_euclidlab(args, text=True, **kwargs)


def test_installed_script_on_path_is_what_runs(tmp_path, monkeypatch):
    script = tmp_path / "euclidlab"
    script.write_text(f"#!{sys.executable}\nprint('installed script')\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    assert run_process(["gcd", "6", "15"]).stdout == "installed script\n"


def test_process_exit_0_keeps_stderr_empty():
    proc = run_process(["gcd", "240", "46"])
    assert proc.returncode == 0
    assert proc.stdout != "" and proc.stderr == ""


def test_process_exit_1_keeps_stderr_empty():
    proc = run_process(["proportion", "--vii19", "4", "10", "10", "25",
                        "--monoid", "congruence 1 mod 3"])
    assert proc.returncode == 1
    assert proc.stdout != "" and proc.stderr == ""


def test_process_exit_2_reports_on_stderr():
    proc = run_process(["divisors", "4", "--monoid", "nonsense"])
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr != ""


@pytest.mark.parametrize("monoid", [[], Q2], ids=["nat", "quadratic 2"])
def test_process_survey_bound_below_the_identity_exit_2(monoid):
    proc = run_process(["survey", "--three-properties", "--bound", "0"] + monoid)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("euclidlab: error: "
                           "bound must be at least the identity norm\n")


def test_process_exit_3_reports_on_stderr():
    proc = run_process(["divisors", "99999999"])
    assert proc.returncode == 3
    assert proc.stdout == "" and proc.stderr.startswith("euclidlab: bound exceeded")


def test_process_least_pair_of_a_large_prime_returns_promptly():
    # the minimality check is a gcd certificate, not a scan below 10**9
    proc = run_process(["least-pair", "1000000007", "2"], timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "least pair of 1000000007:2 is 1000000007:2\n"


@pytest.mark.parametrize("args,code", [
    # 10**18 + 3 is prime: square-free, decided past the cube root.
    (["divisors", "1", "--monoid", "quadratic 1000000000000000003"], 0),
    # (10**9 + 7)**2: the cofactor past the cube root is a square.
    (["divisors", "1", "--monoid", "quadratic 1000000014000000049"], 2),
    # 2**61 - 1 is prime and its cube root passes the ceiling.
    (["divisors", "1", "--monoid", "quadratic 2305843009213693951"], 3),
    # about 5*10**10 subtractions, counted before any is recorded
    (["trace", "2", "100000000001"], 3),
    # INTs past 1,000 digits stop before conversion; 4,400 digits would
    # pass the interpreter's int-string limit and raise ValueError.
    (["gcd", "1" * 4400, "3"], 3),
    (["divisors", "1", "--monoid", "congruence 1 mod " + "7" * 1001], 3),
    # products of 1,000-digit INTs render
    (["proportion", "--fraction", "9" * 1000, "8" * 1000, "7" * 1000,
      "6" * 1000], 1),
    # 1,000 elements, but factoring norms near 10**15 needs primes to
    # about 3*10**7, past the ceiling
    (["survey", "--euclid-lemma", "--monoid", "congruence 1 mod 10" + "0" * 11,
      "--bound", "10" + "0" * 14], 3),
])
def test_process_large_inputs_answer_or_stop_promptly(args, code):
    proc = run_process(args, timeout=30)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert (proc.stderr == "") == (code in (0, 1))


def test_process_trace_of_large_numbers_stops_before_trial_division():
    # Consecutive Fibonacci numbers: a short trace, but its invariant check
    # would trial-divide numbers near 2*10**20 up to their square roots.
    proc = run_process(["trace", "218922995834555169026",
                        "354224848179261915075"], timeout=30)
    assert proc.returncode == 3
    assert proc.stdout == "" and proc.stderr.startswith("euclidlab: bound exceeded")


def test_process_trace_with_many_steps_checks_its_invariants_promptly():
    # 333,335 states whose smaller entry is almost always 3: each state's
    # common divisors come from trial division of the smaller entry only.
    proc = run_process(["trace", "3", "1000000", "--json"], timeout=15)
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)["payload"]
    assert len(payload["steps"]) == 333_335 and payload["result"] == 1
    assert payload["invariants"] == {"divisor_set_ok": True,
                                     "subgroup_ok": True}


# One of each outcome through the parser: a usage error, both help texts,
# every subcommand, a refusal and a budget stop.
MIXED_SEQUENCE = [
    (["gcd", "240"], 2),
    (["--help"], 0),
    (["gcd", "--help"], 0),
    (["gcd", "240", "46"], 0),
    (["bezout", "240", "46", "--json"], 0),
    (["trace", "6", "15"], 0),
    (["divisors", "100", "--nontrivial-divisors"] + C13, 0),
    (["factor", "100", "--json"] + C13, 0),
    (["irreducible", "40"] + C13, 1),
    (["proportion", "--vii19", "4", "10", "10", "25"] + C13, 1),
    (["least-pair", "12", "18", "--json"], 0),
    (["survey", "--three-properties", "--bound", "30"] + C13, 1),
    (["gcd", "4", "10"] + C13, 2),
    (["divisors", "99999999", "--json"], 3),
]


def test_one_parser_serves_repeated_mixed_sequences(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the width

    def in_process(argv):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code, text = run_command(argv)
        return code, printed.getvalue(), text

    first = [in_process(argv) for argv, _ in MIXED_SEQUENCE]
    assert [in_process(argv) for argv, _ in MIXED_SEQUENCE] == first
    assert [code for code, _, _ in first] == [c for _, c in MIXED_SEQUENCE]
    for (argv, _), (code, printed, text) in zip(MIXED_SEQUENCE, first):
        proc = run_process(argv)
        shown = text + "\n" if text else ""
        assert proc.returncode == code
        if code in (0, 1):
            assert (proc.stdout, proc.stderr) == (printed + shown, "")
        else:
            assert (proc.stdout, proc.stderr) == (printed, shown)
    assert first[1][1].startswith("usage: euclidlab")
    assert first[2][1].startswith("usage: euclidlab gcd")


# The bench's correctness gate: the three documented contract invocations.
CONTRACT = [
    (["survey", "--three-properties", "--monoid", "congruence 1 mod 3",
      "--bound", "250", "--json"], 1),
    (["gcd", "240", "46", "--json"], 0),
    (["proportion", "--vii19", "4", "10", "10", "25",
      "--monoid", "congruence 1 mod 3", "--json"], 1),
]


def test_the_command_table_answers_every_well_formed_argv():
    # Only help and usage errors may fall through to argparse; without
    # this, the table path could stop answering and no output would change.
    declined = []
    for argv, _ in MIXED_SEQUENCE + CONTRACT:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                want = vars(_build_parser().parse_args(argv))
        except (_UsageError, SystemExit):
            declined.append(argv)
            assert _parse_table(argv) is None
            continue
        ns = _parse_table(argv)
        assert ns is not None, argv
        assert vars(ns) == want
    assert declined == [["gcd", "240"], ["--help"], ["gcd", "--help"]]


def test_argparse_is_imported_only_for_help_and_usage_errors():
    import euclidlab
    code = """if True:
        import contextlib, io, sys
        from euclidlab.cli import run_command
        assert run_command(["gcd", "240", "46", "--json"])[0] == 0
        assert run_command(["survey", "--three-properties", "--bound", "30",
                            "--monoid", "congruence 1 mod 3"])[0] == 1
        print("argparse" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["gcd", "--help"]) == (0, "")
        print("argparse" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(euclidlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert (proc.stdout.split(), proc.stderr) == (["False", "True"], "")


def test_module_entry_point():
    import euclidlab
    env = dict(os.environ, PYTHONPATH=str(Path(euclidlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "euclidlab", "gcd", "6", "15"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "gcd(6, 15) = 3" in proc.stdout


def test_schema_document_stays_in_sync():
    from euclidlab.cli import SCHEMA_VERSION, _COMMANDS

    path = Path(__file__).resolve().parent.parent / "docs" / (
        f"report-schema-{SCHEMA_VERSION}.json")
    schema = json.loads(path.read_text())
    assert schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION
    assert schema["properties"]["command"]["enum"] == list(_COMMANDS)
    # argparse offers the same commands in the same order, and each row of
    # the table runs its own handler
    subcommands = next(action for action in _build_parser()._actions
                       if action.dest == "command")
    assert list(subcommands.choices) == list(_COMMANDS)
    assert [command.handler.__name__ for command in _COMMANDS.values()] == [
        "_cmd_" + name.replace("-", "_") for name in _COMMANDS]
    assert schema["required"] == [
        "schema_version", "monoid", "command", "payload", "witnesses"]
    kinds = {ref["$ref"].rsplit("/", 1)[-1]
             for ref in schema["$defs"]["witness"]["oneOf"]}
    emitted = {"proportionWitness", "transitivityFailure", "missingAlgebraicGcd",
               "nonUniqueFactorization", "euclidLemmaFailure", "reducibility",
               "identityElement"}
    assert kinds == emitted
