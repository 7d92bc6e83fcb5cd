"""The monoid spec grammar and element literal parsing."""

import pytest

from euclidlab import (
    Congruence,
    InvalidInputError,
    MonoidSpecSyntaxError,
    Naturals,
    Quadratic,
    parse_element,
    parse_monoid_spec,
)
from euclidlab.cli import run_command


# -- specs that parse -----------------------------------------------------------

def test_parse_the_three_forms():
    assert parse_monoid_spec("nat") == Naturals()
    assert parse_monoid_spec("congruence 1 mod 3") == Congruence(1, 3)
    assert parse_monoid_spec("quadratic 2") == Quadratic(2)


def test_parse_normalizes_whitespace():
    monoid = parse_monoid_spec("   congruence    1   mod   3  ")
    assert monoid.spec_text() == "congruence 1 mod 3"
    assert parse_monoid_spec("congruence 1\nmod 3") == Congruence(1, 3)
    assert parse_monoid_spec("\tquadratic\t5\t") == Quadratic(5)


# -- syntax errors carry positions ------------------------------------------------

def syntax_error(text):
    with pytest.raises(MonoidSpecSyntaxError) as err:
        parse_monoid_spec(text)
    return err.value


def test_unknown_keyword_position():
    err = syntax_error("integers 5")
    assert (err.line, err.column) == (1, 1)
    assert "expected 'nat', 'congruence' or 'quadratic', got 'integers'" in str(err)
    assert str(err).startswith("syntax error at line 1, column 1:")


def test_misspelled_mod_position():
    err = syntax_error("congruence 1 mood 3")
    assert (err.line, err.column) == (1, 14)
    assert "expected 'mod', got 'mood'" in str(err)


def test_unexpected_character_position():
    err = syntax_error("congruence 1 mod 3!")
    assert (err.line, err.column) == (1, 19)
    assert "unexpected character '!'" in str(err)


def test_positions_track_newlines():
    err = syntax_error("congruence 1\nmood 3")
    assert (err.line, err.column) == (2, 1)


def test_malformed_tokens():
    err = syntax_error("123abc")
    assert "malformed token '123abc'" in str(err)
    assert (err.line, err.column) == (1, 1)
    err = syntax_error("congruence 1 mod3")
    assert "malformed token 'mod3'" in str(err)
    assert (err.line, err.column) == (1, 14)


@pytest.mark.parametrize("text,column,char", [
    ("quadratic \u00b2", 11, "\u00b2"),                # superscript two
    ("congruence \u0661 mod \u0663", 12, "\u0661"),   # Arabic-Indic one, three
])
def test_int_is_ascii_digits_only(text, column, char):
    err = syntax_error(text)
    assert (err.line, err.column) == (1, column)
    assert f"unexpected character {char!r}" in str(err)
    code, report = run_command(["divisors", "4", "--monoid", text])
    assert code == 2
    assert report.startswith(f"euclidlab: syntax error at line 1, column {column}:")


def test_missing_pieces():
    err = syntax_error("congruence mod 3")
    assert "expected a residue, got 'mod'" in str(err)
    assert (err.line, err.column) == (1, 12)
    err = syntax_error("quadratic")
    assert "expected a radicand, got end of input" in str(err)
    assert (err.line, err.column) == (1, 10)
    err = syntax_error("")
    assert "got end of input" in str(err)
    assert (err.line, err.column) == (1, 1)


def test_trailing_input():
    err = syntax_error("nat 5")
    assert "unexpected trailing input '5'" in str(err)
    assert (err.line, err.column) == (1, 5)


def test_keywords_are_case_sensitive():
    err = syntax_error("NAT")
    assert "got 'NAT'" in str(err)


def test_semantic_errors_come_from_constructors():
    with pytest.raises(InvalidInputError) as err:
        parse_monoid_spec("congruence 2 mod 3")
    assert "not multiplicatively closed" in str(err.value)
    with pytest.raises(InvalidInputError):
        parse_monoid_spec("quadratic 8")
    with pytest.raises(InvalidInputError):
        parse_monoid_spec("quadratic 1")
    with pytest.raises(InvalidInputError):
        parse_monoid_spec("congruence 0 mod 4")


# -- element literals ---------------------------------------------------------------

def test_scalar_literals():
    assert parse_element(Naturals(), "42").value == 42
    assert parse_element(Naturals(), "  42  ").value == 42
    assert parse_element(Congruence(1, 3), "10").value == 10


def test_scalar_literal_rejections():
    with pytest.raises(InvalidInputError) as err:
        parse_element(Naturals(), "abc")
    assert "use a positive integer" in str(err.value)
    with pytest.raises(InvalidInputError):
        parse_element(Naturals(), "-3")
    with pytest.raises(InvalidInputError):
        parse_element(Naturals(), "4.5")
    with pytest.raises(InvalidInputError) as err:
        parse_element(Naturals(), "0")  # parses, then fails membership
    assert "not a member" in str(err.value)
    with pytest.raises(InvalidInputError) as err:
        parse_element(Congruence(1, 3), "8")
    assert "not a member" in str(err.value)


def test_quadratic_literal_forms():
    q2 = Quadratic(2)
    assert parse_element(q2, "(3,8)").pair == (3, 8)
    assert parse_element(q2, " ( 3 , 8 ) ").pair == (3, 8)
    assert parse_element(q2, "35+14*sqrt(2)").pair == (35, 14)
    assert parse_element(q2, "35 + 14 * sqrt( 2 )").pair == (35, 14)
    assert parse_element(q2, "7").pair == (7, 0)


def test_quadratic_radicand_must_match():
    with pytest.raises(InvalidInputError) as err:
        parse_element(Quadratic(2), "1+2*sqrt(3)")
    assert "uses radicand 3" in str(err.value)
    assert "'quadratic 2'" in str(err.value)


def test_quadratic_literal_rejections():
    q2 = Quadratic(2)
    with pytest.raises(InvalidInputError) as err:
        parse_element(q2, "sqrt(2)")
    assert "use INT, (a,b) or a+b*sqrt(d)" in str(err.value)
    with pytest.raises(InvalidInputError):
        parse_element(q2, "(0,0)")  # parses, then fails membership
    with pytest.raises(InvalidInputError):
        parse_element(q2, "(1,2,3)")
    with pytest.raises(InvalidInputError):
        parse_element(q2, "3+sqrt(2)")
