"""The spec lexer: any whitespace between tokens, and long inputs."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from euclidlab import (
    Congruence,
    MonoidSpecSyntaxError,
    Naturals,
    Quadratic,
    parse_monoid_spec,
)

# Space, tab, newline, carriage return, vertical tab, ideographic space.
whitespace = st.text(alphabet=" \t\n\r\x0b　", max_size=4)
separator = st.text(alphabet=" \t\n\r\x0b　", min_size=1, max_size=4)
forms = st.sampled_from([
    (("nat",), Naturals()),
    (("congruence", "1", "mod", "3"), Congruence(1, 3)),
    (("congruence", "4", "mod", "6"), Congruence(4, 6)),
    (("quadratic", "2"), Quadratic(2)),
    (("quadratic", "7"), Quadratic(7)),
])


@given(forms, whitespace, whitespace, st.lists(separator, min_size=3, max_size=3))
def test_forms_parse_with_any_whitespace(form, lead, trail, separators):
    words, monoid = form
    text = lead + words[0] + "".join(
        s + w for s, w in zip(separators, words[1:])) + trail
    assert parse_monoid_spec(text) == monoid


def test_long_spec_is_refused_promptly_at_its_second_token():
    start = time.perf_counter()
    with pytest.raises(MonoidSpecSyntaxError) as err:
        parse_monoid_spec("nat " * 50_000)
    assert time.perf_counter() - start < 1
    assert (err.value.line, err.value.column) == (1, 5)
    assert "unexpected trailing input 'nat'" in str(err.value)


def test_parse_is_cached_but_refusals_are_not():
    messages = []
    for _ in range(2):
        with pytest.raises(MonoidSpecSyntaxError) as err:
            parse_monoid_spec("congruence 1 mod x")
        messages.append(str(err.value))
    assert messages == ["syntax error at line 1, column 18: "
                        "expected a modulus, got 'x'"] * 2
    assert parse_monoid_spec("quadratic 3") == Quadratic(3)
    assert parse_monoid_spec("quadratic 3") == Quadratic(3)
