"""Parsing for monoid spec texts and element literals.

Grammar for specs, whitespace separated, keywords case sensitive:

    spec := "nat" | "congruence" INT "mod" INT | "quadratic" INT
    INT  := [0-9]+    (at most MAX_INT_DIGITS digits, else BoundExceededError)

Syntax problems raise position-annotated errors; semantic problems
(a congruence class that is not multiplicatively closed, a radicand
that is not square-free) surface from the monoid constructors.

Element literals are monoid dependent: scalar monoids take a plain
INT; quadratic monoids also accept the pair form "(a,b)" and the
radical form "a+b*sqrt(d)".
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import BoundExceededError, InvalidInputError, MonoidSpecSyntaxError
from .monoids import Congruence, Element, Monoid, Naturals, Quadratic

#: One lexeme per match: a whitespace run, a run of letters and digits
#: (``[^\W_]`` is exactly ``str.isalnum``), or any other single character.
_LEXEME_RE = re.compile(r"\s+|[^\W_]+|.")

#: Each head word, what follows it and the constructor that takes its INTs
#: in order.  A quoted slot is that literal word; any other slot is an INT,
#: named as the error message names it.
_FORMS = {
    "nat": ((), Naturals),
    "congruence": (("a residue", "'mod'", "a modulus"), Congruence),
    "quadratic": (("a radicand",), Quadratic),
}


#: The most digits an INT may have: products of two such numbers, even
#: under such a radicand, stay below the default 4,300-digit int/str limit.
MAX_INT_DIGITS = 1000


def _is_int(text: str) -> bool:
    return text.isascii() and text.isdigit()  # INT is [0-9]+, not any digit


def _int(digits: str) -> int:
    if len(digits) > MAX_INT_DIGITS:
        raise BoundExceededError(
            f"an integer of {len(digits)} digits is over the limit of "
            f"{MAX_INT_DIGITS}", ceiling=MAX_INT_DIGITS)
    return int(digits)


def _error(message: str, source: str, offset: int) -> MonoidSpecSyntaxError:
    """The error at ``offset``; only a newline starts a new line."""
    return MonoidSpecSyntaxError(
        message, line=source.count("\n", 0, offset) + 1,
        column=offset - source.rfind("\n", 0, offset))


def _tokenize(source: str) -> list[tuple[str, int]]:
    """Each INT or word with its offset, then ``("", len(source))`` for
    the end of input.  Every token is checked before any is parsed."""
    tokens = []
    for m in _LEXEME_RE.finditer(source):
        text, offset = m.group(), m.start()
        if text[0].isspace():
            continue
        if not (_is_int(text[0]) or text[0].isalpha()):
            raise _error(f"unexpected character {text[0]!r}", source, offset)
        if not (_is_int(text) or text.isalpha()):
            raise _error(f"malformed token {text!r}", source, offset)
        tokens.append((text, offset))
    tokens.append(("", len(source)))
    return tokens


def _describe(text: str) -> str:
    return repr(text) if text else "end of input"


@lru_cache(maxsize=64)  # a process mostly repeats a few spec texts
def parse_monoid_spec(text: str) -> Monoid:
    """Parse a spec text into a validated monoid.

    Closure of congruence classes and square-freeness of radicands are
    checked by the constructors, so a parsed monoid is always usable.
    Monoids are cached by text; refusals are raised afresh every time.
    """
    tokens = iter(_tokenize(text))
    head, offset = next(tokens)
    if head not in _FORMS:
        raise _error("expected 'nat', 'congruence' or 'quadratic', "
                     f"got {_describe(head)}", text, offset)
    slots, construct = _FORMS[head]
    ints = []
    for slot in slots:
        token, offset = next(tokens)
        if slot[0] != "'" and token.isdigit():  # tokens are INTs or words
            ints.append(_int(token))
        elif slot != repr(token):
            raise _error(f"expected {slot}, got {_describe(token)}",
                         text, offset)
    token, offset = next(tokens)
    if token:
        raise _error(f"unexpected trailing input {_describe(token)}",
                     text, offset)
    return construct(*ints)


_INT_RE = re.compile(r"\s*([0-9]+)\s*\Z")
_PAIR_RE = re.compile(r"\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*\Z")
_RADICAL_RE = re.compile(
    r"\s*([0-9]+)\s*\+\s*([0-9]+)\s*\*\s*sqrt\s*\(\s*([0-9]+)\s*\)\s*\Z")


def parse_element(monoid: Monoid, text: str) -> Element:
    """Parse an element literal and validate membership."""
    if isinstance(monoid, Quadratic):
        if m := _PAIR_RE.match(text):
            return monoid.element(_int(m.group(1)), _int(m.group(2)))
        if m := _RADICAL_RE.match(text):
            a, b, d = (_int(g) for g in m.groups())
            if d != monoid.radicand:
                raise InvalidInputError(
                    f"literal {text.strip()!r} uses radicand {d}, "
                    f"but the monoid is '{monoid.spec_text()}'")
            return monoid.element(a, b)
        if m := _INT_RE.match(text):
            return monoid.element(_int(m.group(1)), 0)
        raise InvalidInputError(
            f"cannot parse {text!r} as an element of '{monoid.spec_text()}'; "
            "use INT, (a,b) or a+b*sqrt(d)")
    if m := _INT_RE.match(text):
        return monoid.element(_int(m.group(1)))
    raise InvalidInputError(
        f"cannot parse {text!r} as an element of '{monoid.spec_text()}'; "
        "use a positive integer")
