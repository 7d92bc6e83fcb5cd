"""Parsing for monoid spec texts and element literals.

Grammar for specs, whitespace separated, keywords case sensitive:

    spec := "nat" | "congruence" INT "mod" INT | "quadratic" INT
    INT  := [0-9]+

Syntax problems raise position-annotated errors; semantic problems
(a congruence class that is not multiplicatively closed, a radicand
that is not square-free) surface from the monoid constructors.

Element literals are monoid dependent: scalar monoids take a plain
INT; quadratic monoids also accept the pair form "(a,b)" and the
radical form "a+b*sqrt(d)".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidInputError, MonoidSpecSyntaxError
from .monoids import Congruence, Element, Monoid, Naturals, Quadratic


@dataclass(frozen=True)
class _Token:
    kind: str  # "word" | "int" | "end"
    text: str
    line: int
    column: int

    def describe(self) -> str:
        return "end of input" if self.kind == "end" else repr(self.text)


def _is_int(text: str) -> bool:
    return text.isascii() and text.isdigit()  # INT is [0-9]+, not any digit


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch.isspace():
            column += 1
            i += 1
        elif _is_int(ch) or ch.isalpha():
            kind = "int" if _is_int(ch) else "word"
            j = i
            while j < len(source) and source[j].isalnum():
                j += 1
            text = source[i:j]
            if not (_is_int(text) or text.isalpha()):
                raise MonoidSpecSyntaxError(
                    f"malformed token {text!r}", line=line, column=column)
            tokens.append(_Token(kind, text, line, column))
            column += j - i
            i = j
        else:
            raise MonoidSpecSyntaxError(
                f"unexpected character {ch!r}", line=line, column=column)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect_int(self, what: str) -> int:
        token = self.next()
        if token.kind != "int":
            raise MonoidSpecSyntaxError(
                f"expected {what}, got {token.describe()}",
                line=token.line, column=token.column)
        return int(token.text)

    def expect_word(self, word: str) -> None:
        token = self.next()
        if token.kind != "word" or token.text != word:
            raise MonoidSpecSyntaxError(
                f"expected {word!r}, got {token.describe()}",
                line=token.line, column=token.column)

    def expect_end(self) -> None:
        token = self.next()
        if token.kind != "end":
            raise MonoidSpecSyntaxError(
                f"unexpected trailing input {token.describe()}",
                line=token.line, column=token.column)


def parse_monoid_spec(text: str) -> Monoid:
    """Parse a spec text into a validated monoid.

    Closure of congruence classes and square-freeness of radicands are
    checked by the constructors, so a parsed monoid is always usable.
    """
    stream = _TokenStream(_tokenize(text))
    head = stream.next()
    if head.kind == "word" and head.text == "nat":
        stream.expect_end()
        return Naturals()
    if head.kind == "word" and head.text == "congruence":
        residue = stream.expect_int("a residue")
        stream.expect_word("mod")
        modulus = stream.expect_int("a modulus")
        stream.expect_end()
        return Congruence(residue, modulus)
    if head.kind == "word" and head.text == "quadratic":
        radicand = stream.expect_int("a radicand")
        stream.expect_end()
        return Quadratic(radicand)
    raise MonoidSpecSyntaxError(
        f"expected 'nat', 'congruence' or 'quadratic', got {head.describe()}",
        line=head.line, column=head.column)


_INT_RE = re.compile(r"\s*([0-9]+)\s*\Z")
_PAIR_RE = re.compile(r"\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*\Z")
_RADICAL_RE = re.compile(
    r"\s*([0-9]+)\s*\+\s*([0-9]+)\s*\*\s*sqrt\s*\(\s*([0-9]+)\s*\)\s*\Z")


def parse_element(monoid: Monoid, text: str) -> Element:
    """Parse an element literal and validate membership."""
    if isinstance(monoid, Quadratic):
        if m := _PAIR_RE.match(text):
            return monoid.element(int(m.group(1)), int(m.group(2)))
        if m := _RADICAL_RE.match(text):
            a, b, d = (int(g) for g in m.groups())
            if d != monoid.radicand:
                raise InvalidInputError(
                    f"literal {text.strip()!r} uses radicand {d}, "
                    f"but the monoid is '{monoid.spec_text()}'")
            return monoid.element(a, b)
        if m := _INT_RE.match(text):
            return monoid.element(int(m.group(1)), 0)
        raise InvalidInputError(
            f"cannot parse {text!r} as an element of '{monoid.spec_text()}'; "
            "use INT, (a,b) or a+b*sqrt(d)")
    if m := _INT_RE.match(text):
        return monoid.element(int(m.group(1)))
    raise InvalidInputError(
        f"cannot parse {text!r} as an element of '{monoid.spec_text()}'; "
        "use a positive integer")
