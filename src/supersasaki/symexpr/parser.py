"""Recursive-descent parser for scalar expressions.

Grammar (whitespace insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | identifier | func '(' expr ')' | '(' expr ')' | '-' base

Identifiers match [A-Za-z_][A-Za-z0-9_]*; numbers are unsigned integer or
decimal literals and become exact rationals. Function names are reserved.
Errors carry the character offset they were detected at.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .expr import FUNCTIONS, Add, Call, Const, Div, Expr, Mul, Pow, Var

_OPS = frozenset("+-*/^()")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"offset {position}: {message}")
        self.position = position


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r}", position)
        self.name = name


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int) -> None:
        self.kind = kind  # "number" | "ident" | one of + - * / ^ ( ) | "end"
        self.text = text
        self.position = position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _number_value(tok: _Token) -> Fraction:
    whole, _, frac = tok.text.partition(".")
    try:
        return Fraction(int(whole + frac), 10 ** len(frac))
    except ValueError:  # more digits than int() converts
        digits = len(whole + frac)
        raise ParseError(f"a number of {digits} digits is too long", tok.position) from None


class _Parser:
    def __init__(self, tokens: Sequence[_Token], vocabulary: frozenset[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.vocabulary = vocabulary

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.current.text or 'end of input'!r}",
                self.current.position,
            )
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.current.kind != "end":
            raise ParseError(
                f"unexpected trailing input {self.current.text!r}", self.current.position
            )
        return e

    def expr(self) -> Expr:
        acc = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            if op == "-":
                rhs = Const(-rhs.value) if isinstance(rhs, Const) else Mul.of(Const(Fraction(-1)), rhs)
            acc = Add.of(acc, rhs)
        return acc

    def term(self) -> Expr:
        acc = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            if op == "*":
                acc = Mul.of(acc, rhs)
            elif isinstance(acc, Const) and isinstance(rhs, Const) and rhs.value != 0:
                # fold rational literals so printed fractions reparse stably
                acc = Const(acc.value / rhs.value)
            else:
                acc = Div(acc, rhs)
        return acc

    def factor(self) -> Expr:
        base = self.base()
        if self.current.kind == "^":
            self.advance()
            negative = False
            if self.current.kind == "-":
                negative = True
                self.advance()
            tok = self.expect("number")
            value = _number_value(tok)
            if value.denominator != 1:
                raise ParseError("exponent must be an integer", tok.position)
            exponent = int(value)
            return Pow(base, -exponent if negative else exponent)
        return base

    def base(self) -> Expr:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Const(_number_value(tok))
        if tok.kind == "ident":
            self.advance()
            if self.current.kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {tok.text!r}; expected one of {', '.join(FUNCTIONS)}",
                        tok.position,
                    )
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg)
            if self.vocabulary is not None and tok.text not in self.vocabulary:
                raise UnknownIdentifierError(tok.text, tok.position)
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "-":
            self.advance()
            inner = self.base()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul.of(Const(Fraction(-1)), inner)
        raise ParseError(
            f"expected a number, variable, function call, or '(', found "
            f"{tok.text or 'end of input'!r}",
            tok.position,
        )


def parse_expr(text: str, vocabulary: Iterable[str] | None = None) -> Expr:
    """Parse text to an expression tree.

    vocabulary, when given, is the set of variable names allowed to appear;
    any other bare identifier raises UnknownIdentifierError. Function names
    are reserved regardless.
    """
    vocab = None if vocabulary is None else frozenset(vocabulary)
    if vocab is not None:
        clash = vocab & set(FUNCTIONS)
        if clash:
            raise ValueError(f"vocabulary collides with reserved function names: {sorted(clash)}")
    return _Parser(_tokenize(text), vocab).parse()
