"""Expression trees over commuting scalar variables.

Nodes are tuples tagged by their class, so two nodes are equal, with equal
hashes, when they have the same class and equal fields. Constructors do no
simplification beyond flattening nested sums/products and folding
arithmetic on bare constants; canonical form lives in canonical.py.
Constants are exact rationals, powers carry integer exponents only, and
the function vocabulary is fixed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Union

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "ln")

Rational = Union[int, Fraction]


class EvalError(ValueError):
    """Numeric evaluation left the domain (division by zero, sqrt of a
    negative, log of a nonpositive value, overflow, unassigned variable)."""


class Expr(tuple):
    """Base class for scalar expression nodes.

    Each node is a tuple whose first item names its class, so equality and
    hashing are the tuple's. The arithmetic operators below replace tuple
    concatenation and repetition."""

    __slots__ = ()

    def __add__(self, other: "Expr | Rational") -> "Expr":
        return Add.of(self, as_expr(other))

    def __radd__(self, other: Rational) -> "Expr":
        return Add.of(as_expr(other), self)

    def __sub__(self, other: "Expr | Rational") -> "Expr":
        return Add.of(self, neg(as_expr(other)))

    def __rsub__(self, other: Rational) -> "Expr":
        return Add.of(as_expr(other), neg(self))

    def __mul__(self, other: "Expr | Rational") -> "Expr":
        return Mul.of(self, as_expr(other))

    def __rmul__(self, other: Rational) -> "Expr":
        return Mul.of(as_expr(other), self)

    def __truediv__(self, other: "Expr | Rational") -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: Rational) -> "Expr":
        return Div(as_expr(other), self)

    def __pow__(self, exponent: int) -> "Expr":
        return Pow(self, exponent)

    def __neg__(self) -> "Expr":
        return neg(self)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_text(self)!r})"


class Const(Expr):
    """("c", numerator, denominator); value keeps the Fraction beside the
    tuple."""

    def __new__(cls, value: Rational) -> "Const":
        if not isinstance(value, Fraction):
            value = Fraction(value)
        node = tuple.__new__(cls, ("c", value.numerator, value.denominator))
        node.value = value
        return node


class Var(Expr):
    __slots__ = ()

    def __new__(cls, name: str) -> "Var":
        return tuple.__new__(cls, ("v", name))

    name = property(itemgetter(1))


class Add(Expr):
    __slots__ = ()

    def __new__(cls, terms: tuple[Expr, ...]) -> "Add":
        return tuple.__new__(cls, ("+", terms))

    terms = property(itemgetter(1))

    @staticmethod
    def of(*terms: Expr) -> Expr:
        flat: list[Expr] = []
        for t in terms:
            if isinstance(t, Add):
                flat.extend(t.terms)
            else:
                flat.append(t)
        if not flat:
            return ZERO
        if len(flat) == 1:
            return flat[0]
        return Add(tuple(flat))


class Mul(Expr):
    __slots__ = ()

    def __new__(cls, factors: tuple[Expr, ...]) -> "Mul":
        return tuple.__new__(cls, ("*", factors))

    factors = property(itemgetter(1))

    @staticmethod
    def of(*factors: Expr) -> Expr:
        flat: list[Expr] = []
        for f in factors:
            if isinstance(f, Mul):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if not flat:
            return ONE
        if len(flat) == 1:
            return flat[0]
        return Mul(tuple(flat))


class Pow(Expr):
    __slots__ = ()

    def __new__(cls, base: Expr, exponent: int) -> "Pow":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError(f"power exponent must be an int, got {exponent!r}")
        return tuple.__new__(cls, ("^", base, exponent))

    base = property(itemgetter(1))
    exponent = property(itemgetter(2))


class Div(Expr):
    __slots__ = ()

    def __new__(cls, num: Expr, den: Expr) -> "Div":
        return tuple.__new__(cls, ("/", num, den))

    num = property(itemgetter(1))
    den = property(itemgetter(2))


class Call(Expr):
    __slots__ = ()

    def __new__(cls, func: str, arg: Expr) -> "Call":
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}; expected one of {FUNCTIONS}")
        return tuple.__new__(cls, ("f", func, arg))

    func = property(itemgetter(1))
    arg = property(itemgetter(2))


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expr(value: Expr | Rational) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot coerce {value!r} to an expression")


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    return Mul.of(Const(Fraction(-1)), e)


# ---------------------------------------------------------------------------
# printing

# precedence levels: 1 sum, 2 product/quotient, 3 power, 4 atom
_SUM, _PROD, _POWER, _ATOM = 1, 2, 3, 4


def _negative_head(e: Expr) -> Expr | None:
    """If e prints with a leading minus sign, return its sign-flipped twin."""
    if isinstance(e, Const) and e.value < 0:
        return Const(-e.value)
    if isinstance(e, Mul) and isinstance(e.factors[0], Const) and e.factors[0].value < 0:
        head = Const(-e.factors[0].value)
        rest = e.factors[1:]
        if head.value == 1 and len(rest) == 1:
            return rest[0]
        if head.value == 1:
            return Mul(rest)
        return Mul((head,) + rest)
    if isinstance(e, Div):
        flipped = _negative_head(e.num)
        if flipped is not None:
            return Div(flipped, e.den)
    return None


def _render(e: Expr) -> tuple[str, int]:
    """Return (text, precedence level of the outermost construct)."""
    if isinstance(e, Const):
        v = e.value
        try:
            text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        except ValueError:  # more digits than str() converts
            digits = max(abs(v.numerator), v.denominator).bit_length() * 3 // 10
            raise EvalError(f"a constant of about {digits} digits is too long to print") from None
        level = _SUM if v < 0 or v.denominator != 1 else _ATOM
        return text, level
    if isinstance(e, Var):
        return e.name, _ATOM
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})", _ATOM
    if isinstance(e, Add):
        # a constant term reparses without parens: the parser folds a/b
        parts: list[str] = []
        for i, t in enumerate(e.terms):
            flipped = None if i == 0 else _negative_head(t)
            if flipped is not None:
                parts.append(" - " + _term_text(flipped))
            elif i == 0:
                parts.append(_child(t, _PROD) if isinstance(t, Add) else _render(t)[0])
            else:
                parts.append(" + " + _term_text(t))
        return "".join(parts), _SUM
    if isinstance(e, Mul):
        factors = e.factors
        if isinstance(factors[0], Const) and factors[0].value == -1 and len(factors) > 1:
            # in this grammar '-' binds a single base, so "-x^2" means (-x)^2;
            # parenthesize everything the minus must cover
            rest = factors[1:]
            if len(rest) == 1 and isinstance(rest[0], (Var, Call)):
                return "-" + _render(rest[0])[0], _SUM
            inner = rest[0] if len(rest) == 1 else Mul(rest)
            return "-(" + to_text(inner) + ")", _SUM
        texts = []
        for i, f in enumerate(factors):
            if i == 0 and isinstance(f, Const):
                # leading constants (fractions, negatives) reparse without
                # parens because the parser folds constant prefixes
                texts.append(_render(f)[0])
                continue
            need_parens_for_sign = _starts_negative(f)
            texts.append(_child(f, _PROD, force=need_parens_for_sign))
        return "*".join(texts), _PROD
    if isinstance(e, Div):
        # a bare constant numerator reparses correctly without parens,
        # since the parser refolds constant/constant prefixes
        num = _render(e.num)[0] if isinstance(e.num, Const) else _child(e.num, _PROD)
        den = _child(e.den, _POWER)
        return f"{num}/{den}", _PROD
    if isinstance(e, Pow):
        base = _child(e.base, _ATOM)
        return f"{base}^{e.exponent}", _POWER
    raise TypeError(f"not an expression node: {e!r}")


def _starts_negative(e: Expr) -> bool:
    if isinstance(e, Const):
        return e.value < 0
    if isinstance(e, Mul):
        return _starts_negative(e.factors[0])
    if isinstance(e, Div):
        return _starts_negative(e.num)
    return False


def _term_text(e: Expr) -> str:
    return _render(e)[0] if isinstance(e, Const) else _child(e, _PROD)


def _child(e: Expr, minimum: int, force: bool = False) -> str:
    text, level = _render(e)
    if force or level < minimum:
        return f"({text})"
    return text


def to_text(e: Expr) -> str:
    """Render an expression in the same grammar the parser accepts."""
    return _render(e)[0]


# ---------------------------------------------------------------------------
# structure queries and rewrites

def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Add):
        out: frozenset[str] = frozenset()
        for t in e.terms:
            out |= free_vars(t)
        return out
    if isinstance(e, Mul):
        out = frozenset()
        for f in e.factors:
            out |= free_vars(f)
        return out
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, Div):
        return free_vars(e.num) | free_vars(e.den)
    if isinstance(e, Call):
        return free_vars(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, simultaneously. No simplification."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Add):
        return Add.of(*(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul.of(*(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Div):
        return Div(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping))
    raise TypeError(f"not an expression node: {e!r}")


_FUNC_EVAL: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "ln": math.log,
}


def eval_numeric(e: Expr, assignment: Mapping[str, float]) -> float:
    """Evaluate at a point, IEEE doubles. Raises EvalError off-domain."""
    try:
        value = _eval(e, assignment)
    except ZeroDivisionError as exc:
        raise EvalError(f"division by zero while evaluating {to_text(e)}") from exc
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"domain error while evaluating {to_text(e)}: {exc}") from exc
    if not math.isfinite(value):
        raise EvalError(f"non-finite value while evaluating {to_text(e)}")
    return value


def _eval(e: Expr, a: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value.numerator / e.value.denominator
    if isinstance(e, Var):
        try:
            return a[e.name]
        except KeyError:
            raise EvalError(f"no value assigned to variable {e.name!r}") from None
    if isinstance(e, Add):
        return math.fsum(_eval(t, a) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, a)
        return out
    if isinstance(e, Pow):
        return _eval(e.base, a) ** e.exponent
    if isinstance(e, Div):
        den = _eval(e.den, a)
        if den == 0.0:
            raise ZeroDivisionError
        return _eval(e.num, a) / den
    if isinstance(e, Call):
        return _FUNC_EVAL[e.func](_eval(e.arg, a))
    raise TypeError(f"not an expression node: {e!r}")
