"""Scalar symbolic layer: expression trees, parser, canonical rational
form with pinned sin/sqrt power rewrites, exact differentiation, and the
two-tier equality oracle used everywhere else in the package."""

from .canonical import (
    MONOMIAL_ORDER_NOTE,
    canonical_equal,
    canonical_text,
    differentiate,
    is_zero_expr,
    simplify,
)
from .expr import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    EvalError,
    Expr,
    Mul,
    ONE,
    Pow,
    Var,
    ZERO,
    as_expr,
    cos,
    eval_numeric,
    exp,
    free_vars,
    ln,
    neg,
    sin,
    sqrt,
    substitute,
    to_text,
)
from .oracle import (
    Assignment,
    Interval,
    OracleConfig,
    OracleError,
    Witness,
    expr_equal,
    sample_compare,
)
from .parser import ParseError, UnknownIdentifierError, parse_expr

__all__ = [
    "Add", "Assignment", "Call", "Const", "Div", "EvalError", "Expr",
    "FUNCTIONS", "Interval", "MONOMIAL_ORDER_NOTE", "Mul", "ONE",
    "OracleConfig", "OracleError",
    "ParseError", "Pow", "UnknownIdentifierError", "Var", "Witness", "ZERO",
    "as_expr", "canonical_equal", "canonical_text", "cos",
    "differentiate", "eval_numeric", "exp", "expr_equal", "free_vars",
    "is_zero_expr", "ln", "neg", "parse_expr", "sample_compare", "simplify",
    "sin", "sqrt", "substitute", "to_text",
]
