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
    eval_numeric,
    free_vars,
    neg,
    substitute,
    to_text,
)
from .oracle import (
    Interval,
    OracleConfig,
    OracleError,
    Witness,
    expr_equal,
    sample_compare,
)
from .parser import ParseError, UnknownIdentifierError, parse_expr

__all__ = [
    "Add", "Call", "Const", "Div", "EvalError", "Expr",
    "FUNCTIONS", "Interval", "MONOMIAL_ORDER_NOTE", "Mul", "ONE",
    "OracleConfig", "OracleError",
    "ParseError", "Pow", "UnknownIdentifierError", "Var", "Witness", "ZERO",
    "as_expr", "canonical_equal", "canonical_text",
    "differentiate", "eval_numeric", "expr_equal", "free_vars",
    "is_zero_expr", "neg", "parse_expr", "sample_compare", "simplify",
    "substitute", "to_text",
]
