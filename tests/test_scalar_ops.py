import random
import sys
from fractions import Fraction

import pytest

from supersasaki.symexpr import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    OracleConfig,
    Pow,
    Var,
    canonical_equal,
    canonical_text,
    differentiate,
    eval_numeric,
    expr_equal,
    free_vars,
    parse_expr,
    sample_compare,
    simplify,
    substitute,
    to_text,
)
from supersasaki.symexpr.oracle import _rng_for

SEED = 20260819


def _p(text):
    return parse_expr(text)


def test_simplify_collects_and_cancels():
    assert canonical_text(_p("x + x")) == canonical_text(_p("2*x"))
    assert canonical_text(_p("x - x")) == "0"
    assert canonical_text(_p("x*y - y*x")) == "0"
    assert to_text(simplify(_p("0*cos(t) + 1*x"))) == "x"
    assert canonical_equal(_p("(x + y)^2"), _p("x^2 + 2*x*y + y^2"))


def test_rational_arithmetic_is_exact():
    e = simplify(_p("1/3 + 1/6"))
    assert to_text(e) == "1/2"
    e = simplify(_p("2/4 * 2"))
    assert to_text(e) == "1"


def test_differentiate_polynomials():
    assert canonical_equal(differentiate(_p("x^3"), "x"), _p("3*x^2"))
    assert canonical_equal(differentiate(_p("x*y + y^2"), "y"), _p("x + 2*y"))
    assert canonical_equal(differentiate(_p("7"), "x"), _p("0"))


def test_differentiate_chain_and_product():
    got = differentiate(_p("sin(x^2)"), "x")
    assert canonical_equal(got, _p("2*x*cos(x^2)"))
    got = differentiate(_p("x*exp(x)"), "x")
    assert canonical_equal(got, _p("exp(x) + x*exp(x)"))
    got = differentiate(_p("ln(x)"), "x")
    assert canonical_equal(got, _p("1/x"))
    got = differentiate(_p("sqrt(x)"), "x")
    want = _p("1/(2*sqrt(x))")
    assert expr_equal(got, want, OracleConfig(seed=SEED, intervals={"x": (0.5, 2.0)}))


def test_quotient_rule_matches_samples():
    got = differentiate(_p("x/(1 + x^2)"), "x")
    want = _p("(1 - x^2)/(1 + x^2)^2")
    assert expr_equal(got, want, OracleConfig(seed=SEED))


def test_substitute_then_eval():
    e = substitute(_p("x^2 + y"), {"x": _p("u + 1")})
    assert canonical_equal(e, _p("u^2 + 2*u + 1 + y"))
    v = eval_numeric(e, {"u": 2.0, "y": -1.0})
    assert v == 8.0


def test_free_vars():
    assert free_vars(_p("x*cos(y) + z")) == frozenset({"x", "y", "z"})
    assert free_vars(_p("3/4")) == frozenset()


def test_sampling_oracle_separates_pythagorean_pair():
    # canonically distinct, numerically equal everywhere
    lhs = _p("cos(t)^2 + sin(t)^2")
    rhs = _p("1")
    assert expr_equal(lhs, rhs, OracleConfig(seed=SEED))
    # and a near miss is caught with a witness point
    wrong = _p("cos(t)^2 + sin(t)^2 + 1/1000")
    witness = sample_compare(wrong, rhs, OracleConfig(samples=40, tol=1e-9, seed=SEED))
    assert witness is not None
    assert abs(witness.left - witness.right) > 1e-9


def test_oracle_equates_the_forms_of_a_sqrt_denominator():
    assert OracleConfig().equal(_p("1/sqrt(x^2 + 2)"), _p("sqrt(x^2 + 2)/(x^2 + 2)"))
    assert not OracleConfig().equal(_p("1/sqrt(x^2 + 2)"), _p("sqrt(x^2 + 2)/(x^2 + 3)"))


def test_sin_and_sqrt_denominators_are_cleared_to_one_pair():
    assert canonical_equal(_p("1/sqrt(x^2+2)"), _p("sqrt(x^2+2)/(x^2+2)"))
    assert canonical_equal(_p("(1-cos(x))/sin(x)"), _p("sin(x)/(1+cos(x))"))
    assert not canonical_equal(_p("1/sqrt(x^2+2)"), _p("sqrt(x^2+2)/(x^2+3)"))


def test_dependent_sqrt_arguments_are_left_to_the_sampling_tier():
    assert not canonical_equal(_p("sqrt(2)*sqrt(3)"), _p("sqrt(6)"))
    assert OracleConfig().equal(_p("sqrt(2)*sqrt(3)"), _p("sqrt(6)"))


def test_a_derivative_keeps_a_sqrt_factor_free_of_the_variable():
    got = differentiate(_p("sqrt(x^2 + 2)*ydot^2"), "ydot")
    assert to_text(got) == "2*sqrt(x^2 + 2)*ydot"


def test_oracle_config_intervals_avoid_singular_points():
    cfg = OracleConfig(samples=30, tol=1e-9, seed=SEED, intervals={"r": (0.5, 1.5)})
    assert cfg.equal(_p("ln(r^2)"), _p("2*ln(r)"))
    assert not cfg.equal(_p("ln(r^2)"), _p("2*ln(r) + r/100"))


def test_eval_numeric_values_and_errors():
    from supersasaki.symexpr import EvalError

    assert eval_numeric(_p("2*t + t^2"), {"t": 3.0}) == 15.0
    assert eval_numeric(_p("sqrt(t)"), {"t": 4.0}) == 2.0
    with pytest.raises(EvalError):
        eval_numeric(_p("1/t"), {"t": 0.0})
    with pytest.raises(EvalError):
        eval_numeric(_p("ln(t)"), {"t": -1.0})
    with pytest.raises(EvalError):
        eval_numeric(_p("x + y"), {"x": 1.0})  # missing assignment


def test_tolerance_separates_a_micro_shift():
    assert not expr_equal(_p("t"), _p("t + 1/1000000"), OracleConfig(tol=1e-9, seed=SEED))
    assert expr_equal(_p("t"), _p("t + 1/1000000"), OracleConfig(tol=1e-3, seed=SEED))


def test_sampling_refuses_settings_that_pass_anything():
    # zero samples or a tolerance of the values' own size would call
    # sin(2*x) equal to x
    with pytest.raises(ValueError, match="samples"):
        OracleConfig(samples=0).equal(_p("sin(2*x)"), _p("x"))
    with pytest.raises(ValueError, match="tol"):
        OracleConfig(tol=10).equal(_p("sin(x)"), _p("x"))
    with pytest.raises(ValueError, match="tol"):
        OracleConfig(tol=0.0)
    assert not OracleConfig(samples=1).equal(_p("sin(2*x)"), _p("x"))


def test_oracle_config_refuses_settings_that_pass_anything_when_built():
    # refused before any comparison, so also before one the exact tier
    # decides: OracleConfig(samples=0).equal(x, x) used to answer True
    for settings in ({"samples": 0}, {"samples": -3}):
        with pytest.raises(ValueError, match="samples"):
            OracleConfig(**settings)
    for settings in ({"tol": 0.0}, {"tol": 1.0}, {"tol": 10}):
        with pytest.raises(ValueError, match="tol"):
            OracleConfig(**settings)
    assert OracleConfig(samples=1, tol=0.5).equal(_p("x"), _p("x"))


def test_sampler_stream_is_pinned():
    # the first draw of the sampling tier's stream, recorded before hashlib
    # moved into _rng_for; a drift here would change sampled verdicts
    assert _rng_for(0, ("x", "y")).random() == 0.8694902934207004
    assert _rng_for(7, ("a", "s", "t")).random() == 0.864408438146216


def test_nodes_compare_by_class_and_fields():
    x, y = Var("x"), Var("y")
    assert Add((x, y)) != Mul((x, y))
    assert Add((x, y)) == Add((Var("x"), Var("y")))
    assert Const(1) == Const(Fraction(1))
    assert hash(Const(1)) == hash(Const(Fraction(1)))
    assert type(Const(1).value) is Fraction
    assert type(Const(Fraction(3, 2)).value) is Fraction
    assert Pow(x, 2) != Pow(x, 3)
    assert Call("sin", x) != Call("cos", x)


def test_hashing_a_tree_runs_no_python_level_hash(monkeypatch):
    # to_canonical's cache hashes every tree it is asked for
    def build():
        x = Var("x")
        cubic = Mul((Const(Fraction(1, 2)), Pow(x, 3)))
        return Div(Add((cubic, Const(Fraction(-2, 3)))), Call("sqrt", Add((x, Const(2)))))

    def refuse(self):
        raise AssertionError("Fraction.__hash__ ran")

    a, b = build(), build()
    monkeypatch.setattr(Fraction, "__hash__", refuse)
    python_hashes = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__hash__":
            python_hashes.append(frame.f_code.co_filename)

    sys.setprofile(watch)
    try:
        ha, hb = hash(a), hash(b)
    finally:
        sys.setprofile(None)
    assert python_hashes == []
    assert a is not b and a == b and ha == hb


def test_operators_build_nodes_not_tuple_concatenation_or_repetition():
    x = Var("x")
    built = [x + 1, x - 1, 2 * x, -x, x**2, 1 / x]
    assert [type(e) for e in built] == [Add, Add, Mul, Mul, Pow, Div]
    assert [to_text(e) for e in built] == ["x + 1", "x - 1", "2*x", "-x", "x^2", "1/x"]


def test_nodes_refuse_bad_fields():
    with pytest.raises(TypeError, match="exponent"):
        Pow(Var("x"), True)
    with pytest.raises(ValueError, match="unknown function"):
        Call("tan", Var("x"))


def test_simplify_is_idempotent_on_random_trees():
    rng = random.Random(SEED)
    atoms = ["x", "y", "2", "1/3", "sin(x)", "exp(y)"]
    ops = ["{} + {}", "{} - {}", "{}*{}", "({})^2"]
    exprs = list(atoms)
    for _ in range(30):
        template = rng.choice(ops)
        if template.count("{}") == 2:
            text = template.format(rng.choice(exprs), rng.choice(exprs))
        else:
            text = template.format(rng.choice(exprs))
        exprs.append(text)
    for text in exprs:
        once = simplify(_p(text))
        twice = simplify(once)
        assert to_text(once) == to_text(twice), f"simplify not idempotent on {text!r}"


def test_oracle_is_deterministic_under_seed():
    a = _p("exp(x)*exp(y)")
    b = _p("exp(x + y)")
    cfg = OracleConfig(samples=25, tol=1e-9, seed=7)
    first = sample_compare(a, b, cfg)
    second = sample_compare(a, b, cfg)
    assert first is None and second is None
    rng = random.Random(3)
    pts = [rng.uniform(-1, 1) for _ in range(5)]
    for x in pts:
        assert abs(eval_numeric(a, {"x": x, "y": 0.25}) - eval_numeric(b, {"x": x, "y": 0.25})) < 1e-12
