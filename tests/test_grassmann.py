import random
import re

import pytest

from supersasaki.grassmann import (
    EVEN,
    ODD,
    GeneratorTable,
    GradedError,
    GradedExpr,
    extend_to,
    gmul,
    graded_equal,
    graded_to_text,
    gsubstitute,
    parse_graded,
    parity_of,
    partial,
    restrict_to,
)
from supersasaki.symexpr import canonical_text, parse_expr, to_text

T = GeneratorTable.of(("x", EVEN), ("y", EVEN), ("dx", ODD), ("dy", ODD))


def _g(text, table=T):
    return parse_graded(text, table)


def test_tables_built_separately_compare_equal():
    other = GeneratorTable.of(("x", EVEN), ("y", EVEN), ("dx", ODD), ("dy", ODD))
    assert other is not T
    assert other == T and hash(other) == hash(T)
    assert GeneratorTable.of(("x", EVEN), ("dx", ODD)) != T
    # operands over equal tables add
    assert graded_to_text(_g("x*dx") + _g("dy", other)) == "x*dx + dy"


def test_odd_generators_anticommute_and_square_to_zero():
    dx = GradedExpr.generator(T, "dx")
    dy = GradedExpr.generator(T, "dy")
    assert gmul(dx, dx).is_zero()
    assert gmul(dy, dy).is_zero()
    assert (gmul(dx, dy) + gmul(dy, dx)).is_zero()
    assert graded_to_text(gmul(dy, dx)) == "-dx*dy"


def test_even_generators_commute_with_everything():
    x = GradedExpr.generator(T, "x")
    dx = GradedExpr.generator(T, "dx")
    assert graded_equal(gmul(x, dx), gmul(dx, x))
    assert graded_to_text(gmul(x, dx)) == "x*dx"


def test_koszul_sign_on_four_factors():
    # dx dy dx dy = 0, dx dy dy dx = 0, and swapping the middle pair flips sign
    dx = GradedExpr.generator(T, "dx")
    dy = GradedExpr.generator(T, "dy")
    assert gmul(gmul(dx, dy), gmul(dx, dy)).is_zero()
    lhs = gmul(gmul(dx, dy), gmul(dy, dx))
    assert lhs.is_zero()


def test_parse_graded_keeps_written_order_signs():
    # writing dy*dx must mean the product in that order
    f = _g("dy*dx")
    g = _g("-dx*dy")
    assert graded_equal(f, g)
    h = _g("x*dy*dx + dx*dy")
    assert graded_to_text(h) == "(-x + 1)*dx*dy"


def test_parity_bookkeeping():
    assert parity_of(_g("x^2 + y")) == EVEN
    assert parity_of(_g("dx*y + dy")) == ODD
    assert parity_of(_g("dx*dy")) == EVEN
    assert parity_of(_g("x + dx")) is None  # mixed, no definite parity
    assert parity_of(GradedExpr.zero(T)) is None or parity_of(GradedExpr.zero(T)) in (EVEN, ODD)


def test_epsilon_drops_nilpotents():
    f = _g("x^2 + 3*dx*dy + y*dx")
    assert canonical_text(f.body()) == canonical_text(parse_expr("x^2"))


def test_left_partial_signs():
    # d/d(dx) acts from the left: on dx*dy it gives dy, on dy*dx it gives -dy
    f = _g("dx*dy")
    assert graded_to_text(partial(f, "dx")) == "dy"
    g = _g("dy*dx")
    assert graded_to_text(partial(g, "dx")) == "-dy"
    # even derivative is plain
    h = _g("x^2*dx")
    assert graded_to_text(partial(h, "x")) == "2*x*dx"
    # Leibniz check on a product of one even and two odd factors
    k = _g("y*dx*dy")
    assert graded_to_text(partial(k, "dy")) == "-y*dx"


def test_substitute_even_for_even_and_odd_for_odd():
    U = GeneratorTable.of(("u", EVEN), ("du", ODD))
    f = _g("x*dx + y*dy")
    images = {
        "x": parse_graded("u^2", U),
        "y": parse_graded("u", U),
        "dx": parse_graded("2*u*du", U),
        "dy": parse_graded("du", U),
    }
    got = gsubstitute(f, images, U)
    want = parse_graded("2*u^3*du + u*du", U)
    assert graded_equal(got, want)


def test_substitute_parity_violation_rejected():
    U = GeneratorTable.of(("u", EVEN), ("du", ODD))
    f = _g("dx")
    with pytest.raises(GradedError):
        gsubstitute(f, {"dx": parse_graded("u", U)}, U)


def test_even_image_with_a_nilpotent_part_is_refused():
    # chart changes send even generators to scalars; a soul would need a
    # Taylor expansion of each coefficient around the body
    U = GeneratorTable.of(("u", EVEN), ("v", EVEN), ("du", ODD), ("dv", ODD))
    f = _g("x^2*dy")
    images = {"x": parse_graded("u + du*dv", U), "dx": parse_graded("du", U)}
    with pytest.raises(GradedError, match="nilpotent"):
        gsubstitute(f, images, U)


def test_parse_graded_refuses_odd_generators_under_a_quotient_power_or_function():
    # such text would need a Taylor expansion around the body; the error
    # names the subterm
    for text, subterm in (
        ("x*dx + 1/(1 + dx*dy)", "1/(1 + dx*dy)"),
        ("(x + dx*dy)^-1", "(x + dx*dy)^-1"),
        ("exp(dx*dy)", "exp(dx*dy)"),
        ("y + sqrt(1 + dx*dy)", "sqrt(1 + dx*dy)"),
    ):
        with pytest.raises(GradedError, match=f"odd generators inside .*: {re.escape(subterm)}$"):
            _g(text)
    # an odd numerator over an odd-free divisor is a scalar multiple
    assert graded_to_text(_g("x*dx/(1 + y) + dy/2")) == "x/(y + 1)*dx + 1/2*dy"


def test_tables_must_be_leading_parts_of_each_other():
    longer = GeneratorTable(T + (("z", EVEN), ("dz", ODD)))
    f = _g("x*dx + y*dx*dy")
    assert graded_to_text(extend_to(f, longer)) == graded_to_text(f)
    assert restrict_to(extend_to(f, longer), T).terms == f.terms
    # same names in another order: not a reinterpretation
    permuted = GeneratorTable.of(("y", EVEN), ("x", EVEN), ("dx", ODD), ("dy", ODD), ("z", EVEN))
    with pytest.raises(GradedError, match="leading part"):
        extend_to(f, permuted)
    with pytest.raises(GradedError, match="leading part"):
        restrict_to(extend_to(f, longer), GeneratorTable.of(("x", EVEN), ("dx", ODD)))
    with pytest.raises(GradedError, match="not in target"):
        restrict_to(extend_to(f, longer) + _g("z", longer), T)


def test_unimaged_generator_must_exist_in_target():
    U = GeneratorTable.of(("x", EVEN), ("du", ODD))
    f = _g("x + dx")
    with pytest.raises(GradedError):
        gsubstitute(f, {"dx": parse_graded("du", U)}, U)  # fine, x carries over
        gsubstitute(f, {}, U)  # dx missing from target


def test_graded_equality_uses_scalar_oracle_per_monomial():
    f = _g("(cos(x)^2 + sin(x)^2)*dx*dy")
    g = _g("dx*dy")
    assert graded_equal(f, g)
    assert not graded_equal(f + _g("dx").scale(parse_expr("1/1000")), g)


def test_randomized_associativity_and_distributivity():
    rng = random.Random(99)
    pool = ["x", "y", "dx", "dy", "x*dx", "y*dy", "dx*dy", "x*y", "x + dx*dy"]
    for _ in range(25):
        f = _g(rng.choice(pool))
        g = _g(rng.choice(pool))
        h = _g(rng.choice(pool))
        lhs = gmul(gmul(f, g), h)
        rhs = gmul(f, gmul(g, h))
        assert graded_equal(lhs, rhs), "associativity broke"
        lhs = gmul(f, g + h)
        rhs = gmul(f, g) + gmul(f, h)
        assert graded_equal(lhs, rhs), "distributivity broke"


def test_supercommutativity_sign_table():
    rng = random.Random(5)
    odds = ["dx", "y*dy", "x*dx + dy"]
    evens = ["x", "dx*dy", "y^2 + dx*dy"]
    for _ in range(10):
        a = _g(rng.choice(odds))
        b = _g(rng.choice(odds))
        assert graded_equal(gmul(a, b), -gmul(b, a)), "odd*odd should anticommute"
        c = _g(rng.choice(evens))
        assert graded_equal(gmul(c, a), gmul(a, c)), "even factors should be central"


def test_unit_plus_odd_expansion():
    one = GradedExpr.one(T)
    dx = GradedExpr.generator(T, "dx")
    dy = GradedExpr.generator(T, "dy")
    product = gmul(one + dx, one + dy)
    assert graded_equal(product, _g("1 + dx + dy + dx*dy"))


def test_substitution_swap_picks_up_reordering_sign():
    T2 = GeneratorTable.of(("xi", ODD), ("eta", ODD))
    f = parse_graded("xi*eta", T2)
    got = gsubstitute(
        f,
        {"xi": parse_graded("eta", T2), "eta": parse_graded("xi", T2)},
        T2,
    )
    # eta*xi = -xi*eta
    assert graded_to_text(got) == "-xi*eta"


def test_epsilon_is_an_algebra_morphism():
    rng = random.Random(12)
    pool = ["x", "y^2", "1 + x*dx*dy", "dx", "y*dy", "x*y + dx*dy", "3/2"]
    for _ in range(20):
        f = _g(rng.choice(pool))
        g = _g(rng.choice(pool))
        lhs = gmul(f, g).body()
        rhs = parse_expr(f"({to_text(f.body())})*({to_text(g.body())})")
        assert canonical_text(lhs) == canonical_text(rhs), "epsilon broke on a product"


def test_render_parse_round_trip():
    texts = ["x*dx + y*dy", "dx*dy", "x^2 + 2*y", "-dx", "(x + y)*dx*dy + x"]
    for t in texts:
        f = _g(t)
        printed = graded_to_text(f)
        again = _g(printed)
        assert graded_equal(f, again), f"round trip failed on {t!r}"
