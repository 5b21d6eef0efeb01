"""Property tests for the algebra the identity checks rest on: the
canonical form every stored coefficient is in, the polynomial ring under
it, first-order operator application, the graded product and chart
substitution."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from supersasaki.geometry import Chart, GeometryError, matrix_inverse, matrix_mul
from supersasaki.grassmann import (
    EVEN,
    ODD,
    GradedExpr,
    _merge_with_sign,
    gmul,
    graded_equal,
    gsubstitute,
    parity_of,
    parse_graded,
    partial,
)
from supersasaki.sasakilift import (
    apply_first_order,
    field_operator,
    odd_fiber_name,
    ptm_table,
    random_field,
)
from supersasaki.symexpr import (
    FUNCTIONS,
    ONE,
    ZERO,
    Add,
    Call,
    Const,
    Div,
    EvalError,
    Mul,
    OracleConfig,
    Pow,
    Var,
    differentiate,
    eval_numeric,
    is_zero_expr,
    parse_expr,
    simplify,
    to_text,
)
from supersasaki.symexpr import canonical
from supersasaki.symexpr.canonical import (
    Poly,
    _coeffs_in,
    _div_exact,
    _recompose,
    _reduce_pass,
    add_pairs,
    canonicalize,
    diff_pair,
    mul_pairs,
    pair_to_expr,
    poly_gcd,
    rat_add,
    sum_of_products,
    to_canonical,
)
from supersasaki.transform import SmoothMap, prolong

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)
TREE_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)
PAIR_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)

CHARTS = (
    Chart(("x", "y"), intervals={"x": (-1.0, 1.0), "y": (-1.0, 1.0)}, name="euclidean2"),
    Chart(("r", "theta"), intervals={"r": (0.4, 1.6), "theta": (0.1, 1.3)}, name="polar"),
)


def _coefficient(draw, chart):
    """A small integer polynomial in the chart coordinates."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [Const(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))]
        for c in chart.coords:
            k = draw(st.integers(0, 2))
            if k:
                factors.append(Pow(Var(c), k))
        terms.append(Mul.of(*factors))
    return Add.of(*terms)


@st.composite
def homogeneous(draw, chart, parity):
    """A homogeneous graded polynomial of the given parity over the chart's
    odd tangent bundle table."""
    table = ptm_table(chart)
    odd = [table.index(odd_fiber_name(c)) for c in chart.coords]
    monomials = [m for m in ([()] + [(i,) for i in odd] + [tuple(odd)]) if len(m) % 2 == parity]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, unique=True))
    return GradedExpr.make(table, [(mono, _coefficient(draw, chart)) for mono in chosen])


def _sign(p, q):
    return Const(-1 if p * q % 2 else 1)


def _config(chart):
    return OracleConfig(samples=20, tol=1e-9, seed=0, intervals=chart.intervals)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_empty_operator_gives_zero(data):
    chart = data.draw(st.sampled_from(CHARTS))
    f = data.draw(homogeneous(chart, data.draw(st.sampled_from((EVEN, ODD)))))
    out = apply_first_order((), f)
    assert out.is_zero()
    assert out.table == f.table


@PROPERTY_SETTINGS
@given(data=st.data())
def test_operator_obeys_the_graded_leibniz_rule(data):
    # U(f g) = U(f) g + (-1)^{|U||f|} f U(g)
    chart = data.draw(st.sampled_from(CHARTS))
    pu, pf, pg = (data.draw(st.sampled_from((EVEN, ODD))) for _ in range(3))
    U = random_field(chart, pu, random.Random(data.draw(st.integers(0, 10**6))))
    f = data.draw(homogeneous(chart, pf))
    g = data.draw(homogeneous(chart, pg))
    op = field_operator(U)
    lhs = apply_first_order(op, gmul(f, g))
    rhs = gmul(apply_first_order(op, f), g) + gmul(
        f, apply_first_order(op, g)
    ).scale(_sign(pu, pf))
    assert graded_equal(lhs, rhs, _config(chart))
    assert parity_of(lhs) == (pu + pf + pg) % 2 or lhs.is_zero()


@PROPERTY_SETTINGS
@given(data=st.data())
def test_gmul_is_associative_and_graded_commutative(data):
    chart = data.draw(st.sampled_from(CHARTS))
    pf, pg, ph = (data.draw(st.sampled_from((EVEN, ODD))) for _ in range(3))
    f, g, h = (data.draw(homogeneous(chart, p)) for p in (pf, pg, ph))
    cfg = _config(chart)
    assert graded_equal(gmul(gmul(f, g), h), gmul(f, gmul(g, h)), cfg)
    assert graded_equal(gmul(f, g), gmul(g, f).scale(_sign(pf, pg)), cfg)


POLAR_TO_CARTESIAN = SmoothMap(
    CHARTS[1], CHARTS[0], (parse_expr("r*cos(theta)"), parse_expr("r*sin(theta)"))
)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_chart_substitution_is_an_algebra_morphism(data):
    # f, g over the Cartesian odd tangent bundle, pulled back to ptm_table(polar)
    # through the prolonged images of polar_to_cartesian
    psi = POLAR_TO_CARTESIAN
    target = ptm_table(psi.source)
    images = prolong(psi, target)
    f, g = (
        data.draw(homogeneous(psi.target, EVEN)) + data.draw(homogeneous(psi.target, ODD))
        for _ in range(2)
    )

    def pull(h):
        return gsubstitute(h, images, target)

    cfg = _config(psi.source)
    assert graded_equal(pull(f + g), pull(f) + pull(g), cfg)
    assert graded_equal(pull(gmul(f, g)), gmul(pull(f), pull(g)), cfg)


@st.composite
def transcendental(draw, chart):
    """A small polynomial in the chart coordinates and in sqrt, sin and ln
    atoms of them, over a product of factors drawn from a short list, so
    that the denominators of two draws often share a factor; not in
    canonical form."""
    x, y = (Var(c) for c in chart.coords)
    u = Add.of(Pow(x, 2), Const(2))
    atoms = (x, y, Call("sqrt", u), Call("sin", y), Call("ln", u))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        factors = [Const(draw(st.sampled_from((-2, -1, 1, 3))))]
        for atom in draw(st.lists(st.sampled_from(atoms), max_size=2)):
            factors.append(Pow(atom, draw(st.integers(1, 2))))
        terms.append(Mul.of(*factors))
    den_factors = draw(st.lists(st.sampled_from((x, y, u) + atoms[2:4]), max_size=2))
    den = [Pow(d, draw(st.integers(1, 2))) for d in den_factors]
    e = Div(Add.of(*terms), Mul.of(*den)) if den else Add.of(*terms)
    _simplified(e)
    return e


@st.composite
def graded_transcendental(draw, chart):
    """A graded polynomial of mixed parity over the chart's odd tangent
    bundle table, with transcendental coefficients."""
    table = ptm_table(chart)
    odd = [table.index(odd_fiber_name(c)) for c in chart.coords]
    monomials = [(), *((i,) for i in odd), tuple(odd)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, unique=True))
    return GradedExpr.make(table, [(m, draw(transcendental(chart))) for m in chosen])


def _assert_coefficients(h, expected):
    """Each coefficient of h is simplify of the expected tree (ZERO where
    none is expected), byte for byte."""
    for mono in set(h.terms) | set(expected):
        assert h.coefficient(mono) == simplify(expected.get(mono, ZERO)), mono


def _product_trees(f, g):
    """Per monomial of f*g, the tree summing its signed coefficient products."""
    products = {}
    for m1 in f.terms:
        for m2 in g.terms:
            merged, sign = _merge_with_sign(m1, m2)
            if merged is not None:
                piece = Mul.of(Const(sign), f.coefficient(m1), g.coefficient(m2))
                products[merged] = Add.of(products.get(merged, ZERO), piece)
    return products


def test_gmul_gives_one_pair_for_any_summation_order():
    # both products on dx*dy meet sqrt(u); summing them in either order, or
    # reducing each before summing, gives the same pair
    chart = CHARTS[0]
    table = ptm_table(chart)
    dx, dy = (table.index(odd_fiber_name(c)) for c in chart.coords)
    f = GradedExpr.make(table, [((dx,), _coord_expr("sqrt(x^2 + 2)/y")), ((dy,), _coord_expr("y"))])
    g = GradedExpr.make(
        table, [((dy,), _coord_expr("x/sqrt(x^2 + 2)")), ((dx,), _coord_expr("1/sqrt(x^2 + 2)"))]
    )
    h = gmul(f, g)
    _assert_coefficients(h, _product_trees(f, g))
    pieces = [(1, f.terms[(dx,)], g.terms[(dy,)]), (-1, f.terms[(dy,)], g.terms[(dx,)])]
    pair = h.terms[(dx, dy)]
    assert sum_of_products(pieces[::-1]) == pair
    n, d = mul_pairs(*pieces[1][1:])
    assert add_pairs(mul_pairs(*pieces[0][1:]), (n.scale(-1), d)) == pair
    assert gmul(g, f).scale(-1).terms[(dx, dy)] == pair
    assert to_text(h.coefficient((dx, dy))) == (
        "(-(sqrt(x^2 + 2)*y^2) + x^3 + 2*x)/(x^2*y + 2*y)"
    )


def _coord_expr(text):
    return parse_expr(text, ("x", "y"))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_graded_arithmetic_on_pairs_matches_simplify_of_trees(data):
    # the stored pairs must print as what simplify gives for the tree built
    # from the operands' coefficients, so that no report changes with them
    chart = data.draw(st.sampled_from(CHARTS))
    f, g = (data.draw(graded_transcendental(chart)) for _ in range(2))
    c = data.draw(transcendental(chart))
    name = data.draw(st.sampled_from(f.table.names))

    monos = set(f.terms) | set(g.terms)
    _assert_coefficients(f + g, {m: Add.of(f.coefficient(m), g.coefficient(m)) for m in monos})

    _assert_coefficients(gmul(f, g), _product_trees(f, g))

    _assert_coefficients(f.scale(c), {m: Mul.of(c, f.coefficient(m)) for m in f.terms})
    _assert_coefficients(-f, {m: Mul.of(Const(-1), f.coefficient(m)) for m in f.terms})

    idx = f.table.index(name)
    if f.table.parity(name) == EVEN:
        derivs = {m: differentiate(f.coefficient(m), name) for m in f.terms}
    else:
        derivs = {
            m[: m.index(idx)] + m[m.index(idx) + 1 :]: Mul.of(
                Const((-1) ** m.index(idx)), f.coefficient(m)
            )
            for m in f.terms
            if idx in m
        }
    _assert_coefficients(partial(f, name), derivs)


SCALAR_TREES = st.recursive(
    st.one_of(
        st.sampled_from([Var("x"), Var("y")]),
        st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(-3, 3), st.integers(1, 3)),
    ),
    lambda kids: st.one_of(
        st.builds(Add.of, kids, kids),
        st.builds(Mul.of, kids, kids),
        st.builds(Div, kids, kids),
        st.builds(Pow, kids, st.integers(-2, 3)),
        st.builds(Call, st.sampled_from(("sin", "sqrt", "exp")), kids),
    ),
    max_leaves=4,
)


@TREE_SETTINGS
@given(data=st.data())
def test_parse_graded_folds_each_odd_free_subtree_as_one_scalar(data):
    # a sum of scalar trees times odd generators in written order parses to
    # the sum built from GradedExpr.scalar and gmul, pair for pair
    table = ptm_table(CHARTS[0])
    texts, want = [], GradedExpr.zero(table)
    for _ in range(data.draw(st.integers(1, 3))):
        s = data.draw(SCALAR_TREES)
        _simplified(s)
        odd = data.draw(st.lists(st.sampled_from(("dx", "dy")), max_size=3))
        term = GradedExpr.scalar(table, s)
        for w in odd:
            term = gmul(term, GradedExpr.generator(table, w))
        want = want + term
        texts.append("*".join([f"({to_text(s)})", *odd]))
    assert parse_graded(" + ".join(texts), table).terms == want.terms


@PAIR_SETTINGS
@given(data=st.data())
def test_a_factor_q_over_q_leaves_the_pair_alone(data):
    # q has a sin or sqrt atom, so e*q/q puts one into the denominator; the
    # canonical form clears it, so equal values get identical pairs
    chart = data.draw(st.sampled_from(CHARTS))
    x, y = (Var(c) for c in chart.coords)
    s = data.draw(st.sampled_from((Call("sqrt", Add.of(Pow(x, 2), Const(2))), Call("sin", y))))
    k = data.draw(st.sampled_from((-1, 2)))
    q = Add.of(data.draw(transcendental(chart)), Mul.of(Const(k), s))
    _simplified(Div(ONE, q))  # rejects a q that is zero
    e = data.draw(transcendental(chart))
    assert to_canonical(Div(Mul.of(e, q), q)) == to_canonical(e)


# ---------------------------------------------------------------------------
# Poly: the ring the canonical form computes in

ATOMS = (Var("x"), Var("y"))


@st.composite
def polys(draw, atoms=ATOMS):
    """A polynomial in the atoms, x and y by default, with small integer
    coefficients."""
    total = Poly.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = Poly.const(draw(st.integers(-3, 3)))
        for atom in atoms:
            term = term * Poly.from_atom(atom) ** draw(st.integers(0, 2))
        total = total + term
    return total


@PROPERTY_SETTINGS
@given(p=polys(), q=polys(), r=polys())
def test_poly_ring_laws(p, q, r):
    zero, one = Poly.zero(), Poly.const(1)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert p - p == zero


@PROPERTY_SETTINGS
@given(p=polys(), q=polys(), c=polys())
def test_poly_gcd_divides_both_arguments(p, q, c):
    # a common factor c makes the gcd nontrivial; it must divide the gcd too
    a, b = c * p, c * q
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    for h in (a, b):
        assert _div_exact(h, g) * g == h
    if not c.is_zero():
        assert _div_exact(g, c) * c == g


def _prs_gcd(a, b):
    """poly_gcd with the modular test and the monomial split switched off:
    the PRS alone."""
    with mock.patch.object(canonical, "_coprime", lambda a, b: False), \
            mock.patch.object(canonical, "_shared_monomial", lambda a, b: ()):
        return poly_gcd(a, b)


@PAIR_SETTINGS
@given(p=polys(ATOMS + (Var("z"),)), q=polys(ATOMS + (Var("z"),)), c=polys(ATOMS))
def test_modular_test_skips_only_a_prs_that_ends_at_a_constant(p, q, c):
    # a planted factor c, and sometimes an atom only one side has
    a, b = c * p, c * q
    assert poly_gcd(a, b) == _prs_gcd(a, b)
    if not (a.is_zero() or b.is_zero()) and canonical._coprime(a, b):
        assert _prs_gcd(a, b).is_const()


@st.composite
def monomials(draw, atoms=ATOMS + (Var("z"),)):
    """A monomial in the atoms with coefficient 1, possibly 1 itself."""
    return Poly({tuple((v, e) for v in atoms if (e := draw(st.integers(0, 3)))): 1})


@PAIR_SETTINGS
@given(
    p=polys(ATOMS + (Var("z"),)), q=polys(ATOMS + (Var("z"),)), c=polys(ATOMS),
    shared=monomials(), own=monomials(), k=st.integers(-2, 2),
)
def test_monomial_split_and_modular_test_give_the_prs_gcd(p, q, c, shared, own, k):
    # a planted factor c and a monomial both sides share, a monomial only a
    # has, and a constant term k inside b's cofactor
    a, b = shared * own * c * p, shared * (c * q + Poly.const(k))
    g = poly_gcd(a, b)
    assert g == _prs_gcd(a, b)
    if not (a.is_zero() or b.is_zero()):
        assert _div_exact(g, shared) * shared == g


def test_modular_test_declines_when_a_leading_coefficient_vanishes():
    # x*(y - y0) + 1 and x are coprime, but at the fixed point y = y0 the
    # leading coefficient in x is 0, so the PRS decides
    y0 = pow(3, 65, canonical._PRIME)
    x, y = (Poly.from_atom(v) for v in ATOMS)
    a = x * (y - Poly.const(y0)) + Poly.const(1)
    assert not canonical._coprime(a, x)
    assert poly_gcd(a, x) == Poly.const(1)


@PROPERTY_SETTINGS
@given(p=polys())
def test_univariate_view_recomposes(p):
    for v in ATOMS:
        assert _recompose(_coeffs_in(p, v), v) == p


@PROPERTY_SETTINGS
@given(
    p=polys(),
    func=st.sampled_from(("cos", "ln", "exp")),
    k=st.integers(0, 3),
)
def test_reduce_pass_leaves_a_rewrite_free_polynomial_alone(p, func, k):
    # only powers of sin and sqrt atoms are rewritten
    q = p * Poly.from_atom(Call(func, Var("x")), k) if k else p
    num, den, changed = _reduce_pass(q)
    assert num.terms == q.terms
    assert den == Poly.const(1)
    assert not changed


def test_div_exact_refuses_a_rational_quotient():
    # (x + 1) / (2x + 2) = 1/2 is not an integer polynomial
    x, one = Poly.from_atom(ATOMS[0]), Poly.const(1)
    with pytest.raises(ArithmeticError):
        _div_exact(x + one, x.scale(2) + one.scale(2))


# ---------------------------------------------------------------------------
# canonical form: what values built from simplify output rely on when they
# are zero-tested with == ZERO

TREE_VARS = ("x", "y")

TREES = st.recursive(
    st.one_of(
        st.sampled_from([Var(v) for v in TREE_VARS]),
        st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(-3, 3), st.integers(1, 3)),
    ),
    lambda kids: st.one_of(
        st.builds(Add.of, kids, kids),
        st.builds(Mul.of, kids, kids),
        st.builds(Div, kids, kids),
        st.builds(Pow, kids, st.integers(-3, 3)),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
    ),
    max_leaves=8,
)


def _simplified(e):
    """simplify(e), discarding draws that divide by zero or otherwise fail
    in exact arithmetic (ZeroDivisionError is an ArithmeticError)."""
    try:
        return simplify(e)
    except ArithmeticError:
        reject()


def _rebuild(e):
    """A second, independent build of the tree e: new nodes throughout."""
    if isinstance(e, Const):
        return Const(Fraction(e.value.numerator, e.value.denominator))
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Add):
        return Add(tuple(_rebuild(t) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_rebuild(f) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_rebuild(e.base), e.exponent)
    if isinstance(e, Div):
        return Div(_rebuild(e.num), _rebuild(e.den))
    return Call(e.func, _rebuild(e.arg))


@TREE_SETTINGS
@given(e=TREES)
def test_independent_builds_of_a_tree_are_equal_with_equal_hashes(e):
    # to_canonical's cache finds a tree by hash and equality
    copy = _rebuild(e)
    assert copy is not e
    assert copy == e and not copy != e
    assert hash(copy) == hash(e)


@PROPERTY_SETTINGS
@given(e=TREES, func=st.sampled_from(FUNCTIONS))
def test_atoms_from_equal_trees_are_equal_with_equal_hashes(e, func):
    # a monomial finds its atoms by hash and equality; the atom of a
    # function application is its Call node on the canonical argument
    atom = Call(func, _simplified(e))
    num, den = to_canonical(Call(func, _rebuild(e)))
    assert num.terms == {((atom, 1),): 1} and den == Poly.const(1)
    (stored,) = num.atoms()
    assert stored == atom and hash(stored) == hash(atom)


@TREE_SETTINGS
@given(e=TREES)
def test_simplify_is_a_structural_fixed_point(e):
    s = _simplified(e)
    assert simplify(s) == s


@TREE_SETTINGS
@given(e=TREES)
def test_simplify_keeps_the_canonical_pair(e):
    s = _simplified(e)
    assert to_canonical(s) == to_canonical(e)


@TREE_SETTINGS
@given(e=TREES)
def test_zero_is_the_literal_zero_after_simplify(e):
    s = _simplified(e)
    assert (s == ZERO) == is_zero_expr(e)


@TREE_SETTINGS
@given(e=TREES)
def test_printed_canonical_form_parses_back(e):
    s = _simplified(e)
    assert to_canonical(parse_expr(to_text(s), TREE_VARS)) == to_canonical(s)


# ---------------------------------------------------------------------------
# the stored pair: integer coefficients, unique up to nothing

def _canonical_pair(e):
    try:
        return to_canonical(e)
    except ArithmeticError:
        reject()


@TREE_SETTINGS
@given(e=TREES)
def test_canonical_pair_is_primitive_with_positive_lead(e):
    num, den = _canonical_pair(e)
    coefficients = [*num.terms.values(), *den.terms.values()]
    assert all(type(c) is int for c in coefficients)
    assert math.gcd(*coefficients) == 1
    assert den.terms[den.lead()] > 0
    if num.is_zero():
        assert den == Poly.const(1)


@TREE_SETTINGS
@given(e=TREES, k=st.integers(-6, 6).filter(bool))
def test_canonicalize_divides_out_a_common_integer(e, k):
    num, den = _canonical_pair(e)
    assert canonicalize(num.scale(k), den.scale(k)) == (num, den)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    p=st.integers(-12, 12).filter(bool),
    q=st.integers(1, 12),
)
def test_scaling_by_a_constant_matches_canonicalize(data, p, q):
    # GradedExpr.scale by p/q fixes only the integer content of each pair;
    # the result must be the pair canonicalize gives, exactly
    f = data.draw(graded_transcendental(data.draw(st.sampled_from(CHARTS))))
    scaled = f.scale(Const(Fraction(p, q)))
    assert scaled.terms.keys() == f.terms.keys()
    for mono, (num, den) in f.terms.items():
        assert scaled.terms[mono] == canonicalize(num.scale(p), den.scale(q))


# ---------------------------------------------------------------------------
# arithmetic on canonical pairs: the pair the canonicalize path gives

PAIR_VARS = ("x", "y", "z")


def _pair(text):
    return to_canonical(parse_expr(text, PAIR_VARS))


def _poly(text):
    return _pair(text)[0]


# factors that denominators share, and atoms that the sin/sqrt rewrites touch
PAIR_FACTORS = tuple(map(_poly, ("x", "x + y", "1 + y^2", "1 + z^2", "2")))
PAIR_ATOMS = tuple(map(_poly, ("sqrt(x^2 + 2)", "sin(y)", "exp(z)")))


@st.composite
def shared_factor_pairs(draw):
    """A canonical pair whose numerator and denominator are built from
    powers of a few shared factors, sometimes times a function atom."""

    def product():
        p = Poly.const(draw(st.sampled_from((-3, -1, 1, 2))))
        for f in draw(st.lists(st.sampled_from(PAIR_FACTORS), max_size=3)):
            p = p * f
        if draw(st.integers(0, 3)) == 3:
            p = p * draw(st.sampled_from(PAIR_ATOMS))
        return p

    num = product()
    if draw(st.booleans()):
        num = num + product()
    return canonicalize(num, product())


@PAIR_SETTINGS
@given(a=shared_factor_pairs(), b=shared_factor_pairs())
def test_add_pairs_matches_canonicalize(a, b):
    assert add_pairs(a, b) == canonicalize(*rat_add(a, b))
    n, d = a
    assert add_pairs(a, (n.scale(-1), d)) == (Poly.zero(), Poly.const(1))


@PAIR_SETTINGS
@given(a=shared_factor_pairs(), b=shared_factor_pairs())
def test_mul_pairs_matches_canonicalize(a, b):
    (n1, d1), (n2, d2) = a, b
    assert mul_pairs(a, b) == canonicalize(n1 * n2, d1 * d2)


@PROPERTY_SETTINGS
@given(
    pieces=st.lists(
        st.tuples(
            st.sampled_from((1, -1)),
            shared_factor_pairs().filter(lambda p: not p[0].is_zero()),
            shared_factor_pairs().filter(lambda p: not p[0].is_zero()),
        ),
        min_size=1,
        max_size=2,
    )
)
def test_sum_of_products_matches_one_canonicalize_of_the_sum(pieces):
    total = None
    for sign, (n1, d1), (n2, d2) in pieces:
        piece = ((n1 * n2).scale(sign), d1 * d2)
        total = piece if total is None else rat_add(total, piece)
    assert sum_of_products(pieces) == canonicalize(*total)


def _cross_multiplied(e):
    """The unreduced pair of e: every denominator in the tree multiplied
    into one, a function's argument put in canonical form by the same
    route."""
    one = Poly.const(1)
    if isinstance(e, Const):
        return Poly.const(e.value.numerator), Poly.const(e.value.denominator)
    if isinstance(e, Var):
        return Poly.from_atom(e), one
    if isinstance(e, Add):
        pair = Poly.zero(), one
        for t in e.terms:
            pair = rat_add(pair, _cross_multiplied(t))
        return pair
    if isinstance(e, Mul):
        num, den = one, one
        for f in e.factors:
            fn, fd = _cross_multiplied(f)
            num, den = num * fn, den * fd
        return num, den
    if isinstance(e, Pow):
        bn, bd = _cross_multiplied(e.base)
        k = e.exponent
        if k < 0 and bn.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return (bn**k, bd**k) if k >= 0 else (bd ** (-k), bn ** (-k))
    if isinstance(e, Div):
        nn, nd = _cross_multiplied(e.num)
        dn, dd = _cross_multiplied(e.den)
        return nn * dd, nd * dn
    arg = pair_to_expr(canonicalize(*_cross_multiplied(e.arg)))
    return Poly.from_atom(Call(e.func, arg)), one


def _pair_or_zero_division(route, e):
    try:
        return route(e)
    except ZeroDivisionError:
        return None


ZERO_PROBES = ({"x": 0.5, "y": 1 / 3, "z": 0.25}, {"x": -2 / 3, "y": -0.2, "z": -0.75})


def _divides_by_zero(e):
    """True when the denominator of a quotient or a negative power in e is
    zero at a probe point where it is defined, or defined at none."""
    if isinstance(e, (Const, Var)):
        return False
    if isinstance(e, Call):
        return _divides_by_zero(e.arg)
    den = None
    if isinstance(e, Div):
        kids, den = (e.num, e.den), e.den
    elif isinstance(e, Pow):
        kids, den = (e.base,), e.base if e.exponent < 0 else None
    else:
        kids = e.terms if isinstance(e, Add) else e.factors
    if den is not None:
        values = []
        for point in ZERO_PROBES:
            try:
                values.append(eval_numeric(den, point))
            except EvalError:
                pass
        if not values or any(abs(v) < 1e-9 for v in values):
            return True
    return any(map(_divides_by_zero, kids))


def _trees(calls, max_leaves):
    """Sums, products, quotients and integer powers of x, y and small
    constants, and of the trees calls(kids) draws."""
    return st.recursive(
        st.one_of(
            st.sampled_from([Var("x"), Var("y")]),
            st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(-3, 3), st.integers(1, 3)),
        ),
        lambda kids: st.one_of(
            st.builds(Add.of, kids, kids),
            st.builds(Mul.of, kids, kids),
            st.builds(Div, kids, kids),
            st.builds(Pow, kids, st.integers(-3, 3)),
            calls(kids),
        ),
        max_leaves=max_leaves,
    )


def _calls(kids):
    return st.builds(Call, st.sampled_from(("sin", "cos", "exp", "ln")), kids)


# sqrt(u + z) with u free of z is never the square of a rational function,
# the case in which equal values can have two canonical pairs
ROOTS = st.builds(
    lambda u: Call("sqrt", Add.of(u, Var("z"))), _trees(_calls, max_leaves=4)
)

# negative powers, quotients by sums that hold sin and sqrt atoms, and
# calls nested in calls
FOLD_TREES = _trees(
    lambda kids: st.one_of(
        _calls(kids),
        ROOTS,
        st.builds(
            lambda n, a, atom: Div(n, Add.of(a, atom)),
            kids, kids, st.one_of(st.builds(Call, st.just("sin"), kids), ROOTS),
        ),
    ),
    max_leaves=8,
)


@PAIR_SETTINGS
@given(e=FOLD_TREES)
def test_to_canonical_matches_one_canonicalize_of_the_cross_multiplied_pair(e):
    # folding the pair operations over the tree gives the pair, or the
    # division by zero, that one canonicalize of the whole product gives
    def reference(e):
        return canonicalize(*_cross_multiplied(e))

    folded = _pair_or_zero_division(to_canonical, e)
    expected = _pair_or_zero_division(reference, e)
    if folded is None and expected is not None:
        # the fold refuses every zero denominator, where cross multiplying
        # can hide one: x/(x/0) came out as 0 and (x/0)^0 as 1
        assert _divides_by_zero(e)
    else:
        assert folded == expected


def _tree_derivative(e, name):
    """d(e)/d(name) as an unsimplified tree, by the textbook rules."""

    def d(f):
        return _tree_derivative(f, name)

    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return Add.of(*map(d, e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add.of(*(Mul.of(d(f), *fs[:i], *fs[i + 1 :]) for i, f in enumerate(fs)))
    if isinstance(e, Pow):
        return Mul.of(Const(e.exponent), Pow(e.base, e.exponent - 1), d(e.base))
    if isinstance(e, Div):
        top = Add.of(Mul.of(d(e.num), e.den), Mul.of(Const(-1), e.num, d(e.den)))
        return Div(top, Pow(e.den, 2))
    outer = {
        "sin": Call("cos", e.arg),
        "cos": Mul.of(Const(-1), Call("sin", e.arg)),
        "exp": e,
        "sqrt": Div(ONE, Mul.of(Const(2), e)),
        "ln": Div(ONE, e.arg),
    }[e.func]
    return Mul.of(outer, d(e.arg))


@PAIR_SETTINGS
@given(p=shared_factor_pairs(), name=st.sampled_from(PAIR_VARS))
def test_diff_pair_matches_the_tree_path(p, name):
    assert diff_pair(p, name) == to_canonical(_tree_derivative(pair_to_expr(p), name))


def test_add_pairs_cancels_the_new_numerator_against_the_shared_factor():
    # y/(x(x + y)) + 1/(x + y) = 1/x, and x/(x + y) + y/(x + y) = 1
    one, x = Poly.const(1), _poly("x")
    assert add_pairs(_pair("y/(x*(x + y))"), _pair("1/(x + y)")) == (one, x)
    assert add_pairs(_pair("x/(x + y)"), _pair("y/(x + y)")) == (one, one)


def test_canonicalize_cancels_a_shared_monomial_and_a_shared_polynomial():
    # 4x^3 y (x + y)(x - 1) / (-6x^2 y^2 (x + y)(y + 2)) = -2x(x - 1)/(3y(y + 2))
    x, y = _poly("x"), _poly("y")
    shared = x * x * y * (x + y)
    num = shared * x * (x - Poly.const(1)) * Poly.const(4)
    den = shared * y * (y + Poly.const(2)) * Poly.const(-6)
    reduced = (x * (x - Poly.const(1))).scale(-2), (y * (y + Poly.const(2))).scale(3)
    assert canonicalize(num, den) == reduced


def test_diff_pair_cancels_against_a_denominator_free_of_the_variable():
    # d/dx of (x + x*y^2 + y)/(1 + y^2) is 1: the gcd of n' with d cancels
    assert diff_pair(_pair("(x + x*y^2 + y)/(1 + y^2)"), "x") == (Poly.const(1), Poly.const(1))


def test_an_atom_whose_norm_is_zero_stays_in_the_denominator():
    # (sqrt(x^2) - x)(sqrt(x^2) + x) rewrites to x^2 - x^2 = 0, so the
    # conjugate cannot clear sqrt(x^2)
    den = Poly.from_atom(Call("sqrt", Pow(Var("x"), 2))) - _poly("x")
    assert _pair("1/(sqrt(x^2) - x)") == (Poly.const(1), den)


@pytest.mark.parametrize(
    "text",
    [
        "1/(sqrt(x^2) - x) * 1/(sqrt(x^2) + x)",
        "(sqrt(x^2) - x)/(sqrt(y^2) - y) * ((sqrt(x^2) + x)/(sqrt(y^2) + y))",
    ],
)
def test_a_product_of_denominators_that_rewrites_to_zero_is_refused(text):
    # each factor's denominator is nonzero, and stays because its conjugate
    # would make it zero; their product rewrites to zero
    with pytest.raises(ZeroDivisionError, match="identically zero"):
        _pair(text)


# ---------------------------------------------------------------------------
# matrix inversion by elimination


def _identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


@st.composite
def plu_matrices(draw, min_n=1):
    """m = P L U over a chart: P a row permutation, L and U unit triangular
    with small integer polynomial entries, about half of them zero. So
    det m = +-1, and a zero can reach any pivot position, (0,0) included."""
    chart = draw(st.sampled_from(CHARTS))
    n = draw(st.integers(min_n, 4))

    def entry():
        return ZERO if draw(st.booleans()) else _coefficient(draw, chart)

    L = tuple(
        tuple(entry() if j < i else (ONE if j == i else ZERO) for j in range(n))
        for i in range(n)
    )
    U = tuple(
        tuple(entry() if j > i else (ONE if j == i else ZERO) for j in range(n))
        for i in range(n)
    )
    LU = matrix_mul(L, U)
    return chart, tuple(LU[r] for r in draw(st.permutations(range(n))))


@PROPERTY_SETTINGS
@given(plu=plu_matrices())
def test_matrix_inverse_is_exact(plu):
    _, m = plu
    assert matrix_mul(m, matrix_inverse(m)) == _identity(len(m))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_matrix_inverse_refuses_a_row_that_is_a_multiple_of_another(data):
    chart, m = data.draw(plu_matrices(min_n=2))
    n = len(m)
    i, j = data.draw(st.permutations(range(n)))[:2]
    q = _coefficient(data.draw, chart)
    rows = list(m)
    rows[j] = tuple(simplify(Mul.of(q, e)) for e in m[i])
    with pytest.raises(GeometryError):
        matrix_inverse(tuple(rows))


def test_matrix_inverse_of_a_rational_non_monic_matrix():
    # a zero at (0,0) forces a row swap, and the denominators 2*x^2 + 3 and
    # 3*y + 5 are not monic
    m = tuple(
        tuple(parse_expr(e) for e in row)
        for row in (
            ("0", "x/(2*x^2 + 3)", "1"),
            ("1/3", "y", "0"),
            ("x*y", "1", "(y - 1)/(3*y + 5)"),
        )
    )
    inverse = matrix_inverse(m)
    assert matrix_mul(m, inverse) == _identity(3)
    assert matrix_mul(inverse, m) == _identity(3)
