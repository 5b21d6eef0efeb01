import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from supersasaki.cartan import interior, lie_derivative
from supersasaki.geometry import (
    AlmostSymplectic,
    Chart,
    MetricTensor,
    VectorFieldM,
    christoffel,
)
from supersasaki.grassmann import (
    EVEN,
    ODD,
    GeneratorTable,
    GradedExpr,
    contract,
    gmul,
    graded_equal,
    graded_to_text,
    gsubstitute,
    parity_of,
    parse_graded,
)
from supersasaki.sasakilift import (
    VectorFieldPTM,
    _splitting,
    classical_fiber_name,
    classical_sasaki,
    classical_table,
    field_operator,
    lift_geometry,
    nabla_dot,
    pairing_closed_form,
    pairing_via_lift,
    odd_fiber_name,
    ptm_table,
    random_base_field,
    random_field,
    split_field,
    vector_field_on_base,
    velocity_name,
    vertical_lift,
)
from supersasaki.specfiles import load_geometry
from supersasaki.symexpr import (
    Add,
    Const,
    Mul,
    OracleConfig,
    Var,
    ZERO,
    canonical_text,
    differentiate,
    eval_numeric,
    parse_expr,
    simplify,
)

SEED = 1108
SPECS = Path(__file__).resolve().parents[1] / "specs"
SHIPPED = sorted(p.stem for p in SPECS.glob("*.json"))
SHIPPED_2D = tuple(
    name for name in SHIPPED
    if len(json.loads((SPECS / f"{name}.json").read_text())["coords"]) == 2
)
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def _p(text):
    return parse_expr(text)


def euclidean2():
    ch = Chart(("x", "y"), intervals={"x": (-1.0, 1.0), "y": (-1.0, 1.0)}, name="euclidean2")
    g = MetricTensor(ch, [[_p("1"), _p("0")], [_p("0"), _p("1")]])
    om = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    return g, om


def misner():
    ch = Chart(("t", "phi"), intervals={"t": (0.5, 1.5), "phi": (0.2, 1.2)}, name="misner")
    g = MetricTensor(ch, [[_p("0"), _p("1")], [_p("1"), _p("t")]])
    om = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    return g, om


def polar():
    ch = Chart(("r", "theta"), intervals={"r": (0.4, 1.6), "theta": (0.1, 1.3)}, name="polar")
    g = MetricTensor(ch, [[_p("1"), _p("0")], [_p("0"), _p("r^2")]])
    om = AlmostSymplectic(ch, [[_p("0"), _p("-r")], [_p("r"), _p("0")]])
    return g, om


def curved4():
    coords = ("x", "y", "z", "w")
    ch = Chart(coords, intervals={c: (-1.0, 1.0) for c in coords}, name="curved4")
    diag = ("1 + y^2", "1 + z^2", "1 + w^2", "1 + x^2")
    g = MetricTensor(ch, [[_p(diag[a] if a == b else "0") for b in range(4)] for a in range(4)])
    return g


def test_flat_lift_is_the_golden_form():
    g, om = euclidean2()
    start = time.monotonic()
    lifted = lift_geometry(g, om).lifted
    elapsed = time.monotonic() - start
    assert graded_to_text(lifted) == "xdot^2 + ydot^2 + 2*dxdot*dydot"
    assert elapsed < 1.0, f"flat lift took {elapsed:.3f}s"


def test_lift_with_degenerate_block_metric():
    g, om = misner()
    lifted = lift_geometry(g, om).lifted
    assert graded_to_text(lifted) == (
        "phidot^2*t + 2*phidot*tdot - 1/2*phidot^2*dt*dphi + phidot*dt*dphidot"
        " + phidot*dphi*dtdot + (phidot*t + tdot)*dphi*dphidot + 2*dtdot*dphidot"
    )


def test_splitting_covectors():
    g, _ = misner()
    nabla = nabla_dot(christoffel(g))
    assert graded_to_text(nabla[0]) == "1/2*phidot*dt + (1/2*phidot*t + 1/2*tdot)*dphi + dtdot"
    assert graded_to_text(nabla[1]) == "-1/2*phidot*dphi + dphidot"
    for entry in nabla:
        assert parity_of(entry) == ODD


def test_lift_is_even_and_vanishes_on_zero_section():
    for g, om in (euclidean2(), misner(), polar()):
        lifted = lift_geometry(g, om).lifted
        assert parity_of(lifted) == EVEN
        # setting every velocity generator, odd or even, to zero leaves nothing
        zero = GradedExpr.zero(lifted.table)
        velocities = {n: zero for n in lifted.table.names if n.endswith("dot")}
        assert gsubstitute(lifted, velocities, lifted.table).is_zero()


def test_classical_lift_flat_case():
    g, _ = euclidean2()
    got = classical_sasaki(g)
    assert graded_to_text(got) == "delta_xdot^2 + delta_ydot^2 + xdot^2 + ydot^2"
    assert parity_of(got) == EVEN
    assert got.table.odd_names == ()


def test_classical_lift_has_no_odd_generators_anywhere():
    g, _ = polar()
    got = classical_sasaki(g)
    assert got.table.odd_names == ()
    assert parity_of(got) == EVEN


def test_classical_lift_matches_a_numeric_reference_on_curved4():
    g = curved4()
    start = time.monotonic()
    got = classical_sasaki(g)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"classical lift of curved4 took {elapsed:.1f}s"
    assert set(got.terms) == {()}
    gamma = christoffel(g)
    coords = g.chart.coords
    n = g.chart.dim
    rng = random.Random(SEED)
    for _ in range(5):
        point = {name: rng.uniform(-1.0, 1.0) for name in got.table.names}
        gm = [[eval_numeric(e, point) for e in row] for row in g.matrix]
        xdot = [point[c + "dot"] for c in coords]
        dx = [point["delta_" + c] for c in coords]
        dxdot = [point["delta_" + c + "dot"] for c in coords]
        D = [
            dxdot[a]
            + sum(
                dx[b] * xdot[c] * eval_numeric(gamma.entry(a, c, b), point)
                for b in range(n)
                for c in range(n)
            )
            for a in range(n)
        ]
        ref = sum(
            (xdot[a] * xdot[b] + D[a] * D[b]) * gm[b][a] for a in range(n) for b in range(n)
        )
        value = eval_numeric(got.body(), point)
        assert abs(value - ref) <= 1e-9 * abs(ref), (point, value, ref)


def test_vertical_lift_targets_velocity_slots():
    g, _ = euclidean2()
    X = vector_field_on_base(g.chart, (_p("1"), _p("0")))
    ops = dict((gen, coeff) for coeff, gen in vertical_lift(X))
    assert set(ops) == {"xdot"}
    assert graded_to_text(ops["xdot"]) == "1"


def test_zero_field_lifts_to_the_empty_operator():
    # bench/run.py's ZeroFieldGuard counts on a zero field lifting to ()
    g, _ = euclidean2()
    assert vertical_lift(interior(VectorFieldM(g.chart, (_p("0"), _p("0"))))) == ()
    # the operator lists the nonzero coefficients in table order
    table = ptm_table(g.chart)
    X = VectorFieldPTM(
        table,
        tuple(parse_graded(t, table) for t in ("0", "dx", "x", "0")),
        ODD,
    )
    assert [(graded_to_text(c), w) for c, w in field_operator(X)] == [
        ("dx", "y"),
        ("x", "dx"),
    ]


def test_vertical_lift_applied_to_the_flat_lift():
    from supersasaki.sasakilift import apply_first_order

    g, om = euclidean2()
    lift = lift_geometry(g, om)
    X = vector_field_on_base(g.chart, (_p("1"), _p("0")))
    got = apply_first_order(vertical_lift(X), lift.lifted)
    assert graded_to_text(got) == "2*xdot"


def test_vertical_lift_is_additive():
    g, om = polar()
    lift = lift_geometry(g, om)
    from supersasaki.sasakilift import apply_first_order

    X = vector_field_on_base(g.chart, (_p("r"), _p("1")))
    Y = vector_field_on_base(g.chart, (_p("theta"), _p("r^2")))
    XY = vector_field_on_base(g.chart, (_p("r + theta"), _p("1 + r^2")))
    lhs = apply_first_order(vertical_lift(XY), lift.lifted)
    rhs = apply_first_order(vertical_lift(X), lift.lifted) + apply_first_order(
        vertical_lift(Y), lift.lifted
    )
    assert graded_equal(lhs, rhs)


def test_pairing_of_constant_base_fields_is_the_metric():
    g, om = euclidean2()
    lift = lift_geometry(g, om)
    ex = vector_field_on_base(g.chart, (_p("1"), _p("0")))
    ey = vector_field_on_base(g.chart, (_p("0"), _p("1")))
    assert graded_to_text(pairing_via_lift(ex, ex, lift)) == "1"
    assert graded_to_text(pairing_via_lift(ex, ey, lift)) == "0"
    assert graded_to_text(pairing_via_lift(ey, ey, lift)) == "1"


def test_pairing_epsilon_part_recovers_the_base_metric():
    g, om = misner()
    lift = lift_geometry(g, om)
    dt = vector_field_on_base(g.chart, (_p("1"), _p("0")))
    dphi = vector_field_on_base(g.chart, (_p("0"), _p("1")))
    got = pairing_via_lift(dt, dphi, lift)
    assert canonical_text(got.body()) == "1"
    got = pairing_via_lift(dt, dt, lift)
    assert canonical_text(got.body()) == "0"
    got = pairing_via_lift(dphi, dphi, lift)
    assert canonical_text(got.body()) == canonical_text(_p("t"))


def test_closed_form_matches_lift_on_random_fields():
    rng = random.Random(SEED)
    for g, om in (euclidean2(), misner(), polar()):
        cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=g.chart.intervals)
        lift = lift_geometry(g, om)
        for parity in (EVEN, ODD):
            for _ in range(8):
                X = random_field(g.chart, parity, rng)
                Y = random_field(g.chart, rng.choice((EVEN, ODD)), rng)
                via = pairing_via_lift(X, Y, lift)
                closed = pairing_closed_form(X, Y, lift)
                assert graded_equal(via, closed, cfg), (
                    f"{g.chart.name}: closed form disagrees with the lift"
                )
    print("closed form tracks the lift on all sampled fields")


def test_pairing_rejects_mismatched_inputs():
    import pytest

    from supersasaki.grassmann import GradedError

    g, om = euclidean2()
    gP, omP = polar()
    lift = lift_geometry(g, om)
    X = vector_field_on_base(g.chart, (_p("1"), _p("0")))
    W = vector_field_on_base(gP.chart, (_p("1"), _p("0")))
    wrong_lift = lift_geometry(gP, omP)
    message = "paired fields do not live over the lift's odd tangent bundle"
    for pairing in (pairing_via_lift, pairing_closed_form):
        for args in ((X, W, lift), (W, X, lift), (X, X, wrong_lift)):
            with pytest.raises(GradedError, match=message):
                pairing(*args)


def test_pairing_is_graded_symmetric():
    rng = random.Random(SEED + 1)
    g, om = polar()
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=g.chart.intervals)
    lift = lift_geometry(g, om)
    for _ in range(10):
        X = random_field(g.chart, rng.choice((EVEN, ODD)), rng)
        Y = random_field(g.chart, rng.choice((EVEN, ODD)), rng)
        left = pairing_via_lift(X, Y, lift)
        right = pairing_via_lift(Y, X, lift)
        if X.parity == ODD and Y.parity == ODD:
            right = -right
        assert graded_equal(left, right, cfg), "graded symmetry failed"


def test_pairing_is_left_linear_over_even_scalars():
    rng = random.Random(SEED + 2)
    g, om = misner()
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=g.chart.intervals)
    lift = lift_geometry(g, om)
    table = ptm_table(g.chart)
    from supersasaki.grassmann import parse_graded

    f = parse_graded("t^2 + dt*dphi", table)
    for _ in range(6):
        X = random_field(g.chart, rng.choice((EVEN, ODD)), rng)
        Y = random_field(g.chart, X.parity, rng)
        Z = random_field(g.chart, rng.choice((EVEN, ODD)), rng)
        fX_plus_Y = VectorFieldPTM(
            table,
            tuple(gmul(f, c) + d for c, d in zip(X.coefficients, Y.coefficients)),
            X.parity,
        )
        lhs = pairing_via_lift(fX_plus_Y, Z, lift)
        rhs = gmul(f, pairing_via_lift(X, Z, lift)) + pairing_via_lift(Y, Z, lift)
        assert graded_equal(lhs, rhs, cfg), "left module linearity failed"


# ---------------------------------------------------------------------------
# the lifts and the closed form against their hand-expanded sums

def _expanded_sasaki_form(table, g, fibers, block):
    """xdot^a xdot^b g_ba + F^a F^b B_ba, the g block as one scalar tree and
    the F block summed over a <= b with w_aa = B_aa and w_ab = 2 B_ba, which
    holds because B is symmetric for even fibers and antisymmetric for odd
    ones."""
    n = g.chart.dim
    xdot = [Var(velocity_name(c)) for c in g.chart.coords]
    total = GradedExpr.scalar(
        table,
        Add.of(*(Mul.of(xdot[a], xdot[b], g.matrix[b][a]) for a in range(n) for b in range(n))),
    )
    two = Const(Fraction(2))
    for a in range(n):
        for b in range(a, n):
            if block[b][a] == ZERO:
                continue
            w = block[a][a] if a == b else Mul.of(two, block[b][a])
            total = total + gmul(fibers[a], fibers[b]).scale(w)
    return total


def _expanded_closed_form(X, Y, lift):
    """The pairing formula of pairing_closed_form, one nested loop per
    bracket."""
    g, omega, gamma = lift.metric, lift.omega, lift.gamma
    chart = g.chart
    ptm = X.table
    n = chart.dim
    gmat = g.matrix
    om = omega.matrix
    sign_y = -1 if Y.parity == ODD else 1
    sign_xy = -1 if (X.parity * ((Y.parity + 1) % 2)) % 2 else 1

    def dx(c):
        return GradedExpr.generator(ptm, odd_fiber_name(chart.coords[c]))

    total = GradedExpr.zero(ptm)
    for a in range(n):
        for b in range(n):
            total = total + gmul(X.components[a], Y.components[b]).scale(gmat[b][a])
    for a in range(n):
        for b in range(n):
            XY = gmul(X.components[a], Y.components[b])
            if XY.is_zero():
                continue
            for c in range(n):
                for d in range(n):
                    coeff = simplify(Add.of(*(
                        Mul.of(gamma.entry(e, d, a), gamma.entry(f_, b, c), om[f_][e])
                        for e in range(n)
                        for f_ in range(n)
                    )))
                    total = total - gmul(XY, gmul(dx(c), dx(d))).scale(coeff)
    for a in range(n):
        for b in range(n):
            bracket = gmul(X.barred[a], Y.components[b]).scale(sign_y) + gmul(
                Y.barred[a], X.components[b]
            ).scale(sign_xy)
            if bracket.is_zero():
                continue
            for c in range(n):
                coeff = simplify(
                    Add.of(*(Mul.of(gamma.entry(d, c, b), om[d][a]) for d in range(n)))
                )
                total = total + gmul(bracket, dx(c)).scale(coeff)
    for a in range(n):
        for b in range(n):
            total = total + gmul(X.barred[a], Y.barred[b]).scale(om[b][a]).scale(sign_y)
    return total


@lru_cache(maxsize=None)
def _shipped_lift(name):
    spec = load_geometry(SPECS / f"{name}.json")
    return lift_geometry(spec.metric, spec.require_omega())


def test_both_lifts_equal_the_expanded_form_on_every_shipped_spec():
    for name in SHIPPED:
        lift = _shipped_lift(name)
        g = lift.metric
        expanded = _expanded_sasaki_form(lift.tptm, g, lift.nabla, lift.omega.matrix)
        assert lift.lifted.terms == expanded.terms, name
        table = classical_table(g.chart)
        D = _splitting(lift.gamma, table, classical_fiber_name)
        expanded = _expanded_sasaki_form(table, g, D, g.matrix)
        assert classical_sasaki(g).terms == expanded.terms, name


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(
        ("euclidean2", "misner", "polar", "varcoef", "sphere", "rational", "curved4")
    ),
    kind=st.sampled_from(("ptm", "lie x interior", "interior x lie")),
    parities=st.sampled_from(((EVEN, EVEN), (EVEN, ODD), (ODD, EVEN), (ODD, ODD))),
    seed=st.integers(0, 2**16),
)
def test_closed_form_equals_the_expanded_sum(name, kind, parities, seed):
    lift = _shipped_lift(name)
    rng = random.Random(seed)
    if kind == "ptm":
        X, Y = (random_field(lift.chart, p, rng) for p in parities)
    else:
        first, second = (lie_derivative, interior) if kind == "lie x interior" else (
            interior, lie_derivative)
        X = first(random_base_field(lift.chart, rng))
        Y = second(random_base_field(lift.chart, rng))
    assert pairing_closed_form(X, Y, lift).terms == _expanded_closed_form(X, Y, lift).terms


def _tree_split_of_lie_derivative(X, lift):
    """dx^b (d_b X^a + X^c Gamma^a_{cb}): the covariant derivative of X in
    trees, simplified entry by entry and read as one one-form per a."""
    coords = lift.chart.coords
    return [
        GradedExpr.linear(lift.ptm, [
            (odd_fiber_name(xb), simplify(Add.of(
                differentiate(Xa, xb),
                *(Mul.of(Xc, lift.gamma.entry(a, c, b)) for c, Xc in enumerate(X.components)),
            )))
            for b, xb in enumerate(coords)
        ])
        for a, Xa in enumerate(X.components)
    ]


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**16))
def test_split_lie_derivative_is_the_covariant_derivative(seed):
    rng = random.Random(seed)
    for name in SHIPPED_2D:
        lift = _shipped_lift(name)
        X = random_base_field(lift.chart, rng)
        got = split_field(lie_derivative(X), lift.gamma)
        want = _tree_split_of_lie_derivative(X, lift)
        assert [N.terms for N in got] == [N.terms for N in want], name


_FOLD_TABLE = GeneratorTable.of(("x", EVEN), ("y", EVEN), ("p", ODD), ("q", ODD), ("r", ODD))
_SCALARS = ("0", "1", "-1", "2", "x", "-x", "y", "x*y", "1 + x^2", "1/(1 + y^2)")
_EVEN_ENTRIES = ("0", "1", "x", "y^2 + 1", "x*p*q", "1 + p*r", "y*q*r - x*p*q")
_ODD_ENTRIES = ("p", "x*q", "p + y*r", "p*q*r", "q - x*p*q*r")


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(1, 4), inhomogeneous=st.booleans())
def test_contract_folds_a_quadratic_form_exactly(data, n, inhomogeneous):
    B = [
        [parse_expr(data.draw(st.sampled_from(_SCALARS))) for _ in range(n)]
        for _ in range(n)
    ]
    texts = [
        data.draw(st.sampled_from(_EVEN_ENTRIES + _ODD_ENTRIES)) for _ in range(n)
    ]
    if inhomogeneous:
        texts[data.draw(st.integers(0, n - 1))] = "x + p"
    U = [parse_graded(t, _FOLD_TABLE) for t in texts]
    # a list copy of U is another sequence, so it takes the full n^2 sum
    assert contract(B, U, U).terms == contract(B, U, list(U)).terms
