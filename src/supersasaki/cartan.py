"""Cartan calculus realized as vector fields on the odd tangent bundle.

The three operator families, written in the chart's generators:

    d   = dx^a d/dx^a                                  (odd)
    i_X = X^a(x) d/d(dx^a)                             (odd)
    L_X = X^a(x) d/dx^a + dx^b (dX^a/dx^b) d/d(dx^a)   (even)

The graded commutator of two first-order fields is again first order, so
its components are extracted by applying it to the generators:

    [U, V](w) = U(V(w)) - (-1)^{|U||V|} V(U(w))

for each generator w. The six pairing identities relate these fields
through the lifted metric: the left side of every identity is computed by
the vertical-lift pairing, the right side assembled from the chart data.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import Chart, VectorFieldM, vector_commutator
from .grassmann import (
    EVEN,
    ODD,
    GradedError,
    GradedExpr,
    contract,
)
from .report import CheckOutcome, residual_outcome
from .sasakilift import (
    LiftedGeometry,
    VectorFieldPTM,
    apply_first_order,
    field_operator,
    odd_fiber_name,
    pairing_via_lift,
    ptm_table,
    split_field,
)
from .symexpr import Const, OracleConfig, differentiate


def de_rham(chart: Chart) -> VectorFieldPTM:
    """The odd field d = dx^a d/dx^a; squares to zero."""
    table = ptm_table(chart)
    dx = tuple(GradedExpr.generator(table, w) for w in table.odd_names)
    return VectorFieldPTM(table, dx + (GradedExpr.zero(table),) * chart.dim, ODD)


def interior(X: VectorFieldM) -> VectorFieldPTM:
    """The odd field i_X = X^a(x) d/d(dx^a)."""
    table = ptm_table(X.chart)
    barred = tuple(GradedExpr.scalar(table, c) for c in X.components)
    return VectorFieldPTM(table, (GradedExpr.zero(table),) * X.chart.dim + barred, ODD)


def lie_derivative(X: VectorFieldM) -> VectorFieldPTM:
    """The even field L_X = X^a d/dx^a + dx^b (dX^a/dx^b) d/d(dx^a)."""
    chart = X.chart
    table = ptm_table(chart)
    comps = tuple(GradedExpr.scalar(table, c) for c in X.components)
    barred = tuple(
        GradedExpr.linear(
            table, [(odd_fiber_name(cb), differentiate(Xa, cb)) for cb in chart.coords]
        )
        for Xa in X.components
    )
    return VectorFieldPTM(table, comps + barred, EVEN)


def super_commutator(U: VectorFieldPTM, V: VectorFieldPTM) -> VectorFieldPTM:
    """[U, V] = U V - (-1)^{|U||V|} V U, its coefficient of d/dw read off
    as [U, V](w) = U(V^w) - (-1)^{|U||V|} V(U^w) for each generator w."""
    if U.table != V.table:
        raise GradedError("bracketed fields live over different tables")
    # multiplier of the V U term: -(-1)^{|U||V|}
    sign = Const(Fraction(1 if (U.parity and V.parity) else -1))
    opU, opV = field_operator(U), field_operator(V)
    return VectorFieldPTM(
        U.table,
        tuple(
            apply_first_order(opU, v) + apply_first_order(opV, u).scale(sign)
            for u, v in zip(U.coefficients, V.coefficients)
        ),
        (U.parity + V.parity) % 2,
    )


def cartan_commutators(
    X: VectorFieldM, Y: VectorFieldM, config: OracleConfig | None = None
) -> tuple[CheckOutcome, ...]:
    """The graded commutation table of d, i, and L on one chart. With no
    config, the checks sample the chart's box."""
    chart = X.chart
    config = config or OracleConfig(intervals=chart.intervals)
    table = ptm_table(chart)
    zero_field = VectorFieldPTM(table, (GradedExpr.zero(table),) * len(table), EVEN)
    d = de_rham(chart)
    iX, iY = interior(X), interior(Y)
    LX, LY = lie_derivative(X), lie_derivative(Y)
    XY = vector_commutator(X, Y)
    checks = (
        ("[d,d] = 0", super_commutator(d, d), zero_field),
        ("[d,i_X] = L_X", super_commutator(d, iX), LX),
        ("[i_X,i_Y] = 0", super_commutator(iX, iY), zero_field),
        ("[L_X,i_Y] = i_[X,Y]", super_commutator(LX, iY), interior(XY)),
        ("[d,L_X] = 0", super_commutator(d, LX), zero_field),
        ("[L_X,L_Y] = L_[X,Y]", super_commutator(LX, LY), lie_derivative(XY)),
    )
    return tuple(
        residual_outcome(name, got.coefficients, want.coefficients, config)
        for name, got, want in checks
    )


def verify_proposition(
    lift: LiftedGeometry,
    X: VectorFieldM,
    Y: VectorFieldM,
    config: OracleConfig | None = None,
) -> tuple[CheckOutcome, ...]:
    """The six pairing identities for the lifted metric.

    Left sides come from the vertical-lift pairing against lift.lifted;
    right sides are contracted in the graded algebra from the chart data
    lift.metric, lift.omega and lift.gamma, with dX^a = dx^c (DX)^a_c =
    N_{L_X}^a, the closed form's splitting of L_X (`split_field`):

      (i)   <i_X|i_Y> = Y^a X^b omega_ba
      (ii)  <i_X|d>   = 0
      (iii) <d|d>     = 0
      (iv)  <L_X|d>   = X^a dx^b g_ba
      (v)   <L_X|i_Y> = -dX^a Y^b omega_ba
      (vi)  <L_X|L_Y> = X^a Y^b g_ba + dX^a dY^b omega_ba

    Every entry is evaluated even if an earlier one fails. With no config,
    the checks sample the chart's box.
    """
    config = config or OracleConfig(intervals=lift.chart.intervals)
    g, om = lift.metric.matrix, lift.omega.matrix
    d = de_rham(lift.chart)
    iX, iY = interior(X), interior(Y)
    LX, LY = lie_derivative(X), lie_derivative(Y)
    Xs, Ys = LX.components, LY.components
    dX, dY = split_field(LX, lift.gamma), split_field(LY, lift.gamma)
    zero = GradedExpr.zero(lift.ptm)
    checks = (
        ("(i) <i_X|i_Y> = omega(X,Y)", pairing_via_lift(iX, iY, lift), contract(om, Ys, Xs)),
        ("(ii) <i_X|d> = 0", pairing_via_lift(iX, d, lift), zero),
        ("(iii) <d|d> = 0", pairing_via_lift(d, d, lift), zero),
        ("(iv) <L_X|d> = flat(X)", pairing_via_lift(LX, d, lift),
         contract(g, Xs, d.components)),
        ("(v) <L_X|i_Y> = omega(DX,Y)", pairing_via_lift(LX, iY, lift), -contract(om, dX, Ys)),
        ("(vi) <L_X|L_Y> = g(X,Y) + omega(dxDX,dxDY)",
         pairing_via_lift(LX, LY, lift), contract(g, Xs, Ys) + contract(om, dX, dY)),
    )
    return tuple(
        residual_outcome(name, [lhs], [rhs], config) for name, lhs, rhs in checks
    )
