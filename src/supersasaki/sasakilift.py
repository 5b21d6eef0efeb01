"""The lift: from (metric, two-form) on a chart to an even metric function
on the tangent bundle of the odd tangent bundle.

Coordinate naming, derived from the chart's coordinate names:

  * base coordinate        x        (even)
  * odd fiber              d<x>     (odd)
  * velocity               <x>dot   (even)
  * odd velocity fiber     d<x>dot  (odd)

Every generator w of the odd tangent bundle has the velocity w + "dot" of
the same parity.

The construction: with Gamma the Levi-Civita symbols of g, form the
splitting covectors

    nabla(xdot^a) = dxdot^a + dx^b * xdot^c * Gamma^a_{cb} .

The paper substitutes them for the odd fibers xi^a of the auxiliary form
G = xdot^a xdot^b g_ba + xi^a xi^b omega_ba (no 1/2 on the two-form
block). Substitution is an algebra morphism, so the lifted metric is
assembled directly as

    xdot^a xdot^b g_ba + nabla(xdot^a) nabla(xdot^b) omega_ba ,

which is Sasaki's classical form xdot^a xdot^b g_ba + D(xdot)^a D(xdot)^b g_ba
with the odd splitting in place of the even one D(xdot) and omega in place
of g. Both lifts go through the one splitting `_splitting`, whose F^a is
one `grassmann.contract` over the plane Gamma^a, and each lift is two
more, contract(g, xdot, xdot) + contract(B, F, F).

Vector fields on the odd tangent bundle pair through either the vertical
lift (1/2 iota_X iota_Y applied to the lifted metric) or the closed
formula X^a Y^b g_ba + (-1)^|Y| N_X^a N_Y^b omega_ba, with
N_Z^a = Zbar^a + Z^b dx^c Gamma^a_{cb} from `split_field`, again one
`contract` per a; both are exposed and tested against each other.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .geometry import (
    AlmostSymplectic,
    Chart,
    ChristoffelSymbols,
    GeometryError,
    Matrix,
    MetricTensor,
    VectorFieldM,
    christoffel,
)
from .grassmann import (
    EVEN,
    ODD,
    GeneratorTable,
    GradedError,
    GradedExpr,
    contract,
    extend_to,
    gmul,
    graded_to_text,
    parity_of,
    partial,
    restrict_to,
)
from .symexpr import Add, Const, Expr, Mul, Var


def odd_fiber_name(coord: str) -> str:
    return "d" + coord

def velocity_name(coord: str) -> str:
    return coord + "dot"

def classical_fiber_name(coord: str) -> str:
    return "delta_" + coord


def ptm_table(chart: Chart) -> GeneratorTable:
    """Generators of the odd tangent bundle chart: x even, dx odd."""
    gens = [(c, EVEN) for c in chart.coords]
    gens += [(odd_fiber_name(c), ODD) for c in chart.coords]
    return GeneratorTable(tuple(gens))


def _with_velocities(table: GeneratorTable) -> GeneratorTable:
    """The table followed by the velocity w + "dot" of each of its
    generators w, with w's parity."""
    return GeneratorTable(table + tuple((velocity_name(w), p) for w, p in table))


def tptm_table(chart: Chart) -> GeneratorTable:
    """Generators of the tangent bundle of the odd tangent bundle:
    x even, dx odd, xdot even, dxdot odd."""
    return _with_velocities(ptm_table(chart))


def classical_table(chart: Chart) -> GeneratorTable:
    """All-even analogue used by the classical construction: x, delta_x
    and their velocities."""
    base = [(c, EVEN) for c in chart.coords]
    base += [(classical_fiber_name(c), EVEN) for c in chart.coords]
    return _with_velocities(GeneratorTable(tuple(base)))


def _splitting(
    gamma: ChristoffelSymbols, table: GeneratorTable, fiber: Callable[[str], str]
) -> tuple[GradedExpr, ...]:
    """F^a = fiber(x^a)dot + fiber(x^b) xdot^c Gamma^a_{cb} over `table`,
    the splitting of both lifts: the fibers are odd generators in
    nabla_dot and even ones in classical_sasaki. Each F^a takes one
    `contract` over the plane Gamma^a."""
    coords = gamma.chart.coords
    fibers = [GradedExpr.generator(table, fiber(c)) for c in coords]
    xdot = [GradedExpr.generator(table, velocity_name(c)) for c in coords]
    return tuple(
        GradedExpr.generator(table, velocity_name(fiber(xa)))
        + contract(gamma.gamma[a], fibers, xdot)
        for a, xa in enumerate(coords)
    )


def nabla_dot(gamma: ChristoffelSymbols) -> tuple[GradedExpr, ...]:
    """Splitting covectors nabla(xdot^a) = dxdot^a + dx^b xdot^c Gamma^a_{cb},
    over the chart's tptm table."""
    return _splitting(gamma, tptm_table(gamma.chart), odd_fiber_name)


def _sasaki_form(
    table: GeneratorTable,
    g: MetricTensor,
    fibers: Sequence[GradedExpr],
    block: Matrix,
) -> GradedExpr:
    """xdot^a xdot^b g_ba + F^a F^b B_ba over `table`: two quadratic forms,
    each a `contract`."""
    xdot = [GradedExpr.generator(table, velocity_name(c)) for c in g.chart.coords]
    return contract(g.matrix, xdot, xdot) + contract(block, fibers, fibers)


class LiftedGeometry:
    """Everything the downstream checks need about one chart's lift; gamma
    is the Levi-Civita connection of metric."""

    __slots__ = ("chart", "metric", "omega", "gamma", "ptm", "tptm", "nabla", "lifted")

    def __init__(
        self,
        chart: Chart,
        metric: MetricTensor,
        omega: AlmostSymplectic,
        gamma: ChristoffelSymbols,
        ptm: GeneratorTable,
        tptm: GeneratorTable,
        nabla: tuple[GradedExpr, ...],
        lifted: GradedExpr,
    ) -> None:
        self.chart = chart
        self.metric = metric
        self.omega = omega
        self.gamma = gamma
        self.ptm = ptm
        self.tptm = tptm
        self.nabla = nabla
        self.lifted = lifted  # over tptm


def lift_geometry(g: MetricTensor, omega: AlmostSymplectic) -> LiftedGeometry:
    """Assemble the lifted metric from the splitting covectors of the
    Levi-Civita connection of g and the block omega; bundle everything
    downstream consumers reuse."""
    if g.chart != omega.chart:
        raise GeometryError("metric and two-form live on different charts")
    chart = g.chart
    gamma = christoffel(g)
    nabla = nabla_dot(gamma)
    tptm = nabla[0].table
    return LiftedGeometry(
        chart=chart,
        metric=g,
        omega=omega,
        gamma=gamma,
        ptm=ptm_table(chart),
        tptm=tptm,
        nabla=nabla,
        lifted=_sasaki_form(tptm, g, nabla, omega.matrix),
    )


def classical_sasaki(g: MetricTensor) -> GradedExpr:
    """Sasaki's metric xdot^a xdot^b g_ba + D(xdot)^a D(xdot)^b g_ba over
    the purely even table, with D(xdot)^a = delta_xdot^a + delta_x^b xdot^c
    Gamma^a_{cb} and Gamma the Levi-Civita symbols of g."""
    table = classical_table(g.chart)
    D = _splitting(christoffel(g), table, classical_fiber_name)
    return _sasaki_form(table, g, D, g.matrix)


# ---------------------------------------------------------------------------
# vector fields on the odd tangent bundle and the two pairings

class VectorFieldPTM:
    """First-order operator X = X^w d/dw summed over the generators w of the
    odd tangent bundle table, with homogeneous parity: X^w has parity
    |X| + |w|. coefficients holds one X^w per generator in table order, the
    x^a first, then the dx^a; components and barred view the two halves."""

    __slots__ = ("table", "coefficients", "parity")

    def __init__(
        self,
        table: GeneratorTable,
        coefficients: tuple[GradedExpr, ...],
        parity: int,
    ) -> None:
        if parity not in (EVEN, ODD):
            raise GradedError("field parity must be 0 or 1")
        if len(coefficients) != len(table):
            raise GradedError(
                f"a field needs {len(table)} coefficients, one per generator, "
                f"got {len(coefficients)}"
            )
        for (w, pw), coeff in zip(table, coefficients):
            p, expected = parity_of(coeff), (parity + pw) % 2
            if not coeff.is_zero() and p != expected:
                raise GradedError(
                    f"coefficient {graded_to_text(coeff)} of d/d({w}) has parity "
                    f"{p}, expected {expected}"
                )
        self.table = table  # the ptm table
        self.coefficients = coefficients
        self.parity = parity

    @property
    def components(self) -> tuple[GradedExpr, ...]:
        """X^a, the coefficients of d/dx^a."""
        return self.coefficients[: len(self.table) // 2]

    @property
    def barred(self) -> tuple[GradedExpr, ...]:
        """Xbar^a, the coefficients of d/d(dx^a)."""
        return self.coefficients[len(self.table) // 2 :]


def field_operator(X: VectorFieldPTM) -> tuple[tuple[GradedExpr, str], ...]:
    """X = X^w d/dw as (coefficient, generator-name) pairs over the field's
    own table, in table order, zero coefficients dropped."""
    return tuple(
        (coeff, w) for (w, _), coeff in zip(X.table, X.coefficients) if not coeff.is_zero()
    )


def vertical_lift(X: VectorFieldPTM) -> tuple[tuple[GradedExpr, str], ...]:
    """iota_X = X^w d/d(wdot), as (coefficient, generator-name) pairs over
    the chart's tptm table: X's operator with each generator w replaced by
    its velocity wdot = w + "dot"."""
    table = _with_velocities(X.table)
    return tuple(
        (extend_to(coeff, table), velocity_name(gen)) for coeff, gen in field_operator(X)
    )


def apply_first_order(
    ops: Iterable[tuple[GradedExpr, str]], f: GradedExpr
) -> GradedExpr:
    """Apply sum_i coeff_i * d/d(gen_i) to f (left derivatives); the empty
    operator gives zero over f's table."""
    total = GradedExpr.zero(f.table)
    for coeff, gen in ops:
        total = total + gmul(coeff, partial(f, gen))
    return total


def pairing_via_lift(
    X: VectorFieldPTM, Y: VectorFieldPTM, lift: LiftedGeometry
) -> GradedExpr:
    """<X|Y> = 1/2 iota_X iota_Y G for G the lifted metric, projected back
    down to the odd tangent bundle chart."""
    if X.table != lift.ptm or Y.table != lift.ptm:
        raise GradedError("paired fields do not live over the lift's odd tangent bundle")
    inner = apply_first_order(vertical_lift(Y), lift.lifted)
    outer = apply_first_order(vertical_lift(X), inner)
    scaled = outer.scale(Const(Fraction(1, 2)))
    return restrict_to(scaled, lift.ptm)


def split_field(Z: VectorFieldPTM, gamma: ChristoffelSymbols) -> list[GradedExpr]:
    """N_Z^a = Zbar^a + Z^b dx^c Gamma^a_{cb}, the splitting nabla(xdot^a)
    with (Z, Zbar) in place of (xdot, dxdot), one `contract` per a. For
    Z = L_X it is the one-form dX^a = dx^c (DX)^a_c of the covariant
    derivative (DX)^a_c = d_c X^a + X^b Gamma^a_{bc}."""
    dx = [GradedExpr.generator(Z.table, odd_fiber_name(c)) for c in gamma.chart.coords]
    return [
        bar + contract(plane, Z.components, dx) for bar, plane in zip(Z.barred, gamma.gamma)
    ]


def pairing_closed_form(
    X: VectorFieldPTM, Y: VectorFieldPTM, lift: LiftedGeometry
) -> GradedExpr:
    """The pairing in closed form:

        <X|Y> = X^a Y^b g_ba + (-1)^|Y| N_X^a N_Y^b omega_ba ,
        N_Z^a = Zbar^a + Z^b dx^c Gamma^a_{cb} ,

    N_Z being `split_field(Z, Gamma)`, Gamma symmetric. Multiplied out it
    is the four-bracket sum

        <X|Y> = X^a Y^b g_ba
              - X^a Y^b dx^c dx^d Gamma^e_{da} Gamma^f_{bc} omega_fe
              + [ (-1)^|Y| Xbar^a Y^b + (-1)^(|X|(|Y|+1)) Ybar^a X^b ]
                  dx^c Gamma^d_{cb} omega_da
              + (-1)^|Y| Xbar^a Ybar^b omega_ba

    It is the independent reference for pairing_via_lift, so it reads only
    the chart data lift.metric, lift.omega and lift.gamma, never the lifted
    metric or the splitting covectors.
    """
    if X.table != lift.ptm or Y.table != lift.ptm:
        raise GradedError("paired fields do not live over the lift's odd tangent bundle")
    sign_y = -1 if Y.parity == ODD else 1
    return contract(lift.metric.matrix, X.components, Y.components) + contract(
        lift.omega.matrix, split_field(X, lift.gamma), split_field(Y, lift.gamma)
    ).scale(sign_y)


# ---------------------------------------------------------------------------
# random fields

def _random_polynomial(
    coords: Sequence[str], rng: random.Random, fewest: int, p_product: float
) -> Expr:
    """A constant in [-2, 2] plus fewest to 2 more terms, each an integer in
    [-2, 2] times a coordinate, or with chance p_product a product of two
    coordinates; a zero draw drops its term."""
    terms: list[Expr] = [Const(Fraction(rng.randint(-2, 2)))]
    for _ in range(rng.randint(fewest, 2)):
        c = rng.randint(-2, 2)
        if c == 0:
            continue
        v = Var(rng.choice(coords))
        if rng.random() < p_product:
            v = Mul.of(v, Var(rng.choice(coords)))
        terms.append(Mul.of(Const(Fraction(c)), v))
    return Add.of(*terms)


def _random_coefficient(
    table: GeneratorTable, chart: Chart, parity: int, rng: random.Random
) -> GradedExpr:
    """Small random polynomial coefficient of the requested parity: integer
    coefficients, base-coordinate monomials up to degree 2, odd degree 0/1/2
    matching the parity."""
    n = chart.dim
    coords = chart.coords
    odd = [table.index(odd_fiber_name(c)) for c in coords]
    entries: list[tuple[tuple[int, ...], Expr]] = []
    if parity == EVEN:
        entries.append(((), _random_polynomial(coords, rng, 0, 0.3)))
        if n >= 2 and rng.random() < 0.5:
            i, j = sorted(rng.sample(range(n), 2))
            entries.append(((odd[i], odd[j]), _random_polynomial(coords, rng, 0, 0.3)))
    else:
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(n)
            entries.append(((odd[i],), _random_polynomial(coords, rng, 0, 0.3)))
    return GradedExpr.make(table, entries)


def random_field(
    chart: Chart, parity: int, rng: random.Random
) -> VectorFieldPTM:
    """Random homogeneous field on the odd tangent bundle chart."""
    table = ptm_table(chart)
    coefficients = tuple(
        _random_coefficient(table, chart, (parity + p) % 2, rng) for _, p in table
    )
    return VectorFieldPTM(table, coefficients, parity)


def random_base_field(chart: Chart, rng: random.Random) -> VectorFieldM:
    """Classical vector field with small integer polynomial components."""
    comps = tuple(_random_polynomial(chart.coords, rng, 1, 0.4) for _ in chart.coords)
    return VectorFieldM(chart, comps)


def vector_field_on_base(
    chart: Chart, components: Sequence[Expr]
) -> VectorFieldPTM:
    """A classical vector field X^a(x) d/dx^a seen on the odd tangent
    bundle (even, no barred part)."""
    table = ptm_table(chart)
    comps = tuple(GradedExpr.scalar(table, c) for c in components)
    return VectorFieldPTM(table, comps + (GradedExpr.zero(table),) * chart.dim, EVEN)
