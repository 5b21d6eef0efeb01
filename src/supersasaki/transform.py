"""Chart changes: smooth maps between charts, their prolongation to the
odd tangent bundle and its tangent bundle, transport of the classical
tensors, and the naturality check for the lifted metric.

A map y = psi(x) prolongs blockwise, with J the Jacobian d y^alpha/d x^a:

    y^alpha      -> y^alpha(x)
    dy^alpha     -> dx^a J[alpha][a]
    ydot^alpha   -> xdot^b J[alpha][b]
    dydot^alpha  -> dxdot^c J[alpha][c] + xdot^b dx^c d2y^alpha/(dx^c dx^b)

Pulling functions back substitutes these images; pulling a vector field
on the odd tangent bundle back solves the two triangular systems

    J[alpha][a] A'^a = psi*(A^alpha)
    J[alpha][b] B'^b = psi*(B^alpha) - A'^a dx^c d2y^alpha/(dx^a dx^c)

with the symbolic inverse Jacobian. The naturality check compares the
pullback of the target's lifted metric against the source's own lifted
metric; it vanishes whenever the map is an isometry for the metrics and
a symplectomorphism for the two-forms.
"""

from __future__ import annotations

from typing import Sequence

from .cartan import CheckOutcome, residual_outcome
from .geometry import (
    AlmostSymplectic,
    Chart,
    ChristoffelSymbols,
    GeometryError,
    MetricTensor,
    Matrix,
    matrix_inverse,
)
from .grassmann import (
    GeneratorTable,
    GradedError,
    GradedExpr,
    gmul,
    gsubstitute,
)
from .sasakilift import (
    LiftedGeometry,
    VectorFieldPTM,
    odd_fiber_name,
    odd_velocity_name,
    pairing_via_lift,
    ptm_table,
    tptm_table,
    velocity_name,
)
from .symexpr import (
    Add,
    Expr,
    Mul,
    OracleConfig,
    Var,
    differentiate,
    free_vars,
    simplify,
    substitute,
)


class SmoothMap:
    """y^alpha = components[alpha](x); the optional inverse is checked to
    compose to the identity."""

    __slots__ = ("source", "target", "components", "inverse", "name")

    def __init__(
        self,
        source: Chart,
        target: Chart,
        components: Sequence[Expr],
        inverse: Sequence[Expr] | None = None,
        name: str = "map",
    ) -> None:
        self.source = source
        self.target = target
        self.name = name
        if len(components) != self.target.dim:
            raise GeometryError(
                f"map {self.name!r} needs {self.target.dim} components"
            )
        self.components = tuple(simplify(e) for e in components)
        self.inverse = inverse
        src = set(self.source.coords)
        for e in self.components:
            extra = free_vars(e) - src
            if extra:
                raise GeometryError(
                    f"map {self.name!r} uses unknown source names {sorted(extra)}"
                )
        if self.inverse is not None:
            if len(self.inverse) != self.source.dim:
                raise GeometryError(
                    f"inverse of {self.name!r} needs {self.source.dim} components"
                )
            self.inverse = tuple(simplify(e) for e in self.inverse)
            tgt = set(self.target.coords)
            for e in self.inverse:
                extra = free_vars(e) - tgt
                if extra:
                    raise GeometryError(
                        f"inverse of {self.name!r} uses unknown target names "
                        f"{sorted(extra)}"
                    )
            forward = dict(zip(self.target.coords, self.components))
            cfg = OracleConfig().with_intervals(self.source.intervals)
            for a, c in enumerate(self.source.coords):
                back = substitute(self.inverse[a], forward)
                if not cfg.equal(back, Var(c)):
                    raise GeometryError(
                        f"inverse of {self.name!r} fails to recover {c!r}"
                    )


def jacobian(psi: SmoothMap) -> Matrix:
    """J[alpha][a] = d y^alpha / d x^a."""
    return tuple(
        tuple(differentiate(comp, c) for c in psi.source.coords)
        for comp in psi.components
    )


def jacobian_inverse(psi: SmoothMap) -> Matrix:
    """Symbolic (J^-1)[a][alpha], entries functions of the source chart."""
    try:
        return matrix_inverse(jacobian(psi))
    except GeometryError:
        raise GeometryError(
            f"map {psi.name!r} has a singular Jacobian; moving a field or a "
            f"connection along it needs an invertible Jacobian"
        ) from None


def second_derivative(psi: SmoothMap, alpha: int) -> Matrix:
    """H[b][c] = d2 y^alpha / (d x^b d x^c)."""
    coords = psi.source.coords
    row = tuple(differentiate(psi.components[alpha], c) for c in coords)
    return tuple(
        tuple(differentiate(row[b], coords[c]) for c in range(len(coords)))
        for b in range(len(coords))
    )


def compose_scalar(psi: SmoothMap, e: Expr) -> Expr:
    """A scalar in target coordinates, written in source coordinates."""
    return simplify(substitute(e, dict(zip(psi.target.coords, psi.components))))


def prolong(psi: SmoothMap, table: GeneratorTable) -> dict[str, GradedExpr]:
    """Images of the target's generators over `table`, the source's odd
    tangent bundle table (the y and dy blocks) or its tangent bundle table
    (all four blocks)."""
    src = psi.source.coords
    J = jacobian(psi)
    with_velocities = table == tptm_table(psi.source)
    n = len(src)
    xdot = [Var(velocity_name(xc)) for xc in src]
    images: dict[str, GradedExpr] = {}
    for alpha, yc in enumerate(psi.target.coords):
        images[yc] = GradedExpr.scalar(table, psi.components[alpha])
        images[odd_fiber_name(yc)] = GradedExpr.linear(
            table, [(odd_fiber_name(xc), J[alpha][a]) for a, xc in enumerate(src)]
        )
        if not with_velocities:
            continue
        images[velocity_name(yc)] = GradedExpr.scalar(
            table, Add.of(*(Mul.of(xdot[b], J[alpha][b]) for b in range(n)))
        )
        H = second_derivative(psi, alpha)
        images[odd_velocity_name(yc)] = GradedExpr.linear(
            table,
            [(odd_velocity_name(xc), J[alpha][c]) for c, xc in enumerate(src)]
            + [
                (odd_fiber_name(xc), Add.of(*(Mul.of(xdot[b], H[c][b]) for b in range(n))))
                for c, xc in enumerate(src)
            ],
        )
    return images


def pullback(psi: SmoothMap, f: GradedExpr) -> GradedExpr:
    """psi* f for f over the target's odd tangent bundle or its tangent
    bundle, landing over the matching source table."""
    if f.table == ptm_table(psi.target):
        table = ptm_table(psi.source)
    elif f.table == tptm_table(psi.target):
        table = tptm_table(psi.source)
    else:
        raise GradedError("pullback expects a function over the target's tables")
    return gsubstitute(f, prolong(psi, table), table)


# ---------------------------------------------------------------------------
# tensor transport

def _pullback_form(
    psi: SmoothMap, tensor: MetricTensor | AlmostSymplectic, what: str
) -> Matrix:
    """(psi* B)[a][b] = J[alpha][a] J[beta][b] B[alpha][beta] o psi, for the
    matrix B of a tensor on the map's target."""
    if tensor.chart != psi.target:
        raise GeometryError(f"{what} lives on a different chart than the map's target")
    matrix = tensor.matrix
    n_src, n_tgt = psi.source.dim, psi.target.dim
    J = jacobian(psi)
    comp = [[compose_scalar(psi, matrix[al][be]) for be in range(n_tgt)] for al in range(n_tgt)]
    rows = []
    for a in range(n_src):
        row = []
        for b in range(n_src):
            terms = [
                Mul.of(J[al][a], J[be][b], comp[al][be])
                for al in range(n_tgt)
                for be in range(n_tgt)
            ]
            row.append(simplify(Add.of(*terms)))
        rows.append(tuple(row))
    return tuple(rows)


def pullback_metric(psi: SmoothMap, g: MetricTensor) -> MetricTensor:
    """(psi* g)[a][b] = J[alpha][a] J[beta][b] g[alpha][beta] o psi."""
    return MetricTensor(psi.source, _pullback_form(psi, g, "metric"))


def pullback_two_form(psi: SmoothMap, omega: AlmostSymplectic) -> AlmostSymplectic:
    """Same transport law as the metric; antisymmetry survives."""
    return AlmostSymplectic(psi.source, _pullback_form(psi, omega, "two-form"))


def transform_christoffel(
    psi: SmoothMap, gamma: ChristoffelSymbols
) -> ChristoffelSymbols:
    """The inhomogeneous law: Gamma'^a_{bc} =
    (J^-1)[a][alpha] (Gamma^alpha_{beta gamma} o psi J[beta][b] J[gamma][c]
    + d2 y^alpha/(dx^b dx^c))."""
    if gamma.chart != psi.target:
        raise GeometryError("symbols live on a different chart than the map's target")
    n_src, n_tgt = psi.source.dim, psi.target.dim
    J = jacobian(psi)
    K = jacobian_inverse(psi)
    H = [second_derivative(psi, alpha) for alpha in range(n_tgt)]
    comp = [
        [
            [compose_scalar(psi, gamma.entry(al, be, ga)) for ga in range(n_tgt)]
            for be in range(n_tgt)
        ]
        for al in range(n_tgt)
    ]
    out = []
    for a in range(n_src):
        plane = []
        for b in range(n_src):
            row = []
            for c in range(n_src):
                terms = []
                for al in range(n_tgt):
                    inner = [H[al][b][c]]
                    for be in range(n_tgt):
                        for ga in range(n_tgt):
                            inner.append(
                                Mul.of(comp[al][be][ga], J[be][b], J[ga][c])
                            )
                    terms.append(Mul.of(K[a][al], Add.of(*inner)))
                row.append(simplify(Add.of(*terms)))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return ChristoffelSymbols(psi.source, tuple(out))


def _componentwise_equal(
    psi: SmoothMap, pulled: Matrix, source: Matrix, config: OracleConfig | None
) -> bool:
    cfg = config or OracleConfig().with_intervals(psi.source.intervals)
    return all(
        cfg.equal(pulled[a][b], source[a][b])
        for a in range(psi.source.dim)
        for b in range(psi.source.dim)
    )


def is_isometry(
    psi: SmoothMap,
    g_source: MetricTensor,
    g_target: MetricTensor,
    config: OracleConfig | None = None,
) -> bool:
    """Does psi* g_target equal g_source, componentwise? The pulled-back
    matrix is compared as it is, so a degenerate map answers no."""
    pulled = _pullback_form(psi, g_target, "metric")
    return _componentwise_equal(psi, pulled, g_source.matrix, config)


def is_symplectomorphism(
    psi: SmoothMap,
    omega_source: AlmostSymplectic,
    omega_target: AlmostSymplectic,
    config: OracleConfig | None = None,
) -> bool:
    """Does psi* omega_target equal omega_source, componentwise?"""
    pulled = _pullback_form(psi, omega_target, "two-form")
    return _componentwise_equal(psi, pulled, omega_source.matrix, config)


# ---------------------------------------------------------------------------
# vector fields and the naturality of the lift

def field_pullback(psi: SmoothMap, V: VectorFieldPTM) -> VectorFieldPTM:
    """Transport a vector field on the target's odd tangent bundle to the
    source's, solving against the Jacobian (see module docstring)."""
    if V.table != ptm_table(psi.target):
        raise GradedError("field does not live over the map's target")
    n_src, n_tgt = psi.source.dim, psi.target.dim
    if n_src != n_tgt:
        raise GeometryError(
            f"map {psi.name!r} sends a {n_src}-dimensional chart into a "
            f"{n_tgt}-dimensional one; pulling a field back needs an "
            f"invertible Jacobian"
        )
    K = jacobian_inverse(psi)
    table = ptm_table(psi.source)
    images = prolong(psi, table)
    pulled_A = [
        gsubstitute(V.components[al], images, table) for al in range(n_tgt)
    ]
    # A'^a first, then B'^b: the pulled field's coefficients in table order
    coefficients = []
    for a in range(n_src):
        total = GradedExpr.zero(table)
        for al in range(n_tgt):
            total = total + pulled_A[al].scale(K[a][al])
        coefficients.append(total)
    # psi*(B^alpha) - A'^a dx^c d2y^alpha/(dx^a dx^c), one per target index
    rhs = []
    for al in range(n_tgt):
        H = second_derivative(psi, al)
        r = gsubstitute(V.barred[al], images, table)
        for a in range(n_src):
            H_dx = GradedExpr.linear(
                table,
                [(odd_fiber_name(xc), H[a][c]) for c, xc in enumerate(psi.source.coords)],
            )
            r = r - gmul(coefficients[a], H_dx)
        rhs.append(r)
    for b in range(n_src):
        total = GradedExpr.zero(table)
        for al in range(n_tgt):
            total = total + rhs[al].scale(K[b][al])
        coefficients.append(total)
    return VectorFieldPTM(table, tuple(coefficients), V.parity)


class NaturalityReport:
    __slots__ = ("isometry", "symplectomorphism", "holds", "residual")

    def __init__(
        self, isometry: bool, symplectomorphism: bool, holds: bool, residual: str
    ) -> None:
        self.isometry = isometry
        self.symplectomorphism = symplectomorphism
        self.holds = holds
        self.residual = residual


def check_naturality(
    psi: SmoothMap,
    source_lift: LiftedGeometry,
    target_lift: LiftedGeometry,
    config: OracleConfig | None = None,
) -> NaturalityReport:
    """Pull the target's lifted metric back along the prolonged map and
    compare with the source's own lifted metric."""
    cfg = config or OracleConfig().with_intervals(psi.source.intervals)
    outcome = residual_outcome(
        "naturality", [pullback(psi, target_lift.lifted)], [source_lift.lifted], cfg
    )
    return NaturalityReport(
        isometry=is_isometry(psi, source_lift.metric, target_lift.metric, cfg),
        symplectomorphism=is_symplectomorphism(
            psi, source_lift.omega, target_lift.omega, cfg
        ),
        holds=outcome.holds,
        residual=outcome.residual,
    )


def pairing_invariance(
    psi: SmoothMap,
    source_lift: LiftedGeometry,
    target_lift: LiftedGeometry,
    X: VectorFieldPTM,
    Y: VectorFieldPTM,
    config: OracleConfig | None = None,
) -> CheckOutcome:
    """<psi*X | psi*Y> on the source chart against psi*<X|Y> from the
    target chart, for fields given over the target's odd tangent bundle."""
    cfg = config or OracleConfig().with_intervals(psi.source.intervals)
    lhs = pairing_via_lift(field_pullback(psi, X), field_pullback(psi, Y), source_lift)
    rhs = pullback(psi, pairing_via_lift(X, Y, target_lift))
    return residual_outcome(f"pairing invariance under {psi.name}", [lhs], [rhs], cfg)
