"""Chart changes: smooth maps between charts, their prolongation to the
odd tangent bundle and its tangent bundle, transport of the classical
tensors, and the naturality check for the lifted metric.

A map y = psi(x) prolongs through two first-order operators over the
source's tables: the de Rham differential d = dx^a d/dx^a and the tangent
lift T = udot d/du, summed over the generators u of the source's odd
tangent bundle (so over x^a and dx^a). Each target generator goes to

    y^alpha      -> y^alpha(x)
    dy^alpha     -> d(y^alpha(x))
    wdot         -> T(image of w)    for w = y^alpha and w = dy^alpha

which, with J the Jacobian d y^alpha/d x^a, expands to the blocks

    y^alpha      -> y^alpha(x)
    dy^alpha     -> dx^a J[alpha][a]
    ydot^alpha   -> xdot^b J[alpha][b]
    dydot^alpha  -> dxdot^c J[alpha][c] + xdot^b dx^c d2y^alpha/(dx^c dx^b)

Pulling a function back substitutes these images (`pullback`), and the
tensors move the same way, read as functions: the metric as
xdot^a xdot^b g_ba and the two-form as dx^a dx^b omega_ba, with
(psi* B)[a][b] = 1/2 d_a d_b psi*(form), which expands to
J[alpha][a] J[beta][b] B[alpha][beta] o psi. The new Christoffel symbol
Gamma'^a_{bc} is the coefficient of xdot^b dx^c in the pulled-back
splitting covectors (J^-1)[a][alpha] psi*(nabla(ydot^alpha)), which
expands to the inhomogeneous law (J^-1)[a][alpha] (Gamma^alpha_{beta gamma}
o psi J[beta][b] J[gamma][c] + d2 y^alpha/(dx^b dx^c)).

Pulling a vector field X = A^alpha d/dy^alpha + B^alpha d/d(dy^alpha)
back solves the two triangular systems

    J[alpha][a] A'^a = psi*(A^alpha)
    J[alpha][b] B'^b = psi*(B^alpha) - A'(psi* dy^alpha)

with the symbolic inverse Jacobian, where A' = A'^a d/dx^a; the last term
expands to A'^a dx^c d2y^alpha/(dx^a dx^c). The naturality check compares
the pullback of the target's lifted metric against the source's own
lifted metric; it vanishes whenever the map is an isometry for the
metrics and a symplectomorphism for the two-forms.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

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
    contract,
    graded_equal,
    gsubstitute,
    partial,
)
from .sasakilift import (
    LiftedGeometry,
    VectorFieldPTM,
    apply_first_order,
    nabla_dot,
    odd_fiber_name,
    pairing_via_lift,
    ptm_table,
    tptm_table,
    velocity_name,
)
from .report import CheckOutcome, residual_outcome
from .symexpr import (
    Const,
    Expr,
    OracleConfig,
    Var,
    differentiate,
    free_vars,
    simplify,
    substitute,
)


class SmoothMap:
    """y^alpha = components[alpha](x); the optional inverse is checked to
    compose to the identity. prolongations holds the map's images over each
    source table, filled by `prolong`."""

    __slots__ = ("source", "target", "components", "inverse", "name", "prolongations")

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
        self.prolongations: dict[GeneratorTable, Mapping[str, GradedExpr]] = {}
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
            cfg = OracleConfig(intervals=self.source.intervals)
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


def _solve(K: Matrix, rhs: Sequence[GradedExpr]) -> list[GradedExpr]:
    """K . rhs: row a of K contracted with the right-hand sides."""
    out = []
    for row in K:
        total = GradedExpr.zero(rhs[0].table)
        for k, r in zip(row, rhs):
            total = total + r.scale(k)
        out.append(total)
    return out


def prolong(psi: SmoothMap, table: GeneratorTable) -> Mapping[str, GradedExpr]:
    """Images of the target's generators over `table`, the source's odd
    tangent bundle table (y and dy) or its tangent bundle table (also every
    velocity): y -> y(x), dy -> d(y(x)), wdot -> T(image of w). Built once
    per map and table, and read-only since every later call shares it."""
    if table in psi.prolongations:
        return psi.prolongations[table]
    d = [(GradedExpr.generator(table, odd_fiber_name(x)), x) for x in psi.source.coords]
    images: dict[str, GradedExpr] = {}
    for yc, comp in zip(psi.target.coords, psi.components):
        images[yc] = GradedExpr.scalar(table, comp)
        images[odd_fiber_name(yc)] = apply_first_order(d, images[yc])
    if table == tptm_table(psi.source):
        T = [
            (GradedExpr.generator(table, velocity_name(u)), u)
            for u in ptm_table(psi.source).names
        ]
        for w, image in list(images.items()):
            images[velocity_name(w)] = apply_first_order(T, image)
    psi.prolongations[table] = MappingProxyType(images)
    return psi.prolongations[table]


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

def _slots(
    chart: Chart, tensor: MetricTensor | AlmostSymplectic
) -> tuple[GeneratorTable, list[str]]:
    """The table of the tensor's form on `chart` and the generators u^a it
    is quadratic in: xdot^a for a metric, dx^a for a two-form."""
    if isinstance(tensor, MetricTensor):
        return tptm_table(chart), [velocity_name(c) for c in chart.coords]
    return ptm_table(chart), [odd_fiber_name(c) for c in chart.coords]


def _form(tensor: MetricTensor | AlmostSymplectic) -> GradedExpr:
    """u^a u^b B_ba over the tensor's own chart."""
    table, slots = _slots(tensor.chart, tensor)
    U = [GradedExpr.generator(table, u) for u in slots]
    return contract(tensor.matrix, U, U)


def _pulled_form(
    psi: SmoothMap, tensor: MetricTensor | AlmostSymplectic
) -> GradedExpr:
    """psi* of the form of a tensor on the map's target."""
    if tensor.chart != psi.target:
        what = "metric" if isinstance(tensor, MetricTensor) else "two-form"
        raise GeometryError(f"{what} lives on a different chart than the map's target")
    return pullback(psi, _form(tensor))


def _pullback_form(
    psi: SmoothMap, tensor: MetricTensor | AlmostSymplectic
) -> Matrix:
    """(psi* B)[a][b] = 1/2 d_a d_b psi*(form of B), taking d_b first."""
    f = _pulled_form(psi, tensor)
    half = Const(Fraction(1, 2))
    _, slots = _slots(psi.source, tensor)
    firsts = [partial(f, b) for b in slots]
    return tuple(tuple(partial(fb, a).scale(half).body() for fb in firsts) for a in slots)


def pullback_tensor(
    psi: SmoothMap, tensor: MetricTensor | AlmostSymplectic
) -> MetricTensor | AlmostSymplectic:
    """(psi* B)[a][b] = J[alpha][a] J[beta][b] B[alpha][beta] o psi, of the
    tensor's own class: symmetry of a metric and antisymmetry of a two-form
    both survive."""
    return type(tensor)(psi.source, _pullback_form(psi, tensor))


def transform_christoffel(
    psi: SmoothMap, gamma: ChristoffelSymbols
) -> ChristoffelSymbols:
    """Gamma'^a_{bc} = the body of d/d(dx^c) d/d(xdot^b) F^a for
    F = (J^-1) psi*(nabla_dot(gamma)) (see module docstring)."""
    if gamma.chart != psi.target:
        raise GeometryError("symbols live on a different chart than the map's target")
    F = _solve(jacobian_inverse(psi), [pullback(psi, nabla) for nabla in nabla_dot(gamma)])
    xdot = [velocity_name(c) for c in psi.source.coords]
    dx = [odd_fiber_name(c) for c in psi.source.coords]
    symbols = tuple(
        tuple(tuple(partial(partial(Fa, b), c).body() for c in dx) for b in xdot) for Fa in F
    )
    return ChristoffelSymbols(psi.source, symbols)


def preserves(
    psi: SmoothMap,
    source: MetricTensor | AlmostSymplectic,
    target: MetricTensor | AlmostSymplectic,
    config: OracleConfig | None = None,
) -> bool:
    """Does psi* target equal source, as forms u^a u^b B_ba? For metrics
    this asks whether psi is an isometry, for two-forms whether it is a
    symplectomorphism. The pulled-back form is compared as it is, so a
    degenerate map answers no."""
    cfg = config or OracleConfig(intervals=psi.source.intervals)
    return graded_equal(_pulled_form(psi, target), _form(source), cfg)


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
    pulled = [gsubstitute(c, images, table) for c in V.coefficients]
    A = _solve(K, pulled[:n_tgt])
    op = list(zip(A, psi.source.coords))
    B = _solve(
        K,
        [
            pulled[n_tgt + al] - apply_first_order(op, images[odd_fiber_name(yc)])
            for al, yc in enumerate(psi.target.coords)
        ],
    )
    return VectorFieldPTM(table, tuple(A + B), V.parity)


def check_naturality(
    psi: SmoothMap,
    source_lift: LiftedGeometry,
    target_lift: LiftedGeometry,
    config: OracleConfig | None = None,
) -> CheckOutcome:
    """Pull the target's lifted metric back along the prolonged map and
    compare with the source's own lifted metric."""
    return residual_outcome(
        "pullback of the lifted metric equals the source lift",
        [pullback(psi, target_lift.lifted)],
        [source_lift.lifted],
        config or OracleConfig(intervals=psi.source.intervals),
    )


def pairing_invariance(
    psi: SmoothMap,
    source_lift: LiftedGeometry,
    target_lift: LiftedGeometry,
    fields: Sequence[tuple[str, VectorFieldPTM]],
    config: OracleConfig | None = None,
) -> tuple[CheckOutcome, ...]:
    """<psi*X | psi*Y> on the source chart against psi*<X|Y> from the
    target chart, for every pair X = fields[i], Y = fields[j] with i <= j
    of (name, field) entries given over the target's odd tangent bundle.
    Each field is pulled back once."""
    cfg = config or OracleConfig(intervals=psi.source.intervals)
    pulled = [field_pullback(psi, V) for _, V in fields]
    out = []
    for i, (name_i, X) in enumerate(fields):
        for j in range(i, len(fields)):
            name_j, Y = fields[j]
            lhs = pairing_via_lift(pulled[i], pulled[j], source_lift)
            rhs = pullback(psi, pairing_via_lift(X, Y, target_lift))
            out.append(
                residual_outcome(
                    f"<{name_i} | {name_j}> invariant under {psi.name}", [lhs], [rhs], cfg
                )
            )
    return tuple(out)
