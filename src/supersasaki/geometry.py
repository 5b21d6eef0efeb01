"""Classical chart-level geometry: metric, two-form, Levi-Civita symbols,
and numeric finite-difference cross-checks.

Index conventions, fixed once for the whole package:

  * bilinear_eval(B, X, Y) = sum_ab X^a Y^b B[a][b]
  * christoffel: Gamma^a_{bc} = 1/2 g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc),
    symmetric in the lower pair
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .symexpr import (
    Add,
    Const,
    Div,
    Expr,
    Interval,
    Mul,
    ONE,
    ZERO,
    differentiate,
    eval_numeric,
    is_zero_expr,
    neg,
    simplify,
    to_text,
)
from .symexpr.expr import FUNCTIONS

Matrix = tuple[tuple[Expr, ...], ...]

# Printed in every report so outputs are self-describing.
OMEGA_DICTIONARY_NOTE = (
    "two-form dictionary: sum_{a<b} c_ab dx^a^dx^b is stored with "
    "matrix[a][b] = -c_ab for a < b (antisymmetric completion); the "
    "quadratic fiber block is xi^a xi^b matrix[b][a]"
)


class GeometryError(ValueError):
    """Malformed chart data: wrong shapes, bad symmetry, degenerate forms."""


class Chart:
    """Named coordinates plus the box domain used for sampling checks.
    Charts compare by value."""

    __slots__ = ("coords", "intervals", "name")

    def __init__(
        self,
        coords: tuple[str, ...],
        intervals: Mapping[str, Interval] | None = None,
        name: str = "chart",
    ) -> None:
        intervals = {} if intervals is None else intervals
        if not coords:
            raise GeometryError("a chart needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise GeometryError(f"duplicate coordinate names: {coords}")
        for c in coords:
            if c in FUNCTIONS:
                raise GeometryError(f"coordinate {c!r} collides with a function name")
        for key in intervals:
            if key not in coords:
                raise GeometryError(f"interval given for unknown coordinate {key!r}")
        self.coords = coords
        self.intervals = intervals
        self.name = name

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Chart:
            return NotImplemented
        return (
            self.coords == other.coords
            and self.intervals == other.intervals
            and self.name == other.name
        )

    @property
    def dim(self) -> int:
        return len(self.coords)


def _as_matrix(rows: Sequence[Sequence[Expr]], dim: int, what: str) -> Matrix:
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise GeometryError(f"{what} must be a {dim}x{dim} matrix")
    return tuple(tuple(simplify(e) for e in row) for row in rows)


class MetricTensor:
    """Symmetric nondegenerate metric; `inverse` is g^-1, computed once."""

    __slots__ = ("chart", "matrix", "inverse")

    def __init__(self, chart: Chart, matrix: Sequence[Sequence[Expr]]) -> None:
        m = _as_matrix(matrix, chart.dim, "metric")
        n = chart.dim
        for a in range(n):
            for b in range(a + 1, n):
                if m[a][b] != m[b][a]:
                    raise GeometryError(
                        f"metric is not symmetric at ({a},{b}): "
                        f"{to_text(m[a][b])} vs {to_text(m[b][a])}"
                    )
        try:
            self.inverse = matrix_inverse(m)
        except GeometryError:
            raise GeometryError("metric determinant is identically zero") from None
        self.chart = chart
        self.matrix = m


class AlmostSymplectic:
    """Antisymmetric nondegenerate coefficient matrix of a two-form.

    Dictionary for classical input: the two-form sum_{a<b} c_ab dx^a^dx^b
    is stored with matrix[a][b] = -c_ab for a < b (and the antisymmetric
    completion), so that pairings computed as U^a V^b matrix[a][b] and the
    squared odd fiber expansion xi^a xi^b matrix[b][a] both come out with
    the signs the checked identities require.
    """

    __slots__ = ("chart", "matrix")

    def __init__(self, chart: Chart, matrix: Sequence[Sequence[Expr]]) -> None:
        m = _as_matrix(matrix, chart.dim, "two-form")
        n = chart.dim
        for a in range(n):
            for b in range(a, n):
                if not is_zero_expr(Add.of(m[a][b], m[b][a])):
                    raise GeometryError(
                        f"two-form matrix is not antisymmetric at ({a},{b})"
                    )
        try:
            matrix_inverse(m)
        except GeometryError:
            raise GeometryError("two-form determinant is identically zero") from None
        self.chart = chart
        self.matrix = m


class VectorFieldM:
    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[Expr]) -> None:
        if len(components) != chart.dim:
            raise GeometryError("vector field has wrong number of components")
        self.chart = chart
        self.components = tuple(simplify(e) for e in components)


class ChristoffelSymbols:
    """gamma[a][b][c] = Gamma^a_{bc}, symmetric in (b, c)."""

    __slots__ = ("chart", "gamma")

    def __init__(
        self, chart: Chart, gamma: tuple[tuple[tuple[Expr, ...], ...], ...]
    ) -> None:
        n = chart.dim
        g = gamma
        if len(g) != n or any(len(p) != n or any(len(r) != n for r in p) for p in g):
            raise GeometryError("christoffel table must be dim^3")
        self.chart = chart
        self.gamma = gamma

    def entry(self, a: int, b: int, c: int) -> Expr:
        return self.gamma[a][b][c]


# ---------------------------------------------------------------------------
# matrix algebra

def matrix_inverse(m: Matrix | Sequence[Sequence[Expr]]) -> Matrix:
    """Gauss-Jordan elimination of [m | I] with every entry simplified.

    A simplified entry is zero exactly when it equals ZERO, so the pivot of
    a column is its first non-ZERO entry on or below the diagonal, and zero
    entries are carried without arithmetic. A column with no pivot means
    the determinant is identically zero."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise GeometryError(f"cannot invert a {n}x{len(row)} matrix")
    aug = [
        [simplify(e) for e in row] + [ONE if i == j else ZERO for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != ZERO), None)
        if pivot is None:
            raise GeometryError("matrix is singular (determinant identically zero)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        # columns up to the pivot's are never read again, so only the top
        # row's nonzero columns right of it are updated
        right = [j for j in range(col + 1, 2 * n) if top[j] != ZERO]
        for j in right:
            top[j] = simplify(Div(top[j], p))
        for row in aug:
            f = row[col]
            if row is not top and f != ZERO:
                for j in right:
                    row[j] = simplify(Add.of(row[j], neg(Mul.of(f, top[j]))))
    return tuple(tuple(row[n:]) for row in aug)


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(
            simplify(Add.of(*(Mul.of(a[i][k], b[k][j]) for k in range(n))))
            for j in range(n)
        )
        for i in range(n)
    )


def eval_matrix(m: Matrix, point: Mapping[str, float]) -> list[list[float]]:
    return [[eval_numeric(e, point) for e in row] for row in m]


# ---------------------------------------------------------------------------
# covariant machinery

def christoffel(g: MetricTensor) -> ChristoffelSymbols:
    """Levi-Civita connection coefficients of g."""
    chart = g.chart
    n = chart.dim
    ginv = g.inverse
    coords = chart.coords
    dg = [
        [[differentiate(g.matrix[a][b], coords[c]) for c in range(n)] for b in range(n)]
        for a in range(n)
    ]
    half = Const(Fraction(1, 2))
    gamma = []
    for a in range(n):
        plane = []
        for b in range(n):
            row = []
            for c in range(n):
                pieces = []
                for d in range(n):
                    bracket = Add.of(
                        dg[d][c][b],          # d_b g_dc
                        dg[b][d][c],          # d_c g_bd
                        neg(dg[b][c][d]),     # -d_d g_bc
                    )
                    pieces.append(Mul.of(ginv[a][d], bracket))
                row.append(simplify(Mul.of(half, Add.of(*pieces))))
            plane.append(tuple(row))
        gamma.append(tuple(plane))
    return ChristoffelSymbols(chart, tuple(gamma))


def metric_compatibility_residual(
    g: MetricTensor, gamma: ChristoffelSymbols
) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
    """R[c][a][b] = d_c g_ab - Gamma^d_{ca} g_db - Gamma^d_{cb} g_ad;
    identically zero exactly when the symbols are metric for g."""
    chart = g.chart
    n = chart.dim
    out = []
    for c in range(n):
        plane = []
        for a in range(n):
            row = []
            for b in range(n):
                terms = [differentiate(g.matrix[a][b], chart.coords[c])]
                for d in range(n):
                    terms.append(neg(Mul.of(gamma.entry(d, c, a), g.matrix[d][b])))
                    terms.append(neg(Mul.of(gamma.entry(d, c, b), g.matrix[a][d])))
                row.append(simplify(Add.of(*terms)))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def torsion_residual(
    gamma: ChristoffelSymbols,
) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
    """T[a][b][c] = Gamma^a_{bc} - Gamma^a_{cb}; zero for a symmetric
    connection."""
    n = gamma.chart.dim
    return tuple(
        tuple(
            tuple(
                simplify(Add.of(gamma.entry(a, b, c), neg(gamma.entry(a, c, b))))
                for c in range(n)
            )
            for b in range(n)
        )
        for a in range(n)
    )


def bilinear_eval(
    B: Matrix, X: Sequence[Expr], Y: Sequence[Expr]
) -> Expr:
    """sum_ab X^a Y^b B[a][b], simplified."""
    n = len(B)
    terms = []
    for a in range(n):
        for b in range(n):
            terms.append(Mul.of(X[a], Y[b], B[a][b]))
    return simplify(Add.of(*terms))


def vector_commutator(X: VectorFieldM, Y: VectorFieldM) -> VectorFieldM:
    """[X, Y]^a = X^b d_b Y^a - Y^b d_b X^a."""
    chart = X.chart
    n = chart.dim
    comps = []
    for a in range(n):
        terms = []
        for b in range(n):
            terms.append(Mul.of(X.components[b], differentiate(Y.components[a], chart.coords[b])))
            terms.append(neg(Mul.of(Y.components[b], differentiate(X.components[a], chart.coords[b]))))
        comps.append(simplify(Add.of(*terms)))
    return VectorFieldM(chart, tuple(comps))


def acs_candidate(g: MetricTensor, omega: AlmostSymplectic) -> Matrix:
    """J with J_a^b = omega_ac g^cb; squares to -Id exactly when the pair
    is compatible in the usual sense. Row index a, column index b."""
    return matrix_mul(omega.matrix, g.inverse)


def squares_to_minus_identity(J: Matrix) -> bool:
    n = len(J)
    J2 = matrix_mul(J, J)
    return all(
        J2[i][j] == (Const(Fraction(-1)) if i == j else ZERO)
        for i in range(n)
        for j in range(n)
    )


# ---------------------------------------------------------------------------
# numeric cross-check: connection symbols by finite differences

_FD_STEP = 1e-5


def christoffel_fd(g: MetricTensor, point: Mapping[str, float]) -> list[list[list[float]]]:
    """Levi-Civita symbols at a point from central differences of the
    metric entries; independent of the symbolic derivative path."""
    chart = g.chart
    n = chart.dim
    coords = chart.coords

    def metric_shifted(c: str, delta: float) -> list[list[float]]:
        q = dict(point)
        q[c] = q[c] + delta
        return eval_matrix(g.matrix, q)

    plus = [metric_shifted(c, _FD_STEP) for c in coords]
    minus = [metric_shifted(c, -_FD_STEP) for c in coords]
    dg = [
        [[(plus[c][a][b] - minus[c][a][b]) / (2 * _FD_STEP) for c in range(n)] for b in range(n)]
        for a in range(n)
    ]
    gmat = eval_matrix(g.matrix, point)
    ginv = invert_numeric(gmat)
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                s = 0.0
                for d in range(n):
                    s += ginv[a][d] * (dg[d][c][b] + dg[b][d][c] - dg[b][c][d])
                gamma[a][b][c] = 0.5 * s
    return gamma


def invert_numeric(m: list[list[float]]) -> list[list[float]]:
    n = len(m)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-14:
            raise GeometryError("numeric matrix is singular at the sample point")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
