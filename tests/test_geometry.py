import random

import pytest

from supersasaki.cartan import lie_derivative
from supersasaki.geometry import (
    AlmostSymplectic,
    Chart,
    GeometryError,
    MetricTensor,
    VectorFieldM,
    acs_candidate,
    bilinear_eval,
    christoffel,
    christoffel_fd,
    eval_matrix,
    metric_compatibility_residual,
    squares_to_minus_identity,
    torsion_residual,
    vector_commutator,
)
from supersasaki.grassmann import graded_equal, parse_graded, partial
from supersasaki.sasakilift import odd_fiber_name, split_field
from supersasaki.symexpr import (
    OracleConfig,
    canonical_equal,
    eval_numeric,
    is_zero_expr,
    parse_expr,
)

SEED = 424242


def test_charts_built_separately_compare_equal():
    a = Chart(("x", "y"), {"x": (-1.0, 1.0)}, name="plane")
    b = Chart(("x", "y"), {"x": (-1.0, 1.0)}, name="plane")
    assert a is not b and a == b
    assert a != Chart(("x", "y"), name="plane")
    assert a != Chart(("x", "y"), {"x": (-1.0, 1.0)}, name="other")
    assert Chart(("x",)).intervals == {}


def _p(text):
    return parse_expr(text)


def polar_chart():
    return Chart(("r", "theta"), intervals={"r": (0.4, 1.6), "theta": (0.1, 1.3)}, name="polar")


def polar_metric():
    ch = polar_chart()
    return MetricTensor(ch, [[_p("1"), _p("0")], [_p("0"), _p("r^2")]])


def misner_metric():
    ch = Chart(("t", "phi"), intervals={"t": (0.5, 1.5), "phi": (0.2, 1.2)}, name="misner")
    return MetricTensor(ch, [[_p("0"), _p("1")], [_p("1"), _p("t")]])


def test_metric_must_be_symmetric_and_nondegenerate():
    ch = Chart(("x", "y"))
    with pytest.raises(GeometryError):
        MetricTensor(ch, [[_p("1"), _p("x")], [_p("0"), _p("1")]])
    with pytest.raises(GeometryError, match="metric determinant is identically zero"):
        MetricTensor(ch, [[_p("1"), _p("1")], [_p("1"), _p("1")]])


def test_two_form_must_be_antisymmetric_and_nondegenerate():
    ch = Chart(("x", "y"))
    AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    with pytest.raises(GeometryError):
        AlmostSymplectic(ch, [[_p("0"), _p("1")], [_p("1"), _p("0")]])
    with pytest.raises(GeometryError, match="two-form determinant is identically zero"):
        AlmostSymplectic(ch, [[_p("0"), _p("0")], [_p("0"), _p("0")]])


def test_polar_christoffel_classical_values():
    g = polar_metric()
    gamma = christoffel(g)
    # upper index, then the two lower slots
    assert canonical_equal(gamma.entry(0, 1, 1), _p("-r"))
    assert canonical_equal(gamma.entry(1, 0, 1), _p("1/r"))
    assert canonical_equal(gamma.entry(1, 1, 0), _p("1/r"))
    assert is_zero_expr(gamma.entry(0, 0, 0))
    assert is_zero_expr(gamma.entry(0, 0, 1))
    assert is_zero_expr(gamma.entry(1, 1, 1))


def test_degenerate_block_metric_christoffel():
    g = misner_metric()
    gamma = christoffel(g)
    assert canonical_equal(gamma.entry(0, 0, 1), _p("1/2"))
    assert canonical_equal(gamma.entry(0, 1, 0), _p("1/2"))
    assert canonical_equal(gamma.entry(0, 1, 1), _p("1/2*t"))
    assert canonical_equal(gamma.entry(1, 1, 1), _p("-1/2"))
    assert is_zero_expr(gamma.entry(0, 0, 0))
    assert is_zero_expr(gamma.entry(1, 0, 0))
    assert is_zero_expr(gamma.entry(1, 0, 1))
    assert is_zero_expr(gamma.entry(1, 1, 0))


def test_compatibility_and_torsion_residuals_vanish():
    for g in (polar_metric(), misner_metric()):
        gamma = christoffel(g)
        R = metric_compatibility_residual(g, gamma)
        n = g.chart.dim
        for c in range(n):
            for a in range(n):
                for b in range(n):
                    assert is_zero_expr(R[c][a][b]), f"nabla g != 0 at {(c, a, b)}"
        T = torsion_residual(gamma)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert is_zero_expr(T[a][b][c]), f"torsion != 0 at {(a, b, c)}"


def test_finite_difference_cross_check():
    rng = random.Random(SEED)
    for g in (polar_metric(), misner_metric()):
        gamma = christoffel(g)
        n = g.chart.dim
        worst = 0.0
        for _ in range(25):
            point = {
                c: rng.uniform(*g.chart.intervals[c]) for c in g.chart.coords
            }
            fd = christoffel_fd(g, point)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        sym = eval_numeric(gamma.entry(a, b, c), point)
                        worst = max(worst, abs(sym - fd[a][b][c]))
        assert worst < 1e-6, f"finite differences disagree, worst {worst:.3e}"
        print(f"{g.chart.name}: fd worst {worst:.3e}")


def _covariant_derivative(gamma, X):
    """(DX)^a_b, the coefficient of dx^b in N_{L_X}^a = split_field(L_X)^a."""
    dx = [odd_fiber_name(c) for c in gamma.chart.coords]
    return [[partial(Na, b).body() for b in dx] for Na in split_field(lie_derivative(X), gamma)]


def test_covariant_derivative_of_coordinate_field():
    g = polar_metric()
    gamma = christoffel(g)
    # X = d/dtheta has components (0, 1); (DX)^a_b = Gamma^a_{b theta},
    # so N_{L_X} = (-r*dtheta, dr/r)
    X = VectorFieldM(g.chart, (_p("0"), _p("1")))
    N = split_field(lie_derivative(X), gamma)
    assert graded_equal(N[0], parse_graded("-r*dtheta", N[0].table))
    assert graded_equal(N[1], parse_graded("dr/r", N[1].table))
    DX = _covariant_derivative(gamma, X)
    assert canonical_equal(DX[0][1], _p("-r"))
    assert canonical_equal(DX[1][0], _p("1/r"))
    assert is_zero_expr(DX[0][0])
    assert is_zero_expr(DX[1][1])


def test_bilinear_eval_orders_indices():
    ch = Chart(("x", "y"))
    om = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    X = (_p("1"), _p("0"))
    Y = (_p("0"), _p("1"))
    # X^a Y^b B[a][b]
    assert canonical_equal(bilinear_eval(om.matrix, X, Y), _p("-1"))
    assert canonical_equal(bilinear_eval(om.matrix, Y, X), _p("1"))


def test_vector_commutator_is_antisymmetric_and_jacobi():
    ch = Chart(("x", "y"))
    cfg = OracleConfig(samples=20, tol=1e-9, seed=SEED)
    rng = random.Random(SEED)
    pool = ["x", "y", "x*y", "x^2", "1", "0", "x + y"]
    for _ in range(10):
        X = VectorFieldM(ch, (_p(rng.choice(pool)), _p(rng.choice(pool))))
        Y = VectorFieldM(ch, (_p(rng.choice(pool)), _p(rng.choice(pool))))
        Z = VectorFieldM(ch, (_p(rng.choice(pool)), _p(rng.choice(pool))))
        XY = vector_commutator(X, Y)
        YX = vector_commutator(Y, X)
        for a in range(2):
            assert cfg.equal(XY.components[a], parse_expr("-1") * YX.components[a]) or canonical_equal(
                XY.components[a], _p("-1") * YX.components[a]
            )
        jac = vector_commutator(vector_commutator(X, Y), Z).components
        jac2 = vector_commutator(vector_commutator(Y, Z), X).components
        jac3 = vector_commutator(vector_commutator(Z, X), Y).components
        for a in range(2):
            total = jac[a] + jac2[a] + jac3[a]
            assert cfg.equal(total, _p("0")), "Jacobi identity failed"


def test_acs_candidate_squares_to_minus_identity():
    ch = Chart(("x", "y"), intervals={"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
    g = MetricTensor(ch, [[_p("1"), _p("0")], [_p("0"), _p("1")]])
    om = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    J = acs_candidate(g, om)
    assert squares_to_minus_identity(J)
    # and against a mismatched pair the square test reports false
    g2 = MetricTensor(ch, [[_p("4"), _p("0")], [_p("0"), _p("1")]])
    J2 = acs_candidate(g2, om)
    assert not squares_to_minus_identity(J2)


def test_matrix_inverse_block_metric():
    from supersasaki.geometry import matrix_inverse, matrix_mul

    g = misner_metric()
    inv = matrix_inverse(g.matrix)
    assert canonical_equal(inv[0][0], _p("-t"))
    assert canonical_equal(inv[0][1], _p("1"))
    assert canonical_equal(inv[1][0], _p("1"))
    assert is_zero_expr(inv[1][1])
    prod = matrix_mul(g.matrix, inv)
    for a in range(2):
        for b in range(2):
            want = _p("1") if a == b else _p("0")
            assert canonical_equal(prod[a][b], want), "g*g^-1 != Id"


def test_matrix_inverse_rejects_degenerate_input():
    from supersasaki.geometry import matrix_inverse

    with pytest.raises(GeometryError):
        matrix_inverse(((_p("1"), _p("1")), (_p("1"), _p("1"))))
    # the Jacobian of an immersion of R^2 in R^3 has no inverse
    with pytest.raises(GeometryError, match="3x2"):
        matrix_inverse(((_p("1"), _p("0")), (_p("0"), _p("1")), (_p("x"), _p("y"))))


def test_flat_chart_has_no_connection_symbols():
    ch = Chart(("x", "y"))
    g = MetricTensor(ch, [[_p("1"), _p("0")], [_p("0"), _p("1")]])
    gamma = christoffel(g)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert is_zero_expr(gamma.entry(a, b, c))


def test_covariant_derivative_flat_cases():
    ch = Chart(("x", "y"))
    g = MetricTensor(ch, [[_p("1"), _p("0")], [_p("0"), _p("1")]])
    gamma = christoffel(g)
    # Euler field: (DX)^a_b = d_b X^a = identity
    X = VectorFieldM(ch, (_p("x"), _p("y")))
    DX = _covariant_derivative(gamma, X)
    for a in range(2):
        for b in range(2):
            want = _p("1") if a == b else _p("0")
            assert canonical_equal(DX[a][b], want)
    # constant field: zero matrix
    C = VectorFieldM(ch, (_p("3"), _p("-1")))
    DC = _covariant_derivative(gamma, C)
    assert all(is_zero_expr(DC[a][b]) for a in range(2) for b in range(2))


def test_covariant_derivative_of_time_direction():
    g = misner_metric()
    gamma = christoffel(g)
    X = VectorFieldM(g.chart, (_p("1"), _p("0")))
    DX = _covariant_derivative(gamma, X)
    for a in range(2):
        for c in range(2):
            assert canonical_equal(DX[a][c], gamma.entry(a, 0, c)), (
                "coordinate field derivative should read off the symbols"
            )


def test_bilinear_eval_antisymmetric_diagonal_vanishes():
    ch = Chart(("x", "y"))
    om = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    X = (_p("x + y"), _p("x*y"))
    assert is_zero_expr(bilinear_eval(om.matrix, X, X))


def test_eval_matrix_numeric_round_trip():
    g = polar_metric()
    vals = eval_matrix(g.matrix, {"r": 2.0, "theta": 0.3})
    assert vals[0][0] == 1.0 and abs(vals[1][1] - 4.0) < 1e-12
