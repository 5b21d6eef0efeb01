import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersasaki.geometry import (
    AlmostSymplectic,
    Chart,
    ChristoffelSymbols,
    GeometryError,
    MetricTensor,
    christoffel,
)
from supersasaki.grassmann import (
    ODD,
    EVEN,
    GradedExpr,
    extend_to,
    gmul,
    graded_equal,
    graded_to_text,
    gsubstitute,
    parse_graded,
)
from supersasaki.sasakilift import (
    lift_geometry,
    odd_fiber_name,
    ptm_table,
    random_field,
    tptm_table,
    velocity_name,
)
from supersasaki.symexpr import (
    Add,
    Const,
    Mul,
    OracleConfig,
    Var,
    canonical_equal,
    differentiate,
    is_zero_expr,
    parse_expr,
    simplify,
    substitute,
)
from supersasaki.symexpr.canonical import to_canonical
from supersasaki import transform
from supersasaki.cli import main
from supersasaki.report import CheckOutcome
from supersasaki.specfiles import load_geometry, load_map
from supersasaki.transform import (
    SmoothMap,
    check_naturality,
    field_pullback,
    jacobian,
    jacobian_inverse,
    pairing_invariance,
    preserves,
    prolong,
    pullback,
    pullback_tensor,
    transform_christoffel,
)

SEED = 90210
SPECS = Path(__file__).resolve().parents[1] / "specs"


def _p(text):
    return parse_expr(text)


def euclidean_chart(name="euclidean2"):
    return Chart(("x", "y"), intervals={"x": (-1.0, 1.0), "y": (-1.0, 1.0)}, name=name)


def euclidean_data(ch=None):
    ch = ch or euclidean_chart()
    g = MetricTensor(ch, [[_p("1"), _p("0")], [_p("0"), _p("1")]])
    om = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    return g, om


def polar_chart():
    return Chart(("r", "theta"), intervals={"r": (0.4, 1.6), "theta": (0.1, 1.3)}, name="polar")


def rotation(angle_text="1"):
    ch = euclidean_chart()
    c, s = f"cos({angle_text})", f"sin({angle_text})"
    return SmoothMap(
        ch,
        ch,
        (_p(f"{c}*x - {s}*y"), _p(f"{s}*x + {c}*y")),
        inverse=(_p(f"{c}*x + {s}*y"), _p(f"-{s}*x + {c}*y")),
        name="rotation",
    )


def doubling():
    ch = euclidean_chart()
    return SmoothMap(
        ch, ch, (_p("2*x"), _p("2*y")), inverse=(_p("x/2"), _p("y/2")), name="scaling"
    )


def polar_to_cartesian():
    return SmoothMap(
        polar_chart(),
        euclidean_chart(),
        (_p("r*cos(theta)"), _p("r*sin(theta)")),
        name="polar_to_cartesian",
    )


def bend():
    src = Chart(("u", "v"), intervals={"u": (0.2, 1.0), "v": (0.2, 1.0)}, name="uv")
    return SmoothMap(src, euclidean_chart(), (_p("u"), _p("u^2 + v")), name="bend")


def test_map_validation():
    ch = euclidean_chart()
    with pytest.raises(GeometryError):
        SmoothMap(ch, ch, (_p("x"),))  # wrong arity
    with pytest.raises(GeometryError):
        SmoothMap(ch, ch, (_p("x"), _p("z")))  # unknown source name
    with pytest.raises(GeometryError):
        SmoothMap(ch, ch, (_p("2*x"), _p("2*y")), inverse=(_p("x"), _p("y")))


def test_prolongation_blocks():
    psi = doubling()
    images = prolong(psi, tptm_table(psi.source))
    src = tptm_table(psi.source)
    assert graded_equal(images["dx"], parse_graded("2*dx", src))
    assert graded_equal(images["xdot"], parse_graded("2*xdot", src))
    assert graded_equal(images["dxdot"], parse_graded("2*dxdot", src))
    assert graded_equal(images["x"], parse_graded("2*x", src))


def test_prolongation_second_order_block():
    # y = x^2 style curvature shows up only in the d(xdot) image
    psi = bend()
    table = tptm_table(psi.source)
    images = prolong(psi, table)
    assert graded_equal(images["dydot"], parse_graded("2*u*dudot + dvdot + 2*udot*du", table))
    assert graded_equal(images["dy"], parse_graded("2*u*du + dv", table))
    assert graded_equal(images["ydot"], parse_graded("2*u*udot + vdot", table))


def test_prolongation_to_the_odd_tangent_bundle():
    # over the ptm table only the y and dy blocks are built, and they agree
    # with the same blocks of the full prolongation
    for psi in (polar_to_cartesian(), bend()):
        cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
        ptm, tptm = ptm_table(psi.source), tptm_table(psi.source)
        short = prolong(psi, ptm)
        full = prolong(psi, tptm)
        assert set(short) == set(ptm_table(psi.target).names)
        for gen, image in short.items():
            assert image.table == ptm
            assert graded_equal(extend_to(image, tptm), full[gen], cfg), f"{psi.name}: {gen}"
        f = parse_graded("x*y*dx + y^2*dy + x*dx*dy", ptm_table(psi.target))
        pulled = pullback(psi, f)
        assert pulled.table == ptm
        via_full = pullback(psi, extend_to(f, tptm_table(psi.target)))
        assert graded_equal(extend_to(pulled, tptm), via_full, cfg), psi.name


def test_prolong_builds_once_per_map_and_table():
    psi, twin, other = polar_to_cartesian(), polar_to_cartesian(), rotation("1")
    for table in (ptm_table(psi.source), tptm_table(psi.source)):
        assert prolong(psi, table) is prolong(psi, table)
        assert prolong(twin, table) is not prolong(psi, table)
    assert prolong(psi, ptm_table(psi.source)) is not prolong(psi, tptm_table(psi.source))
    table = tptm_table(other.source)
    assert not graded_equal(prolong(other, table)["x"], prolong(rotation("1/2"), table)["x"])


@pytest.mark.parametrize("suite, calls", [("naturality", 8), ("invariance", 10)])
def test_a_chart_change_job_prolongs_its_map_once_per_table(capsys, suite, calls):
    # polar -> euclidean2. naturality: one tptm prolongation (d and T give 6
    # operator applications) and one ptm prolongation (2). invariance: the
    # ptm prolongation once, plus one application per target coordinate in
    # each of the four pulled-back fields (8).
    with mock.patch.object(
        transform, "apply_first_order", side_effect=transform.apply_first_order
    ) as spy:
        code = main([
            "check", str(SPECS / "polar.json"), "--suite", suite,
            "--map", str(SPECS / "maps" / "polar_to_cartesian.json"),
            "--target", str(SPECS / "euclidean2.json"),
        ])
    capsys.readouterr()
    assert code == 0
    assert spy.call_count == calls


def test_prolongation_on_a_line():
    src = Chart(("x",), intervals={"x": (0.2, 1.0)}, name="line_x")
    tgt = Chart(("y",), intervals={"y": (0.2, 1.0)}, name="line_y")
    psi = SmoothMap(src, tgt, (_p("x^2"),), name="square")
    images = prolong(psi, tptm_table(psi.source))
    table = tptm_table(src)
    assert graded_equal(images["dydot"], parse_graded("2*x*dxdot + 2*xdot*dx", table))
    assert graded_equal(images["dy"], parse_graded("2*x*dx", table))
    assert graded_equal(images["ydot"], parse_graded("2*x*xdot", table))


# The prolongation and the pulled-back field written out by hand from the
# Jacobian and the second derivatives of the components, as the transform
# module docstring expands them: the references for d, the tangent lift and
# the A'(psi* dy) term.

def _hessian(psi, alpha):
    """H[b][c] = d2 y^alpha / (d x^b d x^c)."""
    coords = psi.source.coords
    first = [differentiate(psi.components[alpha], b) for b in coords]
    return [[differentiate(row, c) for c in coords] for row in first]


def _expanded_prolong(psi, table):
    src = psi.source.coords
    n = len(src)
    J = jacobian(psi)
    xdot = [Var(velocity_name(xc)) for xc in src]
    images = {}
    for alpha, yc in enumerate(psi.target.coords):
        images[yc] = GradedExpr.scalar(table, psi.components[alpha])
        images[odd_fiber_name(yc)] = GradedExpr.linear(
            table, [(odd_fiber_name(xc), J[alpha][a]) for a, xc in enumerate(src)]
        )
        if table != tptm_table(psi.source):
            continue
        images[velocity_name(yc)] = GradedExpr.scalar(
            table, Add.of(*(Mul.of(xdot[b], J[alpha][b]) for b in range(n)))
        )
        H = _hessian(psi, alpha)
        images[velocity_name(odd_fiber_name(yc))] = GradedExpr.linear(
            table,
            [(velocity_name(odd_fiber_name(xc)), J[alpha][c]) for c, xc in enumerate(src)]
            + [
                (odd_fiber_name(xc), Add.of(*(Mul.of(xdot[b], H[c][b]) for b in range(n))))
                for c, xc in enumerate(src)
            ],
        )
    return images


def _expanded_field_pullback(psi, V):
    """The pulled-back field's coefficients, A'^a then B'^b."""
    n = psi.source.dim
    K = jacobian_inverse(psi)
    table = ptm_table(psi.source)
    images = _expanded_prolong(psi, table)

    def solve(rhs):
        out = []
        for a in range(n):
            total = GradedExpr.zero(table)
            for al in range(n):
                total = total + rhs[al].scale(K[a][al])
            out.append(total)
        return out

    A = solve([gsubstitute(c, images, table) for c in V.components])
    rhs = []
    for al in range(n):
        H = _hessian(psi, al)
        r = gsubstitute(V.barred[al], images, table)
        for a in range(n):
            H_dx = GradedExpr.linear(
                table,
                [(odd_fiber_name(xc), H[a][c]) for c, xc in enumerate(psi.source.coords)],
            )
            r = r - gmul(A[a], H_dx)
        rhs.append(r)
    return A + solve(rhs)


SQUARE = Chart(("s", "t"), intervals={"s": (-0.5, 0.5), "t": (-0.5, 0.5)}, name="square")
NEAR_IDENTITY_TERMS = tuple(
    _p(t) for t in ("s^2", "s*t", "t^2", "s^3", "s^2*t", "s*t^2", "t^3", "sin(t)", "exp(s)")
)
SMALL_COEFFICIENTS = tuple(
    Const(sign * Fraction(k, d)) for sign in (1, -1) for k, d in ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4))
)


@st.composite
def near_identity_maps(draw):
    """(s + p1, t + p2) from [-1/2, 1/2]^2 onto euclidean2, each p_i with
    one to three terms of size at most 3/4."""
    comps = []
    for coord in SQUARE.coords:
        terms = draw(st.lists(st.sampled_from(NEAR_IDENTITY_TERMS), min_size=1, max_size=3, unique=True))
        comps.append(
            Add.of(Var(coord), *(Mul.of(draw(st.sampled_from(SMALL_COEFFICIENTS)), t) for t in terms))
        )
    return SmoothMap(SQUARE, euclidean_chart(), tuple(comps), name="near_identity")


@settings(max_examples=12, derandomize=True, deadline=None)
@given(psi=near_identity_maps(), seed=st.integers(0, 10**6))
def test_prolongation_is_d_and_the_tangent_lift(psi, seed):
    for table in (ptm_table(SQUARE), tptm_table(SQUARE)):
        images, expanded = prolong(psi, table), _expanded_prolong(psi, table)
        assert images.keys() == expanded.keys()
        for gen, image in expanded.items():
            assert images[gen].terms == image.terms, gen
    rng = random.Random(seed)
    for parity in (EVEN, ODD):
        V = random_field(psi.target, parity, rng)
        pulled = field_pullback(psi, V)
        assert [c.terms for c in pulled.coefficients] == [
            c.terms for c in _expanded_field_pullback(psi, V)
        ]
    gE, omE = euclidean_data()
    moved = lift_geometry(pullback_tensor(psi, gE), pullback_tensor(psi, omE))
    assert not (pullback(psi, lift_geometry(gE, omE).lifted) - moved.lifted).terms


# The tensor transport written out by hand from the Jacobian, as the
# transform module docstring expands it: J^T (B o psi) J for the metric and
# the two-form, and the inhomogeneous law for the connection. They are the
# references for moving tensors by `pullback`.

def _expanded_pullback_form(psi, tensor):
    """(psi* B)[a][b] = J[alpha][a] J[beta][b] B[alpha][beta] o psi."""
    n_src, n_tgt = psi.source.dim, psi.target.dim
    J = jacobian(psi)
    to_source = dict(zip(psi.target.coords, psi.components))
    B = [[simplify(substitute(e, to_source)) for e in row] for row in tensor.matrix]
    return tuple(
        tuple(
            simplify(
                Add.of(
                    *(
                        Mul.of(J[al][a], J[be][b], B[al][be])
                        for al in range(n_tgt)
                        for be in range(n_tgt)
                    )
                )
            )
            for b in range(n_src)
        )
        for a in range(n_src)
    )


def _inhomogeneous_christoffel(psi, gamma):
    """Gamma'^a_{bc} = (J^-1)[a][alpha] (Gamma^alpha_{beta gamma} o psi
    J[beta][b] J[gamma][c] + d2 y^alpha/(dx^b dx^c))."""
    src = psi.source.coords
    n_src, n_tgt = psi.source.dim, psi.target.dim
    J = jacobian(psi)
    K = jacobian_inverse(psi)
    to_source = dict(zip(psi.target.coords, psi.components))
    comp = [
        [
            [simplify(substitute(gamma.entry(al, be, ga), to_source)) for ga in range(n_tgt)]
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
                    inner = [differentiate(J[al][b], src[c])]
                    for be in range(n_tgt):
                        for ga in range(n_tgt):
                            inner.append(Mul.of(comp[al][be][ga], J[be][b], J[ga][c]))
                    terms.append(Mul.of(K[a][al], Add.of(*inner)))
                row.append(simplify(Add.of(*terms)))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return ChristoffelSymbols(psi.source, tuple(out))


def _eight_maps():
    """(map, source data, target data): the four shipped maps with their
    spec data, and four maps from [-1/2, 1/2]^2 with flat source data."""
    specs = {
        name: load_geometry(SPECS / f"{name}.json")
        for name in ("euclidean2", "polar", "misner", "varcoef")
    }

    def data(name):
        return specs[name].metric, specs[name].omega

    cases = [
        (load_map(SPECS / "maps" / f"{name}.json", specs[src], specs[tgt]), data(src), data(tgt))
        for name, src, tgt in (
            ("rotation", "euclidean2", "euclidean2"),
            ("scaling", "euclidean2", "euclidean2"),
            ("polar_to_cartesian", "polar", "euclidean2"),
            ("phi_translation", "misner", "misner"),
        )
    ]
    for comps, tgt in (
        (("s + s*t/3", "t - s^2/5"), "varcoef"),
        (("sqrt(s + 1)", "exp(t)"), "polar"),
        (("s/(1 + t)", "t"), "misner"),
        (("s + t^3", "t - s^2"), "varcoef"),
    ):
        psi = SmoothMap(SQUARE, specs[tgt].chart, tuple(map(_p, comps)), name=", ".join(comps))
        cases.append((psi, euclidean_data(SQUARE), data(tgt)))
    return tuple(cases)


EIGHT_MAPS = _eight_maps()


@st.composite
def transport_cases(draw):
    """A near-identity map onto the flat euclidean2, or one of the eight
    maps."""
    if draw(st.booleans()):
        return draw(near_identity_maps()), euclidean_data(SQUARE), euclidean_data()
    return draw(st.sampled_from(EIGHT_MAPS))


def _pairs(entries):
    return [to_canonical(e) for e in entries]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=transport_cases(), from_reference=st.booleans())
def test_tensors_and_connections_move_by_the_prolongation(case, from_reference):
    # pullback_tensor and transform_christoffel give the references'
    # canonical pairs, and the answers of preserves agree with an
    # entrywise comparison, against source data that is the reference
    # itself (from_reference) or the source chart's own
    psi, (g_source, om_source), (g_target, om_target) = case
    g_ref = _expanded_pullback_form(psi, g_target)
    om_ref = _expanded_pullback_form(psi, om_target)
    for moved, ref in (
        (pullback_tensor(psi, g_target).matrix, g_ref),
        (pullback_tensor(psi, om_target).matrix, om_ref),
    ):
        assert [_pairs(row) for row in moved] == [_pairs(row) for row in ref]
    gamma = christoffel(g_target)
    moved = transform_christoffel(psi, gamma).gamma
    ref = _inhomogeneous_christoffel(psi, gamma).gamma
    assert [[_pairs(row) for row in plane] for plane in moved] == [
        [_pairs(row) for row in plane] for plane in ref
    ]
    if from_reference:
        g_source = MetricTensor(psi.source, g_ref)
        om_source = AlmostSymplectic(psi.source, om_ref)
    cfg = OracleConfig(intervals=psi.source.intervals)

    def entrywise(pulled, source):
        return all(cfg.equal(p, q) for rp, rq in zip(pulled, source) for p, q in zip(rp, rq))

    assert preserves(psi, g_source, g_target) == entrywise(g_ref, g_source.matrix)
    assert preserves(psi, om_source, om_target) == entrywise(om_ref, om_source.matrix)


def _compose_maps(outer, inner):
    """outer o inner, for inner's target chart equal to outer's source."""
    assert inner.target.coords == outer.source.coords
    to_source = dict(zip(inner.target.coords, inner.components))
    comps = tuple(simplify(substitute(e, to_source)) for e in outer.components)
    back = dict(zip(outer.source.coords, outer.inverse))
    inv = tuple(simplify(substitute(e, back)) for e in inner.inverse)
    return SmoothMap(inner.source, outer.target, comps, inv, name=f"{outer.name} o {inner.name}")


def test_prolongation_is_functorial():
    first = rotation("1")
    second = rotation("1/2")
    composed = _compose_maps(second, first)
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=first.source.intervals)
    direct = prolong(composed, tptm_table(composed.source))
    step1 = prolong(second, tptm_table(second.source))
    table = tptm_table(first.source)
    for gen, image in direct.items():
        chained = pullback(first, step1[gen])
        assert graded_equal(image, chained, cfg), f"functoriality broke at {gen}"


def test_pullback_tensor_recovers_polar_from_flat():
    psi = polar_to_cartesian()
    gE, omE = euclidean_data()
    gP = pullback_tensor(psi, gE)
    assert canonical_equal(gP.matrix[0][0], _p("1"))
    assert canonical_equal(gP.matrix[1][1], _p("r^2"))
    assert is_zero_expr(gP.matrix[0][1])
    omP = pullback_tensor(psi, omE)
    assert canonical_equal(omP.matrix[0][1], _p("-r"))
    assert canonical_equal(omP.matrix[1][0], _p("r"))


def test_pullback_tensor_keeps_the_tensor_class():
    psi = polar_to_cartesian()
    gE, omE = euclidean_data()
    assert type(pullback_tensor(psi, gE)) is MetricTensor
    assert type(pullback_tensor(psi, omE)) is AlmostSymplectic


def test_christoffel_transport_matches_direct_computation():
    psi = polar_to_cartesian()
    gE, _ = euclidean_data()
    gP = pullback_tensor(psi, gE)
    gammaE = christoffel(gE)
    moved = transform_christoffel(psi, gammaE)
    direct = christoffel(gP)
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
    n = 2
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert cfg.equal(moved.entry(a, b, c), direct.entry(a, b, c)), (
                    f"transported Gamma disagrees at {(a, b, c)}"
                )


def test_christoffel_transport_along_a_singular_map_names_the_map():
    # (x, y) -> (x, x) has a singular Jacobian everywhere
    ch = euclidean_chart()
    gE, _ = euclidean_data()
    fold = SmoothMap(ch, ch, (_p("x"), _p("x")), name="fold")
    with pytest.raises(GeometryError) as err:
        transform_christoffel(fold, christoffel(gE))
    assert "'fold'" in str(err.value) and "invertible Jacobian" in str(err.value)


def test_pullback_of_splitting_covectors_is_jacobian_linear():
    # with the target flat and the source connection transported, pulling
    # back nabla(ydot^a) must give J^a_b nabla(xdot^b)
    from supersasaki.sasakilift import nabla_dot

    psi = polar_to_cartesian()
    gE, _ = euclidean_data()
    gammaE = christoffel(gE)
    gammaP = _inhomogeneous_christoffel(psi, gammaE)
    nabla_target = nabla_dot(gammaE)
    nabla_source = nabla_dot(gammaP)
    J = jacobian(psi)
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
    n = 2
    for alpha in range(n):
        pulled = pullback(psi, nabla_target[alpha])
        combo = GradedExpr.zero(pulled.table)
        for a in range(n):
            combo = combo + nabla_source[a].scale(J[alpha][a])
        assert graded_equal(pulled, combo, cfg), (
            f"splitting covector {alpha} does not transform linearly"
        )


def test_christoffel_naturality_across_shipped_maps():
    gE, _ = euclidean_data()
    cases = [(rotation(), gE), (doubling(), gE)]
    ch = Chart(("t", "phi"), intervals={"t": (0.5, 1.5), "phi": (0.2, 1.2)}, name="misner")
    gMis = MetricTensor(ch, [[_p("0"), _p("1")], [_p("1"), _p("t")]])
    cases.append(
        (
            SmoothMap(ch, ch, (_p("t"), _p("phi + 1")), inverse=(_p("t"), _p("phi - 1")), name="phi_translation"),
            gMis,
        )
    )
    for psi, g_target in cases:
        cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
        pulled_metric = pullback_tensor(psi, g_target)
        moved = transform_christoffel(psi, christoffel(g_target))
        direct = christoffel(pulled_metric)
        n = psi.source.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert cfg.equal(moved.entry(a, b, c), direct.entry(a, b, c)), (
                        f"{psi.name}: connection naturality broke at {(a, b, c)}"
                    )


def test_preserving_both_structures_forces_naturality():
    gE, omE = euclidean_data()
    psiP = polar_to_cartesian()
    gP = pullback_tensor(psiP, gE)
    omP = pullback_tensor(psiP, omE)
    ch = Chart(("t", "phi"), intervals={"t": (0.5, 1.5), "phi": (0.2, 1.2)}, name="misner")
    gMis = MetricTensor(ch, [[_p("0"), _p("1")], [_p("1"), _p("t")]])
    omMis = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    trans = SmoothMap(ch, ch, (_p("t"), _p("phi + 1")), inverse=(_p("t"), _p("phi - 1")), name="phi_translation")
    cases = [
        (rotation(), (gE, omE), (gE, omE)),
        (doubling(), (gE, omE), (gE, omE)),
        (psiP, (gP, omP), (gE, omE)),
        (trans, (gMis, omMis), (gMis, omMis)),
    ]
    preserved = 0
    for psi, source_data, target_data in cases:
        cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
        report = check_naturality(
            psi, lift_geometry(*source_data), lift_geometry(*target_data), cfg
        )
        isometry = preserves(psi, source_data[0], target_data[0], cfg)
        if isometry and preserves(psi, source_data[1], target_data[1], cfg):
            preserved += 1
            assert report.holds, f"{psi.name}: preserved both structures but broke the lift"
    assert preserved >= 3, "property check should not be vacuous"


def test_rotation_is_an_isometry_and_natural():
    psi = rotation()
    gE, omE = euclidean_data()
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
    assert preserves(psi, gE, gE, cfg)
    assert preserves(psi, omE, omE, cfg)
    lift = lift_geometry(gE, omE)
    report = check_naturality(psi, lift, lift, cfg)
    assert report.holds
    assert report.residual == "0"


def test_scaling_breaks_naturality_with_a_visible_residual():
    psi = doubling()
    gE, omE = euclidean_data()
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
    lift = lift_geometry(gE, omE)
    report = check_naturality(psi, lift, lift, cfg)
    assert not preserves(psi, gE, gE, cfg)
    assert not report.holds
    assert report.residual == "3*xdot^2 + 3*ydot^2 + 6*dxdot*dydot"


def test_polar_chart_naturality_is_exact():
    psi = polar_to_cartesian()
    gE, omE = euclidean_data()
    gP = pullback_tensor(psi, gE)
    omP = pullback_tensor(psi, omE)
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
    report = check_naturality(psi, lift_geometry(gP, omP), lift_geometry(gE, omE), cfg)
    assert preserves(psi, gP, gE, cfg) and preserves(psi, omP, omE, cfg)
    assert report.holds


def test_naturality_is_one_verdict_named_as_its_report_row():
    # only scaling breaks the lift; its residual is the lifted metric's
    # 4*(...) - (...) at every monomial
    for psi, (g_source, om_source), (g_target, om_target) in EIGHT_MAPS[:4]:
        cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
        outcome = check_naturality(
            psi, lift_geometry(g_source, om_source), lift_geometry(g_target, om_target), cfg
        )
        assert isinstance(outcome, CheckOutcome)
        assert outcome.name == "pullback of the lifted metric equals the source lift"
        assert outcome.holds is (psi.name != "scaling"), psi.name
        expected = "3*xdot^2 + 3*ydot^2 + 6*dxdot*dydot" if psi.name == "scaling" else "0"
        assert outcome.residual == expected, psi.name


def test_field_pullback_respects_parity_and_chart():
    psi = polar_to_cartesian()
    rng = random.Random(SEED)
    tgt_chart = psi.target
    for parity in (EVEN, ODD):
        V = random_field(tgt_chart, parity, rng)
        W = field_pullback(psi, V)
        assert W.parity == parity
        assert W.table == ptm_table(psi.source)


def test_pairing_invariance_under_chart_change():
    psi = polar_to_cartesian()
    gE, omE = euclidean_data()
    gP = pullback_tensor(psi, gE)
    omP = pullback_tensor(psi, omE)
    source_lift = lift_geometry(gP, omP)
    target_lift = lift_geometry(gE, omE)
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
    rng = random.Random(SEED)
    for parity in (EVEN, ODD):
        for _ in range(3):
            X = random_field(psi.target, parity, rng)
            Y = random_field(psi.target, rng.choice((EVEN, ODD)), rng)
            fields = [("X", X), ("Y", Y)]
            for outcome in pairing_invariance(psi, source_lift, target_lift, fields, cfg):
                assert outcome.holds, outcome.residual
    print("pairing invariance holds for sampled fields across the chart change")


def test_pairing_invariance_pulls_each_field_back_once(monkeypatch):
    from supersasaki import transform

    pulled = []

    def counting(psi, V):
        pulled.append(V)
        return field_pullback(psi, V)

    monkeypatch.setattr(transform, "field_pullback", counting)
    psi = rotation()
    gE, omE = euclidean_data()
    lift = lift_geometry(gE, omE)
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=psi.source.intervals)
    rng = random.Random(SEED)
    names = ("a", "b", "c")
    fields = [
        (name, random_field(psi.target, parity, rng))
        for name, parity in zip(names, (EVEN, ODD, EVEN))
    ]
    outcomes = pairing_invariance(psi, lift, lift, fields, cfg)
    assert len(pulled) == len(fields)
    assert [o.name for o in outcomes] == [
        f"<{x} | {y}> invariant under rotation" for i, x in enumerate(names) for y in names[i:]
    ]
    assert all(o.holds for o in outcomes)


def test_translation_along_a_symmetry_direction():
    ch = Chart(("t", "phi"), intervals={"t": (0.5, 1.5), "phi": (0.2, 1.2)}, name="misner")
    g = MetricTensor(ch, [[_p("0"), _p("1")], [_p("1"), _p("t")]])
    om = AlmostSymplectic(ch, [[_p("0"), _p("-1")], [_p("1"), _p("0")]])
    psi = SmoothMap(ch, ch, (_p("t"), _p("phi + 1")), inverse=(_p("t"), _p("phi - 1")), name="phi_translation")
    cfg = OracleConfig(samples=25, tol=1e-9, seed=SEED, intervals=ch.intervals)
    lift = lift_geometry(g, om)
    report = check_naturality(psi, lift, lift, cfg)
    assert preserves(psi, g, g, cfg) and report.holds
