"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test exercises the public surface (library calls or the CLI), pins
the tolerance it must meet, and prints a single PASS line with the
measured numbers so a log scrape shows the whole gate at a glance.
"""

import json
import random
import time
from pathlib import Path

from supersasaki.cartan import (
    cartan_commutators,
    interior,
    lie_derivative,
    verify_proposition,
)
from supersasaki.cli import main
from supersasaki.geometry import (
    VectorFieldM,
    bilinear_eval,
    christoffel,
    christoffel_fd,
    eval_matrix,
    metric_compatibility_residual,
)
from supersasaki.grassmann import (
    EVEN,
    ODD,
    GradedExpr,
    gmul,
    graded_equal,
    graded_to_text,
    parity_of,
    parse_graded,
)
from supersasaki.sasakilift import (
    VectorFieldPTM,
    classical_sasaki,
    lift_geometry,
    pairing_closed_form,
    pairing_via_lift,
    ptm_table,
    random_base_field,
    random_field,
    vector_field_on_base,
)
from supersasaki.specfiles import load_geometry
from supersasaki.symexpr import OracleConfig, canonical_equal, eval_numeric, parse_expr

SPECS = Path(__file__).resolve().parents[1] / "specs"
SEED = 2718

ALL_GEOMETRIES = (
    "euclidean2",
    "euclidean4",
    "euclidean6",
    "misner",
    "polar",
    "varcoef",
)
CORE_GEOMETRIES = ("euclidean2", "misner", "varcoef")


def _spec(name):
    return load_geometry(SPECS / f"{name}.json")


def _cfg(spec, samples=20, seed=SEED):
    return OracleConfig(samples=samples, tol=1e-9, seed=seed, intervals=spec.chart.intervals)


def _sample_point(spec, rng):
    return {c: rng.uniform(*spec.chart.intervals[c]) for c in spec.chart.coords}


def _numeric_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-14:
            return 0.0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def _run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_01_flat_golden_displays(capsys):
    start = time.monotonic()
    code, out, _ = _run_cli(capsys, "sasaki", SPECS / "euclidean2.json")
    assert code == 0
    assert "metric function: xdot^2 + ydot^2 + 2*dxdot*dydot" in out

    code, out4, _ = _run_cli(capsys, "sasaki", SPECS / "euclidean4.json")
    assert code == 0
    assert (
        "metric function: x1dot^2 + x2dot^2 + y1dot^2 + y2dot^2"
        " + 2*dx1dot*dy1dot + 2*dx2dot*dy2dot" in out4
    )

    code, out6, _ = _run_cli(capsys, "sasaki", SPECS / "euclidean6.json")
    assert code == 0
    assert (
        "metric function: x1dot^2 + x2dot^2 + x3dot^2 + y1dot^2 + y2dot^2 + y3dot^2"
        " + 2*dx1dot*dy1dot + 2*dx2dot*dy2dot + 2*dx3dot*dy3dot" in out6
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"flat golden displays took {elapsed:.2f}s, budget 1s"
    print(f"acceptance 01 flat golden displays: PASS ({elapsed * 1000:.0f} ms for R^2, R^4, R^6)")


def test_02_block_metric_pipeline(capsys):
    spec = _spec("misner")
    gamma = christoffel(spec.metric)
    half = parse_expr("1/2")
    assert canonical_equal(gamma.entry(0, 0, 1), half), "Gamma^t_{t,phi} != 1/2"
    assert canonical_equal(gamma.entry(0, 1, 0), half), "Gamma^t_{phi,t} != 1/2"

    R = metric_compatibility_residual(spec.metric, gamma)
    n = spec.chart.dim
    from supersasaki.symexpr import is_zero_expr

    for c in range(n):
        for a in range(n):
            for b in range(n):
                assert is_zero_expr(R[c][a][b]), "metric compatibility broken"

    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(100):
        point = _sample_point(spec, rng)
        fd = christoffel_fd(spec.metric, point)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    sym = eval_numeric(gamma.entry(a, b, c), point)
                    worst = max(worst, abs(sym - fd[a][b][c]))
    assert worst < 1e-6, f"numeric connection oracle worst residual {worst:.3e}"

    code, out, _ = _run_cli(capsys, "christoffel", SPECS / "misner.json")
    assert code == 0
    assert "beyond the reference set: Gamma^t_{phi,phi} = 1/2*t" in out
    assert "beyond the reference set: Gamma^phi_{phi,phi} = -1/2" in out
    print(
        "acceptance 02 block metric pipeline: PASS "
        f"(1/2 entries exact, nabla g = 0 symbolic, fd worst {worst:.1e} at 100 points, "
        "extra symbols reported as deltas)"
    )


def test_03_pairing_identities_randomized():
    rng = random.Random(SEED)
    start = time.monotonic()
    rounds = 0
    for name in CORE_GEOMETRIES:
        spec = _spec(name)
        om = spec.require_omega()
        lift = lift_geometry(spec.metric, om)
        cfg = _cfg(spec)
        for _ in range(20):
            X = random_base_field(spec.chart, rng)
            Y = random_base_field(spec.chart, rng)
            entries = verify_proposition(lift, X, Y, cfg)
            assert len(entries) == 6
            for entry in entries:
                assert entry.holds, f"{name}: {entry.name}: residual {entry.residual}"
            rounds += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s, budget 60s"
    print(
        f"acceptance 03 pairing identities: PASS "
        f"(6 identities x {rounds} random rounds over {len(CORE_GEOMETRIES)} charts, "
        f"{elapsed:.1f}s, tol 1e-9)"
    )


def test_04_closed_form_equals_lift():
    rng = random.Random(SEED + 4)
    checked = 0
    for name in CORE_GEOMETRIES:
        spec = _spec(name)
        om = spec.require_omega()
        lift = lift_geometry(spec.metric, om)
        for parity in (EVEN, ODD):
            for _ in range(50):
                X = random_field(spec.chart, parity, rng)
                Y = random_field(spec.chart, rng.choice((EVEN, ODD)), rng)
                via = pairing_via_lift(X, Y, lift)
                closed = pairing_closed_form(X, Y, lift)
                assert (via - closed).is_zero(), (
                    f"{name}: closed form != lift for a parity-{parity} field"
                )
                checked += 1
    print(
        f"acceptance 04 closed form vs lift: PASS "
        f"({checked} field pairs, 50 per parity per chart, zero residual)"
    )


def test_05_metric_axioms_and_nondegeneracy():
    rng = random.Random(SEED + 5)
    # axioms on randomized fields over two curved charts
    for name in ("misner", "polar"):
        spec = _spec(name)
        om = spec.require_omega()
        lift = lift_geometry(spec.metric, om)
        cfg = _cfg(spec)
        table = ptm_table(spec.chart)
        for _ in range(6):
            X = random_field(spec.chart, rng.choice((EVEN, ODD)), rng)
            Y = random_field(spec.chart, rng.choice((EVEN, ODD)), rng)
            pair = pairing_via_lift(X, Y, lift)
            if not pair.is_zero():
                assert parity_of(pair) == (X.parity + Y.parity) % 2, (
                    "pairing parity is not additive"
                )
            flipped = pairing_via_lift(Y, X, lift)
            if X.parity == ODD and Y.parity == ODD:
                flipped = -flipped
            assert graded_equal(pair, flipped, cfg), "graded symmetry failed"
            Z = random_field(spec.chart, X.parity, rng)
            f = parse_graded(f"{spec.chart.coords[0]}^2", table)
            fX_plus_Z = VectorFieldPTM(
                table,
                tuple(gmul(f, c) + d for c, d in zip(X.coefficients, Z.coefficients)),
                X.parity,
            )
            lhs = pairing_via_lift(fX_plus_Z, Y, lift)
            rhs = gmul(f, pair) + pairing_via_lift(Z, Y, lift)
            assert graded_equal(lhs, rhs, cfg), "linearity over even scalars failed"

    # nondegeneracy proxy: frame pairing blocks at form degree zero keep
    # nonzero determinants across the sampling box, for every shipped chart
    worst_even = worst_odd = float("inf")
    for name in ALL_GEOMETRIES:
        spec = _spec(name)
        om = spec.require_omega()
        lift = lift_geometry(spec.metric, om)
        n = spec.chart.dim
        frames = [
            vector_field_on_base(
                spec.chart,
                tuple(parse_expr("1" if i == a else "0") for i in range(n)),
            )
            for a in range(n)
        ]
        base_fields = [
            VectorFieldM(
                spec.chart,
                tuple(parse_expr("1" if i == a else "0") for i in range(n)),
            )
            for a in range(n)
        ]
        even_block = [
            [pairing_via_lift(lie_derivative(X), lie_derivative(Y), lift).body() for Y in base_fields]
            for X in base_fields
        ]
        odd_block = [
            [pairing_via_lift(interior(X), interior(Y), lift).body() for Y in base_fields]
            for X in base_fields
        ]
        for _ in range(5):
            point = _sample_point(spec, rng)
            de = _numeric_det(eval_matrix(even_block, point))
            do = _numeric_det(eval_matrix(odd_block, point))
            assert abs(de) > 1e-9, f"{name}: even block degenerates at {point}"
            assert abs(do) > 1e-9, f"{name}: odd block degenerates at {point}"
            worst_even = min(worst_even, abs(de))
            worst_odd = min(worst_odd, abs(do))
        # mixed block carries no degree-zero part
        mixed = pairing_via_lift(lie_derivative(base_fields[0]), interior(base_fields[-1]), lift)
        from supersasaki.symexpr import is_zero_expr

        assert is_zero_expr(mixed.body()), f"{name}: mixed block leaks into degree zero"
    print(
        "acceptance 05 metric axioms: PASS "
        f"(parity, graded symmetry, linearity randomized; block dets stay off zero, "
        f"min |even| {worst_even:.2e}, min |odd| {worst_odd:.2e})"
    )


def test_06_pairing_invariant_under_chart_change(capsys):
    code, out, _ = _run_cli(
        capsys,
        "check",
        SPECS / "polar.json",
        "--suite",
        "invariance",
        "--map",
        SPECS / "maps" / "polar_to_cartesian.json",
        "--target",
        SPECS / "euclidean2.json",
        "--tol",
        "1e-9",
    )
    assert code == 0, out
    assert "10/10 checks pass" in out
    print(
        "acceptance 06 chart-change invariance: PASS "
        "(10 fixed-field pairings match across polar and Cartesian charts, tol 1e-9)"
    )


def test_07_naturality_and_counterexample(capsys):
    code, out, _ = _run_cli(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "naturality",
        "--map", SPECS / "maps" / "rotation.json",
    )
    assert code == 0, out
    code, out, _ = _run_cli(
        capsys, "check", SPECS / "misner.json", "--suite", "naturality",
        "--map", SPECS / "maps" / "phi_translation.json",
    )
    assert code == 0, out
    code, out, _ = _run_cli(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "naturality",
        "--map", SPECS / "maps" / "scaling.json",
    )
    assert code == 1, "scaling must fail with exit code 1"
    assert "3*xdot^2 + 3*ydot^2 + 6*dxdot*dydot" in out
    print(
        "acceptance 07 naturality: PASS "
        "(rotation and phi-translation preserve the lift; scaling leaves a visible residual, exit 1)"
    )


def test_08_degree_zero_observations():
    rng = random.Random(SEED + 8)
    charts = 0
    for name in ALL_GEOMETRIES:
        spec = _spec(name)
        om = spec.require_omega()
        lift = lift_geometry(spec.metric, om)
        cfg = _cfg(spec)
        table = ptm_table(spec.chart)
        for _ in range(3):
            X = random_base_field(spec.chart, rng)
            Y = random_base_field(spec.chart, rng)
            lie_pair = pairing_via_lift(lie_derivative(X), lie_derivative(Y), lift)
            gXY = bilinear_eval(spec.metric.matrix, X.components, Y.components)
            assert cfg.equal(lie_pair.body(), gXY), f"{name}: eps<L_X|L_Y> != g(X,Y)"
            int_pair = pairing_via_lift(interior(X), interior(Y), lift)
            omXY = bilinear_eval(om.matrix, X.components, Y.components)
            want = GradedExpr.make(table, [((), omXY)])
            assert graded_equal(int_pair, want, cfg), f"{name}: <i_X|i_Y> != omega(X,Y)"
        charts += 1
    print(
        f"acceptance 08 degree-zero observations: PASS "
        f"(eps<L|L> = g and <i|i> = omega on {charts} charts, 3 random rounds each)"
    )


def test_09_commutator_table_randomized():
    rng = random.Random(SEED + 9)
    start = time.monotonic()
    needed = {
        "[d,d] = 0",
        "[d,i_X] = L_X",
        "[i_X,i_Y] = 0",
        "[L_X,i_Y] = i_[X,Y]",
        "[d,L_X] = 0",
    }
    for name in CORE_GEOMETRIES:
        spec = _spec(name)
        cfg = _cfg(spec)
        for _ in range(4):
            X = random_base_field(spec.chart, rng)
            Y = random_base_field(spec.chart, rng)
            entries = cartan_commutators(X, Y, cfg)
            names = {e.name for e in entries}
            assert needed <= names, f"table is missing {needed - names}"
            for entry in entries:
                assert entry.holds, f"{name}: {entry.name}: {entry.residual}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"commutator table took {elapsed:.1f}s, budget 10s"
    print(
        f"acceptance 09 commutator table: PASS "
        f"(five required brackets plus [L,L], 12 random rounds, {elapsed:.1f}s)"
    )


def test_10_all_even_comparison():
    spec = _spec("euclidean2")
    got = classical_sasaki(spec.metric)
    assert graded_to_text(got) == "delta_xdot^2 + delta_ydot^2 + xdot^2 + ydot^2"
    print(
        "acceptance 10 all-even comparison: PASS "
        "(flat chart gives the exact sum of velocity and fiber squares)"
    )
