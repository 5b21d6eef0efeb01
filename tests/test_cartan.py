import json
import random
import time

from supersasaki.cartan import (
    cartan_commutators,
    de_rham,
    interior,
    lie_derivative,
    super_commutator,
    verify_proposition,
)
from supersasaki.geometry import (
    AlmostSymplectic,
    Chart,
    MetricTensor,
    VectorFieldM,
    vector_commutator,
)
from supersasaki.grassmann import EVEN, ODD, graded_equal, graded_to_text, parse_graded
from supersasaki.report import (
    CONVENTION_LEDGER,
    RunReport,
    render_structured,
    render_text,
    residual_outcome,
)
from supersasaki.sasakilift import (
    apply_first_order,
    field_operator,
    lift_geometry,
    pairing_via_lift,
    random_base_field,
)
from supersasaki.symexpr import OracleConfig, canonical_equal, parse_expr

SEED = 7130


def _fields_agree(U, V):
    return residual_outcome("U = V", U.coefficients, V.coefficients, OracleConfig()).holds


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
    diag = ("1 + y^2", "1 + z^2", "1 + w^2", "1")
    g = MetricTensor(
        ch, [[_p(diag[a] if a == b else "0") for b in range(4)] for a in range(4)]
    )
    rows = [
        ["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "-1"],
        ["0", "0", "1", "0"],
    ]
    om = AlmostSymplectic(ch, [[_p(e) for e in row] for row in rows])
    return g, om


def test_operator_parities():
    ch = euclidean2()[0].chart
    X = VectorFieldM(ch, (_p("y"), _p("x^2")))
    assert de_rham(ch).parity == ODD
    assert interior(X).parity == ODD
    assert lie_derivative(X).parity == EVEN


def test_exterior_derivative_acts_like_d():
    ch = euclidean2()[0].chart
    d = de_rham(ch)
    table = d.table
    op = field_operator(d)
    f = parse_graded("x*y", table)
    assert graded_equal(apply_first_order(op, f), parse_graded("y*dx + x*dy", table))
    # d is a derivation into the odd slot, so d(dx) = 0 and d(x*dx) = dx*dx = 0
    assert apply_first_order(op, parse_graded("dx", table)).is_zero()
    assert apply_first_order(op, parse_graded("x*dx", table)).is_zero()
    assert graded_equal(
        apply_first_order(op, parse_graded("y*dx", table)),
        parse_graded("dy*dx", table),
    )


def test_d_squares_to_zero_as_a_field():
    ch = polar()[0].chart
    d = de_rham(ch)
    dd = super_commutator(d, d)
    for res in dd.coefficients:
        assert res.is_zero(), "[d,d] should vanish identically"


def test_d_with_interior_gives_lie():
    ch = euclidean2()[0].chart
    X = VectorFieldM(ch, (_p("y"), _p("x*y")))
    got = super_commutator(de_rham(ch), interior(X))
    want = lie_derivative(X)
    assert _fields_agree(got, want), "[d, i_X] != L_X"
    # and the parity comes out even
    assert got.parity == EVEN


def test_lie_interior_bracket_is_interior_of_commutator():
    ch = misner()[0].chart
    X = VectorFieldM(ch, (_p("phi"), _p("t")))
    Y = VectorFieldM(ch, (_p("t*phi"), _p("1")))
    got = super_commutator(lie_derivative(X), interior(Y))
    want = interior(vector_commutator(X, Y))
    assert _fields_agree(got, want), "[L_X, i_Y] != i_[X,Y]"


def test_commutator_table_randomized():
    rng = random.Random(SEED)
    start = time.monotonic()
    for g, _ in (euclidean2(), misner(), polar()):
        cfg = OracleConfig(samples=20, tol=1e-9, seed=SEED, intervals=g.chart.intervals)
        for round_no in range(4):
            X = random_base_field(g.chart, rng)
            Y = random_base_field(g.chart, rng)
            entries = cartan_commutators(X, Y, cfg)
            assert len(entries) == 6
            for entry in entries:
                assert entry.holds, f"{g.chart.name} round {round_no}: {entry.name}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"commutator table too slow: {elapsed:.1f}s"
    print(f"commutator table over 12 random rounds in {elapsed:.2f}s")


def test_interior_fields_pair_to_the_two_form():
    g, om = misner()
    lift = lift_geometry(g, om)
    e0 = VectorFieldM(g.chart, (_p("1"), _p("0")))
    e1 = VectorFieldM(g.chart, (_p("0"), _p("1")))
    got = pairing_via_lift(interior(e0), interior(e1), lift)
    assert graded_to_text(got) == "-1"
    got = pairing_via_lift(interior(e1), interior(e0), lift)
    assert graded_to_text(got) == "1"
    got = pairing_via_lift(interior(e0), interior(e0), lift)
    assert got.is_zero()


def test_lie_against_d_gives_the_flat_one_form():
    g, om = euclidean2()
    lift = lift_geometry(g, om)
    X = VectorFieldM(g.chart, (_p("y"), _p("0")))
    got = pairing_via_lift(lie_derivative(X), de_rham(g.chart), lift)
    assert graded_to_text(got) == "y*dx"
    d = de_rham(g.chart)
    assert pairing_via_lift(d, d, lift).is_zero()
    assert pairing_via_lift(interior(X), d, lift).is_zero()


def test_proposition_on_fixed_fields():
    for g, om in (euclidean2(), misner(), polar()):
        cfg = OracleConfig(samples=20, tol=1e-9, seed=SEED, intervals=g.chart.intervals)
        c0, c1 = g.chart.coords
        X = VectorFieldM(g.chart, (_p(c1), _p(c0)))
        Y = VectorFieldM(g.chart, (_p("1"), _p(f"{c0}*{c1}")))
        entries = verify_proposition(lift_geometry(g, om), X, Y, cfg)
        assert len(entries) == 6
        for entry in entries:
            assert entry.holds, f"{g.chart.name}: {entry.name}: {entry.residual}"


def test_proposition_holds_for_a_zero_field():
    g, om = euclidean2()
    lift = lift_geometry(g, om)
    zero = VectorFieldM(g.chart, (_p("0"), _p("0")))
    other = VectorFieldM(g.chart, (_p("y"), _p("x^2")))
    for X, Y in ((zero, other), (other, zero), (zero, zero)):
        entries = verify_proposition(lift, X, Y)
        assert len(entries) == 6
        for entry in entries:
            assert entry.holds, f"{entry.name}: {entry.residual}"


def test_reports_disclose_their_sign_conventions():
    g, om = euclidean2()
    X = VectorFieldM(g.chart, (_p("y"), _p("0")))
    Y = VectorFieldM(g.chart, (_p("x"), _p("1")))
    report = RunReport("check proposition")
    for entry in verify_proposition(lift_geometry(g, om), X, Y) + cartan_commutators(X, Y):
        report.add(entry.name, entry.holds, entry.residual)
    assert any("two-form dictionary" in line for line in CONVENTION_LEDGER), (
        "the report must say which two-form sign dictionary was used"
    )
    assert any("from the left" in line for line in CONVENTION_LEDGER)
    text = render_text(report).splitlines()
    ledger = text.index("conventions:")
    assert text[ledger + 1 : ledger + 1 + len(CONVENTION_LEDGER)] == [
        f"  - {line}" for line in CONVENTION_LEDGER
    ]
    assert json.loads(render_structured(report))["conventions"] == list(CONVENTION_LEDGER)


def test_proposition_randomized_all_geometries():
    rng = random.Random(SEED + 1)
    start = time.monotonic()
    # curved4 comes last so that the earlier charts keep their draws
    for g, om in (euclidean2(), misner(), polar(), curved4()):
        lift = lift_geometry(g, om)
        cfg = OracleConfig(samples=20, tol=1e-9, seed=SEED, intervals=g.chart.intervals)
        for round_no in range(5):
            X = random_base_field(g.chart, rng)
            Y = random_base_field(g.chart, rng)
            for entry in verify_proposition(lift, X, Y, cfg):
                assert entry.holds, f"{g.chart.name} round {round_no}: {entry.name}"
    elapsed = time.monotonic() - start
    print(f"proposition suite over 20 random rounds in {elapsed:.2f}s")


def test_epsilon_level_pairing_recovers_base_tensors():
    rng = random.Random(SEED + 2)
    for g, om in (euclidean2(), misner(), polar()):
        lift = lift_geometry(g, om)
        cfg = OracleConfig(samples=20, tol=1e-9, seed=SEED, intervals=g.chart.intervals)
        for _ in range(4):
            X = random_base_field(g.chart, rng)
            Y = random_base_field(g.chart, rng)
            pair = pairing_via_lift(lie_derivative(X), lie_derivative(Y), lift)
            n = g.chart.dim
            gXY = _p("0")
            from supersasaki.geometry import bilinear_eval

            gXY = bilinear_eval(g.matrix, X.components, Y.components)
            assert cfg.equal(pair.body(), gXY), "epsilon part is not g(X,Y)"
            ipair = pairing_via_lift(interior(X), interior(Y), lift)
            omXY = bilinear_eval(om.matrix, X.components, Y.components)
            assert cfg.equal(ipair.body(), omXY), "interior pairing is not omega(X,Y)"


def test_residuals_report_actual_failures():
    ch = euclidean2()[0].chart
    X = VectorFieldM(ch, (_p("y"), _p("0")))
    # L_X and i_X differ; the outcome must fail and show the residuals
    LX, iX = lie_derivative(X), interior(X)
    outcome = residual_outcome("L_X = i_X", LX.coefficients, iX.coefficients, OracleConfig())
    assert not outcome.holds
    assert outcome.residual == "y; -y + dy"


def test_chart_checks_without_a_config_sample_the_chart_box(monkeypatch):
    import supersasaki.report as report

    seen = []
    real = report.graded_equal

    def recording(f, g, config=None):
        seen.append(config)
        return real(f, g, config)

    monkeypatch.setattr(report, "graded_equal", recording)
    g, om = polar()
    lift = lift_geometry(g, om)
    rng = random.Random(SEED)
    X, Y = random_base_field(g.chart, rng), random_base_field(g.chart, rng)
    assert all(o.holds for o in verify_proposition(lift, X, Y))
    assert all(o.holds for o in cartan_commutators(X, Y))
    assert seen and all(cfg is not None and cfg.intervals == g.chart.intervals for cfg in seen)


def test_identical_pairs_never_reach_the_oracle(monkeypatch):
    import supersasaki.symexpr.oracle as oracle

    calls = []
    real = oracle.expr_equal

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "expr_equal", counting)
    lift = lift_geometry(*polar())
    assert graded_equal(lift.lifted, lift.lifted)
    assert calls == []
    # a coefficient whose pairs differ still goes to the oracle
    shifted = lift.lifted + parse_graded("r", lift.lifted.table)
    assert not graded_equal(lift.lifted, shifted)
    assert len(calls) == 1
