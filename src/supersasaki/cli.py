"""Batch front door.

    supersasaki christoffel GEOM.json
    supersasaki sasaki GEOM.json
    supersasaki classical-sasaki GEOM.json
    supersasaki acs GEOM.json
    supersasaki pair GEOM.json --x lie:y,0 --y deRham
    supersasaki check GEOM.json --suite proposition
    supersasaki check GEOM.json --suite naturality --map MAP.json [--target GEOM2.json]

Field arguments for `pair` take one of the forms

    deRham                  the odd de Rham field of the chart
    interior:COMPS          interior field of a base vector field
    lie:COMPS               Lie field of a base vector field
    raw:FILE.json           a ptm field document

where COMPS is either a path to a base-field document or inline
comma-separated component expressions like "y,0".

Flag ranges: --samples and --fields take integers >= 1, --tol a number
strictly between 0 and 1; any other value is rejected before work starts.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input:
an unreadable or malformed spec, map or field file, a bad flag value, or
chart data the engine cannot evaluate (a metric undefined on its sample
domain, an expression nested too deeply, a division by zero).
Reports are deterministic for a fixed --seed; timing is printed only
with --timing so that default output is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, Sequence

from .cartan import (
    cartan_commutators,
    de_rham,
    interior,
    lie_derivative,
    verify_proposition,
)
from .geometry import (
    VectorFieldM,
    acs_candidate,
    christoffel,
    christoffel_fd,
    metric_compatibility_residual,
    squares_to_minus_identity,
    torsion_residual,
)
from .grassmann import (
    EVEN,
    ODD,
    GradedExpr,
    graded_to_text,
    gsubstitute,
    parity_of,
)
from .report import CheckOutcome, RunReport, render_structured, render_text, residual_outcome
from .sasakilift import (
    LiftedGeometry,
    VectorFieldPTM,
    classical_sasaki,
    lift_geometry,
    pairing_closed_form,
    pairing_via_lift,
    random_base_field,
    random_field,
    vector_field_on_base,
    velocity_name,
)
from .specfiles import (
    INPUT_ERRORS,
    GeometrySpec,
    SpecError,
    load_base_field,
    load_geometry,
    load_map,
    load_ptm_field,
    naming,
)
from .symexpr import (
    OracleConfig,
    ONE,
    Var,
    ZERO,
    canonical_text,
    eval_numeric,
    neg,
    to_text,
)
from .transform import (
    SmoothMap,
    check_naturality,
    pairing_invariance,
    preserves,
)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text}")
    return value


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="report rendering (default text)",
    )
    parser.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="sampling comparison tolerance, in (0, 1) (default 1e-9)")
    parser.add_argument("--samples", type=_at_least_one, default=50,
                        help="sample count for the randomized oracle, at least 1 "
                        "(default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized choice (default 0)")
    parser.add_argument("--timing", action="store_true",
                        help="append wall-clock time to the report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersasaki",
        description="Lift a metric and almost-symplectic form on a chart to "
        "an even metric function on the odd tangent bundle, and verify the "
        "identities that come with the construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("christoffel", "Levi-Civita symbols of the chart metric"),
        ("sasaki", "the lifted metric function on the odd tangent bundle"),
        ("classical-sasaki", "the all-even tangent-bundle comparison metric"),
        ("acs", "the candidate almost complex structure omega g^-1"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("geometry", help="geometry spec file")
        _common_flags(sp)

    pair = sub.add_parser("pair", help="pair two fields through the lifted metric")
    pair.add_argument("geometry", help="geometry spec file")
    pair.add_argument("--x", required=True, metavar="FIELD",
                      help="deRham | interior:COMPS | lie:COMPS | raw:FILE")
    pair.add_argument("--y", required=True, metavar="FIELD",
                      help="same forms as --x")
    _common_flags(pair)

    chk = sub.add_parser("check", help="run a verification suite")
    chk.add_argument("geometry", help="geometry spec file")
    chk.add_argument("--suite", required=True,
                     choices=("cartan", "proposition", "invariance", "naturality"))
    chk.add_argument("--map", dest="map_path",
                     help="map spec file (invariance and naturality)")
    chk.add_argument("--target",
                     help="target geometry spec file (defaults to the source)")
    chk.add_argument("--fields", type=_at_least_one, default=5,
                     help="randomized field rounds per suite, at least 1 (default 5)")
    _common_flags(chk)
    return parser


def _config(args: argparse.Namespace, spec: GeometrySpec) -> OracleConfig:
    return OracleConfig(
        samples=args.samples, tol=args.tol, seed=args.seed, intervals=spec.chart.intervals
    )


def _gamma_label(spec: GeometrySpec, a: int, b: int, c: int) -> str:
    coords = spec.chart.coords
    return f"Gamma^{coords[a]}_{{{coords[b]},{coords[c]}}}"


def cmd_christoffel(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    report = RunReport("christoffel", inputs={"geometry": spec.name})
    gamma = christoffel(spec.metric)
    n = spec.chart.dim
    lines = []
    computed: dict[tuple[int, int, int], str] = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                text = to_text(gamma.entry(a, b, c))
                if text != "0":
                    computed[(a, b, c)] = text
                    lines.append(f"{_gamma_label(spec, a, b, c)} = {text}")
    report.values["nonzero symbols"] = lines or ["(all zero)"]

    compat = metric_compatibility_residual(spec.metric, gamma)
    report.add(
        "metric compatibility residual = 0",
        all(e == ZERO for plane in compat for row in plane for e in row),
    )
    torsion = torsion_residual(gamma)
    report.add(
        "symbols symmetric in the lower pair",
        all(e == ZERO for plane in torsion for row in plane for e in row),
    )

    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        point = {c: rng.uniform(*spec.chart.intervals[c]) for c in spec.chart.coords}
        fd = christoffel_fd(spec.metric, point)
        sym = [
            [
                [eval_numeric(gamma.entry(a, b, c), point) for c in range(n)]
                for b in range(n)
            ]
            for a in range(n)
        ]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    worst = max(worst, abs(fd[a][b][c] - sym[a][b][c]))
    report.add(
        f"finite-difference cross-check at {args.samples} points (worst {worst:.3e})",
        worst < 1e-6,
    )

    if spec.reference_christoffel is not None:
        covered = set()
        for a_n, b_n, c_n, value in spec.reference_christoffel:
            a, b, c = (spec.chart.coords.index(x) for x in (a_n, b_n, c_n))
            covered.add((a, b, c))
            ours = to_text(gamma.entry(a, b, c))
            ref = canonical_text(value)
            marker = "agrees" if ours == ref else f"differs (computed {ours}, reference {ref})"
            report.info(f"reference {_gamma_label(spec, a, b, c)} = {ref}: {marker}")
        extras = sorted(set(computed) - covered)
        for a, b, c in extras:
            report.info(
                f"beyond the reference set: {_gamma_label(spec, a, b, c)} = {computed[(a, b, c)]}"
            )
        if not extras:
            report.info("no computed symbols beyond the reference set")
    return report


def cmd_sasaki(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    report = RunReport("sasaki", inputs={"geometry": spec.name})
    omega = spec.require_omega()
    lift = lift_geometry(spec.metric, omega)
    report.values["metric function"] = graded_to_text(lift.lifted)
    for i, c in enumerate(spec.chart.coords):
        report.values[f"nabla {velocity_name(c)}"] = graded_to_text(lift.nabla[i])

    report.add("metric function is even", parity_of(lift.lifted) == EVEN)
    # the velocities are the generators tptm adds to ptm
    zero = GradedExpr.zero(lift.tptm)
    zero_velocities = {w: zero for w in lift.tptm.names[len(lift.ptm):]}
    report.add(
        "vanishes at the zero section",
        gsubstitute(lift.lifted, zero_velocities, lift.tptm).is_zero(),
    )

    if spec.reference_nabla is not None:
        for i, c in enumerate(spec.chart.coords):
            if c not in spec.reference_nabla:
                continue
            report.info(
                f"nabla {velocity_name(c)} minus reference",
                graded_to_text(lift.nabla[i] - spec.reference_nabla[c]),
            )
    if spec.reference_sasaki is not None:
        report.info(
            "metric function minus reference",
            graded_to_text(lift.lifted - spec.reference_sasaki),
        )
    return report


def cmd_classical_sasaki(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    report = RunReport("classical-sasaki", inputs={"geometry": spec.name})
    report.values["metric function"] = graded_to_text(classical_sasaki(spec.metric))
    return report


def cmd_acs(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    report = RunReport("acs", inputs={"geometry": spec.name})
    omega = spec.require_omega()
    J = acs_candidate(spec.metric, omega)
    report.values["J"] = [
        "[" + ", ".join(to_text(e) for e in row) + "]" for row in J
    ]
    report.values["J^2 = -Id"] = "true" if squares_to_minus_identity(J) else "false"
    return report


def _parse_field_arg(
    text: str, spec: GeometrySpec, what: str
):
    """FIELD argument -> a ptm vector field (see module docstring); a bad
    argument's error names the flag `what`."""
    chart = spec.chart
    if text == "deRham":
        return de_rham(chart), "deRham"
    for prefix in ("interior", "lie", "raw"):
        if text.startswith(prefix + ":"):
            payload = text[len(prefix) + 1 :]
            break
    else:
        raise SpecError(
            f"{what}: expected deRham, interior:..., lie:..., or raw:..., got {text!r}"
        )
    with naming(what):
        if prefix == "raw":
            return load_ptm_field(payload, chart), f"raw field from {payload}"
        if payload.endswith(".json"):
            base = load_base_field(payload, chart)
            label = f"{prefix} of field from {payload}"
        else:
            base = load_base_field({"components": payload.split(",")}, chart)
            label = f"{prefix}({payload})"
    return (interior(base) if prefix == "interior" else lie_derivative(base)), label


def cmd_pair(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    report = RunReport("pair", inputs={"geometry": spec.name})
    omega = spec.require_omega()
    X, x_label = _parse_field_arg(args.x, spec, "--x")
    Y, y_label = _parse_field_arg(args.y, spec, "--y")
    report.inputs["x"] = x_label
    report.inputs["y"] = y_label
    lift = lift_geometry(spec.metric, omega)
    cfg = _config(args, spec)
    via = pairing_via_lift(X, Y, lift)
    closed = pairing_closed_form(X, Y, lift)
    for key, value in (("pairing (vertical lift)", via), ("pairing (closed form)", closed)):
        with naming(key):
            report.values[key] = graded_to_text(value)
    report.rows.append(
        residual_outcome("vertical lift and closed form agree", [via], [closed], cfg)
    )
    return report


def _seeded_rounds(
    args: argparse.Namespace,
    spec: GeometrySpec,
    title: str,
    check: Callable[[VectorFieldM, VectorFieldM], tuple[CheckOutcome, ...]],
) -> RunReport:
    """Run `check` on --fields rounds of seeded random base fields, drawing
    X then Y once per round."""
    report = RunReport(title, inputs={"geometry": spec.name})
    rng = random.Random(args.seed)
    for k in range(args.fields):
        X = random_base_field(spec.chart, rng)
        Y = random_base_field(spec.chart, rng)
        for entry in check(X, Y):
            report.add(f"round {k}: {entry.name}", entry.holds, entry.residual)
    return report


def _suite_cartan(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    cfg = _config(args, spec)
    return _seeded_rounds(
        args, spec, "check cartan", lambda X, Y: cartan_commutators(X, Y, cfg)
    )


def _suite_proposition(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    lift = lift_geometry(spec.metric, spec.require_omega())
    cfg = _config(args, spec)
    return _seeded_rounds(
        args,
        spec,
        "check proposition",
        lambda X, Y: verify_proposition(lift, X, Y, cfg),
    )


def _chart_change(
    args: argparse.Namespace, spec: GeometrySpec, title: str
) -> tuple[RunReport, SmoothMap, LiftedGeometry, LiftedGeometry]:
    """Load --map and --target (default: the source spec), start the report
    and build the lift of each chart once: (report, map, source lift,
    target lift)."""
    if not args.map_path:
        raise SpecError(f"suite {args.suite!r} needs --map")
    report = RunReport(title, inputs={"geometry": spec.name})
    target = load_geometry(args.target) if args.target else spec
    psi = load_map(args.map_path, spec, target)
    report.inputs["map"] = psi.name
    report.inputs["target"] = target.name
    omega_m = spec.require_omega()
    omega_n = target.require_omega()
    lift_m = lift_geometry(spec.metric, omega_m)
    lift_n = lift_m if target is spec else lift_geometry(target.metric, omega_n)
    return report, psi, lift_m, lift_n


def _suite_invariance(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    report, psi, lift_m, lift_n = _chart_change(args, spec, "check invariance")
    cfg = _config(args, spec)

    tchart = lift_n.chart
    coords = tchart.coords
    rest = (ZERO,) * (tchart.dim - 1)
    fixed: list[tuple[str, VectorFieldPTM]] = [
        ("first coordinate field", vector_field_on_base(tchart, (ONE,) + rest))
    ]
    if tchart.dim >= 2:
        rotation = (Var(coords[1]), neg(Var(coords[0]))) + rest[1:]
        fixed.append(("rotational field", vector_field_on_base(tchart, rotation)))
    rng = random.Random(args.seed)
    fixed.append(("seeded odd field", random_field(tchart, ODD, rng)))
    fixed.append(("seeded even field", random_field(tchart, EVEN, rng)))

    report.rows += pairing_invariance(psi, lift_m, lift_n, fixed, cfg)
    return report


def _suite_naturality(args: argparse.Namespace, spec: GeometrySpec) -> RunReport:
    report, psi, lift_m, lift_n = _chart_change(args, spec, "check naturality")
    cfg = _config(args, spec)
    isometry = preserves(psi, lift_m.metric, lift_n.metric, cfg)
    symplectic = preserves(psi, lift_m.omega, lift_n.omega, cfg)
    report.info(f"map is an isometry: {'yes' if isometry else 'no'}")
    report.info(f"map is a symplectomorphism: {'yes' if symplectic else 'no'}")
    report.rows.append(check_naturality(psi, lift_m, lift_n, cfg))
    return report


_SUITES = {
    "cartan": _suite_cartan,
    "proposition": _suite_proposition,
    "invariance": _suite_invariance,
    "naturality": _suite_naturality,
}

_COMMANDS = {
    "christoffel": cmd_christoffel,
    "sasaki": cmd_sasaki,
    "classical-sasaki": cmd_classical_sasaki,
    "acs": cmd_acs,
    "pair": cmd_pair,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        spec = load_geometry(args.geometry)
        if args.command == "check":
            report = _SUITES[args.suite](args, spec)
        else:
            report = _COMMANDS[args.command](args, spec)
    except INPUT_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report.elapsed = time.perf_counter() - started
    renderer = render_structured if args.format == "structured" else render_text
    print(renderer(report, with_timing=args.timing))
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
