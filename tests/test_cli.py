import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supersasaki.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_christoffel_flat_chart(capsys):
    code, out, err = _run(capsys, "christoffel", SPECS / "euclidean2.json")
    assert code == 0, err
    assert "all symbols vanish" in out or "nonzero symbols" in out
    assert "[PASS] metric compatibility residual = 0" in out
    assert "summary:" in out


def test_christoffel_reference_comparison(capsys):
    code, out, _ = _run(capsys, "christoffel", SPECS / "misner.json")
    assert code == 0
    assert "Gamma^t_{t,phi} = 1/2" in out
    assert "reference Gamma^t_{t,phi} = 1/2: agrees" in out
    assert "beyond the reference set: Gamma^t_{phi,phi} = 1/2*t" in out
    assert "beyond the reference set: Gamma^phi_{phi,phi} = -1/2" in out
    assert "[PASS] finite-difference cross-check" in out


def test_sasaki_golden_output(capsys):
    code, out, _ = _run(capsys, "sasaki", SPECS / "euclidean2.json")
    assert code == 0
    assert "metric function: xdot^2 + ydot^2 + 2*dxdot*dydot" in out
    assert "[PASS] metric function is even" in out
    assert "[PASS] vanishes at the zero section" in out


def test_sasaki_reference_deltas_are_reported_not_reconciled(capsys):
    code, out, _ = _run(capsys, "sasaki", SPECS / "misner.json")
    assert code == 0, "published deltas must not fail the run"
    assert "nabla tdot minus reference: 1/2*phidot*t*dphi" in out
    assert "metric function minus reference:" in out


def test_sasaki_evenness_row_fails_on_a_mixed_parity_function(capsys, monkeypatch):
    # parity_of gives None for a function with even and odd terms, which
    # must not count as even
    import supersasaki.cli as cli
    from supersasaki.grassmann import GradedExpr

    lift_geometry = cli.lift_geometry

    def mixed(g, omega):
        lift = lift_geometry(g, omega)
        lift.lifted = lift.lifted + GradedExpr.generator(lift.tptm, "dx")
        return lift

    monkeypatch.setattr(cli, "lift_geometry", mixed)
    code, out, _ = _run(capsys, "sasaki", SPECS / "euclidean2.json")
    assert code == 1
    assert "[FAIL] metric function is even" in out


def test_sasaki_zero_section_row_fails_on_a_term_that_survives_there(capsys, monkeypatch):
    # a coefficient that names a velocity need not vanish where the
    # velocities do: (1 + xdot)*dx*dy is dx*dy at the zero section
    import supersasaki.cli as cli
    from supersasaki.grassmann import parse_graded

    lift_geometry = cli.lift_geometry

    def surviving(g, omega):
        lift = lift_geometry(g, omega)
        lift.lifted = lift.lifted + parse_graded("(1 + xdot)*dx*dy", lift.tptm)
        return lift

    monkeypatch.setattr(cli, "lift_geometry", surviving)
    code, out, _ = _run(capsys, "sasaki", SPECS / "euclidean2.json")
    assert code == 1
    assert "[PASS] metric function is even" in out
    assert "[FAIL] vanishes at the zero section" in out


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("reference_sasaki", "tdot*10^5000", "misner.reference_sasaki"),
        ("reference_nabla", {"t": "dtdot*10^5000", "phi": "dphidot"},
         "misner.reference_nabla[t]"),
    ],
    ids=["reference_sasaki", "reference_nabla"],
)
def test_an_oversized_reference_exits_2_naming_it(capsys, tmp_path, key, value, where):
    # a graded reference holding a constant too long to print is refused at
    # load, under every command
    path = tmp_path / "misner.json"
    path.write_text(json.dumps(dict(json.loads((SPECS / "misner.json").read_text()), **{key: value})))
    for command in ("christoffel", "sasaki", "acs"):
        code, _, err = _run(capsys, command, path)
        assert code == 2, command
        assert err.startswith(f"error: {where}: a constant of about 4983 digits"), err
        assert len(err.splitlines()) == 1, err


def test_an_oversized_raw_field_component_exits_2_naming_it(capsys, tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(
        {"kind": "ptm", "parity": "odd", "components": ["dx*10^5000", "0"], "barred": ["0", "0"]}
    ))
    code, _, err = _run(
        capsys, "pair", SPECS / "euclidean2.json", "--x", f"raw:{raw}", "--y", "deRham"
    )
    assert code == 2
    assert err.startswith("error: --x: field.components[0]: a constant of about 4983"), err
    assert len(err.splitlines()) == 1, err


def test_classical_sasaki(capsys):
    code, out, _ = _run(capsys, "classical-sasaki", SPECS / "euclidean2.json")
    assert code == 0
    assert "metric function: delta_xdot^2 + delta_ydot^2 + xdot^2 + ydot^2" in out


def test_acs_reports_square(capsys):
    code, out, _ = _run(capsys, "acs", SPECS / "euclidean2.json")
    assert code == 0
    assert "J^2 = -Id: true" in out


def test_pair_field_modes(capsys):
    code, out, _ = _run(
        capsys, "pair", SPECS / "euclidean2.json", "--x", "lie:1,0", "--y", "deRham"
    )
    assert code == 0
    assert "pairing (vertical lift): dx" in out
    code, out, _ = _run(
        capsys, "pair", SPECS / "euclidean2.json", "--x", "lie:y,0", "--y", "deRham"
    )
    assert code == 0
    assert "y*dx" in out
    code, out, _ = _run(
        capsys, "pair", SPECS / "euclidean2.json", "--x", "deRham", "--y", "deRham"
    )
    assert code == 0
    assert "[PASS]" in out
    code, out, _ = _run(
        capsys, "pair", SPECS / "misner.json", "--x", "interior:1,0", "--y", "interior:0,1"
    )
    assert code == 0
    assert "-1" in out
    code, out, _ = _run(
        capsys, "pair", SPECS / "varcoef.json", "--x", "lie:1,0", "--y", "interior:0,0"
    )
    assert code == 0
    assert "summary: 1/1" in out


def test_pair_reads_field_files(capsys):
    shear = SPECS / "fields" / "shear.json"
    odd = SPECS / "fields" / "odd_mixed.json"
    code, out, _ = _run(
        capsys, "pair", SPECS / "euclidean2.json", "--x", f"lie:{shear}", "--y", f"raw:{odd}"
    )
    assert code == 0
    assert "[PASS] vertical lift and closed form agree" in out
    assert "y*dx - x*y*dy" in out


def test_ptm_field_with_a_wrong_parity_coefficient_is_refused(capsys, tmp_path):
    # an odd field needs odd coefficients of d/dx^a and even ones of d/d(dx^a)
    for slot, doc in (
        ("d/d(x)", {"components": ["y", "0"], "barred": ["1", "0"]}),
        ("d/d(dy)", {"components": ["dx", "0"], "barred": ["1", "dx"]}),
    ):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(dict(doc, kind="ptm", parity="odd")))
        code, out, err = _run(
            capsys, "pair", SPECS / "euclidean2.json", "--x", f"raw:{path}", "--y", "deRham"
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert f"of {slot} has parity" in err, err


def test_check_proposition_suite(capsys):
    code, out, _ = _run(
        capsys, "check", SPECS / "misner.json", "--suite", "proposition", "--fields", "2"
    )
    assert code == 0
    assert "12/12 checks pass" in out


def test_check_cartan_suite(capsys):
    code, out, _ = _run(
        capsys, "check", SPECS / "polar.json", "--suite", "cartan", "--fields", "2"
    )
    assert code == 0
    assert "12/12 checks pass" in out


def test_check_invariance_suite(capsys):
    code, out, _ = _run(
        capsys,
        "check",
        SPECS / "polar.json",
        "--suite",
        "invariance",
        "--map",
        SPECS / "maps" / "polar_to_cartesian.json",
        "--target",
        SPECS / "euclidean2.json",
    )
    assert code == 0
    assert "10/10 checks pass" in out


def test_check_naturality_pass_and_fail(capsys):
    code, out, _ = _run(
        capsys,
        "check",
        SPECS / "euclidean2.json",
        "--suite",
        "naturality",
        "--map",
        SPECS / "maps" / "rotation.json",
    )
    assert code == 0
    assert "[PASS]" in out

    code, out, _ = _run(
        capsys,
        "check",
        SPECS / "euclidean2.json",
        "--suite",
        "naturality",
        "--map",
        SPECS / "maps" / "scaling.json",
    )
    assert code == 1, "a failed identity must exit 1"
    assert "[FAIL]" in out
    assert "3*xdot^2 + 3*ydot^2 + 6*dxdot*dydot" in out


def _embedding(tmp_path):
    # (x, y) -> (x, y, 0, 0): an isometric, symplectic immersion of R^2 in R^4
    path = tmp_path / "embed.json"
    path.write_text(json.dumps({
        "name": "embed", "source": "euclidean2", "target": "euclidean4",
        "components": ["x", "y", "0", "0"],
    }))
    return path


def test_invariance_along_an_immersion_is_refused(capsys, tmp_path):
    code, out, err = _run(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "invariance",
        "--map", _embedding(tmp_path), "--target", SPECS / "euclidean4.json",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "'embed'" in err and "2-dimensional" in err and "4-dimensional" in err


def test_naturality_along_an_immersion_holds(capsys, tmp_path):
    code, out, err = _run(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "naturality",
        "--map", _embedding(tmp_path), "--target", SPECS / "euclidean4.json",
    )
    assert code == 0, err
    assert "summary: 1/1 checks pass" in out


def _fold(tmp_path):
    # (x, y) -> (x, x): a map of R^2 into itself with a singular Jacobian
    path = tmp_path / "fold.json"
    path.write_text(json.dumps({
        "name": "fold", "source": "euclidean2", "target": "euclidean2",
        "components": ["x", "x"],
    }))
    return path


def test_naturality_along_a_degenerate_map_fails(capsys, tmp_path):
    # the pulled-back metric is degenerate: the check fails, the input is fine
    code, out, err = _run(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "naturality",
        "--map", _fold(tmp_path),
    )
    assert code == 1, err
    assert "[info] map is an isometry: no" in out
    assert "residual: xdot^2 - ydot^2 - 2*dxdot*dydot" in out
    assert "summary: 0/1 checks pass" in out


def test_invariance_along_a_degenerate_map_is_refused(capsys, tmp_path):
    code, out, err = _run(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "invariance",
        "--map", _fold(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "'fold'" in err and "invertible Jacobian" in err


def test_structured_format_is_json(capsys):
    code, out, _ = _run(
        capsys, "sasaki", SPECS / "euclidean2.json", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["metric function"] == "xdot^2 + ydot^2 + 2*dxdot*dydot"
    assert all(r["status"] in ("pass", "fail", "info") for r in doc["results"])
    assert "elapsed_seconds" not in doc, "timing only shows up with --timing"


def test_verdicts_render_as_pass_fail_and_info_rows():
    from supersasaki.report import CheckOutcome, RunReport, render_structured, render_text

    report = RunReport("rows")
    report.rows += [CheckOutcome("ok", True, "0"), CheckOutcome("bad", False, "x")]
    report.info("note", "y")
    assert [r.status for r in report.rows] == ["pass", "fail", "info"]
    text = render_text(report).splitlines()
    assert "[PASS] ok" in text and "[FAIL] bad | residual: x" in text
    assert "[info] note: y" in text and "summary: 1/2 checks pass" in text
    doc = json.loads(render_structured(report))
    assert doc["results"] == [
        {"name": "ok", "status": "pass", "residual": "0"},
        {"name": "bad", "status": "fail", "residual": "x"},
        {"name": "note", "status": "info", "residual": "y"},
    ]
    assert "notes" not in doc
    assert not report.all_pass
    del report.rows[1]
    assert report.all_pass, "an info row never fails a report"


def test_reports_are_deterministic(capsys):
    argv = [
        "check",
        str(SPECS / "misner.json"),
        "--suite",
        "proposition",
        "--fields",
        "2",
        "--seed",
        "3",
        "--format",
        "structured",
    ]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second, "same seed must give byte-identical reports"


def test_timing_flag_adds_elapsed(capsys):
    code, out, _ = _run(
        capsys, "sasaki", SPECS / "euclidean2.json", "--format", "structured", "--timing"
    )
    assert code == 0
    doc = json.loads(out)
    assert "elapsed_seconds" in doc and doc["elapsed_seconds"] >= 0.0


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = _run(capsys, "sasaki", SPECS / "no_such_geometry.json")
    assert code == 2
    assert "error:" in err

    code, _, err = _run(
        capsys, "pair", SPECS / "euclidean2.json", "--x", "bogus:1,2", "--y", "deRham"
    )
    assert code == 2

    # inline components are checked as a field file's are, and the error
    # names the flag and the entry
    for field, where in (
        ("lie:1/(x-x),0", "--x: field.components[0]: division by an expression"),
        ("interior:1,0,y", "--x: base field needs 2 components"),
        # integers past the int <-> str conversion limit
        ("lie:x*2^15000,0", "--x: field.components[0]: a constant of about 4500 digits"),
        ("lie:x*1" + "0" * 5000 + ",0", "--x: field.components[0]: offset 2: a number of 5001"),
    ):
        code, _, err = _run(capsys, "pair", SPECS / "euclidean2.json", "--x", field, "--y", "deRham")
        assert code == 2, field
        assert err.startswith("error:") and where in err, err
        assert len(err.splitlines()) == 1, err

    # a result too long to print names the value it belongs to
    huge = "lie:x*2^8000,0"
    code, _, err = _run(capsys, "pair", SPECS / "euclidean2.json", "--x", huge, "--y", huge)
    assert code == 2
    assert err.startswith("error: pairing (vertical lift): a constant of about 4800 digits"), err
    assert len(err.splitlines()) == 1, err

    code, _, err = _run(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "naturality"
    )
    assert code == 2
    assert "--map" in err

    flat = json.loads((SPECS / "euclidean2.json").read_text())
    misner = json.loads((SPECS / "misner.json").read_text())
    varcoef = json.loads((SPECS / "varcoef.json").read_text())
    inf = float("inf")  # written as the JSON number 1e309
    one = ["0", "1"]
    # sqrt(x) is undefined on the whole sample domain
    undefined = dict(flat, name="undefined", metric=[["sqrt(x)", "0"], one],
                     sample_domain={"x": [-2.0, -1.0], "y": [-1.0, 1.0]})
    # chart data the engine cannot use is refused at load time, naming where
    for command, doc, where in (
        ("christoffel", undefined, "undefined.metric[0][0]"),
        ("sasaki", undefined, "undefined.metric[0][0]"),
        # the sample domain straddles the pole of 1/x
        ("christoffel", dict(flat, name="pole", metric=[["1/x", "0"], one]),
         "pole.metric[0][0]"),
        # the metric degenerates at the centre of the sample domain
        ("sasaki", dict(flat, name="fold", metric=[["x", "0"], one]),
         "metric determinant vanishes"),
        ("acs", dict(flat, name="fold", omega=[["0", "-x"], ["x", "0"]]),
         "omega determinant vanishes"),
        ("christoffel", dict(flat, name="deep", metric=[["(" * 3000 + "1" + ")" * 3000, "0"], one]),
         "deep.metric[0][0]: expression nested too deeply"),
        # a pole off the centre, on the grid point x = -1 + 5*(1 - -1)/8
        ("christoffel", dict(flat, name="offpole", metric=[["1/(x - 1/4)^2", "0"], one]),
         "offpole.metric[0][0] is undefined at the point {'x': 0.25, 'y': 0.0}"),
        # a denominator that is identically zero
        ("christoffel", dict(flat, name="zeroden", metric=[["1/(x - x)", "0"], one]),
         "zeroden.metric[0][0]"),
        ("sasaki", dict(flat, name="nought", metric=[["0/0", "0"], one]),
         "nought.metric[0][0]"),
        ("christoffel", dict(flat, name="zeropow", metric=[["(x - x)^-1", "0"], one]),
         "zeropow.metric[0][0]"),
        ("christoffel", dict(flat, name="huge", metric=[["x^20000*2^15000", "0"], one]),
         "huge.metric[0][0]: a constant of about 4500 digits is too long to print"),
        # the graded references are parsed at load, so every command refuses them
        ("christoffel", dict(misner, reference_sasaki="2*tdot*phidot + q"),
         "misner.reference_sasaki: offset 16: unknown identifier 'q'"),
        ("sasaki", dict(misner, reference_sasaki="1/(tdot - tdot)"),
         "misner.reference_sasaki: division by an expression that is identically zero"),
        # a graded quotient needs a divisor without odd generators
        ("christoffel", dict(misner, reference_sasaki="1/(1 + dtdot*dphidot)"),
         "misner.reference_sasaki: odd generators inside a quotient"),
        ("christoffel", dict(misner, reference_nabla={"t": "dtdot", "phi": "dphidot + q"}),
         "misner.reference_nabla[phi]: offset 10: unknown identifier 'q'"),
        # a coordinate whose derived generator names collide with another's
        # is refused at load, under every command
        *(
            (command, dict(flat, name="clash", coords=["x", w],
                           sample_domain={"x": [-1, 1], w: [-1, 1]}),
             f"geometry 'clash': duplicate generator name {w!r}")
            for w in ("dx", "xdot", "delta_x")
            for command in ("christoffel", "classical-sasaki")
        ),
        # the sample box is checked where it is read: bounds must be finite
        # numbers, and a boolean is not a number
        ("christoffel", dict(flat, sample_domain={"x": [0, inf], "y": [-1.0, 1.0]}),
         "euclidean2': sample_domain['x'] must be [lo, hi] with lo < hi"),
        ("christoffel", dict(varcoef, sample_domain={"u": [0, inf], "v": [-1.0, 1.0]}),
         "varcoef': sample_domain['u'] must be [lo, hi] with lo < hi"),
        ("sasaki", dict(flat, sample_domain={"x": [True, 2], "y": [-1.0, 1.0]}),
         "euclidean2': sample_domain['x'] must be [lo, hi] with lo < hi"),
        # every sample_domain key must be a coordinate
        ("sasaki", dict(flat, sample_domain={"x": [-1, 1], "y": [-1, 1], "yy": [5, 6]}),
         "geometry 'euclidean2': interval given for unknown coordinate 'yy'"),
    ):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc).replace("Infinity", "1e309"))
        code, _, err = _run(capsys, command, path)
        assert code == 2, where
        assert err.startswith("error:") and where in err, err
        assert len(err.splitlines()) == 1, err

    # an inverse that cannot be sampled on the box names its map
    bad_inverse = tmp_path / "bad_inverse.json"
    bad_inverse.write_text(json.dumps({
        "name": "bad_inverse", "source": "euclidean2", "target": "euclidean2",
        "components": ["x", "y"], "inverse": ["sqrt(-x - 10)", "y"],
    }))
    code, out, err = _run(
        capsys, "check", SPECS / "euclidean2.json", "--suite", "naturality", "--map", bad_inverse
    )
    assert code == 2 and out == ""
    assert err.startswith("error: map 'bad_inverse': could not collect"), err
    assert len(err.splitlines()) == 1, err

    # forward components are checked on the source box at load, naming the
    # component, under every suite that reads the map
    bad_forward = tmp_path / "bad_forward.json"
    bad_forward.write_text(json.dumps({
        "name": "bad_forward", "source": "euclidean2", "target": "euclidean2",
        "components": ["sqrt(-x - 10)", "y"],
    }))
    for suite in ("naturality", "invariance"):
        code, out, err = _run(
            capsys, "check", SPECS / "euclidean2.json", "--suite", suite, "--map", bad_forward
        )
        assert code == 2 and out == "", suite
        assert err.startswith("error: bad_forward.components[0] is undefined at the point"), err
        assert len(err.splitlines()) == 1, err

    # an entry loads where its written or its canonical form is defined:
    # the canonical forms (sqrt(x^2 + 1) - 1)/x^2 and (1 - sin(x))/cos(x)^2
    # are 0/0 at the centre (floats give 0.0 at x = pi/2), and x^2/x is
    # undefined as written at x = 0
    for doc in (
        dict(flat, name="rootden", metric=[["1/(1 + sqrt(x^2 + 1))", "0"], one]),
        dict(flat, name="sinden", metric=[["1/(1 + sin(x))", "0"], one],
             sample_domain={"x": [0.0, math.pi], "y": [-1.0, 1.0]}),
        dict(flat, name="cancelled", metric=[["x^2/x + 2", "0"], one]),
    ):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "christoffel", path)
        assert code == 0, err
        assert "summary: 3/3 checks pass" in out

    # out-of-range flags are refused by the parser, which exits 2
    scaling = SPECS / "maps" / "scaling.json"
    for argv in (
        ("check", SPECS / "euclidean2.json", "--suite", "naturality", "--map", scaling,
         "--tol", "10"),
        ("check", SPECS / "euclidean2.json", "--suite", "proposition", "--fields", "-3"),
        ("check", SPECS / "euclidean2.json", "--suite", "cartan", "--fields", "0"),
        ("christoffel", SPECS / "euclidean2.json", "--samples", "0"),
        ("pair", SPECS / "euclidean2.json", "--x", "deRham", "--y", "deRham", "--tol", "0"),
    ):
        with pytest.raises(SystemExit) as exc:
            _run(capsys, *argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_seed_changes_sampled_fields_but_not_verdicts(capsys):
    outs = []
    for seed in ("0", "1"):
        code, out, _ = _run(
            capsys,
            "check",
            SPECS / "euclidean2.json",
            "--suite",
            "proposition",
            "--fields",
            "2",
            "--seed",
            seed,
        )
        assert code == 0
        outs.append(out)
    assert "12/12 checks pass" in outs[0] and "12/12 checks pass" in outs[1]


def _traced_modules():
    """The modules bench/tracer.py patches right after importing the CLI."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted({
        module for table in (tracer.FINE, tracer.COARSE)
        for targets in table.values() for module, _ in targets
    })


def test_cli_start_up_imports_no_heavy_stdlib_modules():
    # every CLI check is a fresh process, so start-up is paid per check:
    # dataclasses (which pulls in inspect), hashlib (only the sampling
    # tier needs it) and pathlib (open takes the name as given) must stay
    # out, and every module must still load eagerly, because the tracer
    # patches them all after this import
    probe = (
        "import json, sys\n"
        "import supersasaki.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert {"dataclasses", "inspect", "hashlib", "pathlib"} & loaded == set()
    traced = _traced_modules()
    assert traced
    assert [m for m in traced if m not in loaded] == []
