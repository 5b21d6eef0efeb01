import json
import re

import pytest

from supersasaki.geometry import christoffel
from supersasaki.grassmann import EVEN, ODD, GradedExpr, graded_equal, parse_graded
from supersasaki.sasakilift import tptm_table
from supersasaki.specfiles import (
    INPUT_ERRORS,
    SpecError,
    load_base_field,
    load_geometry,
    load_map,
    load_ptm_field,
    naming,
)
from supersasaki.symexpr import ParseError, canonical_equal, parse_expr

GOOD = {
    "name": "demo",
    "coords": ["u", "v"],
    "metric": [["1", "0"], ["0", "1 + u^2"]],
    "omega": [["0", "-1"], ["1", "0"]],
    "sample_domain": {"u": [-1.0, 1.0], "v": [-1.0, 1.0]},
}


def test_load_geometry_happy_path(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(GOOD), encoding="utf-8")
    spec = load_geometry(path)
    assert spec.name == "demo"
    assert spec.chart.coords == ("u", "v")
    assert spec.chart.intervals["u"] == (-1.0, 1.0)
    assert canonical_equal(spec.metric.matrix[1][1], parse_expr("1 + u^2"))
    assert spec.omega is not None
    gamma = christoffel(spec.metric)
    assert canonical_equal(gamma.entry(1, 0, 1), parse_expr("u/(1 + u^2)"))


def test_omega_is_optional_but_required_when_asked():
    doc = dict(GOOD)
    doc.pop("omega")
    spec = load_geometry(doc)
    assert spec.omega is None
    with pytest.raises(SpecError):
        spec.require_omega()


def test_schema_violations():
    bad_cases = [
        {},  # nothing
        {**GOOD, "coords": []},
        {**GOOD, "coords": ["u", "u"]},
        {**GOOD, "metric": [["1", "0"]]},  # not square
        {**GOOD, "metric": [["1", "w"], ["w", "1"]]},  # unknown name
        {**GOOD, "sample_domain": {"u": [-1.0, 1.0]}},  # missing v
        {**GOOD, "sample_domain": {"u": [1.0, -1.0], "v": [0, 1]}},  # reversed
        {**GOOD, "sample_domain": {**GOOD["sample_domain"], "uu": [5, 6]}},  # no coord
        {**GOOD, "omega": [["0", "-1"]]},
        {**GOOD, "name": ""},
    ]
    for doc in bad_cases:
        with pytest.raises(SpecError):
            load_geometry(doc)


def test_naming_names_every_input_fault_and_nothing_else():
    for kind in INPUT_ERRORS:
        fault = kind("boom", 3) if kind is ParseError else kind("boom")
        with pytest.raises(SpecError) as caught:
            with naming("demo.metric[0][0]"):
                raise fault
        detail = "expression nested too deeply" if kind is RecursionError else str(fault)
        assert str(caught.value) == f"demo.metric[0][0]: {detail}", kind
    # a programming error is no input fault and keeps its own type and text
    with pytest.raises(TypeError, match="^unsupported operand$"):
        with naming("demo.metric[0][0]"):
            raise TypeError("unsupported operand")


def test_odd_dimension_rejects_two_form():
    doc = {
        "name": "line3",
        "coords": ["a", "b", "c"],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "omega": [
            ["0", "-1", "0"],
            ["1", "0", "0"],
            ["0", "0", "0"],
        ],
        "sample_domain": {"a": [0, 1], "b": [0, 1], "c": [0, 1]},
    }
    with pytest.raises(SpecError):
        load_geometry(doc)


def test_reference_blocks_parse():
    doc = {
        **GOOD,
        "reference_christoffel": [["v", "u", "v", "u/(1 + u^2)"]],
        "reference_nabla": {"u": "dudot", "v": "dvdot"},
        "reference_sasaki": "udot^2 + (1 + u^2)*vdot^2",
    }
    spec = load_geometry(doc)
    assert spec.reference_christoffel is not None
    (a, b, c, value), = spec.reference_christoffel
    assert (a, b, c) == ("v", "u", "v")
    assert canonical_equal(value, parse_expr("u/(1 + u^2)"))
    # the graded references are parsed at load, over the chart's tptm table
    tptm = tptm_table(spec.chart)
    assert spec.reference_nabla["u"].terms == GradedExpr.generator(tptm, "dudot").terms
    assert graded_equal(spec.reference_sasaki, parse_graded("udot^2 + vdot^2 + u^2*vdot^2", tptm))


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("reference_sasaki", "udot*10^5000", "demo.reference_sasaki"),
        ("reference_nabla", {"u": "dudot", "v": "dvdot*10^5000"}, "demo.reference_nabla[v]"),
    ],
    ids=["reference_sasaki", "reference_nabla"],
)
def test_a_reference_too_long_to_print_names_the_entry(key, value, where):
    with pytest.raises(SpecError, match=f"^{re.escape(where)}: a constant of about 4983 digits"):
        load_geometry({**GOOD, key: value})


def test_a_ptm_field_component_too_long_to_print_names_the_entry():
    field = {"kind": "ptm", "parity": "odd", "components": ["0", "du*10^5000"],
             "barred": ["0", "0"]}
    with pytest.raises(SpecError, match=r"^field\.components\[1\]: a constant of about 4983"):
        load_ptm_field(field, load_geometry(GOOD).chart)


def test_load_base_field():
    spec = load_geometry(GOOD)
    X = load_base_field({"kind": "base", "components": ["v", "0"]}, spec.chart)
    assert canonical_equal(X.components[0], parse_expr("v"))
    with pytest.raises(SpecError):
        load_base_field({"kind": "base", "components": ["v"]}, spec.chart)
    with pytest.raises(SpecError):
        load_base_field({"kind": "ptm", "components": ["v", "0"]}, spec.chart)


def test_load_ptm_field_parities():
    spec = load_geometry(GOOD)
    doc = {
        "kind": "ptm",
        "parity": "odd",
        "components": ["du", "2*dv"],
        "barred": ["1", "u*v"],
    }
    F = load_ptm_field(doc, spec.chart)
    assert F.parity == ODD
    doc_even = {
        "kind": "ptm",
        "parity": "even",
        "components": ["u", "v"],
        "barred": ["du", "0"],
    }
    F = load_ptm_field(doc_even, spec.chart)
    assert F.parity == EVEN
    with pytest.raises(SpecError):
        load_ptm_field({**doc, "parity": "sideways"}, spec.chart)
    with pytest.raises(SpecError):
        # odd field with even component
        load_ptm_field({**doc, "components": ["u", "0"]}, spec.chart)


def test_load_map_checks_declared_endpoints(tmp_path):
    src = load_geometry(GOOD)
    tgt = load_geometry({**GOOD, "name": "other"})
    doc = {
        "name": "shift",
        "source": "demo",
        "target": "other",
        "components": ["u + 1", "v"],
        "inverse": ["u - 1", "v"],
    }
    psi = load_map(doc, src, tgt)
    assert psi.name == "shift"
    with pytest.raises(SpecError):
        load_map({**doc, "source": "elsewhere"}, src, tgt)
    with pytest.raises(SpecError):
        load_map({**doc, "components": ["u + 1"]}, src, tgt)


def test_load_geometry_rejects_unreadable_source(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecError):
        load_geometry(path)
