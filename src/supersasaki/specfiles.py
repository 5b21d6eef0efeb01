"""JSON documents describing charts, fields, and maps.

Geometry document:

    {
      "name": "misner",
      "coords": ["t", "phi"],
      "metric": [["0", "1"], ["1", "t"]],
      "omega": [["0", "-1"], ["1", "0"]],
      "sample_domain": {"t": [0.5, 1.5], "phi": [0.2, 1.2]},
      "notes": "free text",
      "reference_christoffel": [["t", "t", "phi", "1/2"], ...],
      "reference_nabla": {"t": "dtdot + ...", "phi": "..."},
      "reference_sasaki": "2*tdot*phidot + ..."
    }

omega and everything from "notes" down are optional, and every key of
sample_domain must be a coordinate. The reference_* fields hold
independently published values for the same chart; all are parsed at load
(reference_nabla and reference_sasaki over the chart's tptm generators),
and commands print deltas against them but never force agreement.

Vector field document (or inline dict):

    {"kind": "base", "components": ["y", "0"]}
    {"kind": "ptm", "parity": "odd",
     "components": ["dx", "0"], "barred": ["1", "x*y"]}

Map document:

    {"name": "rotation", "source": "euclidean2", "target": "euclidean2",
     "components": ["cos(1)*x - sin(1)*y", "sin(1)*x + cos(1)*y"],
     "inverse": ["cos(1)*x + sin(1)*y", "-sin(1)*x + cos(1)*y"]}

All expression strings use the package grammar; metric and omega entries
may mention only the chart coordinates.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from typing import Any, Iterable, Iterator, Mapping

from .geometry import (
    AlmostSymplectic,
    Chart,
    GeometryError,
    Matrix,
    MetricTensor,
    VectorFieldM,
    invert_numeric,
)
from .grassmann import (
    EVEN, ODD, GeneratorTable, GradedError, GradedExpr, graded_to_text, parse_graded,
)
from .sasakilift import VectorFieldPTM, classical_table, ptm_table, tptm_table
from .symexpr import (
    Const, EvalError, Expr, OracleError, ParseError, eval_numeric, parse_expr, simplify,
    to_text,
)
from .transform import SmoothMap


class SpecError(ValueError):
    """A spec document that does not satisfy its schema."""


# unusable input (exit 2): bad files and specs, and chart data the engine
# cannot evaluate on its sample domain or parse within the recursion limit
INPUT_ERRORS = (
    SpecError, ParseError, GeometryError, GradedError, OSError,
    EvalError, OracleError, ZeroDivisionError, RecursionError,
)


@contextlib.contextmanager
def naming(where: str) -> Iterator[None]:
    """Turn unusable input raised inside the block into a SpecError that
    names `where`, the entry, map, flag or value at fault. Any other
    exception, a programming error, passes through unchanged."""
    try:
        yield
    except RecursionError:
        raise SpecError(f"{where}: expression nested too deeply") from None
    except INPUT_ERRORS as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _load_document(
    source: str | os.PathLike[str] | Mapping[str, Any]
) -> Mapping[str, Any]:
    if isinstance(source, Mapping):
        return source
    path = os.fspath(source)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{path} must hold a JSON object")
    return doc


def _parse_entry(
    text: Any, vocabulary: list[str] | GeneratorTable, where: str
) -> Expr | GradedExpr:
    """The entry `where` as an expression over the chart coordinates, or as
    a graded expression when `vocabulary` is a generator table."""
    if not isinstance(text, str):
        raise SpecError(f"{where} must be an expression string, got {text!r}")
    with naming(where):
        # printing refuses a zero denominator, or a constant too long to
        # print, while the entry has a name
        if isinstance(vocabulary, GeneratorTable):
            value = parse_graded(text, vocabulary)
            graded_to_text(value)
        else:
            value = parse_expr(text, vocabulary)
            to_text(simplify(value))
    return value


def _value(forms: tuple[Expr, Expr], point: dict[str, float]) -> float:
    """The value of an entry at point: its written form's, or where that is
    undefined its canonical form's; EvalError when neither has one."""
    try:
        return eval_numeric(forms[0], point)
    except EvalError:
        return eval_numeric(forms[1], point)


def _check_defined(
    chart: Chart, entries: Iterable[tuple[str, Expr, Expr]]
) -> dict[str, float]:
    """Refuse an entry the engine cannot evaluate on the sample domain, one
    undefined at a grid point, and return the domain's centre. Each entry
    is (label, written form, canonical form). The grid is the centre, the
    2^n corners, and the 9 points lo + k(hi - lo)/8 along each axis through
    the centre. An entry is undefined only where both its written and its
    canonical form are: cancelling can remove a pole (x^2/x), and clearing
    a sin or sqrt from a denominator can add a removable one
    ((sqrt(x^2 + 1) - 1)/x^2)."""
    boxes = chart.intervals
    centre = {c: (lo + hi) / 2 for c, (lo, hi) in boxes.items()}
    grid = [centre]
    grid += [dict(zip(boxes, corner)) for corner in itertools.product(*boxes.values())]
    for c, (lo, hi) in boxes.items():
        grid += [{**centre, c: lo + k * (hi - lo) / 8} for k in range(9)]
    for label, written, canonical in entries:
        # a constant is defined everywhere or nowhere
        for point in (centre,) if isinstance(canonical, Const) else grid:
            try:
                _value((written, canonical), point)
            except EvalError as exc:
                raise SpecError(
                    f"{label} is undefined at the point {point} of sample_domain: {exc}"
                ) from None
    return centre


def _check_on_grid(chart: Chart, key: str, written: Matrix, matrix: Matrix) -> None:
    """Refuse a tensor with an entry undefined on the sample domain or a
    matrix singular at its centre."""
    entries = [list(zip(*rows)) for rows in zip(written, matrix)]
    centre = _check_defined(chart, (
        (f"{chart.name}.{key}[{i}][{j}]", *forms)
        for i, row in enumerate(entries) for j, forms in enumerate(row)
    ))
    try:
        invert_numeric([[_value(forms, centre) for forms in row] for row in entries])
    except GeometryError:
        raise SpecError(
            f"geometry {chart.name!r}: {key} determinant vanishes at the centre "
            f"{centre} of sample_domain"
        ) from None


class GeometrySpec:
    __slots__ = (
        "name", "chart", "metric", "omega",
        "reference_christoffel", "reference_nabla", "reference_sasaki",
    )

    def __init__(
        self,
        name: str,
        chart: Chart,
        metric: MetricTensor,
        omega: AlmostSymplectic | None,
        reference_christoffel: tuple[tuple[str, str, str, Expr], ...] | None,
        reference_nabla: Mapping[str, GradedExpr] | None,
        reference_sasaki: GradedExpr | None,
    ) -> None:
        self.name = name
        self.chart = chart
        self.metric = metric
        self.omega = omega
        self.reference_christoffel = reference_christoffel
        self.reference_nabla = reference_nabla
        self.reference_sasaki = reference_sasaki

    def require_omega(self) -> AlmostSymplectic:
        if self.omega is None:
            raise SpecError(
                f"geometry {self.name!r} declares no two-form; this command needs one"
            )
        return self.omega


def load_geometry(
    source: str | os.PathLike[str] | Mapping[str, Any]
) -> GeometrySpec:
    doc = _load_document(source)
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError("geometry needs a nonempty string 'name'")
    coords = doc.get("coords")
    if (
        not isinstance(coords, list)
        or not coords
        or not all(isinstance(c, str) for c in coords)
    ):
        raise SpecError(f"geometry {name!r}: 'coords' must be a list of names")
    domain = doc.get("sample_domain")
    if not isinstance(domain, dict):
        raise SpecError(f"geometry {name!r}: 'sample_domain' must map coords to intervals")
    intervals: dict[str, tuple[float, float]] = {}
    for c in coords:
        box = domain.get(c)
        if (
            not isinstance(box, list)
            or len(box) != 2
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in box
            )
            or not box[0] < box[1]
        ):
            raise SpecError(
                f"geometry {name!r}: sample_domain[{c!r}] must be [lo, hi] with lo < hi"
            )
        intervals[c] = (float(box[0]), float(box[1]))
    # a sample_domain key that is no coordinate reaches Chart's own check
    unknown = {k: v for k, v in domain.items() if k not in intervals}
    with naming(f"geometry {name!r}"):
        chart = Chart(tuple(coords), {**intervals, **unknown}, name=name)
        # the ptm, tptm and classical tables refuse coordinates whose derived
        # generator names collide, such as x with dx, xdot or delta_x
        tptm = tptm_table(chart)
        classical_table(chart)

    n = len(coords)
    vocab = list(coords)

    def load_tensor(
        key: str, kind: type[MetricTensor | AlmostSymplectic]
    ) -> MetricTensor | AlmostSymplectic:
        rows = doc.get(key)
        if (
            not isinstance(rows, list)
            or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)
        ):
            raise SpecError(f"geometry {name!r}: '{key}' must be a {n}x{n} matrix")
        written = tuple(
            tuple(_parse_entry(e, vocab, f"{name}.{key}[{i}][{j}]") for j, e in enumerate(row))
            for i, row in enumerate(rows)
        )
        with naming(f"geometry {name!r}"):
            tensor = kind(chart, written)
        _check_on_grid(chart, key, written, tensor.matrix)
        return tensor

    metric = load_tensor("metric", MetricTensor)
    omega = None
    if "omega" in doc:
        if n % 2:
            raise SpecError(
                f"geometry {name!r}: a two-form needs an even number of coordinates"
            )
        omega = load_tensor("omega", AlmostSymplectic)

    if not isinstance(doc.get("notes", ""), str):
        raise SpecError(f"geometry {name!r}: 'notes' must be a string")

    ref_gamma = None
    if "reference_christoffel" in doc:
        raw = doc["reference_christoffel"]
        if not isinstance(raw, list):
            raise SpecError(f"geometry {name!r}: reference_christoffel must be a list")
        rows = []
        for item in raw:
            if (
                not isinstance(item, list)
                or len(item) != 4
                or any(not isinstance(s, str) for s in item)
            ):
                raise SpecError(
                    f"geometry {name!r}: reference_christoffel entries are "
                    "[upper, lower, lower, value]"
                )
            a, b, c, value = item
            for idx in (a, b, c):
                if idx not in coords:
                    raise SpecError(
                        f"geometry {name!r}: unknown coordinate {idx!r} in "
                        "reference_christoffel"
                    )
            rows.append((a, b, c, _parse_entry(value, vocab, f"{name}.reference_christoffel")))
        ref_gamma = tuple(rows)

    ref_nabla = None
    if "reference_nabla" in doc:
        raw = doc["reference_nabla"]
        if not isinstance(raw, dict) or any(k not in coords for k in raw):
            raise SpecError(
                f"geometry {name!r}: reference_nabla maps coordinates to strings"
            )
        ref_nabla = {
            c: _parse_entry(text, tptm, f"{name}.reference_nabla[{c}]")
            for c, text in raw.items()
        }

    ref_sasaki = None
    if "reference_sasaki" in doc:
        ref_sasaki = _parse_entry(doc["reference_sasaki"], tptm, f"{name}.reference_sasaki")

    return GeometrySpec(
        name=name,
        chart=chart,
        metric=metric,
        omega=omega,
        reference_christoffel=ref_gamma,
        reference_nabla=ref_nabla,
        reference_sasaki=ref_sasaki,
    )


def load_base_field(
    source: str | os.PathLike[str] | Mapping[str, Any], chart: Chart
) -> VectorFieldM:
    doc = _load_document(source)
    if doc.get("kind", "base") != "base":
        raise SpecError("expected a base vector field document")
    comps = doc.get("components")
    if not isinstance(comps, list) or len(comps) != chart.dim:
        raise SpecError(f"base field needs {chart.dim} components")
    vocab = list(chart.coords)
    parsed = tuple(
        _parse_entry(e, vocab, f"field.components[{i}]") for i, e in enumerate(comps)
    )
    return VectorFieldM(chart, parsed)


_PARITY_WORDS = {"even": EVEN, "odd": ODD}


def load_ptm_field(
    source: str | os.PathLike[str] | Mapping[str, Any], chart: Chart
) -> VectorFieldPTM:
    doc = _load_document(source)
    if doc.get("kind") != "ptm":
        raise SpecError("expected a 'ptm' vector field document")
    parity_word = doc.get("parity")
    if parity_word not in _PARITY_WORDS:
        raise SpecError("ptm field needs parity 'even' or 'odd'")
    parity = _PARITY_WORDS[parity_word]
    table = ptm_table(chart)
    coefficients: list[GradedExpr] = []
    for key in ("components", "barred"):
        rows = doc.get(key)
        if not isinstance(rows, list) or len(rows) != chart.dim:
            raise SpecError(f"ptm field needs {chart.dim} '{key}' strings")
        coefficients += (
            _parse_entry(text, table, f"field.{key}[{i}]") for i, text in enumerate(rows)
        )
    with naming("ptm field"):
        return VectorFieldPTM(table, tuple(coefficients), parity)


def load_map(
    source: str | os.PathLike[str] | Mapping[str, Any],
    source_geometry: GeometrySpec,
    target_geometry: GeometrySpec,
) -> SmoothMap:
    doc = _load_document(source)
    name = doc.get("name", "map")
    if not isinstance(name, str):
        raise SpecError("map 'name' must be a string")
    for key, geom in (("source", source_geometry), ("target", target_geometry)):
        declared = doc.get(key)
        if declared != geom.name:
            raise SpecError(
                f"map {name!r} declares {key}={declared!r} but was given "
                f"geometry {geom.name!r}"
            )
    comps = doc.get("components")
    if not isinstance(comps, list) or len(comps) != target_geometry.chart.dim:
        raise SpecError(f"map {name!r} needs {target_geometry.chart.dim} components")
    vocab = list(source_geometry.chart.coords)
    labels = [f"{name}.components[{i}]" for i in range(len(comps))]
    parsed = tuple(_parse_entry(e, vocab, label) for e, label in zip(comps, labels))
    _check_defined(
        source_geometry.chart, ((label, e, simplify(e)) for label, e in zip(labels, parsed))
    )
    inverse = None
    if "inverse" in doc:
        raw = doc["inverse"]
        if not isinstance(raw, list) or len(raw) != source_geometry.chart.dim:
            raise SpecError(
                f"map {name!r} inverse needs {source_geometry.chart.dim} components"
            )
        tvocab = list(target_geometry.chart.coords)
        inverse = tuple(
            _parse_entry(e, tvocab, f"{name}.inverse[{i}]") for i, e in enumerate(raw)
        )
    with naming(f"map {name!r}"):
        return SmoothMap(
            source_geometry.chart,
            target_geometry.chart,
            parsed,
            inverse,
            name=name,
        )
