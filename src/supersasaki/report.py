"""Run reports: one document per command invocation, rendered either as
plain text or as a single JSON object.

Every report carries the convention ledger (which side odd derivatives
act from, the two-form sign dictionary, the monomial order of canonical
output), so a reader can interpret printed expressions without consulting
the source.
"""

from __future__ import annotations

import json
from typing import Sequence

from .geometry import OMEGA_DICTIONARY_NOTE
from .grassmann import ODD_DERIVATIVE_NOTE, GradedExpr, graded_equal, graded_to_text
from .symexpr import MONOMIAL_ORDER_NOTE, OracleConfig

CONVENTION_LEDGER: tuple[str, ...] = (
    ODD_DERIVATIVE_NOTE,
    OMEGA_DICTIONARY_NOTE,
    MONOMIAL_ORDER_NOTE,
)


class CheckOutcome:
    """One verdict and one report row; `holds` is None for an info line."""

    __slots__ = ("name", "holds", "residual")

    def __init__(self, name: str, holds: bool | None, residual: str = "") -> None:
        self.name = name
        self.holds = holds
        self.residual = residual  # a check's residual text, "0" when it vanishes

    @property
    def status(self) -> str:
        return "info" if self.holds is None else "pass" if self.holds else "fail"


def residual_outcome(
    name: str,
    lhs: Sequence[GradedExpr],
    rhs: Sequence[GradedExpr],
    config: OracleConfig,
) -> CheckOutcome:
    """The check lhs[k] = rhs[k] for every k: it holds when every residual
    lhs[k] - rhs[k] vanishes under the oracle, and reports the nonzero
    residuals joined by "; ", or "0"."""
    residuals = [left - right for left, right in zip(lhs, rhs, strict=True)]
    holds = all(
        graded_equal(r, GradedExpr.zero(r.table), config) for r in residuals
    )
    nonzero = [graded_to_text(r) for r in residuals if not r.is_zero()]
    return CheckOutcome(name, holds, "; ".join(nonzero) or "0")


class RunReport:
    """The one mutable record: commands fill it in, then it is rendered."""

    __slots__ = ("command", "inputs", "values", "rows", "elapsed")

    def __init__(self, command: str, inputs: dict[str, str] | None = None) -> None:
        self.command = command
        self.inputs: dict[str, str] = {} if inputs is None else inputs
        self.values: dict[str, object] = {}
        self.rows: list[CheckOutcome] = []
        self.elapsed: float | None = None

    def add(self, name: str, ok: bool, residual: str = "") -> None:
        self.rows.append(CheckOutcome(name, ok, residual))

    def info(self, name: str, residual: str = "") -> None:
        self.rows.append(CheckOutcome(name, None, residual))

    @property
    def all_pass(self) -> bool:
        return all(r.holds is not False for r in self.rows)


def render_text(report: RunReport, with_timing: bool = False) -> str:
    lines: list[str] = [f"== {report.command} =="]
    for key in report.inputs:
        lines.append(f"input {key}: {report.inputs[key]}")
    for key, value in report.values.items():
        if isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"  {item}")
        else:
            lines.append(f"{key}: {value}")
    for row in report.rows:
        if row.status == "info":
            lines.append(f"[info] {row.name}" + (f": {row.residual}" if row.residual else ""))
        else:
            tail = "" if row.status == "pass" or not row.residual else f" | residual: {row.residual}"
            lines.append(f"[{row.status.upper()}] {row.name}{tail}")
    lines.append("conventions:")
    for conv in CONVENTION_LEDGER:
        lines.append(f"  - {conv}")
    checks = [r for r in report.rows if r.status != "info"]
    if checks:
        passed = sum(1 for r in checks if r.status == "pass")
        lines.append(f"summary: {passed}/{len(checks)} checks pass")
    if with_timing and report.elapsed is not None:
        lines.append(f"elapsed: {report.elapsed:.3f}s")
    return "\n".join(lines)


def render_structured(report: RunReport, with_timing: bool = False) -> str:
    doc: dict[str, object] = {
        "command": report.command,
        "inputs": dict(report.inputs),
        "values": {
            k: v if isinstance(v, (list, str, int, float, bool)) else str(v)
            for k, v in report.values.items()
        },
        "results": [
            {"name": r.name, "status": r.status, "residual": r.residual}
            for r in report.rows
        ],
        "conventions": list(CONVENTION_LEDGER),
    }
    if with_timing and report.elapsed is not None:
        doc["elapsed_seconds"] = round(report.elapsed, 3)
    return json.dumps(doc, indent=2, sort_keys=True)
