"""Equality oracle: canonical-form coincidence, else randomized sampling.

Tier 1 declares two expressions equal when their canonical rational pairs
coincide. Tier 2 samples both on a box domain with a deterministic RNG and
compares values to tolerance; sample points where either side leaves its
domain (sqrt of a negative, division by zero, ...) are redrawn, and running
out of redraws raises instead of guessing.
"""

from __future__ import annotations

import random
from typing import Mapping

from .canonical import canonical_equal
from .expr import EvalError, Expr, eval_numeric, free_vars

Interval = tuple[float, float]

DEFAULT_SAMPLES = 50
DEFAULT_TOL = 1e-9
DEFAULT_INTERVAL: Interval = (-1.0, 1.0)

# generous cap on redraws before declaring the domain unusable
_ATTEMPT_FACTOR = 50


class OracleError(RuntimeError):
    """Sampling could not collect enough in-domain points."""


class Witness:
    """A sample point where the two sides differ."""

    __slots__ = ("point", "left", "right")

    def __init__(self, point: dict[str, float], left: float, right: float) -> None:
        self.point = point
        self.left = left
        self.right = right


def _rng_for(seed: int, names: tuple[str, ...]) -> random.Random:
    # derive the stream from seed + variable names without str hash
    # randomization so runs are reproducible across processes; hashlib is
    # imported here because only the sampling tier needs it
    import hashlib

    digest = hashlib.sha256(("%d|%s" % (seed, ",".join(names))).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _within(left: float, right: float, tol: float) -> bool:
    return abs(left - right) <= tol * max(1.0, abs(left), abs(right))


class OracleConfig:
    """Equality-check policy shared across a computation: sample count
    (at least 1), tolerance (in (0, 1)), RNG seed, and per-variable sampling
    intervals (a variable with none samples DEFAULT_INTERVAL). Other
    settings raise ValueError: they would pass anything. Immutable by
    convention."""

    __slots__ = ("samples", "tol", "seed", "intervals")

    def __init__(
        self,
        samples: int = DEFAULT_SAMPLES,
        tol: float = DEFAULT_TOL,
        seed: int = 0,
        intervals: Mapping[str, Interval] | None = None,
    ) -> None:
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if not 0 < tol < 1:
            raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
        self.samples = samples
        self.tol = tol
        self.seed = seed
        self.intervals = {} if intervals is None else intervals

    def equal(self, a: Expr, b: Expr) -> bool:
        return expr_equal(a, b, self)


def sample_compare(a: Expr, b: Expr, config: OracleConfig) -> Witness | None:
    """Sampling tier alone, under config's policy: None if all samples
    agree, else a witness."""
    names = tuple(sorted(free_vars(a) | free_vars(b)))
    samples, tol = config.samples, config.tol
    if not names:
        try:
            va, vb = eval_numeric(a, {}), eval_numeric(b, {})
        except EvalError as exc:
            raise OracleError(f"constant comparison left the domain: {exc}") from exc
        return None if _within(va, vb, tol) else Witness({}, va, vb)
    rng = _rng_for(config.seed, names)
    collected = 0
    attempts = 0
    last_error: EvalError | None = None
    while collected < samples:
        attempts += 1
        if attempts > samples * _ATTEMPT_FACTOR:
            raise OracleError(
                f"could not collect {samples} in-domain samples after {attempts - 1} "
                f"attempts; last failure: {last_error}"
            )
        point = {}
        for name in names:
            lo, hi = config.intervals.get(name, DEFAULT_INTERVAL)
            point[name] = rng.uniform(lo, hi)
        try:
            va = eval_numeric(a, point)
            vb = eval_numeric(b, point)
        except EvalError as exc:
            last_error = exc
            continue
        if not _within(va, vb, tol):
            return Witness(point, va, vb)
        collected += 1
    return None


def expr_equal(a: Expr, b: Expr, config: OracleConfig) -> bool:
    """Two-tier equality: exact canonical coincidence, else sampling under
    config."""
    return canonical_equal(a, b) or sample_compare(a, b, config) is None
