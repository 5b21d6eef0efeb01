"""Run one supersasaki CLI command in-process with per-layer tracing.

    PYTHONPATH=src python3 bench/tracer.py OUT.json ARG...

ARG... are the arguments of `python -m supersasaki.cli`. The command's
stdout, stderr and exit code pass through unchanged; the trace goes to
OUT.json. Each traced function is replaced by a timing wrapper in every
`supersasaki` module namespace that binds it (modules import functions by
name, so patching the defining module alone would miss most calls).

Self time of a function is its wall time minus the time of wrapped calls
made beneath it. Layers called up to ~10^6 times per job (parser,
canonical, expr, oracle, grassmann) keep only counts and times; the
coarse layers also keep one span per call, written to OUT.json.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable

# metric prefix -> (module, attribute) pairs that make up that layer entry
FINE = {
    "parser.parse_expr": [("supersasaki.symexpr.parser", "parse_expr")],
    "canonical.to_canonical": [("supersasaki.symexpr.canonical", "to_canonical")],
    "canonical.poly_gcd": [("supersasaki.symexpr.canonical", "poly_gcd")],
    "canonical.simplify": [("supersasaki.symexpr.canonical", "simplify")],
    "canonical.is_zero_expr": [("supersasaki.symexpr.canonical", "is_zero_expr")],
    "canonical.differentiate": [("supersasaki.symexpr.canonical", "differentiate")],
    "expr.eval_numeric": [("supersasaki.symexpr.expr", "eval_numeric")],
    "oracle.expr_equal": [("supersasaki.symexpr.oracle", "expr_equal")],
    "oracle.sample_compare": [("supersasaki.symexpr.oracle", "sample_compare")],
    "grassmann.gmul": [("supersasaki.grassmann", "gmul")],
    "grassmann.add": [("supersasaki.grassmann", "GradedExpr.__add__")],
    "grassmann.scale": [("supersasaki.grassmann", "GradedExpr.scale")],
    "grassmann.partial": [("supersasaki.grassmann", "partial")],
    "grassmann.gsubstitute": [("supersasaki.grassmann", "gsubstitute")],
}
COARSE = {
    "specfiles.load": [
        ("supersasaki.specfiles", name)
        for name in ("load_geometry", "load_map", "load_base_field", "load_ptm_field")
    ],
    "report.render": [
        ("supersasaki.report", "render_text"),
        ("supersasaki.report", "render_structured"),
    ],
    "geometry.christoffel": [("supersasaki.geometry", "christoffel")],
    "geometry.matrix_inverse": [("supersasaki.geometry", "matrix_inverse")],
    "geometry.christoffel_fd": [("supersasaki.geometry", "christoffel_fd")],
    "sasakilift.lift_geometry": [("supersasaki.sasakilift", "lift_geometry")],
    "sasakilift.pairing_via_lift": [("supersasaki.sasakilift", "pairing_via_lift")],
    "sasakilift.pairing_closed_form": [("supersasaki.sasakilift", "pairing_closed_form")],
    "cartan.verify_proposition": [("supersasaki.cartan", "verify_proposition")],
    "cartan.cartan_commutators": [("supersasaki.cartan", "cartan_commutators")],
    "transform.pullback": [("supersasaki.transform", "pullback")],
    "transform.field_pullback": [("supersasaki.transform", "field_pullback")],
    "transform.pairing_invariance": [("supersasaki.transform", "pairing_invariance")],
    "transform.check_naturality": [("supersasaki.transform", "check_naturality")],
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # one [elapsed-of-wrapped-children, name] entry per active call
        self.stack: list[list[Any]] = []
        self.spans: list[dict[str, Any]] = []
        self.gcd_nontrivial = 0
        self.gmul_terms_out = 0
        self.expr_equal_sampled = 0

    def wrap(self, name: str, fn: Callable, keep_spans: bool) -> Callable:
        calls, self_s, stack, spans = self.calls, self.self_s, self.stack, self.spans
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter
        is_sampler = name == "oracle.sample_compare"
        observe = {
            "canonical.poly_gcd": self._observe_gcd,
            "grassmann.gmul": self._observe_gmul,
        }.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if is_sampler and parent == "oracle.expr_equal":
                self.expr_equal_sampled += 1
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_spans:
                    spans.append({"name": name, "parent": parent,
                                  "start": start, "seconds": elapsed})
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_gcd(self, result: Any) -> None:
        if not result.is_const():
            self.gcd_nontrivial += 1

    def _observe_gmul(self, result: Any) -> None:
        self.gmul_terms_out += len(result.terms)

    def install(self) -> Any:
        """Patch every binding; return the original `to_canonical`."""
        import supersasaki.cli  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items()
                   if n == "supersasaki" or n.startswith("supersasaki.")]
        original_cache = sys.modules["supersasaki.symexpr.canonical"].to_canonical
        for table, keep_spans in ((FINE, False), (COARSE, True)):
            for name, targets in table.items():
                for module_name, attr in targets:
                    owner: Any = sys.modules[module_name]
                    for part in attr.split(".")[:-1]:
                        owner = getattr(owner, part)
                    leaf = attr.split(".")[-1]
                    original = getattr(owner, leaf)
                    wrapper = self.wrap(name, original, keep_spans)
                    if owner is not sys.modules[module_name]:  # a method
                        setattr(owner, leaf, wrapper)
                        continue
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)
        return original_cache

    def summary(self, cache: Any) -> dict[str, Any]:
        info = cache.cache_info()
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "gcd_nontrivial": self.gcd_nontrivial,
            "gmul_terms_out": self.gmul_terms_out,
            "expr_equal_sampled": self.expr_equal_sampled,
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "cache_size": info.currsize,
            "spans": self.spans,
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cache = tracer.install()
    from supersasaki import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(cache), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
