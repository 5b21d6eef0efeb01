"""End-to-end benchmark of the supersasaki verifier CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: the jobs of a workload (bench/jobs.json) run
one at a time, each as a fresh `python -m supersasaki.cli` process,
because that is how the verifier is used and because the canonical-form
cache lives for one process only. Nothing runs in parallel.

A run cycles through the job list, pass after pass, until --seconds have
passed and every job has run once. Pass p draws its CLI seeds and inline
fields from (workload, --seed, p), so a longer run covers more inputs.
wall_s and cpu_s are the time of one pass: each job's mean over its runs,
summed over the list. Every verdict is judged against the known-answer
table in bench/jobs.json; at the default seed, pass 0's stdout is also
compared with the digests in bench/digests.json. Failed jobs, wrong
verdicts and changed digests make the run incorrect and are listed on
stderr.

--trace 0 prints the end-to-end metrics. --trace 1 runs every job twice,
untraced and then under bench/tracer.py, prints the per-layer metrics
and writes the spans to .bench_out/. Every run also writes its job
times there. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 bench/run.py --record-digests   # rewrite bench/digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 0
JOB_TIMEOUT_S = 60
SETUP_EVERY_S = 4.0
SETUP_MIN_SAMPLES = 9

END_TO_END_UNITS = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit); *.calls and *.self_s are per pass, summed over its jobs;
# a ratio whose base is 0 (no calls) reads 0
LAYER_METRICS = [
    ("specfiles.load.self_s", "s"),
    ("parser.parse_expr.calls", "count"),
    ("parser.parse_expr.self_s", "s"),
    ("report.render.self_s", "s"),
    ("canonical.to_canonical.calls", "count"),
    ("canonical.to_canonical.self_s", "s"),
    ("canonical.cache_hit_ratio", "ratio"),
    ("canonical.cache_size", "entries"),
    ("canonical.poly_gcd.calls", "count"),
    ("canonical.poly_gcd.self_s", "s"),
    ("canonical.poly_gcd.nontrivial_ratio", "ratio"),
    ("canonical.simplify.calls", "count"),
    ("canonical.is_zero_expr.calls", "count"),
    ("canonical.differentiate.calls", "count"),
    ("expr.eval_numeric.calls", "count"),
    ("expr.eval_numeric.self_s", "s"),
    ("oracle.expr_equal.calls", "count"),
    ("oracle.exact_ratio", "ratio"),
    ("oracle.sample_compare.calls", "count"),
    ("oracle.sample_compare.self_s", "s"),
    ("grassmann.gmul.calls", "count"),
    ("grassmann.gmul.self_s", "s"),
    ("grassmann.gmul.terms_out", "count"),
    ("grassmann.add.calls", "count"),
    ("grassmann.add.self_s", "s"),
    ("grassmann.scale.self_s", "s"),
    ("grassmann.partial.self_s", "s"),
    ("grassmann.gsubstitute.self_s", "s"),
    ("geometry.christoffel.self_s", "s"),
    ("geometry.matrix_inverse.self_s", "s"),
    ("geometry.christoffel_fd.self_s", "s"),
    ("sasakilift.lift_geometry.self_s", "s"),
    ("sasakilift.pairing_via_lift.calls", "count"),
    ("sasakilift.pairing_via_lift.self_s", "s"),
    ("sasakilift.pairing_closed_form.self_s", "s"),
    ("cartan.verify_proposition.self_s", "s"),
    ("cartan.cartan_commutators.self_s", "s"),
    ("transform.pullback.self_s", "s"),
    ("transform.field_pullback.self_s", "s"),
    ("transform.pairing_invariance.self_s", "s"),
    ("transform.check_naturality.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


@dataclass
class Job:
    id: str
    argv: list[str]
    exit: int
    summary: str | None
    residual: str | None = None


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    exit: int
    stdout: bytes
    stderr: bytes
    timed_out: bool

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    def summary(self) -> str | None:
        for line in reversed(self.stdout.decode(errors="replace").splitlines()):
            if line.startswith("summary: "):
                return line.split()[1]
        return None

    def broken(self) -> bool:
        """Exit 2, an escaped traceback or the time limit: the job failed."""
        return self.timed_out or self.exit == 2 or b"Traceback" in self.stderr

    def verdict_wrong(self, job: Job) -> bool:
        if self.exit != job.exit or self.summary() != job.summary:
            return True
        return job.residual is not None and (
            f"| residual: {job.residual}".encode() not in self.stdout
        )


@dataclass
class Tally:
    attempted: int = 0
    jobs_failed: int = 0
    verdicts_wrong: int = 0
    outputs_checked: int = 0
    outputs_changed: int = 0
    # job run label -> what went wrong with it
    failures: dict[str, list[str]] = field(default_factory=dict)

    def judge(self, job: Job, out: Outcome, label: str) -> None:
        self.attempted += 1
        if out.broken():
            self.jobs_failed += 1
        elif out.verdict_wrong(job):
            self.verdicts_wrong += 1
        else:
            return
        self.failures.setdefault(label, []).append(
            f"exit {out.exit}, summary {out.summary()} "
            f"(expected exit {job.exit}, summary {job.summary}): "
            f"{' '.join(job.argv)}\n{out.stderr.decode(errors='replace')[-2000:]}"
        )

    def compare_output(self, label: str, digest: str, expected: str) -> None:
        self.outputs_checked += 1
        if digest != expected:
            self.outputs_changed += 1
            self.failures.setdefault(label, []).append(
                f"stdout digest {digest} != {expected}")


def load_jobs(workload: str) -> list[Job]:
    doc = json.loads((BENCH / "jobs.json").read_text())
    return [Job(**entry) for entry in doc["workloads"][workload]]


def workload_names() -> list[str]:
    return list(json.loads((BENCH / "jobs.json").read_text())["workloads"])


def _inline_field(rng: random.Random, coords: list[str]) -> str:
    """Comma list of small integer polynomials, one per coordinate."""
    comps = []
    for _ in coords:
        text = str(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 2)):
            c = rng.randint(-2, 2)
            if c == 0:
                continue
            mono = "*".join(rng.choice(coords) for _ in range(rng.choice((1, 1, 2))))
            text += f"{'+' if c > 0 else '-'}{abs(c)}*{mono}"
        comps.append(text)
    return ",".join(comps)


def expand(jobs: list[Job], workload: str, seed: int, pass_no: int,
           guard: ZeroFieldGuard) -> list[Job]:
    """Fill the {seed} and {field:COORDS} placeholders for one pass,
    drawing again for a job whose arguments make a zero field."""
    rng = random.Random(f"{workload}/{seed}/{pass_no}")

    def fill(match: re.Match) -> str:
        if match.group(1) == "seed":
            return str(rng.randrange(10**6))
        return _inline_field(rng, match.group(2).split(","))

    pattern = re.compile(r"\{(seed|field):?([^}]*)\}")
    expanded = []
    for j in jobs:
        argv = [pattern.sub(fill, a) for a in j.argv]
        while guard.makes_zero_field(argv):
            argv = [pattern.sub(fill, a) for a in j.argv]
        expanded.append(Job(j.id, argv, j.exit, j.summary, j.residual))
    return expanded


class ZeroFieldGuard:
    """Keeps identically zero vector fields out of the workloads.

    Pairing a zero field through the lift is a known defect of the
    program: sasakilift.apply_first_order raises ValueError("empty
    operator") on the empty operator, so the command exits 1 with a
    traceback, although every identity holds for the zero field.
    Reproduce it with

        python -m supersasaki.cli pair specs/varcoef.json --x lie:1,0 --y interior:0,0

    The CLI's own random fields hit it at some seeds (a proposition round
    on a 2-d chart draws a zero field about once in 900 rounds). The
    guard rebuilds the fields a job's arguments make, with the CLI's own
    generators, and flags the job when one of them has an empty vertical
    lift, the exact condition of that error; nothing else is excluded.
    """

    def __init__(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        from supersasaki import cli, sasakilift
        from supersasaki.cartan import interior
        from supersasaki.grassmann import EVEN, ODD
        from supersasaki.specfiles import load_geometry

        self.cli, self.lift, self.interior = cli, sasakilift, interior
        self.parities = (ODD, EVEN)
        self.load_geometry = load_geometry
        self.specs: dict[str, Any] = {}

    def spec(self, path: str) -> Any:
        if path not in self.specs:
            self.specs[path] = self.load_geometry(ROOT / path)
        return self.specs[path]

    def makes_zero_field(self, argv: list[str]) -> bool:
        opts = dict(zip(argv[2::2], argv[3::2]))
        spec = self.spec(argv[1])
        if argv[0] == "pair":
            fields = [self.cli._parse_field_arg(opts[k], spec, k)[0]
                      for k in ("--x", "--y")]
        elif argv[0] == "check" and opts["--suite"] == "proposition":
            # the draw order of cli._suite_proposition
            rng = random.Random(int(opts["--seed"]))
            rounds = max(1, int(opts.get("--fields", 5)))
            fields = [self.interior(self.lift.random_base_field(spec.chart, rng))
                      for _ in range(2 * rounds)]
        elif argv[0] == "check" and opts["--suite"] == "invariance":
            # the seeded fields of cli._suite_invariance
            chart = self.spec(opts.get("--target", argv[1])).chart
            rng = random.Random(int(opts["--seed"]))
            fields = [self.lift.random_field(chart, parity, rng)
                      for parity in self.parities]
        else:
            return False
        return any(not self.lift.vertical_lift(f) for f in fields)


def spawn(argv: list[str]) -> Outcome:
    """Run one process to completion; CPU comes from the children rusage."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Outcome(wall, cpu, proc.returncode, out, err, timed_out)


def run_cli(job: Job) -> Outcome:
    return spawn([sys.executable, "-m", "supersasaki.cli", *job.argv])


def run_traced(job: Job, trace_path: Path) -> tuple[Outcome, dict[str, Any] | None]:
    trace_path.unlink(missing_ok=True)
    out = spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_path), *job.argv])
    trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
    return out, trace


class SetupClock:
    """Wall time of `import supersasaki.cli` in a fresh interpreter, sampled
    between jobs throughout a run so that its median sees the same machine
    as the jobs do."""

    ARGV = [sys.executable, "-c", "import supersasaki.cli"]

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0
        self.sample()  # the first import may compile bytecode
        self.samples.clear()

    def sample(self) -> None:
        out = spawn(self.ARGV)
        if out.exit != 0:
            raise SystemExit(f"import supersasaki.cli failed:\n{out.stderr.decode()}")
        self.samples.append(out.wall_s)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def load_digests() -> dict[str, dict[str, str]]:
    path = BENCH / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def record_digests() -> None:
    doc = {}
    guard = ZeroFieldGuard()
    for workload in workload_names():
        jobs = expand(load_jobs(workload), workload, DEFAULT_SEED, 0, guard)
        doc[workload] = {job.id: run_cli(job).digest for job in jobs}
        print(f"{workload}: {len(jobs)} digests", file=sys.stderr)
    (BENCH / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class LayerTotals:
    """Per-layer numbers of the traced jobs, kept per job id so that
    repeated runs of a job average and distinct jobs add up to a pass."""

    COUNTERS = ("gcd_nontrivial", "gmul_terms_out", "expr_equal_sampled",
                "cache_hits", "cache_misses")

    def __init__(self) -> None:
        self.by_job: dict[str, list[dict[str, Any]]] = {}
        self.spans: list[dict[str, Any]] = []

    def add(self, label: str, job_id: str, trace: dict[str, Any]) -> None:
        self.spans.extend(dict(span, job=label) for span in trace.pop("spans"))
        self.by_job.setdefault(job_id, []).append(trace)

    def per_pass(self, get) -> float:
        return per_pass({job: [get(t) for t in runs] for job, runs in self.by_job.items()})

    def metrics(self, overhead: float) -> dict[str, float]:
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values: dict[str, float] = {}
        for name, _ in LAYER_METRICS:
            prefix, _, kind = name.rpartition(".")
            if kind in ("calls", "self_s"):
                values[name] = self.per_pass(lambda t: t[kind][prefix])
        c = {key: self.per_pass(lambda t: t[key]) for key in self.COUNTERS}
        gcd_calls = values["canonical.poly_gcd.calls"]
        eq_calls = values["oracle.expr_equal.calls"]
        values.update({
            "canonical.cache_hit_ratio":
                ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
            "canonical.cache_size":
                max((t["cache_size"] for runs in self.by_job.values() for t in runs),
                    default=0),
            "canonical.poly_gcd.nontrivial_ratio": ratio(c["gcd_nontrivial"], gcd_calls),
            "oracle.exact_ratio": ratio(eq_calls - c["expr_equal_sampled"], eq_calls),
            "grassmann.gmul.terms_out": c["gmul_terms_out"],
            "trace.overhead_ratio": overhead,
        })
        return {name: values[name] for name, _ in LAYER_METRICS}


def per_pass(runs: dict[str, list[float]]) -> float:
    """Time of one pass: the mean of each job's runs, summed over jobs.
    A job's runs have different inputs (one per pass), so the mean, not
    the median, estimates the time the job list takes."""
    return sum(statistics.fmean(v) for v in runs.values())


def run(workload: str, seed: int, seconds: float, trace: bool,
        max_jobs: int | None) -> dict[str, Any]:
    """Cycle through the workload's jobs, one at a time, until --seconds
    have passed and every job has run at least once."""
    template = load_jobs(workload)[:max_jobs]
    expected = load_digests().get(workload, {}) if seed == DEFAULT_SEED else {}
    tally = Tally()
    guard = ZeroFieldGuard()
    setup = None if trace else SetupClock()
    layers = LayerTotals()
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-{os.getpid()}.json"
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    traced_walls: dict[str, list[float]] = {}
    checks: dict[str, int] = {}
    started = time.perf_counter()
    pass_no = 0
    done = False
    while not done:
        for job in expand(template, workload, seed, pass_no, guard):
            label = f"pass {pass_no} {job.id}"
            out = run_cli(job)
            tally.judge(job, out, label)
            walls.setdefault(job.id, []).append(out.wall_s)
            cpus.setdefault(job.id, []).append(out.cpu_s)
            checks.setdefault(job.id, int((out.summary() or "0/0").split("/")[0]))
            if pass_no == 0 and job.id in expected:
                tally.compare_output(label, out.digest, expected[job.id])
            if trace:
                traced, record = run_traced(job, trace_file)
                tally.judge(job, traced, label + " traced")
                tally.compare_output(label + " traced", traced.digest, out.digest)
                traced_walls.setdefault(job.id, []).append(traced.wall_s)
                if record is not None:
                    layers.add(label, job.id, record)
            if setup is not None:
                setup.maybe_sample()
            if pass_no > 0 and time.perf_counter() - started >= seconds:
                done = True
                break
        pass_no += 1
        if max_jobs is not None or time.perf_counter() - started >= seconds:
            done = True
    trace_file.unlink(missing_ok=True)
    # every job run's times, for looking at the spread behind the means
    (OUT_DIR / f"jobs-{workload}-seed{seed}.json").write_text(
        json.dumps({"wall_s": walls, "cpu_s": cpus}))

    wall_s = per_pass(walls)
    checks_per_pass = sum(checks.values())
    if trace:
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(layers.spans))
        overhead = sum(map(sum, traced_walls.values())) / sum(map(sum, walls.values()))
        metrics = layers.metrics(overhead)
        units = dict(LAYER_METRICS)
    else:
        metrics = {
            "wall_s": wall_s,
            "checks_per_s": checks_per_pass / wall_s,
            "cpu_s": per_pass(cpus),
            "setup_s": setup.median(),
            # the children's ru_maxrss is the largest max-RSS of any one child,
            # and every job outgrows the import-only setup spawns
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for label, problems in tally.failures.items():
        for problem in problems:
            print(f"FAILED {label}: {problem}", file=sys.stderr)
    n = tally.attempted
    print(f"workload {workload}, seed {seed}: {n} job runs over {pass_no} passes "
          f"of {len(template)} jobs, {checks_per_pass} checks per pass, "
          f"pass wall {wall_s:.4f} s"
          + (f", traced {per_pass(traced_walls):.4f} s" if trace else ""))
    print(f"verdicts_wrong = {tally.verdicts_wrong / n:.4f} share, "
          f"jobs_failed = {tally.jobs_failed / n:.4f} share, "
          f"outputs_changed = {tally.outputs_changed}/{tally.outputs_checked} digests")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": not tally.failures,
        "attempted": n,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run only the first N jobs, one pass (smoke test)")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "supersasaki" / "cli.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"error: no supersasaki source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload not in workload_names():
        parser.error(f"--workload must be one of {workload_names()}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.jobs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
