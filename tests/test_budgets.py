"""Time budgets for inputs that once stalled or are slow.

Each case runs in-process under a watchdog. A case that overruns its
budget fails at once with the stack where it stood, instead of hanging
the suite until the CI job timeout. Each budget is about ten times the
case's time measured in-process (Python 3.11.7, 2-CPU host), and at
least 2 s, so a budget trips on a stall or a large regression, not on
host noise.
"""

import contextlib
import faulthandler
import io
import os
import signal
from pathlib import Path

import pytest

from supersasaki.cli import _parse_field_arg, main
from supersasaki.sasakilift import lift_geometry, pairing_via_lift
from supersasaki.specfiles import load_geometry
from supersasaki.symexpr import differentiate, eval_numeric, parse_expr

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def budget(seconds):
    """Raise in the running case once it has taken `seconds` of wall time.
    A Python signal handler waits for the current bytecode, so a stall
    inside one long C call is caught by faulthandler at twice the budget
    instead: it dumps every thread's stack and ends the process."""

    def overrun(signum, frame):
        raise TimeoutError(f"over its budget of {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    faulthandler.dump_traceback_later(2 * seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cli(*argv):
    """Exit code of one command run from the repo root, stdout discarded."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(list(argv))
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize(
    "spec, seconds",
    [
        # 0.27 s: the dense metric 3I + v v^T
        ("specs/dense4.json", 3),
        # 0.39 s: a cyclic diagonal metric
        ("specs/curved4.json", 4),
    ],
    ids=["dense4", "curved4"],
)
def test_a_four_dimensional_proposition_round_finishes(spec, seconds):
    with budget(seconds):
        code = _cli("check", spec, "--suite", "proposition", "--fields", "1")
    assert code == 0


def test_a_derivative_over_three_cleared_atoms_finishes():
    # clearing sin(t), sin(p) and the sqrt gives a 35-term denominator;
    # the derivative's gcd is 1, which the modular test proves at once
    e = parse_expr("1/(4 + sin(t) + sin(p) + sqrt(t^2 + 1))")
    with budget(2):  # 0.07 s
        got = differentiate(e, "t")
    want = parse_expr("-(cos(t) + t/sqrt(t^2 + 1))/(4 + sin(t) + sin(p) + sqrt(t^2 + 1))^2")
    for t, p in ((0.3, -1.2), (1.1, 0.4), (-2.0, 2.5)):
        point = {"t": t, "p": p}
        assert eval_numeric(got, point) == pytest.approx(eval_numeric(want, point), rel=1e-9)


def test_a_lift_pairing_over_three_cleared_atoms_finishes():
    # the lift side of
    #   pair sphere --x lie:1/(4+sin(theta)+sin(phi)+sqrt(theta^2+1)),1
    #               --y interior:1,1
    # from the field parse on; the closed form of the same pair does not
    # finish yet, inside poly_gcd
    spec = load_geometry(ROOT / "specs" / "sphere.json")
    with budget(10):  # 1.06 s
        X, _ = _parse_field_arg("lie:1/(4+sin(theta)+sin(phi)+sqrt(theta^2+1)),1", spec, "--x")
        Y, _ = _parse_field_arg("interior:1,1", spec, "--y")
        got = pairing_via_lift(X, Y, lift_geometry(spec.metric, spec.require_omega()))
    assert got.terms
