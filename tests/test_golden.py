"""Byte-for-byte CLI output on fixed requests.

Each case's stdout is committed under ``tests/golden/<name>.out``.  A change
that alters any report, even in whitespace or key order, fails here.  To
record the outputs again after an intended change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polywander import recurrence
from polywander.cli import main

GOLDEN = Path(__file__).parent / "golden"

# a thin triangle with four jumps whose linkage check fails early (the first
# triangle of the benchmark's jump-session plan for seed 1)
THIN = ["699005/961032", "4274896091/5876710680", "11843/80086"]
THIN_OPTS = ["-d", "2", "--horizon", "20", "--no-kiwi-precheck"]

# a cubic triangle that certifies to horizon 3 with burn-in found at 0,
# jumps at 0 and 2, two leaves whose value orbits overlap, and traces
TRI3 = ["149763/798233", "2914459/5587631", "3116864/5587631", "-d", "3",
        "--horizon", "3"]
# one leaf whose value enclosure covers the circle within the horizon: the
# "too wide" and "degraded" notes of verify (a triangle pulled back from a
# thin one, so that every record is past the burn-in given)
WIDE = ["-d", "3", "--horizon", "5", "--burn-in", "0", "5932890787/22759870860",
        "3270421/11048481", "10654879/11048481"]


def _w1(K: int = 200, d: int = 3) -> list[str]:
    """W1(K) quadrilateral: 1/1000003, then running sums adding 1, 3 and 2
    steps of 1/(3*4*d*d^K)."""
    delta = Fraction(1, 3 * 4 * d * d**K)
    pts = [Fraction(1, 1000003)]
    for m in (1, 3, 2):
        pts.append(pts[-1] + m * delta)
    return [f"{x.numerator}/{x.denominator}" for x in pts]


# name -> (exit code, argv)
CASES = {
    "crit9-analyze": (0, ["analyze", "0/1", "1/7", "2/7", "--degree", "2"]),
    "crit9-jumps": (
        0, ["jumps", "19/100", "45/100", "96/100", "--degree", "2", "--horizon", "1"]
    ),
    "crit9-verify": (
        0,
        ["verify", "30/100", "31/100", "32/100", "--degree", "2", "--horizon", "4",
         "--no-kiwi-precheck"],
    ),
    "crit9-collection": (
        0,
        ["collection", "30/100", "31/100", "32/100", "--degree", "2", "--horizon",
         "3", "--no-kiwi-precheck"],
    ),
    "crit9-render": (
        0, ["render", "19/100", "45/100", "96/100", "--degree", "2", "--horizon", "1"]
    ),
    "stream-orbit": (
        0, ["orbit", "gen:thue_morse?base=4", "1/3", "2/3", "-d", "4", "--horizon", "20"]
    ),
    # stream enclosures, remainders, remainder_sum, cr.remainder, witness arcs
    "stream-analyze": (0, ["analyze", "-d", "4", "gen:thue_morse?base=4", "1/3", "2/3"]),
    "stream-offset-analyze": (
        0, ["analyze", "-d", "4", "gen:thue_morse?base=4&offset=1/5", "1/3", "2/3"]
    ),
    # a stream triangle that reverses orientation
    "stream-reversed-analyze": (
        0,
        ["analyze", "-d", "3", "gen:champernowne?base=3&shift=5", "1/4", "1/2", "7/8"],
    ),
    "thin-jumps": (0, ["jumps", *THIN_OPTS, *THIN]),
    "thin-leaves": (0, ["leaves", *THIN_OPTS, *THIN]),
    "thin-render": (0, ["render", *THIN_OPTS, *THIN]),
    "thin-verify": (0, ["verify", *THIN_OPTS, *THIN]),
    "w1-verify": (0, ["verify", "-d", "3", "--horizon", "10", "--no-kiwi-precheck", *_w1()]),
    "tri3-verify": (0, ["verify", *TRI3]),
    "tri3-collection": (0, ["collection", *TRI3]),
    "tri3-jumps": (0, ["jumps", *TRI3]),
    "tri3-leaves": (0, ["leaves", *TRI3]),
    "tri3-render": (0, ["render", *TRI3]),
    "wide-verify": (0, ["verify", *WIDE]),
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, argv = CASES[name]
    got_code, got = _run(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_verify_walks_each_value_orbit_once(monkeypatch):
    """Disjointness, recurrence and omega bins share one value orbit per
    leaf: two walks for the two leaves of ``tri3-verify``."""
    calls = []
    walk = recurrence._value_orbit
    monkeypatch.setattr(
        recurrence, "_value_orbit", lambda *a: calls.append(a) or walk(*a)
    )
    assert _run(CASES["tri3-verify"][1]) == (
        0, (GOLDEN / "tri3-verify.out").read_text(encoding="utf-8")
    )
    assert len(calls) == 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (code, argv) in CASES.items():
        got_code, got = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_text(got, encoding="utf-8")
