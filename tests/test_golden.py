"""Byte-for-byte CLI output on fixed requests.

Each case's stdout is committed under ``tests/golden/<name>.out``.  A change
that alters any report, even in whitespace or key order, fails here.  To
record the outputs again after an intended change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polywander import Angle, Polygon, geometry, iterate_orbit, parse_angle, recurrence
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


TM2 = "gen:thue_morse?base=2"
STREAM_JUMPS = ["-d", "2", "--horizon", "3", f"{TM2}&offset=1/2", "7/10", "3/4"]
CH3 = "gen:champernowne?base=3"
# polygons whose orbit steps the 64-digit vertex enclosures do not decide,
# so that the compare ladder goes on past 64 digits:
# - three holes of sizes 1/3 and 1/3 +- 2^-70, ranked only at 128 digits;
# - two vertices of one stream 3^-70 apart, sorted only at 128 digits;
# - a rational, the midpoint of the stream's 70-digit enclosure, 1/3 fixed;
# - a hole of size 1/2 - 2^-70, whose floor(2 * size) needs 128 digits.
UNDECIDED_AT_64 = {
    "sizes": ["-d", "2", TM2, f"{TM2}&offset=1/3",
              f"{TM2}&offset=2361183241434822606851/3541774862152233910272"],
    "pair": ["-d", "3", CH3, f"{CH3}&offset=1/2503155504993241601315571986085849", "1/2"],
    "match": ["-d", "2", "gen:thue_morse?base=2&shift=3",
              "707486692441265166937/2361183241434822606848", "1/3"],
    "floor": ["-d", "2", TM2,
              f"{TM2}&offset=590295810358705651713/1180591620717411303424", "1/5"],
}


# polygons that some budget below 64 digits cannot decide, but 64 can
DECIDED_AT_64 = {
    "sizes40": ["-d", "2", TM2, f"{TM2}&offset=1/3",
                f"{TM2}&offset=2199023255555/3298534883328"],  # 2/3 + 2^-40
    "floor40": ["-d", "2", TM2, f"{TM2}&offset=549755813889/1099511627776", "1/5"],
    "match20": ["-d", "2", "gen:thue_morse?base=2&shift=3", "628375/2097152", "1/3"],
    "quartic": ["-d", "4", "gen:thue_morse?base=4", "1/3", "2/3"],
}
# stderr past "precision: " (exit 3) of analyze and of orbit --horizon 2 at
# --budget 8, 16, 32 and 64 (a pair when the two differ); None: exit 0
# with the report that the default budget gives
BUDGET_ERRORS = {
    ("sizes", 8): "cannot order [0.329427083333, 0.337239583333] of width ~2^-7 and [0.329427083333, 0.337239583333] of width ~2^-7 within 8 digits",
    ("sizes", 16): "cannot order [0.333318074544, 0.333348592122] of width ~2^-15 and [0.333318074544, 0.333348592122] of width ~2^-15 within 16 digits",
    ("sizes", 32): "cannot order [0.333333333100, 0.333333333566] of width ~2^-31 and [0.333333333100, 0.333333333566] of width ~2^-31 within 32 digits",
    ("sizes", 64): "cannot order [0.333333333333, 0.333333333333] of width ~2^-63 and [0.333333333333, 0.333333333333] of width ~2^-63 within 64 digits",
    ("pair", 8): "cannot separate gen:champernowne?base=3 and gen:champernowne?base=3&offset=1/2503155504993241601315571986085849 within 8 digits",
    ("pair", 16): "cannot separate gen:champernowne?base=3 and gen:champernowne?base=3&offset=1/2503155504993241601315571986085849 within 16 digits",
    ("pair", 32): "cannot separate gen:champernowne?base=3 and gen:champernowne?base=3&offset=1/2503155504993241601315571986085849 within 32 digits",
    ("pair", 64): "cannot separate gen:champernowne?base=3 and gen:champernowne?base=3&offset=1/2503155504993241601315571986085849 within 64 digits",
    ("match", 8): "cannot separate gen:thue_morse?base=2&shift=3 and 0.299632269120 (denominator of 72 bits) within 8 digits",
    ("match", 16): "cannot separate gen:thue_morse?base=2&shift=3 and 0.299632269120 (denominator of 72 bits) within 16 digits",
    ("match", 32): "cannot separate gen:thue_morse?base=2&shift=3 and 0.299632269120 (denominator of 72 bits) within 32 digits",
    ("match", 64): "cannot separate gen:thue_morse?base=2&shift=3 and 0.299632269120 (denominator of 72 bits) within 64 digits",
    ("floor", 8): ("floor(2*x) undecided for x in [0.496093750000, 0.503906250000] of width ~2^-7 within 8 digits", "cannot separate gen:thue_morse?base=2&shift=1 and gen:thue_morse?base=2&shift=1&offset=1/590295810358705651712 within 8 digits"),
    ("floor", 16): ("floor(2*x) undecided for x in [0.499984741210, 0.500015258789] of width ~2^-15 within 16 digits", "cannot separate gen:thue_morse?base=2&shift=1 and gen:thue_morse?base=2&shift=1&offset=1/590295810358705651712 within 16 digits"),
    ("floor", 32): ("floor(2*x) undecided for x in [0.499999999767, 0.500000000232] of width ~2^-31 within 32 digits", "cannot separate gen:thue_morse?base=2&shift=1 and gen:thue_morse?base=2&shift=1&offset=1/590295810358705651712 within 32 digits"),
    ("floor", 64): ("floor(2*x) undecided for x in [0.499999999999, 0.500000000000] of width ~2^-63 within 64 digits", "cannot separate gen:thue_morse?base=2&shift=1 and gen:thue_morse?base=2&shift=1&offset=1/590295810358705651712 within 64 digits"),
    ("sizes40", 8): "cannot order [0.329427083333, 0.337239583333] of width ~2^-7 and [0.329427083332, 0.337239583332] of width ~2^-7 within 8 digits",
    ("sizes40", 16): "cannot order [0.333318074544, 0.333348592122] of width ~2^-15 and [0.333318074543, 0.333348592121] of width ~2^-15 within 16 digits",
    ("sizes40", 32): "cannot order [0.333333333100, 0.333333333566] of width ~2^-31 and [0.333333333099, 0.333333333565] of width ~2^-31 within 32 digits",
    ("sizes40", 64): None,
    ("floor40", 8): ("floor(2*x) undecided for x in [0.496093750000, 0.503906250000] of width ~2^-7 within 8 digits", "cannot separate gen:thue_morse?base=2&shift=1 and gen:thue_morse?base=2&shift=1&offset=1/549755813888 within 8 digits"),
    ("floor40", 16): ("floor(2*x) undecided for x in [0.499984741211, 0.500015258789] of width ~2^-15 within 16 digits", "cannot separate gen:thue_morse?base=2&shift=1 and gen:thue_morse?base=2&shift=1&offset=1/549755813888 within 16 digits"),
    ("floor40", 32): ("floor(2*x) undecided for x in [0.499999999768, 0.500000000233] of width ~2^-31 within 32 digits", "cannot separate gen:thue_morse?base=2&shift=1 and gen:thue_morse?base=2&shift=1&offset=1/549755813888 within 32 digits"),
    ("floor40", 64): None,
    ("match20", 8): "cannot separate gen:thue_morse?base=2&shift=3 and 0.299632549285 (denominator of 22 bits) within 8 digits",
    ("match20", 16): "cannot separate gen:thue_morse?base=2&shift=3 and 0.299632549285 (denominator of 22 bits) within 16 digits",
    ("match20", 32): None,
    ("match20", 64): None,
    ("quartic", 8): None,
    ("quartic", 16): None,
    ("quartic", 32): None,
    ("quartic", 64): None,
}


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
    # the enclosure branch of render's points
    "stream-render": (
        0, ["render", "-d", "4", "--horizon", "2", "gen:thue_morse?base=4", "1/3", "2/3"]
    ),
    # two jumps of a stream triangle: the critical strips of stream holes
    "stream-jumps": (0, ["jumps", *STREAM_JUMPS]),
    "stream-strips-render": (0, ["render", *STREAM_JUMPS]),
    "stream-reversed-analyze": (
        0,
        ["analyze", "-d", "3", "gen:champernowne?base=3&shift=5", "1/4", "1/2", "7/8"],
    ),
    "thin-jumps": (0, ["jumps", *THIN_OPTS, *THIN]),
    "thin-leaves": (0, ["leaves", *THIN_OPTS, *THIN]),
    "thin-render": (0, ["render", *THIN_OPTS, *THIN]),
    "thin-verify": (0, ["verify", *THIN_OPTS, *THIN]),
    "w1-verify": (0, ["verify", "-d", "3", "--horizon", "10", "--no-kiwi-precheck", *_w1()]),
    # iterate 200 links with 199 once the family lists 800 vertices
    "w1-verify-linked": (
        0, ["verify", "-d", "3", "--horizon", "300", "--no-kiwi-precheck", *_w1()]
    ),
    "w1-verify-h300": (
        0, ["verify", "-d", "3", "--horizon", "300", "--no-kiwi-precheck", *_w1(350)]
    ),
    "tri3-verify": (0, ["verify", *TRI3]),
    "tri3-collection": (0, ["collection", *TRI3]),
    # one witnessed leaf: the disjoint-subset search and the omega component count
    "tri3-collection-eps2": (0, ["collection", *TRI3, "--epsilon", "1/2"]),
    "tri3-jumps": (0, ["jumps", *TRI3]),
    "tri3-leaves": (0, ["leaves", *TRI3]),
    "tri3-render": (0, ["render", *TRI3]),
    "wide-verify": (0, ["verify", *WIDE]),
    # a long orbit of a shifted, offset champernowne stream among two rationals
    "stream-champernowne-orbit": (
        0,
        ["orbit", "gen:champernowne?base=2&shift=11&offset=1/7", "1/3", "2/3", "-d",
         "2", "--horizon", "150"],
    ),
}
for _name, _args in UNDECIDED_AT_64.items():
    CASES[f"undecided-{_name}-analyze"] = (0, ["analyze", *_args])
    CASES[f"undecided-{_name}-orbit"] = (0, ["orbit", *_args, "--horizon", "2"])


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


@pytest.mark.parametrize(
    "name", sorted(n for n, (_, argv) in CASES.items() if argv[0] != "render")
)
def test_json_golden_is_canonical(name):
    """Each JSON golden is the text ``json.dumps(sort_keys=True, indent=2)``
    writes for its own content, so a golden recorded again cannot take in a
    drift of the report writer's format."""
    text = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


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


def test_verify_work_does_not_grow_with_the_bin_count(monkeypatch):
    """``wide-verify``'s triangle at epsilon 1/2^10 and 1/2^16 makes the same
    number of calls into the bin distance, since each omega is held as runs
    of bins; and its report at 1/2^16 is the one that the bin-set code
    printed, bin for bin (the sha256 of that stdout)."""
    calls = []
    dist = recurrence._bin_distance
    monkeypatch.setattr(
        recurrence, "_bin_distance", lambda *a: calls.append(a) or dist(*a)
    )
    counts = []
    for eps in ("1/1024", "1/65536"):
        calls.clear()
        code, out = _run(["verify", *WIDE, "--epsilon", eps])
        assert code == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3779a8e76ed9b839ebe239851fb1470c393d05b625d62e8cd5487d07256dc6f"
    )


def test_stream_orbit_report_reads_no_enclosure_twice(monkeypatch):
    """``stream-orbit`` computes one enclosure per stream vertex of T_0 and
    one per stream image of its 21 steps, and nothing else: the hole
    profiles and the report take them from the polygons that carry them."""
    calls = []
    interval = Angle.interval

    def counted(self, k):
        if self.source is not None:
            calls.append(k)
        return interval(self, k)

    monkeypatch.setattr(Angle, "interval", counted)
    code, argv = CASES["stream-orbit"]
    want = (GOLDEN / "stream-orbit.out").read_text(encoding="utf-8")
    assert _run(argv) == (code, want)
    assert calls == [64] * (1 + 21)


def test_jump_report_computes_no_enclosure(monkeypatch):
    """``stream-jumps`` computes one enclosure per stream vertex of T_0 and
    one per stream image of its 4 records, and nothing else: each jump's
    edge and image hole are printed from the polygons of its records."""
    calls = []
    interval = Angle.interval

    def counted(self, k):
        if self.source is not None:
            calls.append(k)
        return interval(self, k)

    monkeypatch.setattr(Angle, "interval", counted)
    want = (GOLDEN / "stream-jumps.out").read_text(encoding="utf-8")
    assert _run(["jumps", *STREAM_JUMPS]) == (0, want)
    assert calls == [64] * (1 + 4)


def test_jump_stages_build_no_angle(monkeypatch):
    """On a rational orbit the jump, leaf and trace stages read only the
    records' ints: a jump names its holes by rank, so no vertex ``Angle``
    of any record is built."""
    orbit = iterate_orbit(Polygon([parse_angle(x) for x in THIN]), 2, 20)
    calls = []
    rational_angle = geometry.rational_angle

    def counted(n, q):
        calls.append((n, q))
        return rational_angle(n, q)

    monkeypatch.setattr(geometry, "rational_angle", counted)
    run = recurrence.JumpAnalysis(orbit, 2, burn_in=0)
    assert len(run.jumps.records) == 4 and run.leaves and run.traces
    assert calls == []


def test_orbit_report_builds_no_vertex_angle(monkeypatch):
    """``orbit`` prints each rational record's vertices from its polygon's
    numerators over L: on W1(350) to horizon 300 no vertex ``Angle`` is
    built past the parsing of the input (one per vertex of each record
    after T_0, 1,200 in all, when the report read ``Polygon.vertices``)."""
    calls = []
    rational_angle = geometry.rational_angle

    def counted(n, q):
        calls.append((n, q))
        return rational_angle(n, q)

    monkeypatch.setattr(geometry, "rational_angle", counted)
    code, out = _run(["orbit", "-d", "3", "--horizon", "300", *_w1(350)])
    assert code == 0 and out.count('"literal": ') == 4 * 301
    assert calls == []


def _run_err(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("budget", [8, 16, 32, 64])
@pytest.mark.parametrize("name", [*UNDECIDED_AT_64, *DECIDED_AT_64])
def test_small_budgets_keep_exit_codes_and_messages(name, budget):
    """A budget below 64 digits bounds every decision of a stream step, and
    a decision left open at the budget fails with the compare ladder's
    message, naming the budget's enclosures."""
    args = {**UNDECIDED_AT_64, **DECIDED_AT_64}[name]
    want = BUDGET_ERRORS[(name, budget)]
    for i, argv in enumerate((["analyze", *args], ["orbit", *args, "--horizon", "2"])):
        code, out, err = _run_err([*argv, "--budget", str(budget)])
        message = want[i] if isinstance(want, tuple) else want
        if message is None:
            assert (code, err) == (0, "")
            echo = f'"budget": {budget},'
            assert out.replace(echo, '"budget": 4096,') == _run(argv)[1]
        else:
            assert (code, out, err) == (3, "", f"precision: {message}\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (code, argv) in CASES.items():
        got_code, got = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_text(got, encoding="utf-8")
