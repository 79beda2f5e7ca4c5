import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polywander import (
    Angle,
    AssertionBreach,
    HoleProfile,
    Polygon,
    PreconditionError,
    format_angle,
    iterate_orbit,
    parse_angle,
    register_generator,
    render_svg,
)
from polywander import NotCertifiedWandering, recurrence, verify_theorem1
from polywander.angles import (
    REPORT_DIGITS,
    Approx,
    PrecisionBudget,
    _champernowne_factory,
)
from polywander.cli import (
    _ser_angle,
    _ser_bounds,
    _ser_fraction,
    _ser_ratio,
    _to_json,
    main,
)

from test_angles import stream_angles
from test_golden import CASES, GOLDEN, THIN, TRI3, UNDECIDED_AT_64, WIDE

JUMP = ["19/100", "45/100", "96/100"]
CLUSTER = ["30/100", "31/100", "32/100"]


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "polywander", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_analyze_sevenths():
    rep = run_json("analyze", "0/1", "1/7", "2/7", "--degree", "2")
    payload = rep["payload"]
    sizes = sorted(h["size"]["fraction"] for h in payload["holes"])
    assert sizes == ["1/7", "1/7", "5/7"]
    assert payload["orientation"]["verdict"] is True
    assert payload["orientation"]["remainder_sum"]["fraction"] == "1/2"
    assert rep["config"]["degree"] == 2
    assert rep["version"]


def test_analyze_cr_fields():
    rep = run_json("analyze", *JUMP, "--degree", "2")
    cr = rep["payload"]["cr"]
    assert cr["hole"]["start"]["fraction"] == "9/20"
    assert cr["hole"]["end"]["fraction"] == "24/25"
    assert cr["remainder"]["fraction"] == "1/100"


def test_analyze_malformed_literal_exits_2():
    proc = run_cli("analyze", "not-an-angle")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_bad_epsilon_exits_2():
    proc = run_cli("analyze", "1/3", "2/3", "--epsilon", "1/48")
    assert proc.returncode == 2


@pytest.mark.parametrize("literal", ["1/48", "48", "abc", "0.5", "1/abc"])
def test_bad_epsilon_message_names_literal(literal, capsys):
    assert main(["verify", *CLUSTER, "--epsilon", literal]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: epsilon must be 1/2^r, got '{literal}'\n"


@pytest.mark.parametrize("literal", ["1/2097152", "2097152"])
def test_epsilon_finer_than_the_ceiling_exits_2(literal, capsys):
    """The report lists every omega bin, so epsilon stops at 1/2^20."""
    assert main(["verify", *CLUSTER, "--epsilon", literal]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: epsilon must be at least 1/1048576, got '{literal}'\n"


@pytest.mark.parametrize("degree", [65539, 10**20])
def test_analyze_stops_before_more_witness_arcs_than_the_ceiling(degree, capsys):
    """An orientation-preserving triangle has d - 1 witness arcs, and the
    report lists each: past 2^16 of them analyze exits 2 before building
    any."""
    assert main(["analyze", "-d", str(degree), "1/3", "2/3", "1/5"]) == 2
    message = "analyze lists d - 1 witness arcs: degree must be at most 65537"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_analyze_of_a_reversing_polygon_takes_any_degree(capsys):
    """A polygon that reverses orientation lists no witness arcs, so the
    ceiling on them does not bound its degree."""
    assert main(["analyze", "-d", str(10**20 + 1), "0/1", "1/3", "2/3"]) == 0
    out = capsys.readouterr().out
    assert '"verdict": false' in out and '"witness_arcs": null' in out


def test_epsilon_at_the_ceiling_is_accepted(capsys):
    assert main(["verify", *CLUSTER, "--horizon", "2", "--epsilon", "1/1048576"]) == 0
    assert '"epsilon": "1/1048576"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "0/1", "1/7", "2/7", "--epsilon", "0"],
        ["analyze", "0/1", "1/7", "2/7", "--epsilon", "1/0"],
        ["analyze", "gen:thue_morse?offset=1/0", "1/3", "2/3"],
        ["analyze", "gen:thue_morse?shift=-5", "1/3", "2/3"],
        ["analyze", "gen:thue_morse?shift=-1", "1/3", "2/3"],
        ["analyze", "0/1", "1/7", "2/7", "-d", "0"],
        ["verify", "1/10", "2/10", "3/10", "-d", "0"],
        ["verify", "1/10", "2/10", "3/10", "-d", "1"],
        ["collection", "1/10", "2/10", "3/10", "-d", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_input_exits_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "collection", "render", "orbit"])
def test_negative_horizon_exits_2(command, capsys):
    assert main([command, "1/10", "2/10", "3/10", "-d", "3", "--horizon", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: horizon must be >= 0\n"


@pytest.mark.parametrize("command", ["verify", "jumps", "leaves"])
def test_negative_burn_in_exits_2(command, capsys):
    argv = [command, "30/100", "31/100", "32/100", "-d", "2", "--horizon", "4"]
    assert main(argv + ["--no-kiwi-precheck", "--burn-in", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: burn-in must be >= 0\n"


@pytest.mark.parametrize("command", ["analyze", "orbit", "collection", "render"])
def test_burn_in_refused_where_unused(command, capsys):
    argv = [command, "30/100", "31/100", "32/100", "-d", "2", "--horizon", "4"]
    assert main(argv + ["--no-kiwi-precheck", "--burn-in", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --burn-in is not used by {command}\n"


@pytest.mark.parametrize("command", ["verify", "jumps", "leaves"])
def test_burn_in_past_horizon_exits_2(command, capsys):
    """A burn-in past the horizon would leave no record to check (the report
    said "burn_in": 7 for an orbit of four records); one at the horizon
    leaves the last record."""
    argv = [command, "149763/798233", "2914459/5587631", "3116864/5587631",
            "-d", "3", "--horizon", "3"]
    assert main(argv + ["--burn-in", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: burn-in 7 exceeds horizon 3\n"
    assert main(argv + ["--burn-in", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["burn_in"] == 3


def _thue_morse_neighbour() -> str:
    """The first 8 base-3 Thue-Morse digits plus 1/(36*3^2000): inside the
    stream's 8-digit enclosure, with a 3,176-bit denominator."""
    n = 0
    for i in range(8):
        n = 3 * n + (bin(i).count("1") & 1)
    r = Fraction(n, 3**8) + Fraction(1, 36 * 3**2000)
    return f"{r.numerator}/{r.denominator}"


@pytest.mark.parametrize(
    "argv",
    [
        # two holes of size 1/2 that no digit count can order: 9,941 bytes
        ["analyze", "gen:thue_morse?base=2", "gen:thue_morse?base=2&offset=1/2",
         "-d", "2"],
        # floor(2 * 1/2) undecided: 5,002 bytes
        ["analyze", "gen:thue_morse?base=2", "gen:thue_morse?base=2&offset=1/2", "0/1",
         "-d", "2"],
        # a stream and a rational that 8 digits cannot separate: 1,982 bytes
        ["analyze", "gen:thue_morse?base=3", _thue_morse_neighbour(), "1/2",
         "-d", "3", "--budget", "8"],
    ],
    ids=["cmp_values", "floor_scaled", "compare"],
)
def test_precision_message_is_bounded(argv, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    budget = argv[argv.index("--budget") + 1] if "--budget" in argv else "4096"
    assert out == "" and err.startswith("precision: ")
    assert f"within {budget} digits" in err and len(err.encode()) < 300


def test_orbit_report():
    rep = run_json("orbit", *CLUSTER, "--degree", "2", "--horizon", "2")
    recs = rep["payload"]["records"]
    assert len(recs) == 3
    assert [v["fraction"] for v in recs[1]["vertices"]] == ["3/5", "31/50", "16/25"]


def test_jumps_report_golden_fields():
    rep = run_json("jumps", *JUMP, "--degree", "2", "--horizon", "1")
    (jr,) = rep["payload"]["jumps"]
    assert jr["index"] == 0
    assert jr["s_tilde_cr"]["fraction"] == "1/100"
    assert jr["strip"]["start_range"]["lo"]["fraction"] == "9/20"
    assert jr["strip"]["start_range"]["hi"]["fraction"] == "23/50"
    assert jr["image_hole"]["start"]["fraction"] == "9/10"
    assert jr["image_rank"] == 1
    assert rep["payload"]["traces"] == [{"jump_index": 0, "steps": [[1, 1]]}]


def test_leaves_report():
    rep = run_json("leaves", *JUMP, "--degree", "2", "--horizon", "1")
    (leaf,) = rep["payload"]["leaves"]
    assert leaf["arcs"][0]["lo"]["fraction"] == "9/20"
    assert leaf["arcs"][1]["lo"]["fraction"] == "19/20"
    assert leaf["value_arc"]["lo"]["fraction"] == "9/10"


def test_verify_periodic_not_certified_exit_0():
    rep = run_json("verify", "1/7", "2/7", "4/7", "--degree", "2",
                   "--horizon", "5", "--no-kiwi-precheck")
    assert rep["payload"]["status"] == "NotCertifiedWandering"
    assert rep["payload"]["certificate"]["status"] == "FailedLinked"


def test_verify_burn_in_that_fails_a_condition_exits_2(capsys):
    """A given burn-in is checked against find_burn_in's two conditions on
    every record from it on: the first failing record and condition are
    one error line and exit 2 (every orbit here certifies; the last has
    s_1 = 1/27 exactly).  From the burn-in that find_burn_in picks, the
    first input gets its report."""
    tri = ["50/283", "206/283", "208/283"]
    cases = [
        ("2", tri, "burn-in 0: record 1 does not preserve orientation"),
        ("2", ["70/153", "89/153", "91/153"], "burn-in 0: record 1 has s_1 >= 1/27"),
        ("2", ["2776933/6705950", "2225886/3352975", "4768519/6705950"],
         "burn-in 0: record 0 has s_1 >= 1/27"),
        ("1", ["557/1004", "303/502", "8683/13554"],
         "burn-in 0: record 0 has s_1 >= 1/27"),
    ]
    for horizon, lits, message in cases:
        argv = ["verify", "-d", "3", "--horizon", horizon, "--burn-in", "0", *lits]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["verify", "-d", "3", "--horizon", "2", "--burn-in", "2", *tri]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["certificate"]["status"] == "CertifiedToHorizon"
    assert (payload["burn_in"], payload["status"]) == (2, "InconclusiveEvidence")


def test_verify_kiwi_reject_exit_0():
    rep = run_json("verify", "1/10", "2/10", "3/10", "--degree", "2")
    assert rep["payload"]["certificate"]["status"] == "RejectedKiwiBound"


def test_collection_cross_linked_exit_0(tmp_path):
    f = tmp_path / "gamma.txt"
    f.write_text("30/100,31/100,32/100\n305/1000,315/1000,325/1000\n")
    rep = run_json("collection", "--file", str(f), "--degree", "2",
                   "--horizon", "1", "--no-kiwi-precheck")
    assert rep["payload"]["status"] == "CrossPairLinked"
    assert rep["payload"]["members"] == [0, 1]


def test_collection_single_member(tmp_path):
    f = tmp_path / "gamma.txt"
    f.write_text("# comment line\n30/100,31/100,32/100\n")
    rep = run_json("collection", "--file", str(f), "--degree", "2",
                   "--horizon", "3", "--no-kiwi-precheck")
    assert rep["payload"]["sigma"] == 1
    assert rep["payload"]["holds"] is False


def test_collection_file_without_polygons_exits_2(tmp_path, capsys):
    f = tmp_path / "gamma.txt"
    f.write_text("# no members\n\n   \n")
    assert main(["collection", "--file", str(f), "-d", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: collection needs --file polygons or angle literals\n"


@pytest.mark.parametrize(
    "literal, message",
    [
        ("gen:thue_morse?base=x", "gen:thue_morse parameter base must be an "
         "integer, got 'x'"),
        ("gen:thue_morse?shift=x", "gen:thue_morse parameter shift must be an "
         "integer, got 'x'"),
        ("gen:champernowne?base=", "gen:champernowne parameter base must be an "
         "integer, got ''"),
        ("gen:thue_morse?offset=abc", "gen:thue_morse parameter offset must be a "
         "rational, got 'abc'"),
        ("gen:thue_morse?offset=" + "x" * 30, "gen:thue_morse parameter offset "
         "must be a rational, got '" + "x" * 24 + "'..."),
        ("gen:thue_morse?offset=1/0", "zero denominator in generator offset"),
        # exponent notation: Fraction alone built 10**3000 as the denominator
        ("gen:thue_morse?offset=1e-3000", "gen:thue_morse parameter offset must be a "
         "rational, got '1e-3000'"),
    ],
)
def test_non_integer_generator_parameter_exits_2(literal, message, capsys):
    assert main(["analyze", literal, "1/3", "2/3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_assertion_breach_exit_4():
    proc = run_cli("jumps", "5/100", "35/100", "65/100",
                   "--degree", "2", "--horizon", "1")
    assert proc.returncode == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["jumps", "-d", "4", "--horizon", "18", "--no-kiwi-precheck",
         "0/1", "2/3", "1/3"],
        ["leaves", "-d", "4", "--horizon", "2", "--no-kiwi-precheck",
         "0/1", "2/3", "1/3", "gen:champernowne?base=4&shift=0"],
    ],
    ids=["jumps", "leaves"],
)
def test_critical_hole_tie_exits_4(argv, capsys):
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("assertion breach: ") and "minimal remainder" in err
    assert err.count("\n") == 1


def _decimal(x: Fraction) -> str:
    """x truncated to 12 places, from Fraction arithmetic."""
    whole = abs(x.numerator) // x.denominator
    return f"{'-' if x < 0 else ''}{whole}.{int((abs(x) - whole) * 10**12):012d}"


def _ratio_object(x: Fraction) -> dict:
    return {
        "fraction": f"{x.numerator}/{x.denominator}",
        "decimal_approx_12": _decimal(x),
    }


@given(st.fractions(), st.integers(min_value=1, max_value=10**20))
@settings(max_examples=200, deadline=None)
def test_report_rational_from_an_unreduced_pair(x, k):
    """A rational written from ints over any common multiple reads as the
    Fraction itself does: "p/q" in lowest terms and the same decimal."""
    n, q = x.numerator, x.denominator
    want = _ratio_object(x)
    leaves = (_ser_ratio(k * n, k * q), _ser_fraction(x))
    assert [json.loads(_to_json(leaf)) for leaf in leaves] == [want, want]


LINKED_QUAD = ["gen:thue_morse?base=4&shift=39", "43/86", "128/130",
               "gen:thue_morse?base=4", "-d", "4", "--horizon", "4"]


@pytest.mark.parametrize("command", ["jumps", "leaves"])
def test_jump_stage_breach_on_a_linked_orbit_names_verify(command, capsys):
    """The orbit links at (0, 1), so the jump stages' facts need not hold:
    the breach still exits 4, in one line that says what the stages assume
    and that verify checks it; verify reports the linked pair."""
    assert main([command, *LINKED_QUAD]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("assertion breach: image-hole of the critical hole")
    assert err.endswith(
        "; the jump stages assume a wandering orbit past burn-in, "
        "which verify checks\n"
    )
    assert main(["verify", *LINKED_QUAD]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["status"] == "NotCertifiedWandering"
    assert (payload["certificate"]["status"], payload["certificate"]["pair"]) == (
        "FailedLinked", [0, 1]
    )


def test_repeated_vertex_exits_2_even_with_unseparated_vertices(capsys):
    """5/7 and 0/1 repeat; the stream vertex and 93881/9765625 cannot be
    separated within 8 digits, which used to exit 3 before the repeat was
    seen."""
    argv = ["verify", "gen:thue_morse?base=5&shift=29", "5/7", "0/1", "5/7",
            "5/7", "0/1", "93881/9765625", "-d", "5", "--horizon", "6",
            "--no-kiwi-precheck", "--budget", "8"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: polygon vertices must be pairwise distinct\n"


def test_render_triangle_counts():
    proc = run_cli("render", "0/1", "1/7", "2/7", "--degree", "2")
    assert proc.returncode == 0
    svg = proc.stdout
    assert svg.count('class="polygon"') == 1
    assert svg.count('class="hole-arc"') == 3
    assert svg.startswith('<?xml version="1.0"')
    assert "</svg>" in svg


def test_render_jump_strip_band():
    proc = run_cli("render", *JUMP, "--degree", "2", "--horizon", "1")
    svg = proc.stdout
    assert svg.count('class="polygon"') == 2
    assert 'class="strip"' in svg
    assert 'class="leaf"' in svg


def test_render_svg_rejects_negative_horizon():
    with pytest.raises(PreconditionError, match="horizon must be >= 0"):
        render_svg([Angle.from_fraction(Fraction(k, 10)) for k in (1, 2, 3)], 3, -1)


def test_render_empty_is_circle_only():
    proc = run_cli("render")
    svg = proc.stdout
    assert 'class="circle"' in svg
    assert "polygon" not in svg


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "0/1", "1/7", "2/7", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(out.read_text())["command"] == "analyze"


@pytest.mark.parametrize(
    "name", ["crit9-analyze", "stream-analyze", "tri3-render", "stream-render"]
)
def test_out_writes_the_bytes_stdout_would(name, tmp_path, capsys):
    """In process, ``--out`` writes exactly the golden stdout of a request to
    the file, byte for byte, and prints nothing."""
    code, argv = CASES[name]
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def test_collection_names_the_member_that_failed_certification(tmp_path, capsys):
    """The first member certifies; the second is its own image, so its
    T_1 is linked with its T_0, and the report is NotCertifiedWandering
    with that member's certificate and ``"member": 1``."""
    f = tmp_path / "gamma.txt"
    f.write_text("30/100,31/100,32/100\n1/7,2/7,4/7\n")
    assert main(["collection", "--file", str(f), "-d", "2", "--horizon", "3",
                 "--no-kiwi-precheck"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)["payload"]
    assert err == "" and list(payload) == ["certificate", "member", "status"]
    assert (payload["status"], payload["member"]) == ("NotCertifiedWandering", 1)
    assert (payload["certificate"]["status"], payload["certificate"]["pair"]) == (
        "FailedLinked", [0, 1])


# a triangle certified to horizon 1 whose smallest hole, 1/100, equals the
# critical remainder: step 0 is no jump, and the two equal holes of T_1 (the
# images of those two holes) are ranked by ccw position, so rank 1 does not
# persist and the jump analysis breaches.  The input reaches the breach only
# through that exact tie of two sizes, which is reported as a breach while an
# exact tie of two remainders raises TieUnresolvable; should the tie be
# handled, the two tests below lose their input, and
# ``test_breach_reports_name_what_detect_jumps_raises`` still covers the
# reports
TIE_BREACH = ["-d", "2", "--horizon", "1", "--no-kiwi-precheck", "7/200", "9/200",
              "21/40"]
TIE_NOTE = "jump analysis breach: hole of rank 1 did not persist across non-jump step 0"


def test_verify_reports_a_jump_analysis_breach(capsys):
    assert main(["verify", *TIE_BREACH]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)["payload"]
    assert err == "" and payload["certificate"]["status"] == "CertifiedToHorizon"
    assert (payload["status"], payload["burn_in"]) == ("AssertionBreach", 0)
    assert payload["jump_indices"] is None and payload["leaves"] == []
    assert payload["notes"] == [TIE_NOTE]


def test_collection_notes_a_member_s_jump_analysis_breach(capsys):
    assert main(["collection", *TIE_BREACH]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)["payload"]
    assert err == "" and payload["status"] == "InconclusiveEvidence"
    assert payload["notes"][0] == f"member 0: {TIE_NOTE}"


@pytest.mark.parametrize(
    "command, status, note",
    [("verify", "AssertionBreach", "jump analysis breach: stand-in"),
     ("collection", "InconclusiveEvidence", "member 0: jump analysis breach: stand-in")],
)
def test_breach_reports_name_what_detect_jumps_raises(
    command, status, note, monkeypatch, capsys
):
    """A certified triangle with a burn-in whose ``detect_jumps`` raises
    AssertionBreach: ``verify`` reports the status with the breach as its
    note, ``collection`` notes it for member 0, and both exit 0."""

    def breach(*_):
        raise AssertionBreach("stand-in")

    monkeypatch.setattr(recurrence, "detect_jumps", breach)
    assert main([command, *TRI3]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)["payload"]
    assert err == "" and payload["status"] == status
    assert payload["notes"][0] == note


def test_file_input_single_polygon(tmp_path):
    f = tmp_path / "poly.txt"
    f.write_text("0/1, 1/7, 2/7\n")
    rep = run_json("analyze", "--file", str(f))
    assert len(rep["payload"]["vertices"]) == 3


def test_file_with_a_utf8_bom_reads_as_without(tmp_path, capsys):
    """A UTF-8 file that starts with a byte order mark, as some editors save
    one, gives the same report as the file without it (the mark was read as
    part of the first literal: exit 2)."""
    outputs = []
    for name, head in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
        f = tmp_path / name
        f.write_bytes(head + b"1/7,2/7,4/7")
        assert main(["collection", "--file", str(f), "-d", "3"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


ALL_COMMANDS = ["analyze", "orbit", "jumps", "leaves", "verify", "collection", "render"]


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_file_and_literals_together_exit_2(command, tmp_path, capsys):
    """Neither input source is dropped: ``analyze --file f 1/5 2/5 3/5``
    printed the vertices 1/5, 2/5 and 3/5 (and ``collection`` the file's)."""
    f = tmp_path / "poly.txt"
    f.write_text("0/1, 1/7, 2/7\n")
    assert main([command, "--file", str(f), "1/5", "2/5", "3/5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: give angle literals or --file, not both\n"


@pytest.mark.parametrize("command", [c for c in ALL_COMMANDS if c != "collection"])
def test_file_of_several_polygons_to_a_single_polygon_command_exits_2(
    command, tmp_path, capsys
):
    """A single-polygon command used the first polygon of the file and
    dropped the rest; ``collection`` reads them all."""
    f = tmp_path / "polys.txt"
    f.write_text("# two members\n30/100, 31/100, 32/100\n305/1000, 315/1000, 325/1000\n")
    argv = ["--file", str(f), "-d", "2", "--horizon", "1", "--no-kiwi-precheck"]
    assert main([command, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --file holds 2 polygons; {command} takes one\n"
    assert main(["collection", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["members"] == [0, 1]


def test_analyze_reports_a_critical_hole_tie():
    """Two candidate critical holes share the minimal remainder: ``analyze``
    reports no critical hole and the reason, with exit 0 (``jumps`` and
    ``leaves`` exit 4 on the same tie)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "-d", "4", "0/1", "2/3", "1/3"]) == 0
    payload = json.loads(out.getvalue())["payload"]
    assert payload["cr"] is None
    assert payload["cr_unavailable_reason"] == (
        "holes of ranks 1 and 2 share the minimal remainder"
    )


def test_main_in_process_exit_codes():
    assert main(["analyze", "0/1", "1/7", "2/7"]) == 0
    assert main(["analyze", "junk"]) == 2


@contextlib.contextmanager
def _no_digit_limit():
    """Lift CPython's int<->str digit limit while the test reads long ints."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# pairwise coprime 2,201-digit denominators (odd, and none divisible by 3),
# so each hole size is reduced over a product of two, about 4,400 digits
_BIG_DENS = [10**2200 + 1, 10**2200 + 3, 10**2200 + 7]
_BIG_TRIANGLE = [Fraction(n * q // 5, q) for n, q in zip((1, 2, 4), _BIG_DENS)]
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit"
)


def _literal(x: Fraction) -> str:
    with _no_digit_limit():
        return f"{x.numerator}/{x.denominator}"


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["orbit", "--horizon", "2"], ["verify", "--horizon", "3"]],
    ids=lambda argv: argv[0],
)
def test_report_of_integers_over_the_digit_limit_exits_0(argv, capsys):
    """A valid input whose report prints integers longer than CPython's
    default 4,300-digit limit exits 0; analyze's hole sizes are the exact
    differences, and the limit is back in place after the call."""
    before = sys.get_int_max_str_digits()
    literals = [_literal(x) for x in _BIG_TRIANGLE]
    assert main([*argv, "-d", "3", *literals]) == 0
    assert sys.get_int_max_str_digits() == before
    if argv[0] != "analyze":
        return
    with _no_digit_limit():
        rep = json.loads(capsys.readouterr().out)
        sizes = [Fraction(h["size"]["fraction"]) for h in rep["payload"]["holes"]]
    a, b, c = _BIG_TRIANGLE
    assert sorted(sizes) == sorted([b - a, c - b, 1 + a - c])
    assert max(x.denominator for x in sizes) > 10**4300


@needs_digit_limit
def test_literal_over_the_digit_limit_exits_0(capsys):
    q = 10**4400 + 1
    assert main(["analyze", "1/3", _literal(Fraction(q // 2, q))]) == 0


@needs_digit_limit
def test_digit_limit_restored_after_every_exit(capsys):
    before = sys.get_int_max_str_digits()
    assert main(["analyze", "junk"]) == 2
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    assert sys.get_int_max_str_digits() == before


def test_config_echo_verbatim():
    rep = run_json("analyze", "0/1", "1/7", "2/7", "--degree", "3",
                   "--seed", "42", "--epsilon", "1/128", "--budget", "512")
    cfg = rep["config"]
    assert cfg == {
        "budget": 512,
        "burn_in": None,
        "degree": 3,
        "epsilon": "1/128",
        "horizon": 0,
        "kiwi_precheck": True,
        "seed": 42,
    }


def test_stream_literal_through_cli():
    rep = run_json("analyze", "gen:thue_morse?base=2", "1/2", "3/4",
                   "--degree", "2")
    lits = [v["literal"] for v in rep["payload"]["vertices"]]
    assert "gen:thue_morse?base=2" in lits


def test_stream_literal_prints_its_default_base(capsys):
    """A literal written without a base prints with base=2, its default."""
    assert main(["analyze", "gen:thue_morse", "1/2", "3/4", "-d", "2"]) == 0
    vertices = json.loads(capsys.readouterr().out)["payload"]["vertices"]
    assert [v["literal"] for v in vertices] == ["gen:thue_morse?base=2", "1/2", "3/4"]


@pytest.mark.parametrize(
    "same",
    [
        ["gen:thue_morse", "gen:thue_morse?base=2"],
        ["gen:thue_morse?base=02", "gen:thue_morse?base=2"],
        ["gen:thue_morse?offset=3/3&shift=0", "gen:thue_morse?base=2"],
    ],
    ids=["default-base", "padded-base", "zero-shift-and-offset"],
)
def test_one_stream_written_two_ways_is_one_vertex(same, capsys):
    """Two spellings of one stream are one point of the circle, so the
    polygon's vertices are not distinct.  Were each spelling a stream of its
    own, separating the two would run out of digits and exit 3."""
    assert main(["analyze", "-d", "2", *same, "1/3"]) == 2
    assert capsys.readouterr() == (
        "", "error: polygon vertices must be pairwise distinct\n")


def test_unknown_generator_parameter_exits_2(capsys):
    assert main(["analyze", "-d", "2", "gen:thue_morse?base=2&foo=1", "1/3"]) == 2
    assert capsys.readouterr() == (
        "", "error: gen:thue_morse takes only base, shift and offset, got 'foo'\n")


def test_generator_shift_costs_no_digit_below_it(capsys):
    """A stream's digits are cached from its literal's shift on: ``analyze``
    calls the digit function as often at shift 10**5 as at shift 0 (the
    digits have period 5, so both are one stream), and never below the
    shift."""
    calls = []
    register_generator("every_fifth",
                       lambda base: lambda i: calls.append(i) or int(i % 5 == 0))
    counts = []
    for shift in (0, 10**5):
        calls.clear()
        literal = f"gen:every_fifth?base=2&shift={shift}"
        assert main(["analyze", "-d", "2", literal, "1/3", "2/3"]) == 0
        assert min(calls) == shift
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] > 0


def test_analyze_builds_each_hole_size_a_bounded_number_of_times(monkeypatch, capsys):
    """``analyze`` on N vertices builds hole sizes at most 3N times, not
    all N sizes for each hole's row (N**2 + N)."""
    calls = []
    size_value = HoleProfile._size_value
    monkeypatch.setattr(HoleProfile, "_size_value",
                        lambda self, i: calls.append(i) or size_value(self, i))
    N = 200
    assert main(["analyze", "-d", "3", *(f"{7 * i}/{7 * N + 1}" for i in range(N))]) == 0
    assert len(json.loads(capsys.readouterr().out)["payload"]["holes"]) == N
    assert 0 < len(calls) <= 3 * N


# the exit-code contract under generated input

COMMANDS = ("analyze", "orbit", "jumps", "leaves", "verify", "collection", "render")
_bits = st.text(alphabet="01", max_size=4)
# rationals (unreduced, some >= 1), decimals and periodic-digit literals
plain_literals = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 60), st.integers(1, 30)),
    st.builds("{}.{}".format, st.integers(0, 1), st.integers(0, 99)),
    st.builds("{}:{}({})".format, st.integers(2, 5), _bits, _bits),
)
# a generator literal's parameters: the base zero-padded or out of range,
# shifts up to 10**12, offsets with a zero denominator, unknown keys and
# malformed pieces
_gen_params = st.one_of(
    st.builds("base={}{}".format, st.sampled_from(["", "0", "00"]), st.integers(0, 5)),
    st.builds("shift={}".format, st.integers(-1, 12) | st.integers(0, 10**12)),
    st.builds("offset={}/{}".format, st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from(["foo=1", "base", "=", ""]),
)
# streams, with a base that may differ from the degree or be omitted, and
# malformed text
odd_literals = st.one_of(
    st.builds(
        lambda name, params: f"gen:{name}" + ("?" + "&".join(params) if params else ""),
        st.sampled_from(["thue_morse", "champernowne", "nosuch"]),
        st.lists(_gen_params, max_size=4),
    ),
    st.sampled_from(["gen:thue_morse", "gen:champernowne?base=3", "gen:x?base"]),
    st.builds("{}:{}".format, st.integers(0, 12), st.text("0123456789ab", max_size=3)),
    st.text(alphabet="0123456789/.:()?=&-gen", max_size=8),
)


# cubic triangles that certify, jump and reach the omega bins at horizons 1..5
TRIANGLES = (TRI3[:3], WIDE[-3:])


@st.composite
def omega_argv(draw):
    """verify or collection on one of ``TRIANGLES`` at degree 3, with the
    horizon, burn-in, epsilon and budget drawn."""
    command = draw(st.sampled_from(["verify", "collection"]))
    horizon = draw(st.integers(1, 5))
    argv = [command, *draw(st.sampled_from(TRIANGLES)), "-d", "3"]
    argv += ["--horizon", str(horizon)]
    if command == "verify" and draw(st.booleans()):
        argv += ["--burn-in", str(draw(st.integers(0, horizon)))]
    r = draw(st.integers(0, 24))
    argv += ["--epsilon", draw(st.sampled_from([f"1/{2**r}", str(2**r)]))]
    if draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(1, 64)))]
    return argv


@st.composite
def cli_argv(draw):
    """A command, literals and options.  A quarter of the time it is
    ``omega_argv``, which reaches the omega stage; else half the time every
    option is in range and every literal plain, so that the run reaches
    the analysis."""
    if draw(st.integers(0, 3)) == 0:
        return draw(omega_argv())
    wild = draw(st.booleans())
    literals = draw(
        st.lists(plain_literals, min_size=0 if wild else 3, max_size=5, unique=not wild)
    )
    if wild:
        literals += draw(st.lists(odd_literals, max_size=1))
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, *draw(st.permutations(literals))]
    argv += ["-d", str(draw(st.integers(1 if wild else 2, 5)))]
    argv += ["--horizon", str(draw(st.integers(-1 if wild else 0, 5)))]
    if draw(st.booleans()):
        argv.append("--no-kiwi-precheck")
    if (wild or command in ("jumps", "leaves", "verify")) and draw(st.booleans()):
        argv += ["--burn-in", str(draw(st.integers(-1 if wild else 0, 3)))]
    r = draw(st.integers(0, 24))  # past 20, epsilon is finer than the ceiling
    epsilons = [f"1/{2**r}", str(2**r)] + (["1/48", "0", "x"] if wild else [])
    if draw(st.booleans()):
        argv += ["--epsilon", draw(st.sampled_from(epsilons))]
    if draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-1 if wild else 1, 64)))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cli_argv())
@example(["verify", *WIDE, "--epsilon", "65536"])
@example(["verify", *WIDE, "--epsilon", "1/16777216"])
def test_generated_input_keeps_the_exit_code_contract(argv):
    """Any command on generated literals and options exits 0, 2, 3 or 4
    (argparse exits 2 itself), prints no traceback, and writes to stdout
    only on success.  Two examples take ``wide-verify``'s triangle to the
    omega bins on each side of the epsilon ceiling."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


# the report writer against json.dumps

_TRICKY = "\"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600"
report_keys = st.text(max_size=6) | st.text(alphabet=_TRICKY, max_size=4)
report_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text()
    | st.text(alphabet=_TRICKY)
)


@st.composite
def leaf_objects(draw):
    """A ratio, bounds or angle leaf and the object it stands for, built
    here from Fraction arithmetic; ratio and bounds ends are any ints, and
    bounds are drawn both at random (so also with hi < lo) and as narrow
    enclosures (hi - lo below one unit of the 12th place, about as often on
    either side of a 12th-place step); stream literals name generators
    registered here with quotes, backslashes and non-ASCII characters in
    their names, the only free text a literal carries."""
    kind = draw(st.sampled_from(["ratio", "bounds", "narrow", "rational", "stream"]))
    ints = st.integers(min_value=-(10**30), max_value=10**30)
    q = draw(st.integers(min_value=1, max_value=10**30))
    if kind == "ratio":
        n = draw(ints)
        return _ser_ratio(n, q), _ratio_object(Fraction(n, q))
    if kind in ("bounds", "narrow"):
        lo = draw(ints)
        width = st.integers(0, q // 10**12 + 1)
        hi = draw(ints) if kind == "bounds" else lo + draw(width)
        return _ser_bounds(lo, hi, q), _bounds_object(lo, hi, q)
    if kind == "rational":
        x = draw(st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1))
        a = Angle.from_fraction(x)
        literal = f"{x.numerator}/{x.denominator}"
        leaf = _ser_angle(a, a.interval(REPORT_DIGITS))
        return leaf, dict(_ratio_object(x), literal=literal)
    name = draw(st.text(alphabet=_TRICKY + "ab=&?", min_size=1, max_size=6))
    register_generator(name, _champernowne_factory)
    params = {"base": draw(st.integers(2, 5)), "shift": draw(st.integers(0, 50))}
    if draw(st.booleans()):
        params["offset"] = draw(st.fractions(min_value=0, max_value=2))
    a = Angle.from_generator(name, params)
    return _ser_angle(a, a.interval(REPORT_DIGITS)), _stream_object(a)


def _stream_object(a: Angle) -> dict:
    return dict(_bounds_object(*a.interval(64)), literal=format_angle(a))


def _bounds_object(lo: int, hi: int, q: int) -> dict:
    return {
        "enclosure": {
            "lo": _ratio_object(Fraction(lo, q)),
            "hi": _ratio_object(Fraction(hi, q)),
        },
        "decimal_approx_12": _decimal(Fraction(lo + hi, 2 * q)),
    }


def _pairs(values):
    """Report values paired with themselves, as the same tree twice."""
    return values.map(lambda v: (v, v))


report_pairs = st.recursive(
    _pairs(report_leaves) | leaf_objects(),
    lambda inner: st.lists(inner, max_size=4).map(
        lambda ps: ([x for x, _ in ps], [y for _, y in ps]))
    | st.dictionaries(report_keys, inner, max_size=4).map(
        lambda d: ({k: x for k, (x, _) in d.items()},
                   {k: y for k, (_, y) in d.items()})),
    max_leaves=40,
)


_ODD_NAME = 'p"\\\u00e9\\"\U0001f600\n'
register_generator(_ODD_NAME, _champernowne_factory)
_ODD = Angle.from_generator(_ODD_NAME, {"base": 3, "shift": 5, "offset": "1/7"})
_ODD_LEAF = _ser_angle(_ODD, _ODD.interval(REPORT_DIGITS))


@settings(max_examples=500, deadline=None)
@given(report_pairs)
@example(([{"a": [_ODD_LEAF]}, _ODD_LEAF],
          [{"a": [_stream_object(_ODD)]}, _stream_object(_ODD)]))
def test_to_json_matches_json_dumps(pair):
    """A report, with ratio, bounds and angle leaves at any depth among its
    plain values, is written as ``json.dumps`` writes it with each leaf's
    object in its place."""
    x, want = pair
    assert _to_json(x) == json.dumps(want, sort_keys=True, indent=2)


def test_to_json_empty_and_nested_containers():
    for x in ({}, [], {"a": {}, "b": [], "c": [[], {}]}, [{"": [[]]}]):
        assert _to_json(x) == json.dumps(x, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "x",
    [1.5, (1, 2), {1: "a"}, {"a": [0.5]}, {"a": {"b": (1,)}}, Fraction(1, 2)],
    ids=["float", "tuple", "int-key", "nested-float", "nested-tuple", "Fraction"],
)
def test_to_json_rejects_other_types(x):
    with pytest.raises(TypeError):
        _to_json(x)


# orbit reports against json.dumps


def _size_object(p: HoleProfile, k: int) -> dict:
    lo, hi, den = p.size_bounds(k)
    if lo == hi:
        return _ratio_object(Fraction(lo, den))
    if p.k == REPORT_DIGITS:
        return _bounds_object(lo, hi, den)
    v = p.size(k)
    if isinstance(v, Approx):
        return _bounds_object(*v.interval(REPORT_DIGITS))
    return _ratio_object(v)


def _vertex_object(a: Angle) -> dict:
    if a.source is None:
        return dict(_ratio_object(Fraction(a.n, a.q)), literal=f"{a.n}/{a.q}")
    return _stream_object(a)


def _orbit_report(literals: list[str], d: int, horizon: int) -> str:
    """The ``orbit`` report as ``json.dumps`` writes it, from plain objects
    built here for each record of ``iterate_orbit``."""
    budget = PrecisionBudget(max_digits=4096)
    orbit = iterate_orbit(Polygon([parse_angle(t) for t in literals], budget), d,
                          horizon, budget)
    records = [
        {
            "index": rec.index,
            "orientation": rec.orientation.verdict,
            "sizes_by_rank": [_size_object(rec.profile, k)
                              for k in range(1, rec.polygon.card + 1)],
            "vertices": [_vertex_object(v) for v in rec.polygon.vertices],
        }
        for rec in orbit
    ]
    config = {"degree": d, "horizon": horizon, "epsilon": "1/64", "budget": 4096,
              "kiwi_precheck": True, "burn_in": None, "seed": 0}
    report = {"version": "0.1.0", "command": "orbit", "config": config,
              "payload": {"records": records}}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@st.composite
def orbit_requests(draw):
    """(literals, degree, horizon) of a rational polygon, or of a stream
    vertex among rationals at the stream's base; half of the streams sit
    within base**-m of the 0/1 seam (m in 65..72), so that their 64-digit
    enclosures straddle it, and 0/1 is often among the rationals."""
    stream = draw(st.none() | stream_angles(seam_digits=st.integers(65, 72)))
    d = draw(st.integers(2, 4)) if stream is None else stream.source.base
    fractions = st.integers(1, 40).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda n: Fraction(n, q)))
    rats = draw(st.lists(fractions, min_size=1 if stream else 2, max_size=3, unique=True))
    literals = [f"{x.numerator}/{x.denominator}" for x in rats]
    if stream is not None:
        literals.insert(draw(st.integers(0, len(literals))), format_angle(stream))
    return literals, d, draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(orbit_requests())
@example((["0/1", "1/3", "2/3"], 4, 0))
@example((UNDECIDED_AT_64["sizes"][2:], int(UNDECIDED_AT_64["sizes"][1]), 2))
@example((UNDECIDED_AT_64["pair"][2:], int(UNDECIDED_AT_64["pair"][1]), 2))
def test_orbit_report_matches_json_dumps(request):
    """``orbit``'s report, whose records are written in one loop, is the
    one ``json.dumps(sort_keys=True, indent=2)`` writes for the same records
    built as plain objects: horizon 0, offsets, vertices on or near the 0/1
    seam, and sizes and sorts that 64 digits leave undecided."""
    literals, d, horizon = request
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["orbit", *literals, "-d", str(d), "--horizon", str(horizon)])
    assume(code == 0)  # two vertices may share an image: exit 2
    assert out.getvalue() == _orbit_report(literals, d, horizon)


def _certificate_object(literals: list[str], d: int, horizon: int) -> dict:
    """``verify --no-kiwi-precheck``'s certificate as a plain object, from
    ``verify_theorem1`` on the same input: its later stages may build and
    refine a stream size, which the report then prints."""
    budget = PrecisionBudget(max_digits=4096)
    P = Polygon([parse_angle(t) for t in literals], budget)
    try:
        cert = verify_theorem1(P, d, horizon, Fraction(1, 64), budget,
                               kiwi_precheck=False).certificate
    except NotCertifiedWandering as exc:
        cert = exc.certificate
    return {
        "horizon": cert.horizon,
        "status": cert.status,
        "step": cert.step,
        "pair": list(cert.pair) if cert.pair else None,
        "s_trajectory": [_size_object(r.profile, r.polygon.card - 2)
                         for r in cert.records],
    }


@settings(max_examples=100, deadline=None)
@given(orbit_requests())
@example((["0/1", "1/4", "1/2"], 2, 20))  # FailedNonPrecritical at step 0: no record
@example((THIN, 2, 20))  # FailedLinked
@example((TRI3[:3], 3, 3))  # CertifiedToHorizon
def test_verify_certificate_matches_json_dumps(request):
    """``verify``'s report, whose ``s_trajectory`` is written in one loop, is
    the one ``json.dumps(sort_keys=True, indent=2)`` writes with the
    certificate built as a plain object: an empty trajectory, a linked and a
    certified orbit, rational and stream polygons."""
    literals, d, horizon = request
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", *literals, "-d", str(d), "--horizon", str(horizon),
                     "--no-kiwi-precheck"])
    assume(code == 0)  # card 2, or a later stage's breach or precision error
    report = json.loads(out.getvalue())
    report["payload"]["certificate"] = _certificate_object(literals, d, horizon)
    assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2) + "\n"
