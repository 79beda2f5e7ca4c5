import json
import subprocess
import sys

import pytest

from polywander.cli import main

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


@pytest.mark.parametrize("literal", ["1/48", "48"])
def test_bad_epsilon_message_names_literal(literal, capsys):
    assert main(["verify", *CLUSTER, "--epsilon", literal]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: epsilon must be 1/2^r, got '{literal}'\n"


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


def test_assertion_breach_exit_4():
    proc = run_cli("jumps", "5/100", "35/100", "65/100",
                   "--degree", "2", "--horizon", "1")
    assert proc.returncode == 4


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


def test_file_input_single_polygon(tmp_path):
    f = tmp_path / "poly.txt"
    f.write_text("0/1, 1/7, 2/7\n")
    rep = run_json("analyze", "--file", str(f))
    assert len(rep["payload"]["vertices"]) == 3


def test_main_in_process_exit_codes():
    assert main(["analyze", "0/1", "1/7", "2/7"]) == 0
    assert main(["analyze", "junk"]) == 2


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
