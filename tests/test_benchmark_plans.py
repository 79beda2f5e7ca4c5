"""Every request the benchmark plans for seed 1, sent once through
``cli.main`` and judged by the plan's own oracle check.

The plans and checks are read from ``perfbench/workloads.py`` unchanged, so
a change that breaks an output the benchmark checks fails here, not first as
failed requests in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from polywander.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_plan_passes_its_checks(name, tmp_path, capsys):
    plan = workloads.WORKLOADS[name](1)
    assert plan
    for i, req in enumerate(plan):
        files = dict(req.files)
        for file_name, text in req.files:
            (tmp_path / file_name).write_text(text, encoding="utf-8")
        argv = [str(tmp_path / a) if a in files else a for a in req.argv]
        code = main(argv)
        out, _err = capsys.readouterr()
        assert req.check(code, out) is None, f"{name} request {i}: {req.argv}"
