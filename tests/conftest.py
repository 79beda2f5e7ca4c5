import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    """CLI tests run ``python -m polywander`` in a child process; give it
    src/ on its path too, as ``pythonpath`` in pyproject.toml gives this one."""
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


def pytest_runtest_logreport(report):
    """Emit one visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.location[2]
    if not name.startswith("test_criterion_"):
        return
    n = name.split("_")[2]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE CRITERION {n}: {outcome} ({name})")


@pytest.fixture(scope="session")
def random_polygon_corpus():
    """10^4 deterministic random vertex sets: cardinality 2..8, rational
    vertices with denominators <= 10^4, degree cycling over 2..5."""
    rng = random.Random(20260823)
    corpus = []
    for i in range(10_000):
        card = rng.randrange(2, 9)
        d = 2 + i % 4
        vals = set()
        while len(vals) < card:
            q = rng.randrange(2, 10_001)
            vals.add(Fraction(rng.randrange(q), q))
        corpus.append((d, sorted(vals)))
    return corpus
