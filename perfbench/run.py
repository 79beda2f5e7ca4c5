"""Closed-loop benchmark of the polywander CLI, run in process.

    python3 perfbench/run.py --workload cluster-verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client sends seeded requests to ``polywander.cli.main(argv)`` one after
another (each after the previous one completes), with stdout captured, and
checks every output against plain-Fraction oracles.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` sends the same requests with per-layer
wrappers installed (see layers.py) and reports per-layer metrics.  Human
readable lines go first; the last line of stdout is one JSON object.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"  # input files and span dumps; ignored by git

SETUP_ARGV = ("analyze", "0/1", "1/7", "2/7", "-d", "2")
SETUP_LAUNCHES = 7
MIN_TRACED_PASSES = 2
# the end-to-end metrics of the final JSON line (all of them are printed)
END_TO_END = (
    "setup_s",
    "ops_per_kref",
    "latency_p50_ref",
    "latency_tail_ref",
    "peak_rss_mb",
)


def _load_package():
    """Import polywander from this checkout's src/ and the oracles from tests/."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import oracles  # noqa: F401  (workloads imports it)
        import polywander.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the package from {ROOT}: {exc}")
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: imported {cli.__file__}, not the copy under {src}")
    return cli


# ---------------------------------------------------------------------------
# sending requests


class Client:
    """Sends requests in process and records what came back."""

    def __init__(self, cli, plan, workdir: Path):
        self.main = cli.main
        self.plan = plan
        self.argvs = []
        for req in plan:
            names = dict(req.files)
            for name, text in req.files:
                (workdir / name).write_text(text, encoding="utf-8")
            self.argvs.append(
                [str(workdir / a) if a in names else a for a in req.argv]
            )

    def send(self, i: int, call=None):
        """(exit code, stdout, stderr) of plan entry ``i``; exit code None
        when the program raised.  ``call(i, main, argv)``, when given, runs
        the request in place of ``main(argv)``."""
        out, err = io.StringIO(), io.StringIO()
        argv = self.argvs[i % len(self.plan)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call(i, self.main, argv) if call else self.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed request, not a crash
                code = None
                err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()


def _digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


class Judge:
    """Checks outputs.  Every distinct (exit code, stdout) is checked once by
    the request's oracle check; repeats of it share the verdict."""

    def __init__(self, plan):
        self.plan = plan
        self.verdicts: dict[tuple[int, str], str | None] = {}
        self.problems: list[str] = []

    def judge(self, i: int, code, out: str, err: str) -> bool:
        key = (i % len(self.plan), _digest(code, out))
        if key not in self.verdicts:
            req = self.plan[key[0]]
            if code is None:
                problem = "raised: " + err.strip().splitlines()[-1]
            else:
                try:
                    problem = req.check(code, out)
                except (KeyError, IndexError, TypeError) as exc:
                    problem = f"report lacks an expected field: {exc!r}"
            if problem:
                problem = f"{req.argv[0]} #{key[0]}: {problem}"
                if err.strip():
                    problem += f" [stderr: {err.strip()[:200]}]"
                self.problems.append(problem)
            self.verdicts[key] = problem
        return self.verdicts[key] is None


# ---------------------------------------------------------------------------
# measurements


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter running a small ``analyze``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "polywander", *SETUP_ARGV]
    times = []
    for n in range(SETUP_LAUNCHES + 1):  # the first launch is a warm-up
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or json.loads(proc.stdout)["command"] != "analyze":
            raise RuntimeError(f"setup command failed: {proc.stderr.strip()[:300]}")
        if n:
            times.append(elapsed)
    return statistics.median(times), times


def tail(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None with fewer than eleven samples."""
    n = len(latencies)
    if n < 11:
        return None
    xs = sorted(latencies)
    return 100.0 * (n - 10) / n, xs[n - 11]


# A fixed computation in the package's style (small Fractions, sorting,
# short-lived dicts, JSON), independent of the code under test.  On a shared
# machine the speed of such code drifts by up to 2x between minutes and
# stalls for a second at a time, moving whole runs and bursts of requests
# together; a request's latency divided by the time of this computation,
# measured just before and just after it, cancels most of that drift.
REFERENCE_POINTS = (
    Fraction(459608, 625231),
    Fraction(7474770527, 10167506522),
    Fraction(109031, 625231),
    Fraction(2, 7),
)


def reference_time() -> float:
    t0 = time.perf_counter()
    pts = list(REFERENCE_POINTS)
    for _ in range(60):
        pts = sorted((2 * x) % 1 for x in pts)
        sizes = [(b - a) % 1 for a, b in zip(pts, pts[1:] + pts[:1])]
        order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
        json.dumps([{"p": f"{x.numerator}/{x.denominator}", "r": r}
                    for r, x in zip(order, pts)])
    return time.perf_counter() - t0


def timed_run(client: Client, judge: Judge, seconds: float) -> dict:
    latencies, refs, failed = [], [], 0
    busy = 0.0  # loop time outside the reference measurements
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        refs.append(reference_time())
        t0 = time.perf_counter()
        code, out, err = client.send(i)
        latencies.append(time.perf_counter() - t0)
        failed += not judge.judge(i, code, out, err)
        busy += time.perf_counter() - t0
        i += 1
    refs.append(reference_time())  # closes the last bracket
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ratios = [x / ((a + b) / 2) for x, a, b in zip(latencies, refs, refs[1:])]
    return {
        "latencies": latencies,
        "ratios": ratios,
        "attempted": i,
        "failed": failed,
        "busy": busy,
        "peak_rss_mb": rss_mb,
    }


def traced_run(client: Client, judge: Judge, seconds: float, dump: Path) -> dict:
    """Alternate untraced and traced passes over the plan.  Counts of every
    traced pass must agree exactly; times are medians over passes."""
    from layers import Tracer

    tracer = Tracer()
    pass_s = {False: [], True: []}  # pass wall times, untraced and traced
    windows = []  # per traced pass: (exact counts, self time by span name)
    spans = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(windows) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        for traced in (False, True):
            if traced:
                tracer.reset()
                tracer.install()
            report_bytes = 0
            t0 = time.perf_counter()
            try:
                for i in range(len(client.plan)):
                    code, out, err = client.send(i, tracer.request if traced else None)
                    report_bytes += len(out.encode())
                    attempted += 1
                    failed += not judge.judge(i, code, out, err)
            finally:
                if traced:
                    tracer.remove()
            pass_s[traced].append(time.perf_counter() - t0)
        counts = {f"{k}.calls": v for k, v in tracer.calls.items()}
        counts.update(tracer.counts, **{"cli.report_bytes": report_bytes})
        windows.append((counts, dict(tracer.self_s)))
        spans.append(tracer.spans)
    dump.write_text(
        json.dumps(
            {
                "span_fields": ["id", "parent", "request", "name", "start", "end"],
                "passes": [
                    {"counts": c, "self_s": s, "spans": sp}
                    for (c, s), sp in zip(windows, spans)
                ],
            }
        ),
        encoding="utf-8",
    )
    return {
        "windows": windows,
        "plain_s": statistics.median(pass_s[False]),
        "traced_s": statistics.median(pass_s[True]),
        "attempted": attempted,
        "failed": failed,
        "plan_len": len(client.plan),
    }


# ---------------------------------------------------------------------------
# reporting


MODULES = ("angles", "geometry", "orbit", "recurrence")  # render: see render_svg
SHARE_OF = (
    "cli",
    "angles.compare",
    "angles.cmp_values",
    "geometry.unlinked",
    "geometry.hole_profile",
    "geometry.is_orientation_preserving",
    "orbit.certify_wandering",
    "orbit.iterate_orbit",
    "orbit.detect_jumps",
    "orbit.track_critical_value",
    "recurrence.verify_collection_bound",
    "recurrence.extract_jumping_leaves",
    "render.render_svg",
)


def layer_metrics(res: dict) -> tuple[dict, bool]:
    """Per-request layer metrics from the traced passes, and whether the
    exact counts agreed across passes."""
    n = res["plan_len"]
    windows = res["windows"]
    counts0 = windows[0][0]
    repeat_ok = all(c == counts0 for c, _ in windows)

    def per_request(name):
        return counts0.get(name, 0) / n

    def self_time(select):
        # median over passes of the mean self time per request
        return statistics.median(
            sum(v for k, v in s.items() if select(k)) / n for _, s in windows
        )

    def share(select):
        return statistics.median(
            100.0 * sum(v for k, v in s.items() if select(k)) / sum(s.values())
            for _, s in windows
        )

    m = {}
    for name in (
        "geometry.unlinked",
        "angles.compare",
        "angles.Angle.enclosure_bounds",
        "geometry.hole_profile",
    ):
        m[f"{name}.calls"] = (per_request(f"{name}.calls"), "count")
    m["angles.approx.created"] = (per_request("angles.Approx.__init__.calls"), "count")
    ladder = counts0.get("angles.compare.ladder_calls", 0)
    m["angles.rungs_per_compare"] = (
        counts0.get("angles.compare.rungs", 0) / ladder if ladder else 0.0,
        "count",
    )
    m["recurrence.verify_collection_bound.unlinked_calls"] = (
        per_request("recurrence.verify_collection_bound.unlinked_calls"),
        "count",
    )
    m["orbit.certify_wandering.records_before_failure"] = (
        per_request("orbit.certify_wandering.records_before_failure"),
        "count",
    )
    m["cli.report_bytes"] = (per_request("cli.report_bytes"), "B")
    m["cli.self_s"] = (self_time(lambda k: k == "cli.main"), "s")
    for mod in ("angles", "geometry", "orbit"):
        m[f"{mod}.self_s"] = (self_time(lambda k, p=mod + ".": k.startswith(p)), "s")
    for name in (
        "angles.compare",
        "angles.cmp_values",
        "geometry.hole_profile",
        "geometry.is_orientation_preserving",
    ):
        m[f"{name}.self_s"] = (self_time(lambda k, f=name: k == f), "s")
    for name in SHARE_OF:
        if name == "cli":
            select = lambda k: k == "cli.main"  # noqa: E731
        else:
            select = lambda k, f=name: k == f  # noqa: E731
        m[f"{name}.self_share"] = (share(select), "%")
    for mod in MODULES:
        m[f"{mod}.self_share"] = (share(lambda k, p=mod + ".": k.startswith(p)), "%")
    m["trace.overhead_ratio"] = (res["traced_s"] / res["plain_s"] - 1.0, "ratio")
    return m, repeat_ok


def _fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<52} {value:>14.6g} {unit:<6}{note}"


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    plan = WORKLOADS[name](seed)
    inputs = json.dumps([[r.argv, r.files] for r in plan]).encode()
    print(f"{name}: seed {seed}, {len(plan)} distinct requests, "
          f"inputs sha256 {hashlib.sha256(inputs).hexdigest()[:16]}")
    WORK.mkdir(exist_ok=True)
    client = Client(cli, plan, WORK)
    judge = Judge(plan)
    # warm-up pass: fills lazy state and gives the reference outputs
    for i in range(len(plan)):
        judge.judge(i, *client.send(i))
    # A CLI user runs each request in a fresh process, whose full garbage
    # collections never walk a long-lived heap.  Freezing what set-up left
    # keeps the benchmark's own state out of those passes, which otherwise
    # add ~7 ms to about ten requests a run and decide the tail.
    gc.collect()
    gc.freeze()

    if trace:
        dump = WORK / f"trace-{name}-seed{seed}.json"
        res = traced_run(client, judge, seconds, dump)
        metrics, repeat_ok = layer_metrics(res)
        digest = hashlib.sha256(
            json.dumps(res["windows"][0][0], sort_keys=True).encode()
        ).hexdigest()[:16]
        print(f"  traced passes {len(res['windows'])}, exact counts "
              f"{'repeat' if repeat_ok else 'DIFFER'} across passes, "
              f"counts sha256 {digest}; spans in {dump.relative_to(ROOT)}")
        if not repeat_ok:
            judge.problems.append("exact counts differ between traced passes")
        for key, (v, u) in metrics.items():
            print(_fmt(key, v, u))
        attempted, failed = res["attempted"], res["failed"]
    else:
        setup, setup_times = measure_setup()
        res = timed_run(client, judge, seconds)
        lat, ratios = res["latencies"], res["ratios"]
        attempted, failed = res["attempted"], res["failed"]
        n = f" n={attempted}"
        rows = [
            ("setup_s", setup, "s", f" median of {len(setup_times)} launches"),
            ("ops_per_s", attempted / res["busy"], "1/s",
             f" {attempted} requests in {res['busy']:.2f} s, one client"),
            ("ops_per_kref", 1000 * attempted / sum(ratios), "1/kref", ""),
            ("latency_p50_s", statistics.median(lat), "s", n),
            ("latency_p50_ref", statistics.median(ratios), "ref", n),
        ]
        for name, xs, unit in (("latency_tail_s", lat, "s"),
                               ("latency_tail_ref", ratios, "ref")):
            t = tail(xs)
            if t is None:
                print(f"  {name} omitted: {attempted} requests, need 11")
            else:
                rows.append((name, t[1], unit, f" p{t[0]:.1f},{n}"))
        rows.append(("peak_rss_mb", res["peak_rss_mb"], "MB", ""))
        rows.append(("failed_ratio", failed / attempted, "ratio",
                     f" {failed} of {attempted}"))
        for row in rows:
            print(_fmt(*row))
        metrics = {r[0]: r[1:3] for r in rows if r[0] in END_TO_END}
    for problem in judge.problems[:5]:
        print(f"  FAILED {problem}")
    return {
        "correct": not judge.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    cli = _load_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(cli, n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
