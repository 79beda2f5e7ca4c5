"""End-to-end acceptance suite.

Each test covers one numbered criterion; a conftest hook prints a visible
PASS/FAIL line per criterion.  Derived expectations are cross-checked
against the independent plain-Fraction oracles in oracles.py.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from polywander import (
    Angle,
    CandidateLeaf,
    Chord,
    ChordsCrossError,
    NotInjectiveError,
    Polygon,
    arc_length,
    certify_wandering,
    detect_jumps,
    find_burn_in,
    hole_profile,
    image_hole,
    is_orientation_preserving,
    iterate_orbit,
    omega_approx,
    parse_angle,
    recurrence_evidence,
    remainder,
    rho,
)

from oracles import (
    cycle_of,
    f_map,
    hole_sizes,
    holes_of,
    oracle_certify,
    oracle_cyclic_order,
    oracle_disjoint_arcs,
    oracle_injective,
    oracle_remainder_sum,
)


def frac_poly(vals) -> Polygon:
    return Polygon([Angle.from_fraction(F(v)) for v in vals])


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "polywander", *argv],
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# 1. orientation triple-agreement on the random corpus, under 10 seconds


def test_criterion_1_orientation_triple_agreement(random_polygon_corpus):
    t0 = time.monotonic()
    checked = 0
    for d, vals in random_polygon_corpus:
        injective = oracle_injective(vals, d)
        P = frac_poly(vals)
        try:
            cert = is_orientation_preserving(P, d)
        except NotInjectiveError:
            assert not injective
            continue
        assert injective
        expected = oracle_cyclic_order(vals, d)
        # the library already requires its three internal criteria to agree;
        # here all three test-side oracles must agree with its verdict too
        assert cert.verdict == expected
        assert oracle_disjoint_arcs(vals, d) == expected
        assert oracle_remainder_sum(vals, d) == expected
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 9_000
    assert elapsed < 10.0, f"triple-agreement sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. exact hole identities on the same corpus


def test_criterion_2_exact_hole_identities(random_polygon_corpus):
    for d, vals in random_polygon_corpus:
        profile = hole_profile(frac_poly(vals), d)
        assert sum(profile.sizes_cyclic) == 1
        for hole, size, rem in zip(
            profile.holes, profile.sizes_cyclic, profile.remainders_cyclic
        ):
            img = image_hole(hole, d)
            assert arc_length(img.start, img.end) == d * rem
            assert rem == remainder(size, d)


# ---------------------------------------------------------------------------
# 3. rho laws: partition identity and critical separation


def test_criterion_3_rho_laws():
    rng = random.Random(97)

    def chord(a, b):
        return Chord(Angle.from_fraction(a), Angle.from_fraction(b))

    for _ in range(10_000):
        vals = set()
        while len(vals) < 6:
            q = rng.randrange(2, 10_001)
            vals.add(F(rng.randrange(q), q))
        a1, a2, a3, a4, a5, a6 = sorted(vals)
        p, l, q_ = chord(a1, a2), chord(a3, a6), chord(a4, a5)
        assert rho(p, l) + rho(q_, l) == rho(p, q_)

    # exhaustive critical separation on the denominator-360 grid
    for d in (2, 3, 4):
        chords = set()
        for j in range(1, d):
            for k in range(360):
                a, b = F(k, 360), (F(k, 360) + F(j, d)) % 1
                chords.add(frozenset((a, b)))
        grid = sorted(tuple(sorted(c)) for c in chords)
        for i in range(len(grid)):
            ci = chord(*grid[i])
            for j in range(i + 1, len(grid)):
                a, b = grid[i]
                c, e = grid[j]
                if len({a, b, c, e}) == 4 and (a < c < b) != (a < e < b):
                    continue  # interiors cross
                r = rho(ci, chord(*grid[j]))
                assert r >= F(1, d), (grid[i], grid[j], d, r)


# ---------------------------------------------------------------------------
# 4. the worked jump example, field by field


def test_criterion_4_worked_jump_example():
    orbit = iterate_orbit(frac_poly(["19/100", "45/100", "96/100"]), 2, 1)
    log = detect_jumps(orbit, 2)
    assert len(log.records) == 1
    jr = log.records[0]
    assert jr.index == 0
    assert jr.strip.rho_value == F(1, 100)
    (lo, hi), _ = jr.strip.ranges
    assert (F(lo, jr.strip.den), F(hi, jr.strip.den)) == (F(45, 100), F(46, 100))
    nxt = orbit[1].profile
    image_hole = nxt.holes[nxt.order[jr.image_rank - 1]]
    assert (image_hole.start.value, image_hole.end.value) == (F(90, 100), F(92, 100))
    assert jr.image_rank == 1


# ---------------------------------------------------------------------------
# 5. horizon certification against the interleaving oracle


def test_criterion_5_horizon_certification():
    pts = [F(30, 100), F(31, 100), F(32, 100)]
    P = frac_poly(pts)
    c4 = certify_wandering(P, 2, 4, kiwi_precheck=False)
    assert c4.status == "CertifiedToHorizon"
    c5 = certify_wandering(P, 2, 5, kiwi_precheck=False)
    assert c5.status == "FailedLinked" and c5.pair == (1, 5)
    assert oracle_certify(pts, 2, 4) == ("CertifiedToHorizon", None)
    assert oracle_certify(pts, 2, 5) == ("FailedLinked", (1, 5))


# ---------------------------------------------------------------------------
# 6. Kiwi precheck rejects card > d before iterating


def test_criterion_6_kiwi_precheck():
    rng = random.Random(606)
    for _ in range(200):
        card = rng.randrange(3, 10)
        d = rng.randrange(2, 6)
        vals = set()
        while len(vals) < card:
            q = rng.randrange(2, 1000)
            vals.add(F(rng.randrange(q), q))
        cert = certify_wandering(frac_poly(vals), d, 3)
        if card > d:
            assert cert.status == "RejectedKiwiBound"
            assert cert.records == ()  # rejected before any iteration
        else:
            assert cert.status != "RejectedKiwiBound"


# ---------------------------------------------------------------------------
# 7. non-jump label persistence on synthetic burn-in orbits


def test_criterion_7_nonjump_label_persistence():
    rng = random.Random(707)
    steps = 50
    for _ in range(1_000):
        N = rng.choice((3, 4, 5))
        d = rng.choice((2, 3))
        delta = F(1, 3 * N * d * d**55)
        mults = rng.sample(range(1, 7), N - 1)
        q = rng.randrange(2, 9973)
        base = F(rng.randrange(q), q)
        pts = [base]
        for m in mults:
            pts.append(pts[-1] + m * delta)
        P = frac_poly(pts)
        orbit = iterate_orbit(P, d, steps)
        assert find_burn_in(orbit, d, N) == 0
        log = detect_jumps(orbit, d)  # asserts persistence internally
        assert log.records == ()
        # independent oracle: each of the N-2 smallest holes maps to the
        # hole of the same size rank in the next iterate
        cur = [x % 1 for x in pts]
        for _step in range(steps):
            nxt = [f_map(x, d) for x in cur]
            hs, sz = holes_of(cur), hole_sizes(cur)
            hs2, sz2 = holes_of(nxt), hole_sizes(nxt)
            order = sorted(range(N), key=lambda i: (sz[i], i))
            order2 = sorted(range(N), key=lambda i: (sz2[i], i))
            for r in range(N - 2):
                u, w = hs[order[r]]
                assert hs2[order2[r]] == (f_map(u, d), f_map(w, d))
            cur = nxt


# ---------------------------------------------------------------------------
# 8. recurrence smoke test against the cycle oracle


def test_criterion_8_recurrence_smoke():
    leaf = CandidateLeaf(
        arcs=((F(1, 14), F(1, 14)), (F(4, 7), F(4, 7))),
        support=(0,),
        value_arc=(F(1, 7), F(1, 7)),
    )
    ev = recurrence_evidence(leaf, 2, 10)
    assert ev.verdict.kind == "RecurrentWitnessed"
    assert ev.verdict.step == 2
    cyc = cycle_of(F(1, 7), 2)
    assert cyc.index(F(4, 7)) == 2  # first hitting time of an endpoint


# ---------------------------------------------------------------------------
# 9. CLI determinism: byte-identical repeated runs


def test_criterion_9_cli_determinism():
    fixtures = [
        ("analyze", "0/1", "1/7", "2/7", "--degree", "2"),
        ("jumps", "19/100", "45/100", "96/100", "--degree", "2",
         "--horizon", "1"),
        ("verify", "30/100", "31/100", "32/100", "--degree", "2",
         "--horizon", "4", "--no-kiwi-precheck"),
        ("collection", "30/100", "31/100", "32/100", "--degree", "2",
         "--horizon", "3", "--no-kiwi-precheck"),
        ("render", "19/100", "45/100", "96/100", "--degree", "2",
         "--horizon", "1"),
    ]
    for argv in fixtures:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty output


# ---------------------------------------------------------------------------
# 10. stream fixture through the full verify pipeline


def test_criterion_10_stream_fixture_pipeline():
    t0 = time.monotonic()
    proc = run_cli(
        "verify", "gen:thue_morse?base=4", "1/3", "2/3",
        "--degree", "4", "--horizon", "1000", "--budget", "4096",
        "--no-kiwi-precheck",
    )
    assert proc.returncode == 0, proc.stderr
    assert "Unresolved" not in proc.stderr and "unresolved" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["payload"]["status"] in {
        "ConsistentWithTheorem",
        "InconclusiveEvidence",
        "AssertionBreach",
        "NotCertifiedWandering",
    }
    # exercise 1000 stream iterations directly: long orbit plus omega bins
    a = parse_angle("gen:thue_morse?base=4")
    om = omega_approx(a, 4, 10, 1000, F(1, 64))
    assert om.runs and all(0 <= lo <= hi < 64 for lo, hi in om.runs)
    P = Polygon([a, parse_angle("1/3"), parse_angle("2/3")])
    orbit = iterate_orbit(P, 4, 1000)
    assert len(orbit) == 1001
    assert orbit[-1].orientation.verdict in (True, False)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"stream pipeline took {elapsed:.1f}s"
