import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from polywander import (
    Angle,
    AssertionBreach,
    CandidateLeaf,
    CrossPairLinked,
    NoBurnInWithinHorizon,
    NotCertifiedWandering,
    Polygon,
    PrecisionBudget,
    PreconditionError,
    UnresolvedComparison,
    certify_wandering,
    detect_jumps,
    extract_jumping_leaves,
    find_burn_in,
    hausdorff_bins,
    iterate_orbit,
    omega_approx,
    orbit_disjointness,
    parse_angle,
    recurrence_evidence,
    track_critical_value,
    verify_collection_bound,
    verify_theorem1,
)
from polywander.orbit import JumpLog, JumpRecord
from polywander import recurrence
from polywander.recurrence import JumpAnalysis, OmegaApproximation, _decide_status

from oracles import (
    cycle_of,
    oracle_bins,
    oracle_hausdorff_bins,
    oracle_leaves,
    oracle_near_bins,
    oracle_unlinked,
)
from test_geometry import strip_of
from test_golden import WIDE


def poly(*vals) -> Polygon:
    return Polygon([Angle.from_fraction(F(v)) for v in vals])


def leaf_exact(a, b, value, d=2) -> CandidateLeaf:
    a, b, value = F(a), F(b), F(value)
    return CandidateLeaf(
        arcs=tuple(sorted(((a, a), (b, b)))),
        support=(0,),
        value_arc=(value, value),
    )


def _record_with_strip(index, hole, d):
    strip = strip_of(F(hole[0]), F(hole[1]), d)
    return JumpRecord(index=index, cr=1, strip=strip, image_rank=1)


# ---------------------------------------------------------------------------
# leaf extraction


def test_extract_single_jump_leaf():
    orbit = iterate_orbit(poly("0.19", "0.45", "0.96"), 2, 1)
    log = detect_jumps(orbit, 2)
    (leaf,) = extract_jumping_leaves(log, 2)
    assert leaf.arcs == ((F(45, 100), F(46, 100)), (F(95, 100), F(96, 100)))
    assert leaf.value_arc == (F(90, 100), F(92, 100))
    assert leaf.support == (0,)


def test_extract_disjoint_strips_give_two_leaves():
    log = JumpLog(records=(
        _record_with_strip(0, ("0.1", "0.75"), 2),
        _record_with_strip(5, ("0.45", "0.96"), 2),
    ))
    leaves = extract_jumping_leaves(log, 2)
    assert len(leaves) == 2
    assert [l.support for l in leaves] == [(0,), (5,)]


def test_extract_nested_strips_intersect():
    log = JumpLog(records=(
        _record_with_strip(0, ("0.1", "0.75"), 2),   # starts [0.1, 0.25]
        _record_with_strip(7, ("0.2", "0.72"), 2),   # starts [0.2, 0.22]
    ))
    (leaf,) = extract_jumping_leaves(log, 2)
    assert leaf.support == (0, 7)
    assert leaf.arcs[0] == (F(1, 5), F(11, 50))
    assert leaf.arcs[1] == (F(7, 10), F(18, 25))


def test_extract_is_order_independent():
    records = [
        _record_with_strip(0, ("0.1", "0.75"), 2),
        _record_with_strip(7, ("0.2", "0.72"), 2),
        _record_with_strip(9, ("0.45", "0.96"), 2),
    ]
    expected = extract_jumping_leaves(JumpLog(records=tuple(records)), 2)
    for perm in itertools.permutations(records):
        got = extract_jumping_leaves(JumpLog(records=tuple(perm)), 2)
        assert got == expected


def _strip_logs(seed: int, d: int, count: int):
    """Seeded logs of jump holes (index, u, w) near a few critical chords
    {c, c + j/d}: each hole's range of c is [u, u + rho] with u and rho
    drawn on a few scales around a chord, so ranges nest, chain (neighbours
    meet, ends do not) or miss each other; some chords sit near 0, so
    ranges run past it.  For d = 3 a chord is also reached through its
    other side, j' = 3 - j, which the crossed matching joins."""
    rng = random.Random(f"strip-logs/{seed}/{d}")
    for _ in range(count):
        holes, index = [], 0
        for _chord in range(rng.randrange(1, 4)):
            near_0 = rng.random() < 0.3
            c = F(rng.randrange(-20, 20) if near_0 else rng.randrange(1000), 1000)
            j0 = rng.randrange(1, d)
            scale = F(1, rng.choice((1, 10, 40, 200))) / d
            for _hole in range(rng.randrange(1, 5)):
                j, u = j0, c + rng.randrange(-20, 21) * scale / 20
                if d == 3 and rng.random() < 0.3:
                    j, u = d - j0, u + F(j0, d)
                rho = rng.randrange(1, 40) * scale / 40
                index += rng.randrange(1, 4)
                holes.append((index, u % 1, (u + F(j, d) + rho) % 1))
        rng.shuffle(holes)
        yield holes


@pytest.mark.parametrize("d", [2, 3])
def test_extract_matches_the_fraction_oracle_on_strip_logs(d):
    """``extract_jumping_leaves`` on strips built from seeded hole logs
    equals ``oracles.oracle_leaves``; the corpus reaches ranges past 0,
    nested ranges, logs of several leaves and clusters that need the hull."""
    seen = Counter()
    for holes in _strip_logs(13, d, 150):
        records = [_record_with_strip(i, (u, w), d) for i, u, w in holes]
        got = extract_jumping_leaves(JumpLog(records=tuple(records)), d)
        want = oracle_leaves(holes, d)
        assert [(l.arcs, l.support, l.value_arc) for l in got] == want, holes
        ranges = {i: (u, u + (w - u) % 1 % F(1, d)) for i, u, w in holes}
        seen["past 0"] += any(hi > 1 for _, hi in ranges.values())
        seen["nested"] += any(
            a != b and a[0] <= b[0] and b[1] <= a[1]
            for a in ranges.values() for b in ranges.values()
        )
        seen["several leaves"] += len(got) > 1
        widths = {i: hi - lo for i, (lo, hi) in ranges.items()}
        seen["hull"] += any(  # wider than its narrowest member: no common part
            l.arcs[0][1] - l.arcs[0][0] > min(widths[i] for i in l.support) for l in got
        )
    assert min(seen.values()) >= 5, seen


# ---------------------------------------------------------------------------
# the staged jump analysis

# burn-in 0, jumps at 0 and 2, two leaves and two traces (d = 3, horizon 3)
TRI3 = ("149763/798233", "2914459/5587631", "3116864/5587631")
STAGES = (
    "find_burn_in",
    "detect_jumps",
    "extract_jumping_leaves",
    "track_critical_value",
)


def _count_calls(monkeypatch, names=STAGES) -> Counter:
    calls = Counter()
    for name in names:

        def counted(*args, _fn=getattr(recurrence, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(recurrence, name, counted)
    return calls


def test_jump_analysis_runs_each_stage_once(monkeypatch):
    orbit = iterate_orbit(Polygon([parse_angle(t) for t in TRI3]), 3, 3)
    log = detect_jumps(orbit, 3)
    expected = (
        find_burn_in(orbit, 3, 3),
        log,
        extract_jumping_leaves(log, 3),
        track_critical_value(log, orbit),
    )
    calls = _count_calls(monkeypatch)
    run = JumpAnalysis(orbit, 3)
    for _ in range(2):
        assert (run.burn_in, run.jumps, run.leaves, run.traces) == expected
    assert calls == {name: 1 for name in STAGES}
    assert run.tail == orbit and run.jumps.indices == (0, 2)
    assert len(run.leaves) == 2 and len(run.traces) == 2


def test_jump_analysis_given_burn_in_is_used_as_is(monkeypatch):
    orbit = iterate_orbit(poly("0.19", "0.45", "0.96"), 2, 1)
    calls = _count_calls(monkeypatch)
    assert JumpAnalysis(orbit, 2, burn_in=0).jumps.indices == (0,)
    run = JumpAnalysis(orbit, 2, burn_in=1)
    assert run.tail == orbit[1:] and run.jumps.records == () and run.leaves == []
    assert calls["find_burn_in"] == 0


def test_jump_analysis_stage_raises_what_its_function_raises():
    no_burn_in = iterate_orbit(poly("0.30", "0.31", "0.32"), 2, 3)
    with pytest.raises(NoBurnInWithinHorizon):
        JumpAnalysis(no_burn_in, 2).leaves
    breach = iterate_orbit(poly("0.05", "0.35", "0.65"), 2, 1)
    with pytest.raises(AssertionBreach, match="no hole exceeds 1/2"):
        JumpAnalysis(breach, 2, burn_in=0).traces
    with pytest.raises(PreconditionError, match="orbit is empty"):
        JumpAnalysis([], 2).burn_in


# ---------------------------------------------------------------------------
# orbit disjointness


def test_disjointness_collision_doubling():
    leaves = [leaf_exact(0, F(1, 2), 0), leaf_exact(F(1, 4), F(3, 4), F(1, 2))]
    out = orbit_disjointness(leaves, 2, 5)
    st = out[(0, 1)]
    assert st.kind == "CollisionAt" and (st.i, st.j) == (0, 1)


def test_disjointness_collision_tripling():
    leaves = [
        leaf_exact(0, F(1, 3), 0, d=3),
        leaf_exact(F(1, 9) + F(1, 3), F(1, 9) + F(2, 3), F(1, 3), d=3),
    ]
    st = orbit_disjointness(leaves, 3, 5)[(0, 1)]
    assert st.kind == "CollisionAt"


def test_disjointness_disjoint_cycles():
    leaves = [
        leaf_exact(F(1, 14), F(4, 7), F(1, 7)),
        leaf_exact(F(1, 10), F(3, 5), F(1, 5)),
    ]
    assert set(cycle_of(F(1, 7), 2)) & set(cycle_of(F(1, 5), 2)) == set()
    st = orbit_disjointness(leaves, 2, 20)[(0, 1)]
    assert st.kind == "Disjoint"


def _brute_pair_status(orb_a, orb_b):
    """The status of two value orbits from every index pair: the first
    collision of two equal exact points, else an overlap of two closed arcs
    or a None entry, else disjoint."""
    overlap = False
    for i, A in enumerate(orb_a):
        for j, B in enumerate(orb_b):
            if A is None or B is None:
                overlap = True
            elif A[0] == A[1] and B[0] == B[1] and (A[0] - B[0]) % 1 == 0:
                return ("CollisionAt", i, j)
            elif (B[0] - A[0]) % 1 <= A[1] - A[0] or (A[0] - B[0]) % 1 <= B[1] - B[0]:
                overlap = True
    return ("Inconclusive" if overlap else "Disjoint", None, None)


def test_pair_status_matches_the_brute_force_walk():
    """The walk that stops at each orbit's first None gives the statuses of
    the walk over all index pairs, on seeded exact and interval values."""
    rng = random.Random(16)
    kinds = Counter()
    for _ in range(12):
        d, horizon = rng.randint(2, 4), rng.randint(1, 200)
        values = []
        for _ in range(rng.randint(2, 3)):
            lo = F(rng.randrange(60), 60)
            width = rng.choice([0, 0, F(1, 10**rng.randint(1, 12))])
            values.append((lo, lo + width))
        orbits = [recurrence._value_orbit(v, d, horizon) for v in values]
        for a, b in itertools.combinations(orbits, 2):
            got = recurrence._pair_status(a, b)
            assert (got.kind, got.i, got.j) == _brute_pair_status(a, b)
            kinds[got.kind] += 1
    assert set(kinds) == {"CollisionAt", "Inconclusive", "Disjoint"}


# ---------------------------------------------------------------------------
# omega approximation


def test_omega_cycle_of_sevenths():
    om = omega_approx(parse_angle("1/7"), 2, 0, 50, F(1, 64))
    expect = {int(x * 64) for x in cycle_of(F(1, 7), 2)}
    assert bins_of(om) == expect


def test_omega_fixed_point():
    om = omega_approx(parse_angle("0/1"), 2, 0, 10, F(1, 64))
    assert om.runs == ((0, 0),)


def test_omega_half_after_burn_in():
    om = omega_approx(parse_angle("1/2"), 2, 1, 10, F(1, 64))
    assert om.runs == ((0, 0),)


def test_omega_determinism_and_epsilon_validation():
    a = parse_angle("gen:thue_morse?base=2")
    b = parse_angle("gen:thue_morse?base=2")
    assert omega_approx(a, 2, 3, 200, F(1, 128)) == omega_approx(
        b, 2, 3, 200, F(1, 128)
    )
    with pytest.raises(PreconditionError):
        omega_approx(a, 2, 0, 10, F(1, 48))


def test_omega_resolution_over_budget_is_the_ladders_error():
    """Bins of 1/2^20 need 20 binary digits, more than a budget of 8: the
    ladder's one error, in its one message form."""
    a = parse_angle("gen:thue_morse?base=2")
    msg = "cannot bin at resolution 1/1048576 within 8 digits"
    with pytest.raises(UnresolvedComparison, match=msg):
        omega_approx(a, 2, 0, 10, F(1, 2**20), PrecisionBudget(8))


def test_hausdorff_bins():
    A = OmegaApproximation(F(1, 8), ((0, 0),), 0, 1)
    B = OmegaApproximation(F(1, 8), ((0, 0), (3, 3)), 0, 1)
    assert hausdorff_bins(A, A) == 0
    assert hausdorff_bins(A, B) == F(3, 8)
    C = OmegaApproximation(F(1, 8), ((7, 7),), 0, 1)
    assert hausdorff_bins(A, C) == F(1, 8)  # circular wrap


def bins_of(om) -> set[int]:
    return {m for lo, hi in om.runs for m in range(lo, hi + 1)}


def _random_arcs(rng, B):
    """Up to five closed arcs (lo, hi) with 0 <= lo < 1: points, arcs under
    a turn and arcs of one or two turns, some starting in bin 0 or B-1; and
    now and then None, the whole circle."""
    arcs = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.05:
            arcs.append(None)
            continue
        lo = F(rng.choice([0, 4 * B - 1, rng.randrange(4 * B)]), 4 * B)
        width = rng.choice([0, F(rng.randrange(1, 3 * B), 4 * B)] * 3 + [rng.randint(1, 2)])
        arcs.append((lo, lo + width))
    return arcs


def test_runs_match_the_set_based_bins_hausdorff_and_near_test():
    """On seeded arcs at B <= 128, the runs hold the set-based bins, and
    ``hausdorff_bins``, ``_near_bins`` and the union of runs agree with
    the bin-by-bin reference."""
    rng = random.Random(20)
    met = Counter()
    for _ in range(3000):
        B = 2 ** rng.randint(1, 7)
        omegas, sets = [], []
        for _ in range(2):
            arcs = _random_arcs(rng, B)
            burn_in = rng.choice([0, 0, rng.randint(0, len(arcs))])
            om = recurrence._omega_from_arcs(arcs, burn_in, B)
            want = oracle_bins(arcs[burn_in:], B)
            assert bins_of(om) == want, (arcs, burn_in, B)
            runs = om.runs
            assert all(0 <= lo <= hi < B for lo, hi in runs)
            assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(runs, runs[1:]))
            met["empty"] += not runs
            met["full circle"] += runs == ((0, B - 1),)
            met["runs at 0 and B-1"] += len(runs) > 1 and runs[0][0] == 0 == B - 1 - runs[-1][1]
            met["wider than a turn"] += any(
                iv is not None and iv[1] - iv[0] >= 1 for iv in arcs[burn_in:]
            )
            omegas.append(om)
            sets.append(want)
        a, b = omegas
        met["one-run dst"] += len(b.runs) == 1 and b.runs != ((0, B - 1),)
        assert hausdorff_bins(a, b) == oracle_hausdorff_bins(sets[0], sets[1], B)
        union = recurrence._runs(a.runs + b.runs, B)
        assert {m for lo, hi in union for m in range(lo, hi + 1)} == sets[0] | sets[1]
        x, tol = F(rng.randrange(8 * B), 8 * B), F(rng.randrange(3), 2 * B)
        assert recurrence._near_bins(x, a, tol) == oracle_near_bins(x, sets[0], B, tol)
    assert len(met) == 5 and all(met.values()), met


# ---------------------------------------------------------------------------
# recurrence evidence


def test_recurrence_fixed_value_on_endpoint():
    ev = recurrence_evidence(leaf_exact(0, F(1, 2), 0), 2, 10)
    assert ev.verdict.kind == "RecurrentWitnessed" and ev.verdict.step == 0


def test_recurrence_smoke_leaf():
    ev = recurrence_evidence(leaf_exact(F(1, 14), F(4, 7), F(1, 7)), 2, 10)
    assert ev.verdict.kind == "RecurrentWitnessed" and ev.verdict.step == 2
    # first hitting time of the cycle on an endpoint, per the cycle oracle
    cyc = cycle_of(F(1, 7), 2)
    assert cyc.index(F(4, 7)) == 2


def test_recurrence_inconclusive_positive_bound():
    # value 1/7 cycles {1/7, 2/7, 4/7}, never touching these endpoints
    ev = recurrence_evidence(leaf_exact(F(1, 5), F(7, 10), F(1, 7)), 2, 30)
    assert ev.verdict.kind == "Inconclusive"
    assert ev.verdict.bound > 0
    mins = ev.running_min
    assert all(a >= b for a, b in zip(mins, mins[1:]))


def test_recurrence_running_min_nonincreasing_with_intervals():
    leaf = CandidateLeaf(
        arcs=((F(1, 10), F(11, 100)), (F(6, 10), F(61, 100))),
        support=(0,),
        value_arc=(F(2, 10), F(201, 1000)),
    )
    ev = recurrence_evidence(leaf, 2, 6)
    mins = ev.running_min
    assert all(a >= b for a, b in zip(mins, mins[1:]))


# ---------------------------------------------------------------------------
# theorem-level verification


def test_verify_rejects_periodic():
    with pytest.raises(NotCertifiedWandering):
        verify_theorem1(poly(F(1, 7), F(2, 7), F(4, 7)), 2, 5, F(1, 64))


def test_verify_rejects_kiwi():
    with pytest.raises(NotCertifiedWandering) as exc:
        verify_theorem1(poly("0.1", "0.2", "0.3"), 2, 5, F(1, 64))
    assert exc.value.certificate.status == "RejectedKiwiBound"


def test_verify_rejects_epsilon_naming_it():
    with pytest.raises(PreconditionError, match="got '1/48'"):
        verify_theorem1(poly("0.30", "0.31", "0.32"), 2, 3, F(1, 48))


def test_verify_rejects_negative_burn_in():
    with pytest.raises(PreconditionError, match="burn-in must be >= 0"):
        verify_theorem1(
            poly("0.30", "0.31", "0.32"),
            2,
            4,
            F(1, 64),
            kiwi_precheck=False,
            burn_in_override=-1,
        )


def test_verify_inconclusive_without_burn_in():
    rep = verify_theorem1(
        poly("0.30", "0.31", "0.32"), 2, 3, F(1, 64), kiwi_precheck=False
    )
    assert rep.status == "InconclusiveEvidence"
    assert rep.burn_in is None or rep.jumps is not None


def test_decide_status_combinations():
    assert _decide_status(True, True, True, True, True, False) == "ConsistentWithTheorem"
    assert _decide_status(True, True, True, True, True, True) == "InconclusiveEvidence"
    for i in range(5):
        flags = [True] * 5 + [False]
        flags[i] = False
        assert _decide_status(*flags) == "InconclusiveEvidence"
        flags[i] = None
        assert _decide_status(*flags) == "InconclusiveEvidence"


def test_a_value_enclosure_covering_the_circle_is_not_consistent(monkeypatch):
    """``wide-verify``'s triangle at epsilon 1/4: leaf 0's value enclosure
    covers the circle, so its recurrence is unavailable and its omega is
    every bin; with recurrence and disjointness forced to pass, every check
    holds (the full omega agrees with the other at this resolution and is
    near every limit leaf), yet the status is not consistent."""
    grade = recurrence._grade_leaves
    witnessed = recurrence.RecurrenceEvidence(
        (), (F(0),), recurrence.Verdict(kind=recurrence.WITNESSED, step=0))

    def graded_witnessed(leaves, *args):
        evidence, omegas = grade(leaves, *args)
        return [witnessed] * len(evidence), omegas

    monkeypatch.setattr(recurrence, "_grade_leaves", graded_witnessed)
    monkeypatch.setattr(recurrence, "_pair_statuses", lambda orbits: {
        pair: recurrence.PairStatus(kind=recurrence.DISJOINT)
        for pair in itertools.combinations(range(len(orbits)), 2)})
    assert WIDE[:6] == ["-d", "3", "--horizon", "5", "--burn-in", "0"]
    rep = verify_theorem1(Polygon([parse_angle(v) for v in WIDE[6:]]), 3, 5, F(1, 4),
                          burn_in_override=0)
    assert rep.notes == ("leaf 0: value enclosure too wide for recurrence",
                         "leaf 0: omega bins degraded to full circle")
    assert rep.omegas[0].runs == ((0, 3),)
    assert (rep.leaf_count_ok, rep.omega_consistent, rep.limcoin_ok) == (True, True, True)
    assert all(s.kind == "Disjoint" for s in rep.disjointness.values())
    assert all(e.verdict.kind == "RecurrentWitnessed" for e in rep.recurrence)
    assert rep.status == "InconclusiveEvidence"


# ---------------------------------------------------------------------------
# collections


def test_collection_rejects_triangle_over_degree():
    with pytest.raises(NotCertifiedWandering) as exc:
        verify_collection_bound([poly("0.1", "0.2", "0.3")], 2, 3, F(1, 64))
    assert exc.value.member == 0
    assert exc.value.certificate.status == "RejectedKiwiBound"


def test_collection_cross_linked():
    A = poly("0.30", "0.31", "0.32")
    B = poly("0.305", "0.315", "0.325")
    with pytest.raises(CrossPairLinked) as exc:
        verify_collection_bound([A, B], 2, 1, F(1, 64), kiwi_precheck=False)
    assert (exc.value.a_index, exc.value.b_index) == (0, 1)


def test_collection_single_member_inconclusive():
    rep = verify_collection_bound(
        [poly("0.30", "0.31", "0.32")], 2, 3, F(1, 64), kiwi_precheck=False
    )
    assert rep.sigma == 1
    assert rep.r_hat == 0 and rep.omega_hat == 0
    assert rep.holds is False  # flagged as horizon/precision limitation
    assert rep.notes


def _pairwise_cross_link(Gamma, d, horizon):
    """(a, n, b, m) of the first linked cross-pair, by checking every
    iterate of every member a against every iterate of every later b with
    ``oracle_unlinked``."""
    certs = [certify_wandering(T, d, horizon, kiwi_precheck=False) for T in Gamma]
    assert all(c.certified for c in certs)
    points = [
        [[v.value for v in r.polygon.vertices] for r in c.records] for c in certs
    ]
    for a in range(len(Gamma)):
        for b in range(a + 1, len(Gamma)):
            for n, A in enumerate(points[a]):
                for m, B in enumerate(points[b]):
                    if not oracle_unlinked(A, B):
                        return a, n, b, m
    return None


DELTA = F(1, 10**12)


def _cluster(base):
    return poly(base, base + DELTA, base + 3 * DELTA)


def _linked_at(A_base, n, m, branch, d=2):
    """A cluster whose m-th iterate interleaves with the n-th iterate of
    ``_cluster(A_base)``: f^m maps its vertices to f^n(A_base) plus d^n*DELTA
    times 1/2, 2 and 5, against the cluster's 0, 1 and 3."""
    top = d**n * A_base + branch
    return poly(*((top + d**n * s * DELTA) / d**m for s in (F(1, 2), 2, 5)))


def _cross_linked(exc):
    return exc.value.a_index, exc.value.n, exc.value.b_index, exc.value.m


def test_collection_cross_link_matches_pairwise_scan():
    # member 3 links member 0 at (n, m) = (3, 2) and member 2 links member 1
    # at (1, 2): pair (0, 3) comes first in (a, b) order
    a0, a1 = F(123457, 1000003), F(654323, 1000033)
    Gamma = [
        _cluster(a0),
        _cluster(a1),
        _linked_at(a1, 1, 2, 1),
        _linked_at(a0, 3, 2, 1),
    ]
    with pytest.raises(CrossPairLinked) as exc:
        verify_collection_bound(Gamma, 2, 6, F(1, 64), kiwi_precheck=False)
    assert _cross_linked(exc) == (0, 3, 3, 2)
    assert _pairwise_cross_link(Gamma, 2, 6) == (0, 3, 3, 2)
    with pytest.raises(CrossPairLinked) as exc:
        verify_collection_bound(Gamma[1:3], 2, 6, F(1, 64), kiwi_precheck=False)
    assert _cross_linked(exc) == (0, 1, 1, 2)


def test_collection_cross_link_reports_smallest_m():
    # B expands from the fixed point 0: B_m = 2^m * {10, 11, 12}/10^4.
    # A_2 = {21/10^4, 43/10^4, 3/5} links both B_1 and B_2.
    c, c2 = F(21, 10**4), F(43, 10**4)
    A = poly((c + 3) / 4, (c2 + 3) / 4, F(13, 20))
    B = poly(F(10, 10**4), F(11, 10**4), F(12, 10**4))
    with pytest.raises(CrossPairLinked) as exc:
        verify_collection_bound([A, B], 2, 2, F(1, 64), kiwi_precheck=False)
    assert _cross_linked(exc) == (0, 2, 1, 1)
    assert _pairwise_cross_link([A, B], 2, 2) == (0, 2, 1, 1)


def test_collection_cross_link_random_matches_pairwise_scan():
    rng = random.Random(505)
    for _ in range(40):
        d = rng.randrange(2, 4)
        bases = [F(rng.randrange(q), q) for q in rng.sample(range(10**5, 10**6), 3)]
        Gamma = [_cluster(b) for b in bases]
        for _ in range(rng.randrange(1, 3)):
            n, m = rng.randrange(5), rng.randrange(5)
            branch = rng.randrange(d**m)
            Gamma.append(_linked_at(rng.choice(bases), n, m, branch, d))
        rng.shuffle(Gamma)
        expected = _pairwise_cross_link(Gamma, d, 5)
        assert expected is not None
        with pytest.raises(CrossPairLinked) as exc:
            verify_collection_bound(Gamma, d, 5, F(1, 64), kiwi_precheck=False)
        assert _cross_linked(exc) == expected
