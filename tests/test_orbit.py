import random
from fractions import Fraction as F

import pytest

from polywander import (
    Angle,
    AssertionBreach,
    JumpLog,
    JumpRecord,
    NoBurnInWithinHorizon,
    NoHoleExceeds1OverD,
    NonInjectiveAtStep,
    Polygon,
    PreconditionError,
    TooFewJumps,
    certify_wandering,
    critical_hole_index,
    detect_jumps,
    find_burn_in,
    hole_profile,
    iterate_orbit,
    jump_gap_stats,
    track_critical_value,
    unlinked,
)

from oracles import f_map, oracle_certify
from test_golden import _w1


def poly(*vals) -> Polygon:
    return Polygon([Angle.from_fraction(F(v)) for v in vals])


JUMP_T = ("0.19", "0.45", "0.96")
CLUSTER_T = ("0.30", "0.31", "0.32")


# ---------------------------------------------------------------------------
# iteration


def test_iterate_orbit_periodic_sevenths():
    orbit = iterate_orbit(poly(F(1, 7), F(2, 7), F(4, 7)), 2, 3)
    sets = [{v.value for v in rec.polygon.vertices} for rec in orbit]
    assert sets[0] == sets[1] == sets[2] == sets[3] == {F(1, 7), F(2, 7), F(4, 7)}


def test_iterate_orbit_cluster():
    orbit = iterate_orbit(poly(*CLUSTER_T), 2, 2)
    assert [v.value for v in orbit[1].polygon.vertices] == [
        F(60, 100),
        F(62, 100),
        F(64, 100),
    ]
    assert [v.value for v in orbit[2].polygon.vertices] == [
        F(20, 100),
        F(24, 100),
        F(28, 100),
    ]


def test_iterate_orbit_non_injective():
    with pytest.raises(NonInjectiveAtStep) as exc:
        iterate_orbit(poly("0.2", "0.4", "0.7"), 2, 1)
    assert exc.value.step == 0


def test_non_injective_after_first_step_keeps_earlier_records():
    # T_1 = {0, 1/4, 3/4}: 1/4 and 3/4 collide under doubling
    P = poly(F(1, 8), F(3, 8), F(1, 2))
    with pytest.raises(NonInjectiveAtStep) as exc:
        iterate_orbit(P, 2, 3)
    assert exc.value.step == 1 and [r.index for r in exc.value.records] == [0]
    c = certify_wandering(P, 2, 3, kiwi_precheck=False)
    assert c.status == "FailedNonPrecritical" and c.step == 1
    assert len(c.records) == len(c.diagnostics) == 1


# ---------------------------------------------------------------------------
# certification


def test_certify_matches_oracle_on_cluster():
    P = poly(*CLUSTER_T)
    pts = [F(x) for x in CLUSTER_T]
    for horizon in (1, 4, 5, 7):
        cert = certify_wandering(P, 2, horizon, kiwi_precheck=False)
        status, detail = oracle_certify(pts, 2, horizon)
        assert cert.status == status
        if status == "FailedLinked":
            assert cert.pair == detail


def test_certify_horizon_4_and_5():
    P = poly(*CLUSTER_T)
    assert certify_wandering(P, 2, 4, kiwi_precheck=False).certified
    c5 = certify_wandering(P, 2, 5, kiwi_precheck=False)
    assert c5.status == "FailedLinked" and c5.pair == (1, 5)


def test_certify_periodic_fails_immediately():
    c = certify_wandering(poly(F(1, 7), F(2, 7), F(4, 7)), 2, 1, kiwi_precheck=False)
    assert c.status == "FailedLinked" and c.pair == (0, 1)


def test_certify_kiwi_precheck():
    c = certify_wandering(poly("0.1", "0.2", "0.3"), 2, 4)
    assert c.status == "RejectedKiwiBound"
    assert c.records == ()  # no iteration happened


@pytest.mark.parametrize("d", [0, 1])
def test_certify_rejects_degree_below_2(d):
    with pytest.raises(PreconditionError):
        certify_wandering(poly("0.1", "0.2", "0.3"), d, 4)


def test_certify_card_drop():
    # 0.2 and 0.7 collide under doubling
    c = certify_wandering(poly("0.2", "0.4", "0.7"), 2, 3, kiwi_precheck=False)
    assert c.status == "FailedNonPrecritical" and c.step == 0


def _pairwise_certify(P, d, horizon):
    """(status, step, pair, record count) by checking every record against
    every earlier one with ``unlinked``: the first linked record, with its
    smallest linked partner, wins over a later non-injective step."""
    try:
        records, step = iterate_orbit(P, d, horizon), None
    except NonInjectiveAtStep as exc:
        records, step = exc.records, exc.step
    for i, rec in enumerate(records):
        for j in range(i):
            if not unlinked(records[j].polygon, rec.polygon):
                return "FailedLinked", None, (j, i), i + 1
    if step is not None:
        return "FailedNonPrecritical", step, None, step
    return "CertifiedToHorizon", None, None, len(records)


def _random_vertices(rng, n, d, N):
    """Small denominators (periodic orbits, shared vertices, collisions),
    tiny clusters (nested iterates for many steps) or mid-size
    denominators, in turn."""
    if n % 3 == 1:
        q = rng.randrange(10**3, 10**5)
        base = F(rng.randrange(q), q)
        delta = F(1, rng.randrange(50, 5000) * d ** rng.randrange(2, 8))
        mults = rng.sample(range(1, 12), N - 1)
        return {base} | {(base + m * delta) % 1 for m in mults}
    q = rng.randrange(5, 80) if n % 3 == 0 else rng.randrange(N, 400)
    vals = set()
    while len(vals) < N:
        vals.add(F(rng.randrange(q), q))
    return vals


def test_certify_matches_pairwise_scan_on_random_corpus():
    rng = random.Random(303)
    seen = set()
    for n in range(300):
        d, N = rng.randrange(2, 6), rng.randrange(3, 6)
        vals = _random_vertices(rng, n, d, N)
        P = poly(*vals)
        horizon = rng.randrange(3, 30)
        c = certify_wandering(P, d, horizon, kiwi_precheck=False)
        assert (c.status, c.step, c.pair, len(c.records)) == _pairwise_certify(
            P, d, horizon
        ), (n, P, d, horizon)
        # the oracle checks card over the whole horizon before any linkage
        status, detail = oracle_certify(sorted(vals), d, horizon)
        if status != "FailedNonPrecritical":
            assert (c.status, c.pair) == (status, detail)
        seen.add(c.status)
        if c.status == "FailedLinked":
            j, i = c.pair
            shared = set(c.records[j].polygon.vertices) & set(
                c.records[i].polygon.vertices
            )
            seen.add("shared vertex" if shared else "interleaved")
            try:
                iterate_orbit(P, d, horizon)
            except NonInjectiveAtStep:
                seen.add("linked before non-injective")
        elif c.status == "CertifiedToHorizon" and horizon >= 10:
            seen.add("long certified orbit")
    assert seen == {
        "CertifiedToHorizon",
        "FailedLinked",
        "FailedNonPrecritical",
        "shared vertex",
        "interleaved",
        "linked before non-injective",
        "long certified orbit",
    }


def test_certify_w1_2000_horizon_150():
    # about 27 s with a pairwise scan of every earlier iterate
    c = certify_wandering(poly(*_w1(2000)), 3, 150, kiwi_precheck=False)
    assert c.status == "CertifiedToHorizon" and len(c.records) == 151


# ---------------------------------------------------------------------------
# burn-in


def test_burn_in_periodic_never():
    orbit = iterate_orbit(poly(0, F(1, 7), F(2, 7)), 2, 6)
    with pytest.raises(NoBurnInWithinHorizon):
        find_burn_in(orbit, 2, 3)


def test_burn_in_horizon_zero_fails():
    orbit = iterate_orbit(poly(*JUMP_T), 2, 0)
    with pytest.raises(NoBurnInWithinHorizon):
        find_burn_in(orbit, 2, 3)


def test_burn_in_synthetic_cluster_is_zero():
    delta = F(1, 3 * 3 * 2 * 2**55)
    b = F(1, 5)
    P = Polygon([Angle.from_fraction(b + m * delta) for m in (0, 1, 3)])
    orbit = iterate_orbit(P, 2, 50)
    assert find_burn_in(orbit, 2, 3) == 0


def test_burn_in_picks_suffix_start():
    # prefix fails (holes too big), suffix of a shrunk copy would not occur
    # naturally, so check against the definition directly
    orbit = iterate_orbit(poly(*CLUSTER_T), 2, 3)
    bound = F(1, 18)
    ok = [
        rec.orientation.verdict and rec.profile.size(1) < bound for rec in orbit
    ]
    expect = None
    for i in range(len(ok) - 1, -1, -1):
        if not ok[i]:
            break
        expect = i
    if expect is None:
        with pytest.raises(NoBurnInWithinHorizon):
            find_burn_in(orbit, 2, 3)
    else:
        assert find_burn_in(orbit, 2, 3) == expect


# ---------------------------------------------------------------------------
# critical hole


def test_critical_hole_sevenths():
    prof = hole_profile(poly(0, F(1, 7), F(2, 7)), 2)
    rank = critical_hole_index(prof, 2)
    h = prof.hole(rank)
    assert (h.start.value, h.end.value) == (F(2, 7), 0)
    assert prof.remainder(rank) == F(3, 14)
    assert prof.cr == rank


def test_critical_hole_min_remainder():
    # hole sizes 0.05, 0.40, 0.55 for d=3: two exceed 1/3, remainder picks 0.40
    prof = hole_profile(poly(0, "0.05", "0.45"), 3)
    rank = critical_hole_index(prof, 3)
    assert prof.size(rank) == F(2, 5)
    assert prof.remainder(rank) == F(1, 15)


def test_critical_hole_missing():
    prof = hole_profile(poly(0, "0.25", "0.55"), 2)  # sizes 0.25, 0.3, 0.45
    with pytest.raises(NoHoleExceeds1OverD):
        critical_hole_index(prof, 2)


# ---------------------------------------------------------------------------
# jumps


def test_detect_jumps_worked_example():
    orbit = iterate_orbit(poly(*JUMP_T), 2, 1)
    log = detect_jumps(orbit, 2)
    assert len(log.records) == 1
    jr = log.records[0]
    assert jr.index == 0
    assert jr.s_tilde_cr == F(1, 100)
    assert (jr.strip.start_lo.value, jr.strip.start_hi.value) == (
        F(45, 100),
        F(46, 100),
    )
    assert (jr.image_hole.start.value, jr.image_hole.end.value) == (
        F(90, 100),
        F(92, 100),
    )
    assert jr.image_rank == 1
    edge = {jr.edge.a.value, jr.edge.b.value}
    assert edge == {F(45, 100), F(96, 100)}


def test_detect_jumps_none_on_doubling_cluster():
    orbit = iterate_orbit(poly(*CLUSTER_T), 2, 4)
    assert detect_jumps(orbit, 2).records == ()


def test_detect_jumps_breach_without_critical_hole():
    # orientation fails at step 0 (no hole above 1/2) yet s_1 drops
    orbit = iterate_orbit(poly("0.05", "0.35", "0.65"), 2, 1)
    with pytest.raises(AssertionBreach):
        detect_jumps(orbit, 2)


def _fake_log(indices):
    return JumpLog(
        records=tuple(
            JumpRecord(
                index=i,
                cr=1,
                s_tilde_cr=F(0),
                edge=None,
                strip=None,
                image_hole=None,
                image_rank=1,
            )
            for i in indices
        )
    )


def test_gap_stats():
    stats = jump_gap_stats(_fake_log([3, 5, 9, 17]))
    assert stats.gaps == (2, 4, 8)
    assert stats.tail_min == (2, 4, 8)
    assert stats.nondecreasing


def test_gap_stats_too_few():
    with pytest.raises(TooFewJumps):
        jump_gap_stats(_fake_log([3]))
    with pytest.raises(TooFewJumps):
        jump_gap_stats(_fake_log([]))


def test_track_critical_value_single_jump():
    orbit = iterate_orbit(poly(*JUMP_T), 2, 1)
    log = detect_jumps(orbit, 2)
    traces = track_critical_value(log, orbit, 2)
    assert len(traces) == 1
    assert traces[0].jump_index == 0
    assert traces[0].steps == ((1, 1),)  # smallest hole of T_1


def test_track_critical_value_empty():
    orbit = iterate_orbit(poly(*CLUSTER_T), 2, 2)
    assert track_critical_value(detect_jumps(orbit, 2), orbit, 2) == []


def test_nonjump_label_persistence_against_oracle():
    # independent check of rank persistence on a synthetic burn-in orbit
    delta = F(1, 3 * 3 * 2 * 2**55)
    b = F(3, 7)
    pts = [b, b + delta, b + 4 * delta]
    P = Polygon([Angle.from_fraction(v) for v in pts])
    orbit = iterate_orbit(P, 2, 30)
    detect_jumps(orbit, 2)  # asserts persistence internally; must not raise
    cur = pts
    for _ in range(30):
        nxt = [f_map(x, 2) for x in cur]
        # oracle: the image of the k-th smallest hole is a hole of the image
        # with the same size rank
        from oracles import holes_of, hole_sizes

        hs, sz = holes_of(cur), hole_sizes(cur)
        hs2, sz2 = holes_of(nxt), hole_sizes(nxt)
        order = sorted(range(3), key=lambda i: (sz[i], i))
        order2 = sorted(range(3), key=lambda i: (sz2[i], i))
        for rank in range(1):  # k <= N-2 = 1
            a, bb = hs[order[rank]]
            img = (f_map(a, 2), f_map(bb, 2))
            assert hs2[order2[rank]] == img
        cur = nxt
