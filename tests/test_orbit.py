import contextlib
import dataclasses
import json
import random
import re
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
    PolywanderError,
    PrecisionBudget,
    PreconditionError,
    TieUnresolvable,
    TooFewJumps,
    UnresolvedComparison,
    certify_wandering,
    critical_hole_index,
    detect_jumps,
    find_burn_in,
    hole_profile,
    iterate_orbit,
    jump_gap_stats,
    parse_angle,
    track_critical_value,
)
from polywander import angles, geometry, orbit, recurrence, render
from polywander.angles import register_generator
from polywander.cli import main

from oracles import (
    f_map,
    oracle_certify,
    oracle_collision_step,
    oracle_cyclic_order,
    oracle_jumps,
    oracle_landing,
    oracle_traces,
    oracle_unlinked,
    point_enclosure,
    stream_image,
    Stream,
)
from test_geometry import _angle, _prefix_value
from test_golden import CASES, GOLDEN, _run, _w1


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
    assert len(c.records) == 1


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


def test_certify_rejects_negative_horizon():
    with pytest.raises(PreconditionError, match="horizon must be >= 0"):
        certify_wandering(poly("0.1", "0.2", "0.3"), 3, -1)


def test_certify_card_drop():
    # 0.2 and 0.7 collide under doubling
    c = certify_wandering(poly("0.2", "0.4", "0.7"), 2, 3, kiwi_precheck=False)
    assert c.status == "FailedNonPrecritical" and c.step == 0


def _pairwise_certify(P, d, horizon):
    """(status, step, pair, record count) by checking every record against
    every earlier one with ``oracle_unlinked``: the first linked record,
    with its smallest linked partner, wins over a later non-injective step."""
    try:
        records, step = iterate_orbit(P, d, horizon), None
    except NonInjectiveAtStep as exc:
        records, step = exc.records, exc.step
    points = [[v.value for v in rec.polygon.vertices] for rec in records]
    for i in range(len(records)):
        for j in range(i):
            if not oracle_unlinked(points[j], points[i]):
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
        status, detail = oracle_certify(sorted(vals), d, horizon)
        assert (c.status, c.step if c.pair is None else c.pair) == (
            status,
            detail,
        ), (n, P, d, horizon)
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
        elif c.status == "FailedNonPrecritical":
            # again with the non-injective record last: T_H is checked too
            c2 = certify_wandering(P, d, c.step, kiwi_precheck=False)
            assert (c2.status, c2.step) == oracle_certify(sorted(vals), d, c.step)
            seen.add("non-injective at the horizon")
    assert seen == {
        "CertifiedToHorizon",
        "FailedLinked",
        "FailedNonPrecritical",
        "shared vertex",
        "interleaved",
        "linked before non-injective",
        "long certified orbit",
        "non-injective at the horizon",
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


def _oracle_burn_in_failure(points, d: int, k: int = 64):
    """The burn-in condition that the polygon on ``points`` (Streams and
    Fractions) fails, or None, decided in Fractions from the points'
    k-digit enclosures [lo, hi]: the images' cyclic order from the lows,
    which the highs must give too, and s_{N-2} from bounds on each hole."""
    N, bound = len(points), F(1, 3 * d * len(points))
    ends = sorted(point_enclosure(x, k) for x in points)
    if not oracle_cyclic_order([lo for lo, _ in ends], d):
        assert not oracle_cyclic_order([hi for _, hi in ends], d)
        return "does not preserve orientation"
    assert oracle_cyclic_order([hi for _, hi in ends], d)
    gaps = [(w[0] - u[1], w[1] - u[0]) for u, w in zip(ends, ends[1:] + ends[:1])]
    gaps[-1] = (gaps[-1][0] + 1, gaps[-1][1] + 1)  # the last hole runs past 0
    lo = sorted(g for g, _ in gaps)[N - 3]
    hi = sorted(g for _, g in gaps)[N - 3]
    assert hi < bound or lo >= bound, "64 digits do not decide s_{N-2}"
    return None if hi < bound else f"has s_{N - 2} >= 1/{3 * d * N}"


def test_burn_in_failure_on_stream_records_matches_the_enclosure_oracle():
    """The enclosure branch of the burn-in test, on every record of the
    ``stream-orbit`` golden input, names the condition that a Fraction
    oracle on 64-digit vertex enclosures finds; both outcomes occur."""
    _, argv = CASES["stream-orbit"]
    assert argv[1:] == [
        "gen:thue_morse?base=4", "1/3", "2/3", "-d", "4", "--horizon", "20"
    ]
    d, specs = 4, [Stream("thue_morse", 4, 0, F(0)), F(1, 3), F(2, 3)]
    seen = set()
    for rec in iterate_orbit(Polygon([parse_angle(x) for x in argv[1:4]]), d, 20):
        assert any(lo < hi for lo, hi in rec.profile.bounds)  # enclosures
        got = orbit._burn_in_failure(rec, d, 3, angles.DEFAULT_BUDGET)
        assert got == _oracle_burn_in_failure(specs, d)
        seen.add(got)
        specs = [stream_image(x, d) for x in specs]
    assert seen == {None, "has s_1 >= 1/36"}


# ---------------------------------------------------------------------------
# critical hole


def test_critical_hole_sevenths():
    prof = hole_profile(poly(0, F(1, 7), F(2, 7)), 2)
    rank = critical_hole_index(prof, 2)
    h = prof.holes[prof.order[rank - 1]]
    assert (h.start.value, h.end.value) == (F(2, 7), 0)
    assert prof.remainder(rank) == F(3, 14)


def test_hole_profile_is_hashable_and_unchanged_by_critical_hole_index():
    """A rational and a stream profile, and the stream orbit's records,
    hash; the values a profile builds on reading change neither its hash
    nor its equality with a fresh profile."""
    P = poly(0, F(1, 7), F(2, 7))
    prof = hole_profile(P, 2)
    h = hash(prof)
    critical_hole_index(prof, 2)
    assert prof == hole_profile(P, 2) and hash(prof) == h
    assert {prof, hole_profile(P, 2)} == {prof}

    S = Polygon([parse_angle(x) for x in ["gen:thue_morse?base=4", "1/3", "2/3"]])
    prof = hole_profile(S, 4)
    h = hash(prof)
    prof.sizes_cyclic, prof.remainders_cyclic, prof.remainder_sum
    critical_hole_index(prof, 4)
    assert prof == hole_profile(S, 4) and hash(prof) == h
    assert {prof, hole_profile(S, 4)} == {prof}
    records = iterate_orbit(S, 4, 3)
    assert len({hash(r) for r in records}) == len(records)
    assert set(records) == set(iterate_orbit(S, 4, 3))


def _field_by_field(cls, **values):
    """An instance of a frozen dataclass built as its generated __init__
    builds one: one ``object.__setattr__`` per field."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


@pytest.mark.parametrize("argv", [
    (["1/7", "2/7", "4/7"], 2, 4),
    (_w1(40), 3, 12),
    (["gen:thue_morse?base=4", "1/3", "2/3"], 4, 6),
    (["gen:champernowne?base=2&shift=11&offset=1/7", "1/3", "2/3"], 2, 8),
], ids=["sevenths", "w1", "thue-morse", "champernowne"])
def test_records_built_by_one_dict_update_match_field_by_field(argv):
    """``OrbitRecord`` and ``OrientationCertificate`` set their fields in one
    dict update; on rational and stream orbits they are frozen, and equal,
    hash and repr as records built field by field."""
    lits, d, n = argv
    records = iterate_orbit(Polygon([parse_angle(x) for x in lits]), d, n)
    for rec in records:
        cert = rec.orientation
        assert list(vars(cert)) == ["verdict", "profile"]
        ref = _field_by_field(type(cert), **vars(cert))
        assert cert == ref and hash(cert) == hash(ref) and repr(cert) == repr(ref)
        assert list(vars(rec)) == ["index", "polygon", "profile", "orientation",
                                   "landing"]
        ref = _field_by_field(type(rec), **{**vars(rec), "orientation": ref})
        assert rec == ref and hash(rec) == hash(ref) and repr(rec) == repr(ref)
        for obj, name in ((rec, "index"), (cert, "verdict")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
    assert len(set(records)) == len(records)


def test_critical_hole_min_remainder():
    # hole sizes 0.05, 0.40, 0.55 for d=3: two exceed 1/3, remainder picks 0.40
    prof = hole_profile(poly(0, "0.05", "0.45"), 3)
    rank = critical_hole_index(prof, 3)
    assert prof.size(rank) == F(2, 5)
    assert prof.remainder(rank) == F(1, 15)


def test_critical_hole_tie_only_when_least_remainder_is_shared():
    # d=5, hole sizes 11/50, 11/50, 41/100 above 1/5: ranks 2 and 3 share
    # remainder 1/50, but rank 4's remainder 1/100 is the unique least
    prof = hole_profile(poly(0, "0.22", "0.44", "0.85"), 5)
    assert critical_hole_index(prof, 5) == 4
    prof = hole_profile(poly(F(2, 11), F(5, 11), F(10, 11)), 5)  # ranks 1, 2 tie
    assert critical_hole_index(prof, 5) == 3
    # d=3, sizes 2/5, 2/5 share the least remainder 1/15
    with pytest.raises(TieUnresolvable, match="ranks 2 and 3"):
        critical_hole_index(hole_profile(poly(0, "0.4", "0.8"), 3), 3)


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
    assert jr.strip.rho_value == F(1, 100)
    (lo, hi), _ = jr.strip.ranges
    assert (F(lo, jr.strip.den), F(hi, jr.strip.den)) == (F(45, 100), F(46, 100))
    rec, nxt = orbit[0].profile, orbit[1].profile
    image_hole = nxt.holes[nxt.order[jr.image_rank - 1]]
    assert (image_hole.start.value, image_hole.end.value) == (F(90, 100), F(92, 100))
    assert jr.image_rank == 1
    edge = rec.holes[rec.order[jr.cr - 1]]
    assert (edge.start.value, edge.end.value) == (F(45, 100), F(96, 100))


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
            JumpRecord(index=i, cr=1, strip=None, image_rank=1)
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
    traces = track_critical_value(log, orbit)
    assert len(traces) == 1
    assert traces[0].jump_index == 0
    assert traces[0].steps == ((1, 1),)  # smallest hole of T_1


def test_track_critical_value_empty():
    orbit = iterate_orbit(poly(*CLUSTER_T), 2, 2)
    assert track_critical_value(detect_jumps(orbit, 2), orbit) == []


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


def _no_rank(k):
    pytest.fail("exact sizes are ordered on their numerators, not by an image rank")


def test_jump_test_on_numerators_matches_the_cross_multiplied_form():
    """``orbit._jumped`` on exact profiles against the cross-multiplied
    d * s_{N-2}(a) * D(b) > s_{N-2}(b) * D(a) on the numerators of
    ``size_bounds`` (lo == hi) and against Fractions: consecutive records of
    seeded rational orbits (one denominator) and pairs of unrelated
    polygons (two)."""
    rng = random.Random(1717)
    seen = set()
    for n in range(300):
        d, N = rng.randrange(2, 5), rng.randrange(3, 6)
        polys = []
        for _ in range(2):
            if n % 2:  # thin: two close vertices, which jump
                q = rng.randrange(10**4, 10**6)
                b = F(rng.randrange(q), q)
                vals = {b, (b + F(1, rng.randrange(2**6, 2**14))) % 1}
            else:
                q, vals = rng.randrange(N, 10**4), set()
            while len(vals) < N:
                vals.add(F(rng.randrange(q), q))
            polys.append(poly(*vals))
        try:
            records = iterate_orbit(polys[0], d, 12)
        except NonInjectiveAtStep as exc:
            records = exc.records
        profiles = [r.profile for r in records] + [hole_profile(polys[1], d)]
        for a, b in zip(profiles, profiles[1:]):
            (x, x1, Da), (y, y1, Db) = a.size_bounds(N - 2), b.size_bounds(N - 2)
            assert (x, y, Da, Db) == (x1, y1, a.D, b.D)
            want = d * x * Db > y * Da
            assert want == (d * F(x, Da) > F(y, Db))
            assert orbit._jumped(a, b, d, N, angles.DEFAULT_BUDGET, _no_rank) == want
            seen.add((Da == Db, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# the eight thin triangles of the jump-session benchmark plan for seed 1
JUMP_SESSION_TRIANGLES = (
    ("699005/961032", "4274896091/5876710680", "11843/80086"),
    ("100273/883728", "24355079/214524972", "186169/294576"),
    ("1261/545729", "18900845/7943631324", "192759/545729"),
    ("159120/621971", "2598892451/10156164459", "394088/621971"),
    ("579143/822083", "2050988303/2910173820", "224246/822083"),
    ("58073/805072", "757322043/10487672944", "274019/402536"),
    ("107026/159391", "359338647/534916196", "7361/796955"),
    ("559267/798258", "676615343/965626094", "392765/399129"),
)


def _jumps_and_leaves(literals, capsys):
    """(index, cr, image_rank) of each jump and the leaf supports that
    ``jumps`` and ``leaves`` print for the triangle at d = 2, H = 20."""
    payloads = []
    for command in ("jumps", "leaves"):
        argv = [command, "-d", "2", "--horizon", "20", "--no-kiwi-precheck", *literals]
        assert main(argv) == 0, capsys.readouterr().err
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    jumps, leaves = payloads
    return ([(j["index"], j["cr"], j["image_rank"]) for j in jumps["jumps"]],
            [leaf["support"] for leaf in leaves["leaves"]])


@pytest.mark.parametrize("triangle", JUMP_SESSION_TRIANGLES)
def test_stream_triangle_jumps_as_its_rational_form(triangle, capsys):
    """Each vertex p/q written as a registered base-2 stream of its own
    digits gives the jumps and leaves of the rational triangle.  At every
    non-jump step the rank-1 sizes d * s(T_i) and s(T_i+1) are equal, so
    their enclosures never separate: the test is read from the image's
    rank (these exited 3 on "cannot order" within 4096 digits)."""
    streams = []
    for literal in triangle:
        p, q = map(int, literal.split("/"))
        register_generator(f"digits_{p}_{q}",
                           lambda base, p=p, q=q: lambda i: 2 * (p * pow(2, i, q) % q) // q)
        streams.append(f"gen:digits_{p}_{q}")
    want = _jumps_and_leaves(triangle, capsys)
    assert want[0]  # the triangle jumps
    assert _jumps_and_leaves(streams, capsys) == want


def _mixed_points(rng: random.Random, d: int) -> list:
    """3..5 points for degree d: rationals only (random, or two close ones
    that jump); a stream of either generator with maybe its twin base^-m
    past it (m around 64), filled up with rationals (random, or a simple
    fraction such as 1/3); or a stream and two twins that put a size within
    base^-m of 1/(9d), the burn-in bound (or on it), or two remainders
    within base^-m of each other (d = 4: sizes 3/10 and 11/20)."""
    N = rng.randrange(3, 6)
    name = rng.choice(["thue_morse", "champernowne"])
    x = Stream(name, d, rng.randrange(0, 30), F(rng.randrange(0, 60), 60))
    eps = rng.choice([1, -1]) * F(1, d ** rng.randrange(56, 76))
    if rng.random() < 0.25:  # the threshold exactly, now and then
        a, b = (F(3, 10), F(17, 20) + eps) if d == 4 else (F(1, 9 * d) + eps, F(1, 2))
        a -= eps if d != 4 and rng.random() < 0.2 else 0
        return [x] + [x._replace(offset=(x.offset + t) % 1) for t in (a, b)]
    if rng.random() < 0.3:
        q = rng.randrange(10**3, 10**6)
        b = F(rng.randrange(q), q)
        points = {b, (b + F(1, rng.randrange(2**4, 2**30))) % 1}
        while len(points) < N:
            points.add(F(rng.randrange(q), q))
        return list(points)
    points = [x]
    if rng.random() < 0.6:
        points.append(x._replace(offset=(x.offset + abs(eps)) % 1))
    while len(points) < N:
        q = rng.choice([3, 4, 5, 7, rng.randrange(8, 10**6)])
        points.append(F(rng.randrange(q), q))
    return points


class _ApproxBuilt(Exception):
    pass


def _raise_approx_built(*_):
    raise _ApproxBuilt


def _outcome(fn):
    """What ``fn()`` returns, or the type and message of what it raises."""
    try:
        return fn()
    except (UnresolvedComparison, PolywanderError, _ApproxBuilt) as exc:
        return type(exc), str(exc)


def _critical_by_cmp_values(p, d: int, budget):
    """``critical_hole_index`` with every comparison made by ``cmp_values``
    on the profile's values, built up front."""
    sizes = [p.size(k) for k in range(1, p.card + 1)]
    rems = [p.remainder(k) for k in range(1, p.card + 1)]
    cands = [
        k for k, s in enumerate(sizes, 1)
        if angles.cmp_values(s, F(1, d), budget) == angles.GT
    ]
    if not cands:
        raise NoHoleExceeds1OverD("no hole is longer than 1/" + str(d))
    best, tie = cands[0], None
    for k in cands[1:]:
        c = angles.cmp_values(rems[k - 1], rems[best - 1], budget)
        if c == angles.LT:
            best, tie = k, None
        elif c == angles.EQ and tie is None:
            tie = k
    if tie is not None:
        raise TieUnresolvable(
            f"holes of ranks {best} and {tie} share the minimal remainder"
        )
    return best


# a base-3 stream on the 0/1 seam for 6 steps at 64 digits: at step 5 the
# carried bounds overlap and the smallest hole maps to no hole
_TM3 = Stream("thue_morse", 3, 29, F(0))
_SEAM_FALLBACK = (_TM3._replace(offset=1 - _prefix_value(_TM3, 70)), F(15, 454), F(201, 608))


def test_int_bound_decisions_match_cmp_values(monkeypatch):
    """On seeded orbits, rational and with stream vertices, at budgets 8 to
    128 (so k* = min(64, budget) and some sizes ranked or floored only by
    the ladder's rungs above k*), the burn-in thinness test, ``_jumped``,
    ``critical_hole_index`` (or what it raises) and the orientation verdict
    each give what their ``cmp_values`` form gives on the built values.
    Where those values are equal stream sizes, which no rung separates,
    ``_jumped`` reads the image's rank instead, as ``detect_jumps`` passes
    it.  Where the profiles' k*-digit bounds decide the burn-in and jump
    tests, those build no ``Approx``."""
    rng = random.Random(1818)
    seen, calls = set(), []
    cmp_values = orbit.cmp_values
    monkeypatch.setattr(orbit, "cmp_values", lambda *a: calls.append(1) or cmp_values(*a))

    def fell_back(fn):
        """``fn()``'s outcome, and whether it called ``cmp_values``."""
        before = len(calls)
        return _outcome(fn), len(calls) > before

    for n in range(241):
        d, budget = rng.randrange(2, 5), PrecisionBudget([8, 32, 63, 64, 65, 128][n % 6])
        points = _mixed_points(rng, d)
        if n == 240:
            d, budget, points = 3, PrecisionBudget(256), list(_SEAM_FALLBACK)
        records = []
        with contextlib.suppress(PolywanderError, UnresolvedComparison):
            P = Polygon([_angle(x) for x in points], budget)
            records.extend(orbit._records(P, d, 6, budget))
        if not records:
            continue
        N, k = records[0].polygon.card, records[0].profile.k
        for rec, nxt in zip(records, records[1:] + [None]):
            p = rec.profile
            stream = any(lo < hi for lo, hi in p.bounds)
            seen.add("stream" if stream else "rational")
            if any(isinstance(s, angles.Approx) and s._k > k for s in p._sizes):
                seen.add("refined above k*")
            # with every Approx creation raising: decided on the bounds or not
            (lo, hi), t = p.bounds[p.order[N - 3]], F(1, 3 * d * N)
            thin_decided = F(hi, p.D) < t or F(lo, p.D) > t
            with monkeypatch.context() as m:
                m.setattr(angles.Approx, "__init__", _raise_approx_built)
                got = _outcome(lambda: orbit._burn_in_failure(rec, d, N, budget))
            if thin_decided:
                assert not isinstance(got, tuple)
                seen.add(("burn-in decided", stream))
            # the burn-in test against cmp_values on the built size
            want = _outcome(lambda: angles.cmp_values(p.size(N - 2), t, budget))
            got, fallback = fell_back(lambda: orbit._burn_in_failure(rec, d, N, budget))
            seen.add(("burn-in fallback", fallback))
            if rec.orientation.verdict:
                if isinstance(want, tuple):
                    assert got == want
                    seen.add("burn-in unresolved")
                else:
                    assert got == (None if want == angles.LT else
                                   f"has s_{N - 2} >= 1/{3 * d * N}")
            if nxt is not None:
                q = nxt.profile

                def image_rank(k, rec=rec, p=p, q=q):
                    c = orbit._image_cyclic(rec, p.order[k - 1])
                    return None if c is None else q.rank_of_cyclic(c)

                (alo, ahi), (blo, bhi) = p.bounds[p.order[N - 3]], q.bounds[q.order[N - 3]]
                jump_decided = F(d * ahi, p.D) < F(blo, q.D) or F(d * alo, p.D) > F(bhi, q.D)
                with monkeypatch.context() as m:
                    m.setattr(angles.Approx, "__init__", _raise_approx_built)
                    got = _outcome(lambda: orbit._jumped(p, q, d, N, budget, image_rank))
                if jump_decided:
                    assert not isinstance(got, tuple)
                    seen.add(("jump decided", stream))
                got, fallback = fell_back(  # before the next line builds q's size
                    lambda: orbit._jumped(p, q, d, N, budget, image_rank))
                want = _outcome(lambda: angles.cmp_values(
                    angles.scale_value(p.size(N - 2), d), q.size(N - 2), budget))
                seen.add(("jump fallback", fallback))
                if isinstance(want, tuple) and isinstance(got, bool):
                    # equal sizes, which no enclosure separates: read from
                    # the rank of the image of a hole shorter than 1/d
                    assert p.floors[p.order[N - 3]] == 0 and not fallback
                    assert got == (image_rank(N - 2) > N - 2)
                    seen.add(("jump", "by rank"))
                else:
                    assert got == (want if isinstance(want, tuple) else want == angles.GT)
                    seen.add(("jump", got if isinstance(got, bool) else "unresolved"))
            # the critical hole against the cmp_values form
            want = _outcome(lambda: _critical_by_cmp_values(p, d, budget))
            got, fallback = fell_back(lambda: critical_hole_index(p, d, budget))
            seen.add(("critical fallback", fallback))
            assert got == want
            seen.add(("critical", want if isinstance(want, int) else want[0].__name__))
            # the orientation verdict from the built values
            floors = [angles.floor_scaled(s, d, budget) for s in p.sizes_cyclic]
            assert list(p.floors) == floors
            assert rec.orientation.verdict == (sum(floors) == d - 1)
            total = p.remainder_sum
            if not stream:
                assert rec.orientation.verdict == (total == F(1, d))
            elif rec.orientation.verdict:
                tlo, thi, tden = angles.value_interval(total, k)
                assert tlo * d <= tden <= thi * d
    assert {"stream", "rational", "refined above k*", "burn-in unresolved",
            ("burn-in decided", True), ("jump decided", True), ("jump", True),
            ("jump", False), ("jump", "by rank"), ("burn-in fallback", True),
            ("jump fallback", True), ("critical fallback", True),
            ("critical", "NoHoleExceeds1OverD"), ("critical", "UnresolvedComparison")
            } <= seen
    assert any(x[0] == "critical" and isinstance(x[1], int) for x in seen if isinstance(x, tuple))


@pytest.mark.parametrize("name", [f"{f}-{c}" for f in ("thin", "tri3")
                                  for c in ("jumps", "leaves", "render")])
def test_exact_jump_stages_never_measure_a_hole_again(monkeypatch, name):
    """On the rational golden inputs the jump, leaf and render stages read
    each critical hole's size, floor and remainder from its record's
    profile: with ``arc_length``, ``cmp_values`` and ``floor_scaled``
    raising wherever the package imported them, the outputs stay
    byte-identical."""
    for module in (angles, geometry, orbit, recurrence, render):
        for fn in ("arc_length", "cmp_values", "floor_scaled"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, lambda *_, fn=fn: pytest.fail(fn))
    code, argv = CASES[name]
    assert _run(argv) == (code, (GOLDEN / f"{name}.out").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# facts read from the one sort of the vertex images, against plain Fractions


def _sort_corpus():
    """(d, vertices, horizon) in turn: small denominators (collisions,
    orientation-reversing steps), mid-size denominators, tiny clusters,
    and thin triangles (two close vertices and one far; every other one in
    degree 2), which jump."""
    rng = random.Random(919)
    for n in range(400):
        d, N = rng.randrange(2, 6), rng.randrange(2, 7)
        kind = n % 4
        if kind < 2:
            q = rng.randrange(N, 40) if kind == 0 else rng.randrange(100, 2000)
            vals = set()
            while len(vals) < N:
                vals.add(F(rng.randrange(q), q))
        elif kind == 2:
            b = F(rng.randrange(10**4), 10**4 + 7)
            delta = F(1, rng.randrange(3, 60) * d ** rng.randrange(3, 12))
            vals = {b} | {(b + m * delta) % 1 for m in rng.sample(range(1, 9), N - 1)}
        else:
            d = 2 if n % 8 == 3 else d
            q = rng.randrange(10**4, 10**6)
            b = F(rng.randrange(1, q), q)
            eps = F(1, rng.randrange(2**6, 2**14))
            far = b + F(rng.randrange(q // 4, 3 * q // 4), q)
            vals = {b, (b + eps) % 1, far % 1}
        yield d, sorted(vals), rng.randrange(1, 25 if kind < 3 else 60)


def test_image_sort_facts_match_fraction_oracle():
    """Where iteration stops on a collision, and each record's orientation
    verdict and ``landing``, match plain-Fraction restatements."""
    seen = set()
    for d, vals, horizon in _sort_corpus():
        try:
            records, stop = iterate_orbit(poly(*vals), d, horizon), None
        except NonInjectiveAtStep as exc:
            records, stop = exc.records, exc.step
        assert stop == oracle_collision_step(vals, d, horizon), (vals, d)
        assert len(records) == (horizon + 1 if stop is None else stop)
        cur = vals
        for rec in records:
            assert [v.value for v in rec.polygon.vertices] == cur
            assert rec.orientation.verdict == oracle_cyclic_order(cur, d), (cur, d)
            assert list(rec.landing) == oracle_landing(cur, d), (cur, d)
            seen.add("preserving" if rec.orientation.verdict else "reversing")
            cur = sorted(f_map(x, d) for x in cur)
        seen.add("collision" if stop is not None else "full horizon")
    assert seen == {"preserving", "reversing", "collision", "full horizon"}


def _jump_outcome(records, d, want):
    """``oracle_jumps``'s outcome read from ``detect_jumps``; a tie or a
    missing strip names no step, so the step is taken from ``want``."""
    try:
        log = detect_jumps(records, d)
    except AssertionBreach as exc:
        return "breach", int(re.search(r"(?:step|jump) (\d+)", str(exc)).group(1))
    except TieUnresolvable:
        return "tie", want[1]
    except PreconditionError:
        return "no strip", want[1]
    out = []
    for j in log.records:
        nxt = records[j.index + 1 - records[0].index].profile
        h = nxt.holes[nxt.order[j.image_rank - 1]]
        out.append((j.index, j.image_rank, (h.start.value, h.end.value)))
    return "ok", out


def _trace_outcome(log, records, d):
    try:
        traces = track_critical_value(log, records)
    except AssertionBreach as exc:
        return "no hole", int(re.search(r"no hole at step (\d+)", str(exc)).group(1))
    return [(tr.jump_index, list(tr.steps)) for tr in traces]


def test_detect_jumps_image_holes_match_fraction_oracle():
    """Every jump's image rank and image-hole, the step of any breach, and
    the holes that carry each critical value to the next jump match
    plain-Fraction restatements.  After a breach at step i the suffix from
    i + 1 is checked again, which reaches the tails past burn-in."""
    seen, jumps = set(), 0
    for d, vals, horizon in _sort_corpus():
        try:
            records = iterate_orbit(poly(*vals), d, horizon)
        except NonInjectiveAtStep as exc:
            records = exc.records
        iterates = [[v.value for v in r.polygon.vertices] for r in records]
        start = 0
        while len(vals) >= 3 and start < len(records):
            want = oracle_jumps(iterates[start:], d, start)
            got = _jump_outcome(records[start:], d, want)
            assert got == want, (vals, d, horizon, start)
            seen.add(want[0])
            if want[0] == "ok":
                jumps += len(want[1])
                traced = oracle_traces(iterates[start:], d, want[1], start)
                log = detect_jumps(records[start:], d)
                assert _trace_outcome(log, records[start:], d) == traced
                break
            start = want[1] + 1
    assert seen >= {"ok", "breach", "tie"} and jumps >= 100, (seen, jumps)


def test_trace_through_a_step_that_maps_no_hole_to_a_hole_is_a_breach():
    """A jump log read against another orbit's records: the last jump's
    image-hole is T_4's smallest hole, but T_4 reverses orientation, so that
    hole maps to no hole of T_5."""
    log = detect_jumps(iterate_orbit(poly(0, F(1, 7), F(3, 7)), 2, 4), 2)
    assert log.indices == (0, 1, 2, 3)
    other = iterate_orbit(poly(0, F(1, 5), F(3, 5)), 2, 6)
    assert not other[4].orientation.verdict
    with pytest.raises(AssertionBreach) as exc:
        track_critical_value(log, other)
    assert str(exc.value) == "critical value from jump 3 is in no hole at step 5"


def test_jump_analysis_needs_consecutive_records():
    orbit = iterate_orbit(poly(*CLUSTER_T), 2, 3)
    gapped = [orbit[0], orbit[2], orbit[3]]
    with pytest.raises(PreconditionError, match="consecutive indices"):
        detect_jumps(gapped, 2)
    with pytest.raises(PreconditionError, match="consecutive indices"):
        track_critical_value(detect_jumps(orbit, 2), gapped)
