import itertools
import random
from fractions import Fraction as F

import pytest

from polywander import (
    Angle,
    CandidateLeaf,
    CrossPairLinked,
    NotCertifiedWandering,
    Polygon,
    PreconditionError,
    certify_wandering,
    detect_jumps,
    extract_jumping_leaves,
    hausdorff_bins,
    iterate_orbit,
    narrowness_evidence,
    omega_approx,
    orbit_disjointness,
    parse_angle,
    recurrence_evidence,
    unlinked,
    verify_collection_bound,
    verify_theorem1,
)
from polywander.geometry import Arc, critical_strip
from polywander.orbit import JumpLog, JumpRecord
from polywander.recurrence import OmegaApproximation, _decide_status

from oracles import cycle_of


def poly(*vals) -> Polygon:
    return Polygon([Angle.from_fraction(F(v)) for v in vals])


def leaf_exact(a, b, value, d=2) -> CandidateLeaf:
    a, b, value = F(a), F(b), F(value)
    return CandidateLeaf(
        arcs=tuple(sorted(((a, a), (b, b)))),
        support=(0,),
        value_arc=(value, value),
        degree=d,
    )


def _record_with_strip(index, hole, d, j):
    strip = critical_strip(Arc(Angle.from_fraction(F(hole[0])),
                               Angle.from_fraction(F(hole[1]))), d, j)
    return JumpRecord(
        index=index,
        cr=1,
        s_tilde_cr=strip.rho_value,
        edge=None,
        strip=strip,
        image_hole=None,
        image_rank=1,
    )


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
        _record_with_strip(0, ("0.1", "0.75"), 2, 1),
        _record_with_strip(5, ("0.45", "0.96"), 2, 1),
    ))
    leaves = extract_jumping_leaves(log, 2)
    assert len(leaves) == 2
    assert [l.support for l in leaves] == [(0,), (5,)]


def test_extract_nested_strips_intersect():
    log = JumpLog(records=(
        _record_with_strip(0, ("0.1", "0.75"), 2, 1),   # starts [0.1, 0.25]
        _record_with_strip(7, ("0.2", "0.72"), 2, 1),   # starts [0.2, 0.22]
    ))
    (leaf,) = extract_jumping_leaves(log, 2)
    assert leaf.support == (0, 7)
    assert leaf.arcs[0] == (F(1, 5), F(11, 50))
    assert leaf.arcs[1] == (F(7, 10), F(18, 25))


def test_extract_is_order_independent():
    records = [
        _record_with_strip(0, ("0.1", "0.75"), 2, 1),
        _record_with_strip(7, ("0.2", "0.72"), 2, 1),
        _record_with_strip(9, ("0.45", "0.96"), 2, 1),
    ]
    expected = extract_jumping_leaves(JumpLog(records=tuple(records)), 2)
    for perm in itertools.permutations(records):
        got = extract_jumping_leaves(JumpLog(records=tuple(perm)), 2)
        assert got == expected


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


# ---------------------------------------------------------------------------
# omega approximation


def test_omega_cycle_of_sevenths():
    om = omega_approx(parse_angle("1/7"), 2, 0, 50, F(1, 64))
    expect = {int(x * 64) for x in cycle_of(F(1, 7), 2)}
    assert set(om.bins) == expect


def test_omega_fixed_point():
    om = omega_approx(parse_angle("0/1"), 2, 0, 10, F(1, 64))
    assert om.bins == frozenset({0})


def test_omega_half_after_burn_in():
    om = omega_approx(parse_angle("1/2"), 2, 1, 10, F(1, 64))
    assert om.bins == frozenset({0})


def test_omega_determinism_and_epsilon_validation():
    a = parse_angle("gen:thue_morse?base=2")
    b = parse_angle("gen:thue_morse?base=2")
    assert omega_approx(a, 2, 3, 200, F(1, 128)) == omega_approx(
        b, 2, 3, 200, F(1, 128)
    )
    with pytest.raises(PreconditionError):
        omega_approx(a, 2, 0, 10, F(1, 48))


def test_hausdorff_bins():
    A = OmegaApproximation(F(1, 8), frozenset({0}), 0, 1)
    B = OmegaApproximation(F(1, 8), frozenset({0, 3}), 0, 1)
    assert hausdorff_bins(A, A) == 0
    assert hausdorff_bins(A, B) == F(3, 8)
    C = OmegaApproximation(F(1, 8), frozenset({7}), 0, 1)
    assert hausdorff_bins(A, C) == F(1, 8)  # circular wrap


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
        degree=2,
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


def test_verify_inconclusive_without_burn_in():
    rep = verify_theorem1(
        poly("0.30", "0.31", "0.32"), 2, 3, F(1, 64), kiwi_precheck=False
    )
    assert rep.status == "InconclusiveEvidence"
    assert rep.burn_in is None or rep.jumps is not None


def test_decide_status_combinations():
    assert _decide_status(True, True, True, True, True, True) == "AssertionBreach"
    assert (
        _decide_status(False, True, True, True, True, True)
        == "ConsistentWithTheorem"
    )
    for i in range(5):
        flags = [True] * 5
        flags[i] = False
        assert _decide_status(False, *flags) == "InconclusiveEvidence"
        flags[i] = None
        assert _decide_status(False, *flags) == "InconclusiveEvidence"


# ---------------------------------------------------------------------------
# narrowness


def test_narrowness_witnesses_from_jump():
    orbit = iterate_orbit(poly("0.19", "0.45", "0.96"), 2, 1)
    x = parse_angle("91/100")  # inside (0.90, 0.92), the smallest hole of T_1
    ws = narrowness_evidence(x, orbit, 3)
    assert any(w.index == 1 and w.rank == 1 for w in ws)


def test_narrowness_excludes_vertices():
    orbit = iterate_orbit(poly("0.19", "0.45", "0.96"), 2, 0)
    ws = narrowness_evidence(parse_angle("45/100"), orbit, 3)
    assert ws == ()


def test_narrowness_largest_hole_gives_nothing():
    orbit = iterate_orbit(poly("0.30", "0.31", "0.32"), 2, 0)
    ws = narrowness_evidence(parse_angle("0/1"), orbit, 3)
    assert ws == ()  # 0 sits in the largest hole, rank 3 > N-1


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
    iterate of every member a against every iterate of every later b."""
    certs = [certify_wandering(T, d, horizon, kiwi_precheck=False) for T in Gamma]
    assert all(c.certified for c in certs)
    for a in range(len(Gamma)):
        for b in range(a + 1, len(Gamma)):
            for n, ra in enumerate(certs[a].records):
                for m, rb in enumerate(certs[b].records):
                    if not unlinked(ra.polygon, rb.polygon):
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
