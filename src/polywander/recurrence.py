"""Jumping-leaf extraction, orbit disjointness, omega-limit bins, and
finite-horizon checks of the recurrence and counting statements.

All enclosures here are closed rational intervals on the circle, stored as
(lo, hi) with 0 <= lo < 1 and lo <= hi < lo + 1 (hi may exceed 1 to denote
wraparound).  Verdicts are three-valued and never claim proof: a breach
always signals a violated precondition or insufficient precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angles import (
    DEFAULT_BUDGET,
    ONE,
    ZERO,
    Angle,
    PrecisionBudget,
    Value,
    map_angle,
    midpoint,
)
from .errors import (
    AssertionBreach,
    CrossPairLinked,
    EnclosureTooWide,
    NoBurnInWithinHorizon,
    NotCertifiedWandering,
    PreconditionError,
    UnresolvedComparison,
)
from .geometry import Polygon, UnlinkedFamily, _hole_index_of
from .orbit import (
    JumpLog,
    OrbitRecord,
    WanderingCertificate,
    certify_wandering,
    detect_jumps,
    find_burn_in,
)

Iv = tuple[Fraction, Fraction]  # closed circular interval, width < 1


def _norm(lo: Fraction, hi: Fraction) -> Iv:
    shift = lo - (lo % 1)
    return (lo - shift, hi - shift)


def _intersect(a: Iv, b: Iv) -> Iv | None:
    """Intersection of two closed circular intervals (None when disjoint;
    when they meet in two pieces, the piece found first is returned)."""
    for k in (-1, 0, 1):
        lo = max(a[0], b[0] + k)
        hi = min(a[1], b[1] + k)
        if lo <= hi:
            return _norm(lo, hi)
    return None


def _hull(arcs: list[Iv]) -> Iv:
    """Bounding interval of mutually nearby intervals, anchored at the
    smallest lower bound for determinism."""
    ref = min(a[0] for a in arcs)
    lo, hi = None, None
    for a in arcs:
        alo, ahi = a
        while alo - ref > Fraction(1, 2):
            alo -= 1
            ahi -= 1
        while alo - ref < -Fraction(1, 2):
            alo += 1
            ahi += 1
        lo = alo if lo is None else min(lo, alo)
        hi = ahi if hi is None else max(hi, ahi)
    return _norm(lo, hi)


def _combine(arcs: list[Iv]) -> Iv:
    common: Iv | None = arcs[0]
    for a in arcs[1:]:
        if common is None:
            break
        common = _intersect(common, a)
    return common if common is not None else _hull(arcs)


def _map_iv(iv: Iv, d: int) -> Iv | None:
    """Image of a circular interval under the d-tupling map; None once the
    image covers the whole circle."""
    lo, hi = iv
    w = (hi - lo) * d
    if w >= 1:
        return None
    lo = (lo * d) % 1
    return (lo, lo + w)


def _circ_point_dist(x: Fraction, y: Fraction) -> Fraction:
    g = (x - y) % 1
    return min(g, 1 - g)


def _components(n: int, joined) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with an edge a-b wherever
    ``joined(a, b)`` (a < b): each ascending, listed by least member."""
    label = list(range(n))  # least member of each vertex's component so far
    for a in range(n):
        for b in range(a + 1, n):
            if joined(a, b) and label[a] != label[b]:
                old, new = max(label[a], label[b]), min(label[a], label[b])
                label = [new if x == old else x for x in label]
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(label[i], []).append(i)
    return list(comps.values())


# ---------------------------------------------------------------------------
# candidate leaves


@dataclass(frozen=True)
class CandidateLeaf:
    """Enclosure of a critical chord refined by one or more jump strips.

    ``arcs`` are the two endpoint intervals (sorted by lower bound),
    ``support`` the orbit indices of the jumps whose strips contributed,
    ``value_arc`` an interval containing the chord's common image.
    """

    arcs: tuple[Iv, Iv]
    support: tuple[int, ...]
    value_arc: Iv
    degree: int


def _strip_arc_pair(record) -> tuple[Iv, Iv]:
    (a_lo, a_hi), (b_lo, b_hi) = record.strip.endpoint_arc_bounds()
    pair = sorted((_norm(a_lo, a_hi), _norm(b_lo, b_hi)))
    return pair[0], pair[1]


def _strips_overlap(p: tuple[Iv, Iv], q: tuple[Iv, Iv]) -> bool:
    direct = _intersect(p[0], q[0]) and _intersect(p[1], q[1])
    crossed = _intersect(p[0], q[1]) and _intersect(p[1], q[0])
    return bool(direct or crossed)


def extract_jumping_leaves(log: JumpLog, d: int) -> list[CandidateLeaf]:
    """Cluster jump strips into candidate leaves.

    Two strips describe the same leaf when their endpoint enclosures
    intersect; a cluster's enclosure is the common intersection when one
    exists, the bounding hull otherwise.  Support counts grade the evidence
    that the leaf keeps jumping; clustering is independent of log order.
    """
    records = sorted(log.records, key=lambda r: r.index)
    pairs = [_strip_arc_pair(r) for r in records]
    leaves = []
    for members in _components(
        len(records), lambda i, j: _strips_overlap(pairs[i], pairs[j])
    ):
        first = _combine([pairs[i][0] for i in members])
        second = _combine([pairs[i][1] for i in members])
        arcs = tuple(sorted((first, second)))
        values = []
        for arc in arcs:
            img = _map_iv(arc, d)
            if img is not None:
                values.append(img)
        value_arc = _combine(values) if values else (ZERO, ONE)
        leaves.append(
            CandidateLeaf(
                arcs=arcs,
                support=tuple(sorted(records[i].index for i in members)),
                value_arc=value_arc,
                degree=d,
            )
        )
    leaves.sort(key=lambda l: (l.arcs[0][0], l.arcs[1][0]))
    return leaves


# ---------------------------------------------------------------------------
# orbit disjointness


DISJOINT = "Disjoint"
COLLISION = "CollisionAt"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PairStatus:
    kind: str
    i: int | None = None
    j: int | None = None


def _value_orbit(iv: Iv, d: int, horizon: int) -> list[Iv | None]:
    out: list[Iv | None] = [iv]
    cur: Iv | None = iv
    for _ in range(horizon):
        cur = _map_iv(cur, d) if cur is not None else None
        out.append(cur)
    return out


def _pair_status(orb_a, orb_b) -> PairStatus:
    overlap = False
    for i, A in enumerate(orb_a):
        for j, B in enumerate(orb_b):
            if A is None or B is None:
                overlap = True
                continue
            if A[0] == A[1] and B[0] == B[1] and (A[0] - B[0]) % 1 == 0:
                return PairStatus(kind=COLLISION, i=i, j=j)
            if _intersect(A, B) is not None:
                overlap = True
    return PairStatus(kind=INCONCLUSIVE if overlap else DISJOINT)


def orbit_disjointness(
    leaves: list[CandidateLeaf], d: int, horizon: int
) -> dict[tuple[int, int], PairStatus]:
    """Pairwise status of the forward orbits of the leaves' value enclosures.

    A collision needs provable equality (two exact coinciding orbit points);
    mere enclosure overlap is Inconclusive; Disjoint means every pair of
    orbit enclosures is provably separated."""
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    orbits = [_value_orbit(l.value_arc, d, horizon) for l in leaves]
    out = {}
    for a in range(len(leaves)):
        for b in range(a + 1, len(leaves)):
            out[(a, b)] = _pair_status(orbits[a], orbits[b])
    return out


# ---------------------------------------------------------------------------
# omega-limit approximation


@dataclass(frozen=True)
class OmegaApproximation:
    """Occupied bins [m*eps, (m+1)*eps) visited by an orbit tail."""

    resolution: Fraction
    bins: frozenset[int]
    burn_in: int
    horizon: int

    @property
    def bin_count(self) -> int:
        return int(1 / self.resolution)


def _check_epsilon(epsilon: Fraction, literal: str | None = None) -> int:
    """The denominator 2^r of epsilon = 1/2^r.  Anything else raises
    PreconditionError naming ``literal`` (by default, epsilon itself)."""
    epsilon = Fraction(epsilon)
    B = epsilon.denominator
    if epsilon.numerator != 1 or B & (B - 1):
        shown = str(epsilon) if literal is None else literal
        raise PreconditionError(f"epsilon must be 1/2^r, got {shown!r}")
    return B


def _bins_of_interval(lo: Fraction, hi: Fraction, B: int) -> set[int]:
    m_lo = (lo.numerator * B) // lo.denominator
    m_hi = (hi.numerator * B) // hi.denominator
    return {m % B for m in range(m_lo, m_hi + 1)}


def omega_approx(
    v: Angle,
    d: int,
    burn_in: int,
    horizon: int,
    epsilon: Fraction,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> OmegaApproximation:
    """Bins occupied by f^i(v) for burn_in <= i <= horizon; enclosure points
    straddling a bin boundary occupy every bin they touch."""
    if horizon <= burn_in:
        raise PreconditionError("horizon must exceed burn_in")
    B = _check_epsilon(epsilon)
    k = 1
    while d**k < B:
        k += 1
    if k > budget.max_digits:
        raise UnresolvedComparison(
            f"resolution 1/{B} needs {k} digits, over budget {budget.max_digits}"
        )
    bins: set[int] = set()
    a = v
    for i in range(horizon + 1):
        if i >= burn_in:
            lo, hi = a.enclosure_bounds(k)
            bins |= _bins_of_interval(lo, hi, B)
        a = map_angle(a, d)
    return OmegaApproximation(
        resolution=Fraction(1, B), bins=frozenset(bins), burn_in=burn_in, horizon=horizon
    )


def _omega_from_arcs(
    arcs: list[Iv | None], burn_in: int, epsilon: Fraction
) -> OmegaApproximation:
    B = _check_epsilon(epsilon)
    bins: set[int] = set()
    for iv in arcs[burn_in:]:
        if iv is None:
            bins |= set(range(B))
        else:
            bins |= _bins_of_interval(iv[0], iv[1], B)
    return OmegaApproximation(
        resolution=Fraction(1, B),
        bins=frozenset(bins),
        burn_in=burn_in,
        horizon=len(arcs) - 1,
    )


def hausdorff_bins(a: OmegaApproximation, b: OmegaApproximation) -> Fraction:
    """Hausdorff distance between two occupied-bin sets at equal resolution."""
    if a.resolution != b.resolution:
        raise PreconditionError("resolutions differ")
    if not a.bins or not b.bins:
        return ONE if a.bins != b.bins else ZERO
    B = a.bin_count

    def directed(src, dst):
        worst = 0
        for m in src:
            best = min(min((m - n) % B, (n - m) % B) for n in dst)
            worst = max(worst, best)
        return worst

    return Fraction(max(directed(a.bins, b.bins), directed(b.bins, a.bins)), B)


# ---------------------------------------------------------------------------
# recurrence evidence


WITNESSED = "RecurrentWitnessed"


@dataclass(frozen=True)
class Verdict:
    kind: str
    step: int | None = None
    bound: Fraction | None = None


@dataclass(frozen=True)
class RecurrenceEvidence:
    distance_series: tuple[tuple[Fraction, Fraction], ...]
    running_min: tuple[Fraction, ...]
    verdict: Verdict


def _rho_point_bounds(X: Iv, A: Iv, B: Iv) -> tuple[Fraction, Fraction]:
    """Bounds on the arc distance from a point enclosure X to the chord whose
    endpoints lie in A and B: the length of the chord's side arc containing
    the point, zero exactly when the point provably hits an endpoint."""
    exact = X[0] == X[1]
    if exact and (
        (A[0] == A[1] and (X[0] - A[0]) % 1 == 0)
        or (B[0] == B[1] and (X[0] - B[0]) % 1 == 0)
    ):
        return ZERO, ZERO
    wa, wb = A[1] - A[0], B[1] - B[0]
    base = (B[0] - A[0]) % 1
    lo1 = max(ZERO, base - wa)
    hi1 = min(ONE, base + wb)
    if _intersect(X, A) is not None or _intersect(X, B) is not None:
        return ZERO, max(hi1, ONE - lo1)
    x = X[0]
    if (x - A[1]) % 1 < (B[0] - A[1]) % 1:
        return lo1, hi1  # point on the ccw side from A to B
    return ONE - hi1, ONE - lo1


def recurrence_evidence(
    leaf: CandidateLeaf,
    d: int,
    horizon: int,
    epsilon: Fraction | None = None,
) -> RecurrenceEvidence:
    """Distance bounds from each iterate of the leaf's value to the leaf.

    Witnessed only when the upper bound reaches 0 (exact endpoint hit) or,
    when ``epsilon`` is given, drops below it.  An enclosure growing to the
    full circle before a witness raises EnclosureTooWide.
    """
    series: list[tuple[Fraction, Fraction]] = []
    mins: list[Fraction] = []
    verdict = None
    cur: Iv | None = leaf.value_arc
    running = ONE
    for t in range(horizon + 1):
        if cur is None:
            raise EnclosureTooWide(
                f"value enclosure covers the circle at step {t}; "
                "raise precision or use an exact value"
            )
        lo, hi = _rho_point_bounds(cur, leaf.arcs[0], leaf.arcs[1])
        series.append((lo, hi))
        running = min(running, hi)
        mins.append(running)
        if verdict is None and (hi == 0 or (epsilon is not None and hi < epsilon)):
            verdict = Verdict(kind=WITNESSED, step=t)
            break
        cur = _map_iv(cur, d)
    if verdict is None:
        verdict = Verdict(kind=INCONCLUSIVE, bound=running)
    return RecurrenceEvidence(
        distance_series=tuple(series), running_min=tuple(mins), verdict=verdict
    )


# ---------------------------------------------------------------------------
# narrowness


@dataclass(frozen=True)
class NarrownessWitness:
    index: int
    rank: int
    hole_size: Value


def narrowness_evidence(
    x: Angle,
    orbit: list[OrbitRecord],
    N: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> tuple[NarrownessWitness, ...]:
    """Iterates where x sits in one of the N-1 smallest holes, with the
    size of that hole; shrinking sizes along the witnesses support
    narrowness."""
    out = []
    for rec in orbit:
        ci = _hole_index_of(rec.polygon, x, budget)
        if ci is None:
            continue  # x is a vertex there, holes are open
        rank = rec.profile.rank_of_cyclic(ci)
        if rank <= N - 1:
            out.append(
                NarrownessWitness(
                    index=rec.index, rank=rank, hole_size=rec.profile.size(rank)
                )
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# theorem-level verification


CONSISTENT = "ConsistentWithTheorem"
INCONCLUSIVE_EVIDENCE = "InconclusiveEvidence"
BREACH = "AssertionBreach"


@dataclass(frozen=True)
class TheoremReport:
    degree: int
    horizon: int
    epsilon: Fraction
    certificate: WanderingCertificate
    burn_in: int | None = None
    jumps: JumpLog | None = None
    leaves: tuple[CandidateLeaf, ...] = ()
    leaf_count_ok: bool | None = None
    disjointness: dict[tuple[int, int], PairStatus] | None = None
    recurrence: tuple[RecurrenceEvidence | None, ...] = ()
    omegas: tuple[OmegaApproximation, ...] = ()
    omega_consistent: bool | None = None
    limit_leaves: tuple[tuple[Fraction, Fraction], ...] = ()
    limcoin_ok: bool | None = None
    status: str = INCONCLUSIVE_EVIDENCE
    notes: tuple[str, ...] = ()


def _decide_status(
    breach: bool,
    leaf_count_ok: bool | None,
    all_disjoint: bool | None,
    all_witnessed: bool | None,
    omega_consistent: bool | None,
    limcoin_ok: bool | None,
) -> str:
    if breach:
        return BREACH
    checks = (leaf_count_ok, all_disjoint, all_witnessed, omega_consistent, limcoin_ok)
    if all(c is True for c in checks):
        return CONSISTENT
    return INCONCLUSIVE_EVIDENCE


def approx_limit_leaf(
    rec: OrbitRecord, budget: PrecisionBudget = DEFAULT_BUDGET
) -> tuple[Fraction, Fraction]:
    """Chord joining the midpoints of the two vertex clusters separated by
    the record's two largest holes; a computable stand-in for a limit leaf."""
    profile = rec.profile
    M = profile.card
    if M < 3:
        raise PreconditionError("limit-leaf approximation needs card >= 3")
    big = sorted((profile.order[M - 1], profile.order[M - 2]))
    vs = rec.polygon.vertices

    def cluster_mid(start_hole: int, end_hole: int) -> Fraction:
        # vertices from the end of one big hole around to the start of the next
        first = midpoint(vs[(start_hole + 1) % M], 64)
        last = midpoint(vs[end_hole], 64)
        return (first + ((last - first) % 1) / 2) % 1

    return (cluster_mid(big[0], big[1]), cluster_mid(big[1], big[0]))


def _near_bins(x: Fraction, omega: OmegaApproximation, tol: Fraction) -> bool:
    B = omega.bin_count
    eps = omega.resolution
    for m in omega.bins:
        lo, hi = m * eps, (m + 1) * eps
        if (x - lo) % 1 <= (hi - lo):
            return True
        if _circ_point_dist(x, lo) <= tol or _circ_point_dist(x, hi) <= tol:
            return True
    return False


def verify_theorem1(
    T: Polygon,
    d: int,
    horizon: int,
    epsilon: Fraction,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    kiwi_precheck: bool = True,
    burn_in_override: int | None = None,
) -> TheoremReport:
    """Full pipeline: certify, burn in, detect jumps, extract leaves, then
    grade disjointness, recurrence, omega agreement and the limit-leaf
    coincidence check.  Raises NotCertifiedWandering when certification
    fails; otherwise always returns a three-valued status."""
    epsilon = Fraction(epsilon)
    _check_epsilon(epsilon)
    cert = certify_wandering(T, d, horizon, budget, kiwi_precheck)
    if not cert.certified:
        raise NotCertifiedWandering(cert)
    orbit = list(cert.records)
    N = T.card
    notes: list[str] = []

    def report(**kw):
        return TheoremReport(d, horizon, epsilon, cert, notes=tuple(notes), **kw)

    if burn_in_override is not None:
        burn_in = burn_in_override
    else:
        try:
            burn_in = find_burn_in(orbit, d, N, budget)
        except NoBurnInWithinHorizon:
            notes.append("no burn-in index within the horizon")
            return report()

    sub = [r for r in orbit if r.index >= burn_in]
    try:
        log = detect_jumps(sub, d, budget)
    except AssertionBreach as exc:
        notes.append(f"jump analysis breach: {exc}")
        return report(burn_in=burn_in, status=BREACH)

    leaves = tuple(extract_jumping_leaves(log, d))
    leaf_count_ok = len(leaves) >= N - 1
    if not leaves:
        notes.append("no jumps detected, no candidate leaves")
        return report(burn_in=burn_in, jumps=log, leaf_count_ok=leaf_count_ok)

    disjointness = orbit_disjointness(list(leaves), d, horizon)
    all_disjoint = all(s.kind == DISJOINT for s in disjointness.values())

    evidence: list[RecurrenceEvidence | None] = []
    omegas: list[OmegaApproximation] = []
    for li, leaf in enumerate(leaves):
        try:
            evidence.append(recurrence_evidence(leaf, d, horizon, epsilon))
        except EnclosureTooWide:
            evidence.append(None)
            notes.append(f"leaf {li}: value enclosure too wide for recurrence")
        arcs = _value_orbit(leaf.value_arc, d, horizon)
        if any(a is None for a in arcs):
            notes.append(f"leaf {li}: omega bins degraded to full circle")
        omegas.append(_omega_from_arcs(arcs, burn_in, epsilon))
    all_witnessed = all(e is not None and e.verdict.kind == WITNESSED for e in evidence)

    omega_consistent = all(
        hausdorff_bins(omegas[a], omegas[b]) <= 2 * epsilon
        for a in range(len(omegas))
        for b in range(a + 1, len(omegas))
    )

    union_bins = frozenset().union(*(o.bins for o in omegas))
    union_omega = OmegaApproximation(
        resolution=epsilon, bins=union_bins, burn_in=burn_in, horizon=horizon
    )
    limit_leaves = tuple(approx_limit_leaf(r, budget) for r in sub[-min(3, len(sub)):])
    limcoin_ok = all(
        _near_bins(p[0], union_omega, epsilon) or _near_bins(p[1], union_omega, epsilon)
        for p in limit_leaves
    )

    status = _decide_status(
        False, leaf_count_ok, all_disjoint, all_witnessed, omega_consistent, limcoin_ok
    )
    return report(
        burn_in=burn_in,
        jumps=log,
        leaves=leaves,
        leaf_count_ok=leaf_count_ok,
        disjointness=disjointness,
        recurrence=tuple(evidence),
        omegas=tuple(omegas),
        omega_consistent=omega_consistent,
        limit_leaves=limit_leaves,
        limcoin_ok=limcoin_ok,
        status=status,
    )


# ---------------------------------------------------------------------------
# wandering collections


@dataclass(frozen=True)
class CollectionReport:
    degree: int
    horizon: int
    epsilon: Fraction
    cards: tuple[int, ...]
    sigma: int
    r_hat: int
    omega_hat: int
    holds: bool
    notes: tuple[str, ...] = ()


def _max_disjoint_subset(n: int, matrix: dict[tuple[int, int], PairStatus]) -> int:
    best = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        ok = all(
            matrix[(a, b)].kind == DISJOINT
            for x, a in enumerate(members)
            for b in members[x + 1:]
        )
        if ok:
            best = max(best, len(members))
    return best


def verify_collection_bound(
    Gamma: list[Polygon],
    d: int,
    horizon: int,
    epsilon: Fraction,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    kiwi_precheck: bool = True,
) -> CollectionReport:
    """Check the counting inequality sum(card-2) <= R - card(Omega)
    <= d-1-card(Omega) against detected recurrent leaves at finite horizon.

    Every member must certify wandering and all cross-pairs of iterates
    must be unlinked; a violated inequality is flagged as a precision or
    horizon artifact, never as a counterexample.

    Cross-pairs are checked member against member: each member b >= 1 puts
    its iterates' vertices into one ``UnlinkedFamily``, and for each a < b
    member a's iterates are queried against it in order, O(N log(HN))
    compares per query.  ``CrossPairLinked(a, n, b, m)`` names the first
    pair (a, b), then the first iterate n of a, then the smallest iterate m
    of b linked with it."""
    epsilon = Fraction(epsilon)
    _check_epsilon(epsilon)
    notes: list[str] = []
    certs: list[WanderingCertificate] = []
    for idx, T in enumerate(Gamma):
        cert = certify_wandering(T, d, horizon, budget, kiwi_precheck)
        if not cert.certified:
            raise NotCertifiedWandering(cert, member=idx)
        certs.append(cert)

    families = {}  # member b >= 1 -> its iterates' vertices, labelled m
    for b in range(1, len(Gamma)):
        families[b] = UnlinkedFamily(budget)
        for m, rb in enumerate(certs[b].records):
            families[b].add(rb.polygon, m)  # certified, so always unlinked
    for a in range(len(Gamma)):
        for b in range(a + 1, len(Gamma)):
            for n, ra in enumerate(certs[a].records):
                linked = families[b].linked(ra.polygon)
                if linked:
                    raise CrossPairLinked(a, n, b, min(linked))

    sigma = sum(T.card - 2 for T in Gamma)

    leaves: list[CandidateLeaf] = []
    for idx, cert in enumerate(certs):
        orbit = list(cert.records)
        N = Gamma[idx].card
        try:
            bi = find_burn_in(orbit, d, N, budget)
        except NoBurnInWithinHorizon:
            notes.append(f"member {idx}: no burn-in within horizon")
            continue
        try:
            log = detect_jumps([r for r in orbit if r.index >= bi], d, budget)
        except AssertionBreach as exc:
            notes.append(f"member {idx}: jump analysis breach: {exc}")
            continue
        leaves.extend(extract_jumping_leaves(log, d))

    recurrent: list[CandidateLeaf] = []
    for leaf in leaves:
        try:
            ev = recurrence_evidence(leaf, d, horizon, epsilon)
        except EnclosureTooWide:
            continue
        if ev.verdict.kind == WITNESSED:
            recurrent.append(leaf)

    if recurrent:
        matrix = orbit_disjointness(recurrent, d, horizon)
        r_hat = _max_disjoint_subset(len(recurrent), matrix)
        omegas = [
            _omega_from_arcs(_value_orbit(l.value_arc, d, horizon), 0, epsilon)
            for l in recurrent
        ]
        omega_hat = len(
            _components(
                len(recurrent),
                lambda a, b: hausdorff_bins(omegas[a], omegas[b]) <= 2 * epsilon,
            )
        )
    else:
        r_hat = 0
        omega_hat = 0

    holds = sigma <= r_hat - omega_hat <= d - 1 - omega_hat
    if not holds:
        notes.append(
            "inequality not satisfied by detected leaves; treat as a "
            "precision or horizon limitation"
        )
    return CollectionReport(
        degree=d,
        horizon=horizon,
        epsilon=epsilon,
        cards=tuple(T.card for T in Gamma),
        sigma=sigma,
        r_hat=r_hat,
        omega_hat=omega_hat,
        holds=holds,
        notes=tuple(notes),
    )
