"""The staged jump analysis (``JumpAnalysis``: burn-in, jumps, jumping
leaves and critical-value traces, each once), orbit disjointness,
omega-limit bins, and finite-horizon checks of the recurrence and counting
statements.

All enclosures here are closed rational intervals on the circle, stored as
(lo, hi) with 0 <= lo < p and lo <= hi < lo + p for a period p (hi may
exceed p to denote wraparound): ``Fraction``s with p = 1, except while jump
strips are clustered, which runs on int numerators over one denominator D
with p = D.  Verdicts are three-valued and never claim proof: a breach
always signals a violated precondition or insufficient precision.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import floor, lcm

from .angles import (
    DEFAULT_BUDGET,
    ONE,
    ZERO,
    Angle,
    PrecisionBudget,
    decide,
    map_angle,
)
from .errors import (
    AssertionBreach,
    CrossPairLinked,
    EnclosureTooWide,
    NoBurnInWithinHorizon,
    NotCertifiedWandering,
    PreconditionError,
)
from .geometry import Polygon, vertex_midpoints
from .orbit import (
    CriticalValueTrace,
    JumpLog,
    OrbitRecord,
    WanderingCertificate,
    _burn_in_failure,
    certify_wandering,
    detect_jumps,
    find_burn_in,
    track_critical_value,
)

Iv = tuple  # closed circular interval (lo, hi), width < its period p (see _norm)


def _norm(lo, hi, p) -> Iv:
    """(lo, hi) shifted by a multiple of the period p so that 0 <= lo < p."""
    shift = lo - (lo % p)
    return (lo - shift, hi - shift)


def _intersect(a: Iv, b: Iv, p) -> Iv | None:
    """Intersection of two closed circular intervals of period p (None when
    disjoint; when they meet in two pieces, the piece found first is
    returned)."""
    for k in (-p, 0, p):
        lo = max(a[0], b[0] + k)
        hi = min(a[1], b[1] + k)
        if lo <= hi:
            return _norm(lo, hi, p)
    return None


def _hull(arcs: list[Iv], p) -> Iv:
    """Bounding interval of mutually nearby intervals of period p (each with
    0 <= lo < p), anchored at the smallest lower bound for determinism: an
    interval starting over half a period after it is taken one period back."""
    ref = min(a[0] for a in arcs)
    lifts = [(lo - p, hi - p) if 2 * (lo - ref) > p else (lo, hi) for lo, hi in arcs]
    return _norm(min(a[0] for a in lifts), max(a[1] for a in lifts), p)


def _combine(arcs: list[Iv], p) -> Iv:
    common: Iv | None = arcs[0]
    for a in arcs[1:]:
        if common is None:
            break
        common = _intersect(common, a, p)
    return common if common is not None else _hull(arcs, p)


def _map_iv(iv: Iv, d: int, p) -> Iv | None:
    """Image of a circular interval of period p under the d-tupling map;
    None once the image covers the whole circle."""
    lo, hi = iv
    w = (hi - lo) * d
    if w >= p:
        return None
    lo = (lo * d) % p
    return (lo, lo + w)


def _components(n: int, joined) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with an edge a-b wherever
    ``joined(a, b)`` (a < b): each ascending, listed by least member."""
    label = list(range(n))  # least member of each vertex's component so far
    for a, b in combinations(range(n), 2):
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


def _strips_overlap(p: tuple[Iv, Iv], q: tuple[Iv, Iv], D: int) -> bool:
    direct = _intersect(p[0], q[0], D) and _intersect(p[1], q[1], D)
    crossed = _intersect(p[0], q[1], D) and _intersect(p[1], q[0], D)
    return bool(direct or crossed)


def extract_jumping_leaves(log: JumpLog, d: int) -> list[CandidateLeaf]:
    """Cluster jump strips into candidate leaves.

    Two strips describe the same leaf when their endpoint enclosures
    intersect; a cluster's enclosure is the common intersection when one
    exists, the bounding hull otherwise.  Support counts grade the evidence
    that the leaf keeps jumping; clustering is independent of log order.
    It runs on ints over D, the lcm of the strips' denominators (d*L on a
    rational orbit); a leaf's ``Fraction``s are built once, at the end.
    """
    records = sorted(log.records, key=lambda r: r.index)
    D = lcm(*(r.strip.den for r in records))
    pairs = []
    for r in records:
        m = D // r.strip.den
        pairs.append(sorted(_norm(lo * m, hi * m, D) for lo, hi in r.strip.ranges))

    def as_fractions(iv: Iv) -> tuple[Fraction, Fraction]:
        return Fraction(iv[0], D), Fraction(iv[1], D)

    leaves = []
    for members in _components(
        len(records), lambda i, j: _strips_overlap(pairs[i], pairs[j], D)
    ):
        first = _combine([pairs[i][0] for i in members], D)
        second = _combine([pairs[i][1] for i in members], D)
        arcs = sorted((first, second))
        values = [img for img in (_map_iv(a, d, D) for a in arcs) if img is not None]
        leaves.append(
            CandidateLeaf(
                arcs=(as_fractions(arcs[0]), as_fractions(arcs[1])),
                support=tuple(sorted(records[i].index for i in members)),
                value_arc=as_fractions(_combine(values, D) if values else (0, D)),
            )
        )
    leaves.sort(key=lambda l: (l.arcs[0][0], l.arcs[1][0]))
    return leaves


class JumpAnalysis:
    """Burn-in, the records T_i from burn-in on (``tail``), their jumps, the
    jumping leaves and the critical-value traces of the orbit T_0, T_1, ...
    in ``records``.  Each stage is computed once, when first read, and
    raises what the function behind it raises.  A ``burn_in`` given is used
    as is; otherwise ``find_burn_in`` finds it."""

    def __init__(self, records, d: int, budget=DEFAULT_BUDGET, burn_in=None):
        self.records = list(records)
        self.d = d
        self.budget = budget
        if burn_in is not None:
            self.burn_in = burn_in

    @cached_property
    def burn_in(self) -> int:
        N = self.records[0].polygon.card if self.records else 0
        return find_burn_in(self.records, self.d, N, self.budget)

    @cached_property
    def tail(self) -> list[OrbitRecord]:
        return self.records[self.burn_in:]

    @cached_property
    def jumps(self) -> JumpLog:
        return detect_jumps(self.tail, self.d, self.budget)

    @cached_property
    def leaves(self) -> list[CandidateLeaf]:
        return extract_jumping_leaves(self.jumps, self.d)

    @cached_property
    def traces(self) -> list[CriticalValueTrace]:
        return track_critical_value(self.jumps, self.tail)


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
        cur = _map_iv(cur, d, 1) if cur is not None else None
        out.append(cur)
    return out


def _pair_status(orb_a, orb_b) -> PairStatus:
    overlap = False  # each orbit is None from its first None on: its walk stops there
    for i, A in enumerate(orb_a):
        if A is None:
            return PairStatus(kind=INCONCLUSIVE)
        for j, B in enumerate(orb_b):
            if B is None:
                overlap = True
                break
            if A[0] == A[1] and B[0] == B[1] and (A[0] - B[0]) % 1 == 0:
                return PairStatus(kind=COLLISION, i=i, j=j)
            if _intersect(A, B, 1) is not None:
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
    return _pair_statuses([_value_orbit(l.value_arc, d, horizon) for l in leaves])


def _pair_statuses(orbits) -> dict[tuple[int, int], PairStatus]:
    """``orbit_disjointness`` from the leaves' value orbits."""
    return {
        (a, b): _pair_status(orbits[a], orbits[b])
        for a, b in combinations(range(len(orbits)), 2)
    }


# ---------------------------------------------------------------------------
# omega-limit approximation


Run = tuple  # bins m_lo..m_hi of one OmegaApproximation, 0 <= m_lo <= m_hi < B


@dataclass(frozen=True)
class OmegaApproximation:
    """Occupied bins [m*eps, (m+1)*eps) visited by an orbit tail, as sorted
    runs (m_lo, m_hi) of B = 1/eps bins: runs do not touch and do not wrap
    past 0, and the full circle is the one run (0, B-1).  Nothing here is
    linear in B; only the report lists every bin."""

    resolution: Fraction
    runs: tuple[Run, ...]
    burn_in: int
    horizon: int


def _check_epsilon(epsilon: Fraction, literal: str | None = None) -> int:
    """The denominator 2^r of epsilon = 1/2^r.  Anything else raises
    PreconditionError naming ``literal`` (by default, epsilon itself)."""
    epsilon = Fraction(epsilon)
    B = epsilon.denominator
    if epsilon.numerator != 1 or B & (B - 1):
        shown = str(epsilon) if literal is None else literal
        raise PreconditionError(f"epsilon must be 1/2^r, got {shown!r}")
    return B


def _runs(spans, B: int) -> tuple[Run, ...]:
    """The sorted runs of the bins m mod B for m in the int spans (a, b),
    a <= b: a span of B bins or more is the full circle, one that crosses 0
    is split there, and runs that overlap or touch are merged."""
    pieces = []
    for a, b in spans:
        if b - a + 1 >= B:
            return ((0, B - 1),)
        a, b = a % B, b % B
        pieces += [(a, b)] if a <= b else [(0, b), (a, B - 1)]
    runs: list[Run] = []
    for a, b in sorted(pieces):
        if runs and a <= runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], max(b, runs[-1][1]))
        else:
            runs.append((a, b))
    return tuple(runs)


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
    decide(lambda rung: rung >= k or None, budget,
           lambda: f"cannot bin at resolution 1/{B}")
    arcs: list[Iv | None] = []
    for i in range(horizon + 1):
        arcs.append(v.enclosure_bounds(k) if i >= burn_in else None)
        v = map_angle(v, d)
    return _omega_from_arcs(arcs, burn_in, B)


def _omega_from_arcs(arcs: list[Iv | None], burn_in: int, B: int) -> OmegaApproximation:
    """The bins of B that the arcs from burn_in on touch; an arc of None
    covers the circle."""
    spans = [
        (0, B - 1) if iv is None else (floor(iv[0] * B), floor(iv[1] * B))
        for iv in arcs[burn_in:]
    ]
    return OmegaApproximation(Fraction(1, B), _runs(spans, B), burn_in, len(arcs) - 1)


def _bin_distance(m: int, runs, B: int) -> int:
    """Circular distance in bins from bin m to the nearest run; one bisect."""
    i = bisect_right(runs, (m, B)) - 1  # the last run that starts at or before m, or -1
    if i >= 0 and m <= runs[i][1]:
        return 0
    return min((m - runs[i][1]) % B, (runs[(i + 1) % len(runs)][0] - m) % B)


def hausdorff_bins(a: OmegaApproximation, b: OmegaApproximation) -> Fraction:
    """Hausdorff distance between two occupied-bin sets at equal resolution,
    in O(r log r) for r runs.  The distance from a bin of ``src`` to ``dst``
    rises to the middle of each gap of ``dst`` and falls again, so its
    largest value is at an end of a run of ``src`` or at the floor-midpoint
    of a gap of ``dst`` that lies in ``src``."""
    if a.resolution != b.resolution:
        raise PreconditionError("resolutions differ")
    if not a.runs or not b.runs:
        return ONE if a.runs != b.runs else ZERO
    B = a.resolution.denominator

    def directed(src, dst):
        cands = [m for run in src for m in run]
        for (_, hi), (lo, _) in zip(dst, dst[1:] + dst[:1]):  # one run: its gap goes round
            if gap := (lo - hi - 1) % B:
                cands.append((hi + 1 + (gap - 1) // 2) % B)
        return max(_bin_distance(m, dst, B) for m in cands if not _bin_distance(m, src, B))

    return Fraction(max(directed(a.runs, b.runs), directed(b.runs, a.runs)), B)


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
    if _intersect(X, A, 1) is not None or _intersect(X, B, 1) is not None:
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
    return _evidence(leaf, _value_orbit(leaf.value_arc, d, horizon), epsilon)


def _evidence(leaf: CandidateLeaf, orbit, epsilon) -> RecurrenceEvidence:
    """``recurrence_evidence`` from the leaf's value orbit."""
    series: list[tuple[Fraction, Fraction]] = []
    mins: list[Fraction] = []
    running = ONE
    for t, cur in enumerate(orbit):
        if cur is None:
            raise EnclosureTooWide(
                f"value enclosure covers the circle at step {t}; "
                "raise precision or use an exact value"
            )
        lo, hi = _rho_point_bounds(cur, leaf.arcs[0], leaf.arcs[1])
        series.append((lo, hi))
        running = min(running, hi)
        mins.append(running)
        if hi == 0 or (epsilon is not None and hi < epsilon):
            verdict = Verdict(kind=WITNESSED, step=t)
            break
    else:
        verdict = Verdict(kind=INCONCLUSIVE, bound=running)
    return RecurrenceEvidence(
        distance_series=tuple(series), running_min=tuple(mins), verdict=verdict
    )


# ---------------------------------------------------------------------------
# theorem-level verification


CONSISTENT = "ConsistentWithTheorem"
INCONCLUSIVE_EVIDENCE = "InconclusiveEvidence"
BREACH = "AssertionBreach"


@dataclass(frozen=True)
class TheoremReport:
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
    leaf_count_ok: bool | None,
    all_disjoint: bool | None,
    all_witnessed: bool | None,
    omega_consistent: bool | None,
    limcoin_ok: bool | None,
    covers_circle: bool,
) -> str:
    """CONSISTENT only when every check holds and no leaf's value enclosure
    covers the circle within the horizon (its recurrence is then
    unavailable and its omega the full circle): a full-circle omega is near
    every limit leaf, and omegas that are all full agree, whatever the
    orbit does."""
    checks = (leaf_count_ok, all_disjoint, all_witnessed, omega_consistent, limcoin_ok)
    if not covers_circle and all(c is True for c in checks):
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
    mids = [Fraction(n, q) for n, q in vertex_midpoints(rec.polygon, budget)]

    def cluster_mid(start_hole: int, end_hole: int) -> Fraction:
        # vertices from the end of one big hole around to the start of the next
        first, last = mids[(start_hole + 1) % M], mids[end_hole]
        return (first + ((last - first) % 1) / 2) % 1

    return (cluster_mid(big[0], big[1]), cluster_mid(big[1], big[0]))


def _near_bins(x: Fraction, omega: OmegaApproximation, tol: Fraction) -> bool:
    """Whether x lies within tol of an occupied bin: of the closed arc
    [lo/B, (hi+1)/B] of some run, one Fraction test per run."""
    eps = omega.resolution
    return any(
        (x - lo * eps + tol) % 1 <= (hi + 1 - lo) * eps + 2 * tol for lo, hi in omega.runs
    )


def _grade_leaves(leaves, orbits, epsilon: Fraction, burn_in: int, notes):
    """Each leaf's recurrence evidence (None when its value enclosure grows
    too wide) and the omega bins of its value orbit (``orbits``, one per
    leaf) from burn_in on; each enclosure too wide and each orbit covering
    the circle gets a note."""
    evidence, omegas = [], []
    for li, (leaf, arcs) in enumerate(zip(leaves, orbits)):
        try:
            evidence.append(_evidence(leaf, arcs, epsilon))
        except EnclosureTooWide:
            evidence.append(None)
            notes.append(f"leaf {li}: value enclosure too wide for recurrence")
        if None in arcs:
            notes.append(f"leaf {li}: omega bins degraded to full circle")
        omegas.append(_omega_from_arcs(arcs, burn_in, epsilon.denominator))
    return evidence, omegas


def verify_theorem1(
    T: Polygon,
    d: int,
    horizon: int,
    epsilon: Fraction,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    kiwi_precheck: bool = True,
    burn_in_override: int | None = None,
) -> TheoremReport:
    """Full pipeline: certify, then a ``JumpAnalysis`` of the certified
    records (burn-in, jumps, leaves), then grade disjointness, recurrence,
    omega agreement and the limit-leaf coincidence check.  Raises
    NotCertifiedWandering when certification fails, and PreconditionError
    when a record from ``burn_in_override`` on fails a burn-in condition;
    otherwise always returns a three-valued status."""
    epsilon = Fraction(1, _check_epsilon(epsilon))
    if burn_in_override is not None and burn_in_override < 0:
        raise PreconditionError("burn-in must be >= 0")
    cert = certify_wandering(T, d, horizon, budget, kiwi_precheck)
    if not cert.certified:
        raise NotCertifiedWandering(cert)
    if burn_in_override is not None:
        for rec in cert.records[burn_in_override:]:
            failed = _burn_in_failure(rec, d, T.card, budget)
            if failed:
                raise PreconditionError(
                    f"burn-in {burn_in_override}: record {rec.index} {failed}"
                )
    run = JumpAnalysis(cert.records, d, budget, burn_in_override)
    notes: list[str] = []

    def report(**kw):
        return TheoremReport(cert, notes=tuple(notes), **kw)

    try:
        log = run.jumps
    except NoBurnInWithinHorizon:
        notes.append("no burn-in index within the horizon")
        return report()
    except AssertionBreach as exc:
        notes.append(f"jump analysis breach: {exc}")
        return report(burn_in=run.burn_in, status=BREACH)

    leaves = tuple(run.leaves)
    leaf_count_ok = len(leaves) >= T.card - 1
    if not leaves:
        notes.append("no jumps detected, no candidate leaves")
        return report(burn_in=run.burn_in, jumps=log, leaf_count_ok=leaf_count_ok)

    orbits = [_value_orbit(l.value_arc, d, horizon) for l in leaves]
    disjointness = _pair_statuses(orbits)
    all_disjoint = all(s.kind == DISJOINT for s in disjointness.values())

    evidence, omegas = _grade_leaves(leaves, orbits, epsilon, run.burn_in, notes)
    all_witnessed = all(e is not None and e.verdict.kind == WITNESSED for e in evidence)

    omega_consistent = all(
        hausdorff_bins(a, b) <= 2 * epsilon for a, b in combinations(omegas, 2)
    )

    union_runs = _runs((r for o in omegas for r in o.runs), epsilon.denominator)
    union_omega = OmegaApproximation(epsilon, union_runs, run.burn_in, horizon)
    limit_leaves = tuple(approx_limit_leaf(r, budget) for r in run.tail[-3:])
    limcoin_ok = all(
        _near_bins(p[0], union_omega, epsilon) or _near_bins(p[1], union_omega, epsilon)
        for p in limit_leaves
    )

    covers_circle = any(None in arcs for arcs in orbits)  # each noted by _grade_leaves
    status = _decide_status(
        leaf_count_ok, all_disjoint, all_witnessed, omega_consistent, limcoin_ok,
        covers_circle,
    )
    return report(
        burn_in=run.burn_in,
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
        ok = all(matrix[(a, b)].kind == DISJOINT for a, b in combinations(members, 2))
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

    Cross-pairs are checked member against member: member a's iterates are
    queried in order against the ``UnlinkedFamily`` that certified each
    later member b, O(N log(HN)) compares per query.
    ``CrossPairLinked(a, n, b, m)`` names the first pair (a, b), then the
    first iterate n of a, then the smallest iterate m of b linked with it."""
    epsilon = Fraction(1, _check_epsilon(epsilon))
    notes: list[str] = []
    certs: list[WanderingCertificate] = []
    for idx, T in enumerate(Gamma):
        cert = certify_wandering(T, d, horizon, budget, kiwi_precheck)
        if not cert.certified:
            raise NotCertifiedWandering(cert, member=idx)
        certs.append(cert)

    for a in range(len(Gamma)):
        for b in range(a + 1, len(Gamma)):
            for n, ra in enumerate(certs[a].records):
                linked = certs[b].family.linked(ra.polygon)
                if linked:
                    raise CrossPairLinked(a, n, b, min(linked))

    sigma = sum(T.card - 2 for T in Gamma)

    leaves: list[CandidateLeaf] = []
    for idx, cert in enumerate(certs):
        try:
            leaves += JumpAnalysis(cert.records, d, budget).leaves
        except NoBurnInWithinHorizon:
            notes.append(f"member {idx}: no burn-in within horizon")
        except AssertionBreach as exc:
            notes.append(f"member {idx}: jump analysis breach: {exc}")

    orbits = [_value_orbit(l.value_arc, d, horizon) for l in leaves]
    evidence, omegas = _grade_leaves(leaves, orbits, epsilon, 0, notes=[])
    keep = [i for i, e in enumerate(evidence) if e and e.verdict.kind == WITNESSED]
    omegas = [omegas[i] for i in keep]

    if keep:
        matrix = _pair_statuses([orbits[i] for i in keep])
        r_hat = _max_disjoint_subset(len(keep), matrix)
        omega_hat = len(
            _components(
                len(keep),
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
        cards=tuple(T.card for T in Gamma),
        sigma=sigma,
        r_hat=r_hat,
        omega_hat=omega_hat,
        holds=holds,
        notes=tuple(notes),
    )
