"""Orbit iteration, wandering certification, burn-in and jump detection.

An orbit is the sequence T_i of vertexwise images of a starting polygon.
Past burn-in (orientation preserved and the (N-2)-nd smallest hole below
1/(3dN)) the jump machinery applies: at a jump the critical hole's
image-hole drops into one of the N-2 smallest holes of the next iterate,
and between jumps hole labels persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angles import (
    DEFAULT_BUDGET,
    EQ,
    GT,
    LT,
    PrecisionBudget,
    Value,
    cmp_values,
    compare,
    floor_scaled,
    map_angle,
    scale_value,
)
from .errors import (
    AssertionBreach,
    EnclosureTooWide,
    NoBurnInWithinHorizon,
    NoHoleExceeds1OverD,
    NonInjectiveAtStep,
    NotInjectiveError,
    PreconditionError,
    TieUnresolvable,
    TooFewJumps,
)
from .geometry import (
    Arc,
    Chord,
    CriticalStrip,
    HoleProfile,
    OrientationCertificate,
    Polygon,
    UnlinkedFamily,
    _check_injective,
    _orientation,
    critical_strip,
    hole_profile,
    image_hole,
)


# ---------------------------------------------------------------------------
# orbit records


@dataclass(frozen=True)
class OrbitRecord:
    index: int
    polygon: Polygon
    profile: HoleProfile
    orientation: OrientationCertificate


def _records(T: Polygon, d: int, n: int, budget: PrecisionBudget):
    """Lazily yield the records of T_0 .. T_n.  Each step checks injectivity
    first, then builds one hole profile and reads orientation from it."""
    P = T
    for i in range(n + 1):
        images = _check_injective(P, d, budget)
        profile = hole_profile(P, d, budget)
        yield OrbitRecord(i, P, profile, _orientation(images, profile, d, budget))
        if i < n:
            P = Polygon(images, budget)


def iterate_orbit(
    T: Polygon, d: int, n: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> list[OrbitRecord]:
    """Records for T_0 .. T_n with profiles and orientation certificates."""
    if n < 0:
        raise PreconditionError("horizon must be >= 0")
    records: list[OrbitRecord] = []
    try:
        for rec in _records(T, d, n, budget):
            records.append(rec)
    except NotInjectiveError as exc:
        raise NonInjectiveAtStep(len(records), records) from exc
    return records


# ---------------------------------------------------------------------------
# wandering certification


CERTIFIED = "CertifiedToHorizon"
FAILED_NON_PRECRITICAL = "FailedNonPrecritical"
FAILED_LINKED = "FailedLinked"
REJECTED_KIWI = "RejectedKiwiBound"


@dataclass(frozen=True)
class WanderingCertificate:
    """Finite-horizon evidence that an orbit keeps cardinality and stays
    pairwise unlinked.  ``step`` holds the failing iterate (card drop) and
    ``pair`` the first linked pair; ``diagnostics`` is the trajectory of the
    (N-2)-nd smallest hole size."""

    horizon: int
    status: str
    step: int | None = None
    pair: tuple[int, int] | None = None
    diagnostics: tuple[Value, ...] = ()
    records: tuple[OrbitRecord, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


def certify_wandering(
    T: Polygon,
    d: int,
    horizon: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
    kiwi_precheck: bool = True,
) -> WanderingCertificate:
    """Check card preservation and pairwise unlinkedness of T_0 .. T_horizon.

    Record by record, the iterate is checked injective, then checked against
    one ``UnlinkedFamily`` holding the vertices of all earlier iterates in
    ccw order and joins it when unlinked: O(N log(HN)) compares per iterate
    instead of a pairwise scan of every earlier one.  Certification stops at
    the first non-injective or linked record; ``pair`` is (smallest earlier
    index linked with it, its index).

    With the precheck enabled, any polygon with more than d vertices is
    rejected outright and no iteration is performed.
    """
    if d < 2:
        raise PreconditionError(f"degree must be >= 2, got {d}")
    N = T.card
    if N < 3:
        raise PreconditionError("certification needs card >= 3")
    if kiwi_precheck and N > d:
        return WanderingCertificate(horizon=horizon, status=REJECTED_KIWI)

    records: list[OrbitRecord] = []
    family = UnlinkedFamily(budget)
    status, step, pair = CERTIFIED, None, None
    try:
        for rec in _records(T, d, horizon, budget):
            records.append(rec)
            linked = family.add(rec.polygon, rec.index)
            if linked:
                status, pair = FAILED_LINKED, (min(linked), rec.index)
                break
    except NotInjectiveError:
        status, step = FAILED_NON_PRECRITICAL, len(records)
    return WanderingCertificate(
        horizon=horizon,
        status=status,
        step=step,
        pair=pair,
        diagnostics=tuple(r.profile.size(N - 2) for r in records),
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# burn-in


def find_burn_in(
    orbit: list[OrbitRecord],
    d: int,
    N: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> int:
    """Smallest recorded index i0 such that every later record preserves
    orientation and has s_{N-2} < 1/(3dN)."""
    if not orbit:
        raise PreconditionError("orbit is empty")
    bound = Fraction(1, 3 * d * N)
    i0 = None
    for rec in reversed(orbit):
        ok = (
            rec.orientation.verdict
            and cmp_values(rec.profile.size(N - 2), bound, budget) == LT
        )
        if not ok:
            break
        i0 = rec.index
    if i0 is None:
        raise NoBurnInWithinHorizon(
            f"no suffix of the orbit satisfies orientation and s_{N - 2} < {bound}"
        )
    return i0


# ---------------------------------------------------------------------------
# critical hole


def critical_hole_index(
    profile: HoleProfile, d: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> int:
    """Size rank (1-based) of the hole with minimal remainder among holes
    longer than 1/d; caches the result on the profile."""
    if profile.cr is not None:
        return profile.cr
    target = Fraction(1, d)
    candidates = [
        k
        for k in range(1, profile.card + 1)
        if cmp_values(profile.size(k), target, budget) == GT
    ]
    if not candidates:
        raise NoHoleExceeds1OverD("no hole is longer than 1/" + str(d))
    best = candidates[0]
    for k in candidates[1:]:
        c = cmp_values(profile.remainder(k), profile.remainder(best), budget)
        if c == EQ:
            raise TieUnresolvable(
                f"holes of ranks {best} and {k} share the minimal remainder"
            )
        if c == LT:
            best = k
    profile.cr = best
    return best


# ---------------------------------------------------------------------------
# jumps


@dataclass(frozen=True)
class JumpRecord:
    index: int
    cr: int
    s_tilde_cr: Value
    edge: Chord
    strip: CriticalStrip
    image_hole: Arc
    image_rank: int


@dataclass(frozen=True)
class JumpLog:
    records: tuple[JumpRecord, ...]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.records)

    @property
    def gaps(self) -> tuple[int, ...]:
        idx = self.indices
        return tuple(idx[i + 1] - idx[i] for i in range(len(idx) - 1))


def _rank_of_arc(profile: HoleProfile, A: Arc, budget: PrecisionBudget) -> int | None:
    """Size rank of the hole equal to A, or None when A is not a hole."""
    for ci, h in enumerate(profile.holes):
        if (
            compare(h.start, A.start, budget) == EQ
            and compare(h.end, A.end, budget) == EQ
        ):
            return profile.rank_of_cyclic(ci)
    return None


def _image_rank(
    next_profile: HoleProfile, H: Arc, d: int, budget: PrecisionBudget
) -> int | None:
    """Size rank in the next profile of the arc (f(start), f(end)), or None
    when that arc is not a single hole there."""
    return _rank_of_arc(
        next_profile, Arc(map_angle(H.start, d), map_angle(H.end, d)), budget
    )


def detect_jumps(
    orbit: list[OrbitRecord],
    d: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> JumpLog:
    """Jumps are the iterates i with d*s_{N-2}(T_i) > s_{N-2}(T_{i+1}).

    For each jump the critical hole, its remainder, edge, critical strip,
    image-hole and the image-hole's size rank in the next iterate are
    recorded; the rank must be at most N-2.  For non-jump steps the holes
    of ranks 1..N-2 must map rank-to-rank; a jump step must satisfy the
    shift dichotomy governed by the critical remainder.  Any failure of
    these guaranteed facts raises AssertionBreach: the input is not past
    burn-in, not wandering, or precision is insufficient.
    """
    if not orbit:
        return JumpLog(records=())
    N = orbit[0].polygon.card
    if N < 3:
        raise PreconditionError("jump detection needs card >= 3")
    out: list[JumpRecord] = []
    for rec, nxt in zip(orbit, orbit[1:]):
        s_now = rec.profile.size(N - 2)
        s_next = nxt.profile.size(N - 2)
        jumped = cmp_values(scale_value(s_now, d), s_next, budget) == GT
        if not jumped:
            for k in range(1, N - 1):
                if _image_rank(nxt.profile, rec.profile.hole(k), d, budget) != k:
                    raise AssertionBreach(
                        f"hole of rank {k} did not persist across non-jump "
                        f"step {rec.index}"
                    )
            continue
        try:
            cr = critical_hole_index(rec.profile, d, budget)
        except NoHoleExceeds1OverD as exc:
            raise AssertionBreach(
                f"jump at step {rec.index} but no hole exceeds 1/{d}; "
                "orientation must have failed"
            ) from exc
        H = rec.profile.hole(cr)
        s_tilde = rec.profile.remainder(cr)
        j = floor_scaled(rec.profile.size(cr), d, budget)
        strip = critical_strip(H, d, j, budget)
        img = image_hole(H, d, budget)
        rank = _image_rank(nxt.profile, H, d, budget)
        if rank is None or rank > N - 2:
            raise AssertionBreach(
                f"image-hole of the critical hole at step {rec.index} is not "
                f"one of the N-2 smallest holes of the next iterate (rank {rank})"
            )
        for k in range(1, N - 1):
            c = cmp_values(rec.profile.size(k), s_tilde, budget)
            if c == EQ:
                raise AssertionBreach(
                    f"s_{k} equals the critical remainder at jump {rec.index}"
                )
            expected = k + 1 if c == GT else k
            got = _image_rank(nxt.profile, rec.profile.hole(k), d, budget)
            if got != expected:
                raise AssertionBreach(
                    f"jump dichotomy failed at step {rec.index}: hole rank {k} "
                    f"mapped to rank {got}, expected {expected}"
                )
        out.append(
            JumpRecord(
                index=rec.index,
                cr=cr,
                s_tilde_cr=s_tilde,
                edge=rec.profile.edge(cr),
                strip=strip,
                image_hole=img,
                image_rank=rank,
            )
        )
    return JumpLog(records=tuple(out))


@dataclass(frozen=True)
class GapStats:
    gaps: tuple[int, ...]
    tail_min: tuple[int, ...]
    nondecreasing: bool


def jump_gap_stats(log: JumpLog) -> GapStats:
    """Gaps between consecutive jumps plus suffix minima; gaps are expected
    to trend upward on genuine wandering inputs (reported, not asserted)."""
    if len(log.records) < 2:
        raise TooFewJumps("gap statistics need at least two jumps")
    gaps = log.gaps
    tail = []
    cur = gaps[-1]
    for g in reversed(gaps):
        cur = min(cur, g)
        tail.append(cur)
    tail.reverse()
    return GapStats(
        gaps=gaps,
        tail_min=tuple(tail),
        nondecreasing=all(a <= b for a, b in zip(gaps, gaps[1:])),
    )


# ---------------------------------------------------------------------------
# tracking the critical value between jumps


@dataclass(frozen=True)
class CriticalValueTrace:
    jump_index: int
    steps: tuple[tuple[int, int], ...]  # (orbit index, hole rank)


def track_critical_value(
    log: JumpLog,
    orbit: list[OrbitRecord],
    d: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> list[CriticalValueTrace]:
    """Follow each jump's critical-value enclosure until the next jump.

    The enclosure starts as the jump's image-hole and is pushed forward by
    the map; at every recorded step up to and including the next jump it
    must coincide with a hole of rank <= N-2.
    """
    if not log.records:
        return []
    pos = {rec.index: t for t, rec in enumerate(orbit)}
    N = orbit[0].polygon.card
    traces = []
    jumps = log.records
    for n, jr in enumerate(jumps):
        end_index = jumps[n + 1].index if n + 1 < len(jumps) else orbit[-1].index
        arc = jr.image_hole
        steps: list[tuple[int, int]] = []
        t = jr.index + 1
        while t <= end_index:
            rec = orbit[pos[t]]
            rank = _rank_of_arc(rec.profile, arc, budget)
            if rank is None:
                raise EnclosureTooWide(
                    f"critical-value enclosure from jump {jr.index} straddles a "
                    f"hole boundary at step {t}; raise precision or extend burn-in"
                )
            if rank > N - 2:
                raise AssertionBreach(
                    f"critical value from jump {jr.index} sits in hole rank "
                    f"{rank} > N-2 at step {t}"
                )
            steps.append((t, rank))
            if t == end_index:
                break
            arc = image_hole(arc, d, budget)
            t += 1
        traces.append(CriticalValueTrace(jump_index=jr.index, steps=tuple(steps)))
    return traces
