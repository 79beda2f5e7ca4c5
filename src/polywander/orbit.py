"""Orbit iteration, wandering certification, and the burn-in, jump and
critical-value stages, which ``recurrence.JumpAnalysis`` runs in order.

An orbit is the sequence T_i of vertexwise images of a starting polygon.
Past burn-in (orientation preserved and the (N-2)-nd smallest hole below
1/(3dN)) the jump machinery applies: at a jump the critical hole's
image-hole drops into one of the N-2 smallest holes of the next iterate,
and between jumps hole labels persist.  Each step sorts the vertex images
once; the sort is the next iterate and gives each record's ``landing``,
from which every image-hole is read without comparing angles again.

The stages decide their tests on the int bounds of each profile's sizes
and remainders (``cmp_bounds``), and call ``cmp_values`` on the values only
where the bounds overlap; the jump test reads floors and image ranks
there instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .angles import (
    DEFAULT_BUDGET,
    EQ,
    GT,
    LT,
    PrecisionBudget,
    cmp_bounds,
    cmp_values,
)
from .errors import (
    AssertionBreach,
    NoBurnInWithinHorizon,
    NoHoleExceeds1OverD,
    NonInjectiveAtStep,
    NotInjectiveError,
    PreconditionError,
    TieUnresolvable,
    TooFewJumps,
)
from .geometry import (
    CriticalStrip,
    HoleProfile,
    OrientationCertificate,
    Polygon,
    UnlinkedFamily,
    critical_strip,
    orbit_step,
)


# ---------------------------------------------------------------------------
# orbit records


@dataclass(frozen=True)
class OrbitRecord:
    """T_i, its holes and orientation.  ``landing[c]`` is the position in
    T_{i+1} of the image of vertex c of T_i."""

    index: int
    polygon: Polygon
    profile: HoleProfile
    orientation: OrientationCertificate
    landing: tuple[int, ...]


def _records(T: Polygon, d: int, n: int, budget: PrecisionBudget):
    """Lazily yield the records of T_0 .. T_n, one ``orbit_step`` each: it
    sorts the vertex images once, builds one hole profile and reads
    orientation from both."""
    P = T
    for i in range(n + 1):
        nxt, landing, profile, cert = orbit_step(P, d, budget)
        rec = object.__new__(OrbitRecord)  # one dict update, as a hole profile's
        rec.__dict__.update({"index": i, "polygon": P, "profile": profile,
                             "orientation": cert, "landing": landing})
        yield rec
        P = nxt


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
    ``pair`` the first linked pair.  ``family`` holds the vertices of the
    unlinked records, each labelled with its record's index (None when no
    iteration was performed)."""

    horizon: int
    status: str
    step: int | None = None
    pair: tuple[int, int] | None = None
    records: tuple[OrbitRecord, ...] = ()
    family: UnlinkedFamily | None = field(default=None, compare=False, repr=False)

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

    Record by record (one ``orbit_step`` each, one int pass for a rational
    iterate), the iterate is checked injective, then checked against one
    ``UnlinkedFamily`` holding the vertices of all earlier iterates in ccw
    order and joins it when unlinked, instead of a pairwise scan of every
    earlier one.  An iterate that sits in one gap of the list takes two
    searches of O(log(HN)) compares (its first and last vertex), no label
    count, and joins the list as one slice; any other takes N searches and
    a count of the labels outside its most populated arc of the list (a few
    for a tiny iterate that cuts the list once; still O(HN) when its two
    most populated arcs split the list evenly).  Certification
    stops at the first non-injective or linked record; ``pair`` is
    (smallest earlier index linked with it, its index).

    With the precheck enabled, any polygon with more than d vertices is
    rejected outright and no iteration is performed.
    """
    if d < 2:
        raise PreconditionError(f"degree must be >= 2, got {d}")
    if horizon < 0:
        raise PreconditionError("horizon must be >= 0")
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
        records=tuple(records),
        family=family,
    )


# ---------------------------------------------------------------------------
# burn-in


def _burn_in_failure(
    rec: OrbitRecord, d: int, N: int, budget: PrecisionBudget
) -> str | None:
    """The burn-in condition that ``rec`` fails, or None: it must preserve
    orientation and have s_{N-2} < 1/(3dN)."""
    if not rec.orientation.verdict:
        return "does not preserve orientation"
    p = rec.profile
    if (c := cmp_bounds(p.size_bounds(N - 2), (1, 1, 3 * d * N))) is None:
        c = cmp_values(p.size(N - 2), Fraction(1, 3 * d * N), budget)
    return None if c == LT else f"has s_{N - 2} >= 1/{3 * d * N}"


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
    i0 = None
    for rec in reversed(orbit):
        if _burn_in_failure(rec, d, N, budget):
            break
        i0 = rec.index
    if i0 is None:
        raise NoBurnInWithinHorizon(
            f"no suffix of the orbit satisfies orientation and "
            f"s_{N - 2} < {Fraction(1, 3 * d * N)}"
        )
    return i0


# ---------------------------------------------------------------------------
# critical hole


def critical_hole_index(
    profile: HoleProfile, d: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> int:
    """Size rank (1-based) of the hole with minimal remainder among holes
    longer than 1/d."""
    p, candidates = profile, []
    for k in range(1, p.card + 1):
        if (c := cmp_bounds(p.size_bounds(k), (1, 1, d))) is None:
            c = cmp_values(p.size(k), Fraction(1, d), budget)
        if c == GT:
            candidates.append(k)
    if not candidates:
        raise NoHoleExceeds1OverD("no hole is longer than 1/" + str(d))
    best, tie = candidates[0], None
    for k in candidates[1:]:
        if (c := cmp_bounds(p.remainder_bounds(k), p.remainder_bounds(best))) is None:
            c = cmp_values(p.remainder(k), p.remainder(best), budget)
        if c == LT:
            best, tie = k, None
        elif c == EQ and tie is None:
            tie = k
    if tie is not None:
        raise TieUnresolvable(
            f"holes of ranks {best} and {tie} share the minimal remainder"
        )
    return best


# ---------------------------------------------------------------------------
# jumps


@dataclass(frozen=True)
class JumpRecord:
    """A jump at record ``index``: its critical hole is the rank-``cr``
    hole of that record, and that hole's image the rank-``image_rank`` hole
    of record ``index + 1``."""

    index: int
    cr: int
    strip: CriticalStrip
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


def _image_cyclic(rec: OrbitRecord, c: int) -> int | None:
    """Cyclic index in T_{i+1} of the image of cyclic hole c of T_i, or
    None when that image is not a hole."""
    p, N = rec.landing[c], len(rec.landing)
    return p if rec.landing[(c + 1) % N] == (p + 1) % N else None


def _check_consecutive(orbit: list[OrbitRecord]) -> None:
    if any(b.index != a.index + 1 for a, b in zip(orbit, orbit[1:])):
        raise PreconditionError("orbit records must have consecutive indices")


def _jumped(a: HoleProfile, b: HoleProfile, d: int, N: int, image_rank) -> bool | None:
    """d * s_{N-2} of ``a`` > s_{N-2} of ``b``, on ints and ranks only.  In
    order: the sizes' int bounds; else a floor of ``a``'s rank-(N-2) hole of
    at least 1 (d * s >= 1 exceeds every hole of ``b``); else that hole is
    shorter than 1/d, and if it maps onto a hole, whose size is then exactly
    d times its own, from that image's rank ``image_rank(N - 2)`` in ``b``
    (``b``'s sort ordered it strictly against every size that cmp_bounds
    leaves open).  So the equal stream sizes of a non-jump step are never
    compared.  None when it maps onto no hole: the step reverses
    orientation, which no step past burn-in does."""
    lo, hi, D = a.size_bounds(N - 2)
    if (c := cmp_bounds((d * lo, d * hi, D), b.size_bounds(N - 2))) is not None:
        return c == GT
    if a.floors[a.order[N - 3]]:
        return True
    rank = image_rank(N - 2)
    return None if rank is None else rank > N - 2


def detect_jumps(
    orbit: list[OrbitRecord],
    d: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> JumpLog:
    """Jumps are the iterates i with d*s_{N-2}(T_i) > s_{N-2}(T_{i+1}).

    For each jump the critical hole's size rank, its critical strip and
    the size rank of its image-hole in the next iterate are recorded; the
    latter must be at most N-2.  For non-jump steps the holes
    of ranks 1..N-2 must map rank-to-rank; a jump step must satisfy the
    shift dichotomy governed by the critical remainder.  Any failure of
    these guaranteed facts raises AssertionBreach: the input is not past
    burn-in, not wandering, or precision is insufficient; so does a step
    whose rank-(N-2) hole ``_jumped`` finds mapped onto no hole.
    Image-holes and their ranks are read from each record's ``landing``, so
    the records must have consecutive indices.
    """
    if not orbit:
        return JumpLog(records=())
    N = orbit[0].polygon.card
    if N < 3:
        raise PreconditionError("jump detection needs card >= 3")
    _check_consecutive(orbit)
    out: list[JumpRecord] = []
    for rec, nxt in zip(orbit, orbit[1:]):

        def image_rank(k: int) -> int | None:
            p = _image_cyclic(rec, rec.profile.order[k - 1])
            return None if p is None else nxt.profile.rank_of_cyclic(p)

        a, b = rec.profile, nxt.profile
        if (jumped := _jumped(a, b, d, N, image_rank)) is None:
            raise AssertionBreach(f"hole of rank {N - 2} at step {rec.index} maps to "
                                  f"no hole of step {nxt.index}")
        if not jumped:
            for k in range(1, N - 1):
                if image_rank(k) != k:
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
        strip = critical_strip(a, cr, budget)
        rank = image_rank(cr)
        if rank is None or rank > N - 2:
            raise AssertionBreach(
                f"image-hole of the critical hole at step {rec.index} is not "
                f"one of the N-2 smallest holes of the next iterate (rank {rank})"
            )
        rho = a.remainder_bounds(cr)
        for k in range(1, N - 1):
            if (c := cmp_bounds(a.size_bounds(k), rho)) is None:
                c = cmp_values(a.size(k), a.remainder(cr), budget)
            if c == EQ:
                raise AssertionBreach(
                    f"s_{k} equals the critical remainder at jump {rec.index}"
                )
            expected = k + 1 if c == GT else k
            got = image_rank(k)
            if got != expected:
                raise AssertionBreach(
                    f"jump dichotomy failed at step {rec.index}: hole rank {k} "
                    f"mapped to rank {got}, expected {expected}"
                )
        out.append(JumpRecord(index=rec.index, cr=cr, strip=strip, image_rank=rank))
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
    log: JumpLog, orbit: list[OrbitRecord]
) -> list[CriticalValueTrace]:
    """Follow each jump's critical value until the next jump.

    It starts in the jump's image-hole and moves along each record's
    ``landing`` (so the records must have consecutive indices); at every
    step up to and including the next jump it must sit in a hole of rank
    <= N-2.  ``detect_jumps`` has checked on the same records that those
    holes map to holes, so a hole that maps to no hole, like a rank above
    N-2, raises AssertionBreach."""
    _check_consecutive(orbit)
    if not log.records:
        return []
    first = orbit[0].index
    N = orbit[0].polygon.card
    traces = []
    jumps = log.records
    for n, jr in enumerate(jumps):
        end_index = jumps[n + 1].index if n + 1 < len(jumps) else orbit[-1].index
        walk = orbit[jr.index + 1 - first : end_index + 1 - first]
        c = walk[0].profile.order[jr.image_rank - 1]
        steps: list[tuple[int, int]] = []
        for t, rec in enumerate(walk, jr.index + 1):
            if c is None:
                raise AssertionBreach(
                    f"critical value from jump {jr.index} is in no hole at step {t}"
                )
            rank = rec.profile.rank_of_cyclic(c)
            if rank > N - 2:
                raise AssertionBreach(
                    f"critical value from jump {jr.index} sits in hole rank "
                    f"{rank} > N-2 at step {t}"
                )
            steps.append((t, rank))
            c = _image_cyclic(rec, c)
        traces.append(CriticalValueTrace(jump_index=jr.index, steps=tuple(steps)))
    return traces
