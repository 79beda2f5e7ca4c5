"""Seeded request plans for the four workloads, with their output checks.

Every plan is a pure function of the seed: it returns the CLI requests to
send (argument lists plus the contents of any input file they name) and,
for each request, a check of the program's exit code and stdout.  Expected
results come from plain-``Fraction`` oracles (``tests/oracles.py`` and the
helpers below), never from the package under test, so the program receives
only the generated literals and is judged against independent arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import oracles

Check = Callable[[int, str], "str | None"]  # (exit code, stdout) -> problem


@dataclass(frozen=True)
class Request:
    """One CLI call.  Each key of ``files`` names an input file; the same
    name appears in ``argv`` and is replaced by the file's path at send time."""

    argv: tuple[str, ...]
    check: Check = field(compare=False, repr=False)
    files: tuple[tuple[str, str], ...] = ()


def literal(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_near(rng: random.Random, centre: int, spread: int, avoid=()) -> int:
    q = rng.randrange(centre - spread, centre + spread)
    while not _is_prime(q) or q in avoid:
        q += 1
    return q


# ---------------------------------------------------------------------------
# plain-Fraction reference computations


def iterates(points: list[F], d: int, horizon: int) -> list[list[F]]:
    out = [sorted(x % 1 for x in points)]
    for _ in range(horizon):
        out.append(sorted(oracles.f_map(x, d) for x in out[-1]))
    return out


def small_hole(points: list[F]) -> F:
    """s_{N-2}: the (N-2)-nd smallest hole size (rank 1 is the smallest)."""
    return sorted(oracles.hole_sizes(points))[len(points) - 3]


def jump_indices(orbit: list[list[F]], d: int, start: int = 0) -> list[int]:
    """Steps i >= start with d * s_{N-2}(T_i) > s_{N-2}(T_{i+1})."""
    s = [small_hole(P) for P in orbit]
    return [i for i in range(start, len(orbit) - 1) if d * s[i] > s[i + 1]]


def past_burn_in(P: list[F], d: int) -> bool:
    N = len(P)
    return oracles.oracle_cyclic_order(P, d) and small_hole(P) < F(1, 3 * d * N)


def burn_in(orbit: list[list[F]], d: int) -> int | None:
    """Smallest i0 such that every iterate from i0 on is past burn-in."""
    i0 = None
    for i in range(len(orbit) - 1, -1, -1):
        if not past_burn_in(orbit[i], d):
            break
        i0 = i
    return i0


def all_injective(orbit: list[list[F]], d: int) -> bool:
    return all(oracles.oracle_injective(P, d) for P in orbit)


def _hole_ranks(P: list[F]):
    """Holes of sorted P, their sizes, and rank -> hole index (rank 1 is the
    smallest; equal sizes rank by cyclic position)."""
    holes = oracles.holes_of(P)
    sizes = oracles.hole_sizes(P)
    order = sorted(range(len(P)), key=lambda i: (sizes[i], i))
    return holes, sizes, order


def _rank_of(P: list[F], arc: tuple[F, F]) -> int | None:
    holes, _, order = _hole_ranks(P)
    return order.index(holes.index(arc)) + 1 if arc in holes else None


def jump_facts_hold(orbit: list[list[F]], d: int) -> bool:
    """Whether the jump analysis of the whole orbit meets every fact the
    program asserts (and so exits 0): between jumps the N-2 smallest holes
    map rank to rank; at a jump a unique critical hole (the hole longer than
    1/d of least remainder, not a multiple of 1/d long) maps into the N-2
    smallest holes, the others shift by the remainder dichotomy, and the
    critical value stays in the N-2 smallest holes until the next jump."""
    N = len(orbit[0])
    jumps, images = [], []
    for i in range(len(orbit) - 1):
        holes, sizes, order = _hole_ranks(orbit[i])
        img = lambda r: (  # noqa: E731 - image of the rank-r hole
            oracles.f_map(holes[order[r - 1]][0], d),
            oracles.f_map(holes[order[r - 1]][1], d),
        )
        nxt = orbit[i + 1]
        if not d * small_hole(orbit[i]) > small_hole(nxt):
            if any(_rank_of(nxt, img(k)) != k for k in range(1, N - 1)):
                return False
            continue
        rem = [None] + [oracles.oracle_remainder(sizes[order[k - 1]], d)
                        for k in range(1, N + 1)]
        best = None
        for k in range(1, N + 1):
            if sizes[order[k - 1]] > F(1, d):
                if best is not None and rem[k] == rem[best]:
                    return False
                if best is None or rem[k] < rem[best]:
                    best = k
        if best is None or (d * sizes[order[best - 1]]).denominator == 1:
            return False
        rank = _rank_of(nxt, img(best))
        if rank is None or rank > N - 2:
            return False
        for k in range(1, N - 1):
            if sizes[order[k - 1]] == rem[best]:
                return False
            want = k + 1 if sizes[order[k - 1]] > rem[best] else k
            if _rank_of(nxt, img(k)) != want:
                return False
        jumps.append(i)
        images.append(img(best))
    # the critical value from each jump, followed to the next jump
    for n, (i, arc) in enumerate(zip(jumps, images)):
        end = jumps[n + 1] if n + 1 < len(jumps) else len(orbit) - 1
        for t in range(i + 1, end + 1):
            rank = _rank_of(orbit[t], arc)
            if rank is None:
                return True  # the program stops tracing and reports why
            if rank > N - 2:
                return False
            arc = (oracles.f_map(arc[0], d), oracles.f_map(arc[1], d))
    return True


# ---------------------------------------------------------------------------
# output parsing


def _payload(code: int, out: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}, expected 0"
    try:
        return json.loads(out)["payload"], None
    except (ValueError, KeyError) as exc:
        return None, f"unreadable report: {exc}"


def _expect(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


def _certificate_check(payload: dict, oracle) -> str | None:
    """verify/collection certificate against ``oracles.oracle_certify``."""
    status, detail = oracle
    cert = payload["certificate"]
    if status == "CertifiedToHorizon":
        return _expect("certificate status", cert["status"], status)
    return _first(
        _expect("status", payload["status"], "NotCertifiedWandering"),
        _expect("certificate status", cert["status"], status),
        _expect(
            "first linked pair",
            cert["pair"] if status == "FailedLinked" else cert["step"],
            list(detail) if status == "FailedLinked" else detail,
        ),
    )


# ---------------------------------------------------------------------------
# W1: the tiny quadrilateral cluster


def w1(base: F, K: int = 200, d: int = 3) -> list[F]:
    """Base, then running sums adding 1, 3 and 2 steps of 1/(3*4*d*d^K)."""
    delta = F(1, 3 * 4 * d * d**K)
    pts = [base]
    for m in (1, 3, 2):
        pts.append(pts[-1] + m * delta)
    return pts


def _w1_base(rng: random.Random, avoid=()) -> F:
    q = _prime_near(rng, 10**6, 10**5, avoid)
    return F(rng.randrange(1, q), q)


CLUSTER_DEGREE = 3
CLUSTER_VERIFY_HORIZON = 50
CLUSTER_VERIFY_INPUTS = 8


def cluster_verify(seed: int) -> list[Request]:
    rng = random.Random(f"cluster-verify/{seed}")
    d, H = CLUSTER_DEGREE, CLUSTER_VERIFY_HORIZON
    plan = []
    for _ in range(CLUSTER_VERIFY_INPUTS):
        pts = w1(_w1_base(rng))
        orbit = iterates(pts, d, H)
        oracle = oracles.oracle_certify(pts, d, H)
        b0 = burn_in(orbit, d) if oracle[0] == "CertifiedToHorizon" else None
        jumps = jump_indices(orbit, d, b0) if b0 is not None else None

        def check(code, out, oracle=oracle, b0=b0, jumps=jumps):
            payload, problem = _payload(code, out)
            if problem:
                return problem
            problem = _certificate_check(payload, oracle)
            if problem or oracle[0] != "CertifiedToHorizon":
                return problem
            statuses = (
                {"InconclusiveEvidence"}
                if not jumps
                else {"ConsistentWithTheorem", "InconclusiveEvidence"}
            )
            return _first(
                _expect("burn_in", payload["burn_in"], b0),
                _expect("jump indices", payload["jump_indices"], jumps),
                None if payload["status"] in statuses
                else f"status {payload['status']!r} not in {sorted(statuses)}",
            )

        argv = ("verify", "-d", str(d), "--horizon", str(H), "--no-kiwi-precheck")
        plan.append(Request(argv + tuple(literal(x) for x in pts), check))
    return plan


CLUSTER_COLLECTION_HORIZON = 20
CLUSTER_COLLECTION_INPUTS = 8


def _cross_unlinked(a: list[F], b: list[F], d: int, H: int) -> bool:
    ia, ib = iterates(a, d, H), iterates(b, d, H)
    return all(oracles.oracle_unlinked(A, B) for A in ia for B in ib)


def cluster_collection(seed: int) -> list[Request]:
    rng = random.Random(f"cluster-collection/{seed}")
    d, H = CLUSTER_DEGREE, CLUSTER_COLLECTION_HORIZON
    plan = []
    for n in range(CLUSTER_COLLECTION_INPUTS):
        while True:
            b1 = _w1_base(rng)
            b2 = _w1_base(rng, avoid=(b1.denominator,))
            members = [w1(b1), w1(b2)]
            if all(
                oracles.oracle_certify(m, d, H)[0] == "CertifiedToHorizon"
                for m in members
            ) and _cross_unlinked(*members, d, H):
                break
        cards = [len(m) for m in members]
        sigma = sum(c - 2 for c in cards)
        # the bound needs sigma <= d - 1; beyond that it cannot hold
        statuses = (
            {"InconclusiveEvidence"}
            if sigma > d - 1
            else {"ConsistentWithBound", "InconclusiveEvidence"}
        )

        def check(code, out, cards=cards, sigma=sigma, statuses=statuses):
            payload, problem = _payload(code, out)
            if problem:
                return problem
            return _first(
                None if payload["status"] in statuses
                else f"status {payload['status']!r} not in {sorted(statuses)}",
                _expect("cards", payload.get("cards"), cards),
                _expect("sigma", payload.get("sigma"), sigma),
            )

        name = f"collection-{n}.txt"
        text = "".join(",".join(literal(x) for x in m) + "\n" for m in members)
        argv = (
            "collection", "-d", str(d), "--horizon", str(H),
            "--no-kiwi-precheck", "--file", name,
        )
        plan.append(Request(argv, check, files=((name, text),)))
    return plan


# ---------------------------------------------------------------------------
# stream orbit: one digit-stream vertex plus two rationals fixed under x4


STREAM_DEGREE = 4
STREAM_HORIZON = 200
STREAM_GENERATORS = ("thue_morse", "champernowne")  # one request each
FIXED_UNDER_4 = (F(0), F(1, 3), F(2, 3))


def _base4(n: int) -> str:
    s = ""
    while n:
        s = str(n % 4) + s
        n //= 4
    return s


def stream_digits(name: str, count: int) -> list[int]:
    """First ``count`` base-4 digits, computed here from the definitions."""
    if name == "thue_morse":
        return [bin(i).count("1") & 1 for i in range(count)]
    text, n = "", 1
    while len(text) < count:  # champernowne: 1, 2, 3, 10, 11, ... in base 4
        text += _base4(n)
        n += 1
    return [int(c) for c in text[:count]]


def _stream_below(digits: list[int], shift: int, r: F) -> bool:
    """Is 0.d_shift d_shift+1 ... (base 4) below r, for r in {0, 1/3, 2/3}?"""
    if r == 0:
        return False  # the stream is irrational, hence positive
    rep = 1 if r == F(1, 3) else 2  # 1/3 = 0.111..., 2/3 = 0.222... in base 4
    i = shift
    while digits[i] == rep:
        i += 1
    return digits[i] < rep


def stream_orbit(seed: int) -> list[Request]:
    rng = random.Random(f"stream-orbit/{seed}")
    d, H = STREAM_DEGREE, STREAM_HORIZON
    plan = []
    for name in STREAM_GENERATORS:
        shift = rng.randrange(1, 1000)
        rats = sorted(rng.sample(FIXED_UNDER_4, 2))
        digits = stream_digits(name, shift + H + 64)

        def stream_literal(s, name=name):
            return f"gen:{name}?base=4" + (f"&shift={s}" if s else "")

        records = []
        for i in range(H + 1):
            s = shift + i
            pos = sum(1 for r in rats if not _stream_below(digits, s, r))
            pos_next = sum(1 for r in rats if not _stream_below(digits, s + 1, r))
            lits = [literal(r) for r in rats]
            lits.insert(pos, stream_literal(s))
            # images in domain order: the rationals are fixed, the stream
            # vertex moves to slot pos_next; one cyclic descent iff the
            # cyclic order is kept
            slots = list(range(len(rats)))
            slots = [x + (1 if x >= pos_next else 0) for x in slots]
            slots.insert(pos, pos_next)
            descents = sum(
                1 for k in range(len(slots)) if slots[k] > slots[(k + 1) % len(slots)]
            )
            records.append((lits, descents == 1))

        def check(code, out, records=records):
            payload, problem = _payload(code, out)
            if problem:
                return problem
            got = payload["records"]
            if len(got) != len(records):
                return f"{len(got)} orbit records, expected {len(records)}"
            for i, (rec, (lits, orient)) in enumerate(zip(got, records)):
                problem = _first(
                    _expect(f"record {i} index", rec["index"], i),
                    _expect(
                        f"record {i} vertices",
                        [v["literal"] for v in rec["vertices"]],
                        lits,
                    ),
                    _expect(f"record {i} orientation", rec["orientation"], orient),
                )
                if problem:
                    return problem
            return None

        argv = ("orbit", "-d", str(d), "--horizon", str(H), stream_literal(shift))
        plan.append(Request(argv + tuple(literal(r) for r in rats), check))
    return plan


# ---------------------------------------------------------------------------
# jump session: thin triangles whose jump analysis holds, sent as four commands


JUMP_DEGREE = 2
JUMP_HORIZON = 20
JUMP_TRIANGLES = 8
JUMP_MIN_JUMPS = 3


def _thin_triangle(rng: random.Random) -> list[F]:
    q = rng.randrange(10**5, 10**6)
    b = F(rng.randrange(1, q), q)
    eps = F(1, rng.randrange(2**10, 2**14))
    far = (b + F(rng.randrange(q // 4, 3 * q // 4), q)) % 1
    return [b, (b + eps) % 1, far]


def _jumps_check(jumps):
    def check(code, out):
        payload, problem = _payload(code, out)
        if problem:
            return problem
        return _expect("jump indices", [j["index"] for j in payload["jumps"]], jumps)

    return check


def _leaves_check(jumps):
    def check(code, out):
        payload, problem = _payload(code, out)
        if problem:
            return problem
        support = [i for leaf in payload["leaves"] for i in leaf["support"]]
        return _expect("leaf supports", sorted(support), jumps)

    return check


def _render_check(jumps, horizon):
    def check(code, out):
        if code != 0:
            return f"exit code {code}, expected 0"
        return _first(
            _expect("strips", out.count('class="strip"'), len(jumps)),
            _expect("polygons", out.count('class="polygon"'), horizon + 1),
        )

    return check


def _verify_check(oracle):
    def check(code, out):
        payload, problem = _payload(code, out)
        return problem or _certificate_check(payload, oracle)

    return check


def jump_session(seed: int) -> list[Request]:
    rng = random.Random(f"jump-session/{seed}")
    d, H = JUMP_DEGREE, JUMP_HORIZON
    plan = []
    kept = 0
    while kept < JUMP_TRIANGLES:
        pts = _thin_triangle(rng)
        if len(set(pts)) < 3:
            continue
        orbit = iterates(pts, d, H)
        # keep triangles on which jumps and leaves exit 0, that show enough
        # jumps, and that fail certification early
        if not all_injective(orbit, d) or not jump_facts_hold(orbit, d):
            continue
        jumps = jump_indices(orbit, d)
        oracle = oracles.oracle_certify(pts, d, H)
        if len(jumps) < JUMP_MIN_JUMPS or oracle[0] != "FailedLinked":
            continue
        kept += 1
        lits = tuple(literal(x) for x in pts)
        opts = ("-d", str(d), "--horizon", str(H), "--no-kiwi-precheck")
        plan += [
            Request(("jumps",) + opts + lits, _jumps_check(jumps)),
            Request(("leaves",) + opts + lits, _leaves_check(jumps)),
            Request(("render",) + opts + lits, _render_check(jumps, H)),
            Request(("verify",) + opts + lits, _verify_check(oracle)),
        ]
    return plan


WORKLOADS = {
    "cluster-verify": cluster_verify,
    "cluster-collection": cluster_collection,
    "stream-orbit": stream_orbit,
    "jump-session": jump_session,
}
