"""Command-line front end: parsing, orchestration, JSON reports, SVG.
``jumps`` and ``leaves`` read a ``JumpAnalysis`` from ``--burn-in`` (or 0);
``verify`` finds burn-in when the option is not given and checks a given one
(exit 2 when a record from it on fails a burn-in condition).  A burn-in past
``--horizon`` exits 2, and the other commands refuse the option.

Exit codes: 0 = report produced (including inconclusive and not-certified
statuses), 2 = input error, 3 = precision exhausted, 4 = assertion breach
(including two candidate critical holes tied on remainder).  Reports are
JSON with sorted keys, written by ``_to_json`` byte for byte as
``json.dumps(sort_keys=True, indent=2)`` would; rationals are serialized
as "p/q" strings plus a non-authoritative 12-place decimal.  The objects of
rationals, enclosures and angles are leaves: each is rendered to text once,
by its kind's renderer, at the indentation where it sits.  ``orbit`` writes
its records in one loop that puts each size and vertex the same way.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache, partial
from math import gcd
from json.encoder import encode_basestring_ascii

from .angles import (
    Angle,
    Approx,
    REPORT_DIGITS,
    PrecisionBudget,
    Value,
    _dec12,
    format_angle,
    parse_angle,
)
from .errors import (
    AssertionBreach,
    CrossPairLinked,
    EnclosureTooWide,
    NoHoleExceeds1OverD,
    NonInjectiveAtStep,
    NotCertifiedWandering,
    NotInjectiveError,
    PreconditionError,
    TieUnresolvable,
    TooFewJumps,
    UnresolvedComparison,
)
from .geometry import HoleProfile, Polygon, _image_sort, _orientation, hole_profile
from .orbit import critical_hole_index, iterate_orbit, jump_gap_stats
from .recurrence import (
    JumpAnalysis,
    _check_epsilon,
    verify_collection_bound,
    verify_theorem1,
)
from .render import render_svg

__version__ = "0.1.0"
MAX_BINS = 2**20  # the report lists every omega bin: 1/MAX_BINS is the finest epsilon
MAX_ARCS = 2**16  # analyze lists the d - 1 witness arcs of a preserving polygon


# ---------------------------------------------------------------------------
# serialization


# A report leaf is ``partial(render, *args)``: ``_write_json`` calls it with
# the indentation where the leaf sits, and ``render`` puts the leaf's JSON text
# at that indentation, once.  There is one renderer per kind of leaf (ratio,
# bounds, angle); ``_put_size`` picks the one for a profile's size.


def _put_ratio(n: int, q: int, pad: str, put, tail: str = "") -> None:
    """Put the rational n/q (q > 0) at indentation ``pad``: "p/q" in lowest
    terms and its truncated 12-place decimal, then ``tail``, the JSON text
    of any further members."""
    g = gcd(n, q)
    _put_reduced(n // g, q // g, pad, put, tail)


def _put_reduced(n: int, q: int, pad: str, put, tail: str = "") -> None:
    """``_put_ratio`` of an n/q already in lowest terms: no gcd."""
    i = pad + "  "
    put(f'{{{i}"decimal_approx_12": "{_dec12(n, q)}",{i}"fraction": "{n}/{q}"{tail}{pad}}}')


def _put_bounds(lo: int, hi: int, den: int, pad: str, put, tail: str = "") -> None:
    """Put the int enclosure [lo/den, hi/den] and its midpoint at indentation
    ``pad``, then ``tail`` as ``_put_ratio``.  Truncation is monotone, so
    when lo's 12 places stay the same up to hi (lo's remainder plus the
    width stays below one unit of the 12th place), they are hi's and the
    midpoint's, from one pair of divisions."""
    whole, rest = divmod(lo, den)
    digits, rest = divmod(rest * 10**12, den)
    if 0 <= lo <= hi and rest + (hi - lo) * 10**12 < den:
        dlo = dhi = mid = f"{whole}.{digits:012d}"
    else:
        dlo, dhi = _dec12(lo, den), _dec12(hi, den)
        mid = dlo if dlo == dhi else _dec12(lo + hi, 2 * den)
    i, j, k = pad + "  ", pad + "    ", pad + "      "
    g, h = gcd(hi, den), gcd(lo, den)
    put(f'{{{i}"decimal_approx_12": "{mid}",{i}"enclosure": {{{j}"hi": {{'
        f'{k}"decimal_approx_12": "{dhi}",{k}"fraction": "{hi // g}/{den // g}"{j}}},'
        f'{j}"lo": {{{k}"decimal_approx_12": "{dlo}",'
        f'{k}"fraction": "{lo // h}/{den // h}"{j}}}{i}}}{tail}{pad}}}')


def _put_angle(a: Angle, lo: int, hi: int, den: int, pad: str, put) -> None:
    """Put an angle and its literal at indentation ``pad``: a rational as its
    ratio, which is its literal "n/q" (an ``Angle`` keeps it in lowest terms),
    a stream as its ``REPORT_DIGITS``-digit enclosure [lo/den, hi/den]."""
    if a.source is None:
        _put_reduced(a.n, a.q, pad, put, f',{pad}  "literal": "{a.n}/{a.q}"')
    else:
        literal = encode_basestring_ascii(format_angle(a))
        _put_bounds(lo, hi, den, pad, put, f',{pad}  "literal": {literal}')


def _put_size(p: HoleProfile, k: int, pad: str, put) -> None:
    """Put the profile's rank-k size: from its int bounds when they are
    exact, or from k* digits with k* the report's digit count (so its value
    would print the same); else from its value."""
    lo, hi, den = p.size_bounds(k)
    if lo == hi:
        _put_ratio(lo, den, pad, put)
    elif p.k == REPORT_DIGITS:
        _put_bounds(lo, hi, den, pad, put)
    else:
        _ser_value(p.size(k))(pad, put)


def _ser_ratio(n: int, q: int) -> partial:
    return partial(_put_ratio, n, q)


def _ser_fraction(fr: Fraction) -> partial:
    return _ser_ratio(fr.numerator, fr.denominator)


def _ser_bounds(lo: int, hi: int, den: int) -> partial:
    return partial(_put_bounds, lo, hi, den)


def _ser_angle(a: Angle, bounds: tuple[int, int, int]) -> partial:
    """An angle; ``bounds`` (lo, hi, den) is a stream's enclosure."""
    return partial(_put_angle, a, *bounds)


def _ser_vertices(P: Polygon) -> list[partial]:
    """P's vertices, each stream one's enclosure from the polygon's bounds."""
    bounds, D = P._bounds(REPORT_DIGITS)
    return [_ser_angle(v, (lo, hi, D)) for v, (lo, hi) in zip(P.vertices, bounds)]


def _ser_size(p: HoleProfile, k: int) -> partial:
    return partial(_put_size, p, k)


def _ser_value(v: Value) -> partial:
    if isinstance(v, Approx):
        return _ser_bounds(*v.interval(REPORT_DIGITS))
    return _ser_ratio(v.numerator, v.denominator)


def _ser_arc(arc) -> dict:
    """An arc whose ends no polygon carries, from their enclosures."""
    s, e = arc.start, arc.end
    return {"start": _ser_angle(s, s.interval(REPORT_DIGITS)),
            "end": _ser_angle(e, e.interval(REPORT_DIGITS))}


def _ser_iv(iv) -> dict:
    return {"lo": _ser_fraction(iv[0] % 1), "hi": _ser_fraction(iv[1] % 1)}


def _ser_certificate(cert) -> dict:
    return {
        "horizon": cert.horizon,
        "status": cert.status,
        "step": cert.step,
        "pair": list(cert.pair) if cert.pair else None,
        "s_trajectory": [
            _ser_size(r.profile, r.polygon.card - 2) for r in cert.records
        ],
    }


def _ser_jump(jr, records) -> dict:
    """A jump, its edge and image hole printed from its records' polygons."""
    den, rho = jr.strip.den, _ser_value(jr.strip.rho_value)
    rec, nxt = records[jr.index], records[jr.index + 1]
    c, p = rec.profile.order[jr.cr - 1], nxt.profile.order[jr.image_rank - 1]
    vs, ws = _ser_vertices(rec.polygon), _ser_vertices(nxt.polygon)

    def ser_range(lo: int, hi: int) -> dict:
        return {"lo": _ser_ratio(lo % den, den), "hi": _ser_ratio(hi % den, den)}

    return {
        "index": jr.index,
        "cr": jr.cr,
        "s_tilde_cr": rho,
        "edge": [vs[c], vs[(c + 1) % len(vs)]],
        "strip": {
            "j": jr.strip.j,
            "start_range": ser_range(*jr.strip.ranges[0]),
            "partner_range": ser_range(*jr.strip.ranges[1]),
            "rho_value": rho,
        },
        "image_hole": {"start": ws[p], "end": ws[(p + 1) % len(ws)]},
        "image_rank": jr.image_rank,
    }


def _ser_leaf(leaf) -> dict:
    return {
        "arcs": [_ser_iv(a) for a in leaf.arcs],
        "support": list(leaf.support),
        "value_arc": _ser_iv(leaf.value_arc),
    }


def _ser_evidence(ev) -> dict:
    if ev is None:
        return {"verdict": {"kind": "Unavailable"}, "note": "enclosure too wide"}
    v = {"kind": ev.verdict.kind}
    if ev.verdict.step is not None:
        v["step"] = ev.verdict.step
    if ev.verdict.bound is not None:
        v["bound"] = _ser_fraction(ev.verdict.bound)
    return {
        "verdict": v,
        "steps": len(ev.distance_series),
        "final_running_min": _ser_fraction(ev.running_min[-1]),
    }


def _ser_omega(o) -> dict:
    return {
        "resolution": _ser_fraction(o.resolution),
        "bins": [m for lo, hi in o.runs for m in range(lo, hi + 1)],
        "burn_in": o.burn_in,
        "horizon": o.horizon,
    }


def _to_json(x) -> str:
    """``json.dumps(x, sort_keys=True, indent=2)``, written in one direct
    pass.  (With ``indent``, ``json.dumps`` runs its pure-Python encoder,
    which takes about three times as long on an orbit report.)"""
    parts: list[str] = []
    _write_json(x, "\n", parts.append)
    return "".join(parts)


def _write_json(x, pad: str, put) -> None:
    """Put the JSON text of ``x`` at indentation ``pad``.  Only the value
    types a report holds are written: dicts with str keys, lists, leaves
    (``partial`` renderers), str, int, bool and None; anything else raises
    TypeError."""
    t = type(x)
    if t is partial:
        x(pad, put)
    elif t is str:
        put(encode_basestring_ascii(x))
    elif t is dict:
        if not x:
            put("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(x):
            put(sep)
            put(encode_basestring_ascii(key))  # TypeError unless key is a str
            put(": ")
            _write_json(x[key], inner, put)
            sep = "," + inner
        put(pad + "}")
    elif t is list:
        if not x:
            put("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for v in x:
            put(sep)
            if type(v) is partial:  # a leaf: one call fewer per size or vertex
                v(inner, put)
            else:
                _write_json(v, inner, put)
            sep = "," + inner
        put(pad + "]")
    elif x is None:
        put("null")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    else:
        raise TypeError(f"cannot write {t.__name__} into a report")


def _put_records(orbit, pad: str, put) -> None:
    """Put ``orbit``'s records as the JSON list ``_write_json`` would write
    at indentation ``pad``, in one loop: each record's keys in sorted order,
    each size and vertex put by its renderer where it sits."""
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    sep = "[" + i1
    for rec in orbit:
        P, p = rec.polygon, rec.profile
        verdict = "true" if rec.orientation.verdict else "false"
        put(f'{sep}{{{i2}"index": {rec.index},{i2}"orientation": {verdict},'
            f'{i2}"sizes_by_rank": [')
        sep = i3
        for k in range(1, P.card + 1):
            put(sep)
            _put_size(p, k, i3, put)
            sep = "," + i3
        put(f'{i2}],{i2}"vertices": [')
        bounds, D = P._bounds(REPORT_DIGITS)
        sep = i3
        for v, (lo, hi) in zip(P.vertices, bounds):
            put(sep)
            _put_angle(v, lo, hi, D, i3, put)
            sep = "," + i3
        put(f"{i2}]{i1}}}")
        sep = "," + i1
    put(pad + "]")


# ---------------------------------------------------------------------------
# argument handling


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polywander",
        description="Exact analysis of finite point sets on the circle "
        "under the angle d-tupling map.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, horizon_default=0):
        p.add_argument("angles", nargs="*", help="angle literals")
        p.add_argument("--file", help="UTF-8 file, one polygon per line, "
                       "comma-separated angle literals")
        p.add_argument("--degree", "-d", type=int, default=2)
        p.add_argument("--horizon", type=int, default=horizon_default)
        p.add_argument("--epsilon", default="1/64",
                       help='resolution "1/2^r" or a power-of-two denominator')
        p.add_argument("--budget", type=int, default=4096)
        p.add_argument("--no-kiwi-precheck", action="store_true",
                       help="iterate even when card exceeds the degree")
        p.add_argument("--burn-in", type=int, default=None)
        p.add_argument("--seed", type=int, default=0,
                       help="echoed into the report for reproducibility")
        p.add_argument("--out", help="write the report here instead of stdout")

    for name, hd in (
        ("analyze", 0),
        ("orbit", 10),
        ("jumps", 10),
        ("leaves", 10),
        ("verify", 20),
        ("collection", 20),
        ("render", 0),
    ):
        common(sub.add_parser(name), hd)
    return parser


def _parse_epsilon(text: str) -> Fraction:
    text = text.strip()
    try:
        eps = Fraction(text) if "/" in text else Fraction(1, int(text))
    except (ValueError, ZeroDivisionError):
        eps = Fraction(0)  # a malformed value or zero denominator fails the check below
    if _check_epsilon(eps, text) > MAX_BINS:
        raise PreconditionError(f"epsilon must be at least 1/{MAX_BINS}, got {text!r}")
    return eps


def _input_polygons(args) -> list[list[Angle]]:
    """The angle literals as one polygon, or the polygons of ``--file``, one
    per line that is not blank or a ``#`` comment; never both."""
    if not args.file:
        return [[parse_angle(t) for t in args.angles]] if args.angles else []
    if args.angles:
        raise PreconditionError("give angle literals or --file, not both")
    with open(args.file, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    return [
        [parse_angle(tok) for tok in ln.split(",") if tok.strip()]
        for ln in lines
        if ln and not ln.startswith("#")
    ]


def _input_angles(args) -> list[Angle]:
    """The one input polygon's angles (none when there is no input)."""
    polys = _input_polygons(args)
    if len(polys) > 1:
        raise PreconditionError(
            f"--file holds {len(polys)} polygons; {args.command} takes one"
        )
    return polys[0] if polys else []


def _config_echo(args, eps: Fraction) -> dict:
    return {
        "degree": args.degree,
        "horizon": args.horizon,
        "epsilon": f"{eps.numerator}/{eps.denominator}",
        "budget": args.budget,
        "kiwi_precheck": not args.no_kiwi_precheck,
        "burn_in": args.burn_in,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(args, budget, eps):
    P = Polygon(_input_angles(args), budget)
    d = args.degree
    # profile before image sort (orbit's records sort first): where neither
    # decides within the budget, analyze names the floor and orbit the sort
    profile = hole_profile(P, d, budget)
    cert = _orientation(_image_sort(P, d, budget)[1], profile, d, budget)
    if cert.verdict and d - 1 > MAX_ARCS:
        raise PreconditionError(
            f"analyze lists d - 1 witness arcs: degree must be at most {MAX_ARCS + 1}")
    arcs, vertices, M = cert.witness_arcs, _ser_vertices(P), P.card
    sizes, rems = profile.sizes_cyclic, profile.remainders_cyclic  # each read builds all M
    ranks = {i: r for r, i in enumerate(profile.order, 1)}
    ends = [{"start": vertices[i], "end": vertices[(i + 1) % M]} for i in range(M)]
    cr = cr_reason = None
    try:
        rank = critical_hole_index(profile, d, budget)
        cr = {
            "rank": rank,
            "hole": ends[profile.order[rank - 1]],
            "remainder": _ser_value(profile.remainder(rank)),
        }
    except NoHoleExceeds1OverD:
        cr_reason = "no hole exceeds 1/d"
    except TieUnresolvable as exc:
        cr_reason = str(exc)
    return {
        "vertices": vertices,
        "holes": [
            {
                **ends[i],
                "size": _ser_value(sizes[i]),
                "remainder": _ser_value(rems[i]),
                "rank": ranks[i],
            }
            for i in range(M)
        ],
        "orientation": {
            "verdict": cert.verdict,
            "remainder_sum": _ser_value(cert.remainder_sum),
            "witness_arcs": None if arcs is None else [_ser_arc(a) for a in arcs],
        },
        "cr": cr,
        "cr_unavailable_reason": cr_reason,
    }


def _orbit_records(args, budget):
    P = Polygon(_input_angles(args), budget)
    return iterate_orbit(P, args.degree, args.horizon, budget)


def _cmd_orbit(args, budget, eps):
    return {"records": partial(_put_records, _orbit_records(args, budget))}


def _cmd_jumps(args, budget, eps):
    orbit = _orbit_records(args, budget)
    run = JumpAnalysis(orbit, args.degree, budget, args.burn_in or 0)
    log = run.jumps
    payload = {
        "jumps": [_ser_jump(j, orbit) for j in log.records],
        "gaps": list(log.gaps),
    }
    try:
        stats = jump_gap_stats(log)
        payload["gap_stats"] = {
            "tail_min": list(stats.tail_min),
            "nondecreasing": stats.nondecreasing,
        }
    except TooFewJumps:
        payload["gap_stats"] = None
    payload["traces"] = [
        {"jump_index": t.jump_index, "steps": [list(s) for s in t.steps]}
        for t in run.traces
    ]
    return payload


def _cmd_leaves(args, budget, eps):
    orbit = _orbit_records(args, budget)
    run = JumpAnalysis(orbit, args.degree, budget, args.burn_in or 0)
    return {"leaves": [_ser_leaf(l) for l in run.leaves]}


def _cmd_verify(args, budget, eps):
    P = Polygon(_input_angles(args), budget)
    rep = verify_theorem1(
        P,
        args.degree,
        args.horizon,
        eps,
        budget,
        kiwi_precheck=not args.no_kiwi_precheck,
        burn_in_override=args.burn_in,
    )
    return {
        "status": rep.status,
        "certificate": _ser_certificate(rep.certificate),
        "burn_in": rep.burn_in,
        "jump_indices": list(rep.jumps.indices) if rep.jumps else None,
        "leaves": [_ser_leaf(l) for l in rep.leaves],
        "leaf_count_ok": rep.leaf_count_ok,
        "disjointness": (
            {
                f"{a}-{b}": {"kind": s.kind, "i": s.i, "j": s.j}
                for (a, b), s in rep.disjointness.items()
            }
            if rep.disjointness is not None
            else None
        ),
        "recurrence": [_ser_evidence(e) for e in rep.recurrence],
        "omegas": [_ser_omega(o) for o in rep.omegas],
        "omega_consistent": rep.omega_consistent,
        "limit_leaves": [
            [_ser_fraction(p), _ser_fraction(q)] for p, q in rep.limit_leaves
        ],
        "limcoin_ok": rep.limcoin_ok,
        "notes": list(rep.notes),
    }


def _cmd_collection(args, budget, eps):
    polys = [Polygon(vs, budget) for vs in _input_polygons(args)]
    if not polys:
        raise PreconditionError("collection needs --file polygons or angle literals")
    try:
        rep = verify_collection_bound(
            polys,
            args.degree,
            args.horizon,
            eps,
            budget,
            kiwi_precheck=not args.no_kiwi_precheck,
        )
    except CrossPairLinked as exc:
        return {
            "status": "CrossPairLinked",
            "members": [exc.a_index, exc.b_index],
            "iterates": [exc.n, exc.m],
        }
    return {
        "status": "ConsistentWithBound" if rep.holds else "InconclusiveEvidence",
        "cards": list(rep.cards),
        "sigma": rep.sigma,
        "r_hat": rep.r_hat,
        "omega_hat": rep.omega_hat,
        "holds": rep.holds,
        "notes": list(rep.notes),
    }


_STAGES_ASSUME = (
    "; the jump stages assume a wandering orbit past burn-in, which verify checks"
)

_COMMANDS = {
    "analyze": _cmd_analyze,
    "orbit": _cmd_orbit,
    "jumps": _cmd_jumps,
    "leaves": _cmd_leaves,
    "verify": _cmd_verify,
    "collection": _cmd_collection,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    """Run one command with CPython's int<->str digit limit lifted, so that
    a report may print fractions of any length; the exit code."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a build without the limit
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        eps = _parse_epsilon(args.epsilon)
        if args.degree < 2:
            raise PreconditionError(f"degree must be >= 2, got {args.degree}")
        if args.horizon < 0:
            raise PreconditionError("horizon must be >= 0")
        if args.burn_in is not None:
            if args.command not in ("jumps", "leaves", "verify"):
                raise PreconditionError(f"--burn-in is not used by {args.command}")
            if args.burn_in < 0:
                raise PreconditionError("burn-in must be >= 0")
            if args.burn_in > args.horizon:  # no record would be checked
                raise PreconditionError(
                    f"burn-in {args.burn_in} exceeds horizon {args.horizon}"
                )
        budget = PrecisionBudget(max_digits=args.budget)
        if args.command == "render":
            svg = render_svg(
                _input_angles(args), args.degree, args.horizon, budget
            )
            _emit(svg, args.out)
            return 0
        try:
            payload = _COMMANDS[args.command](args, budget, eps)
        except NotCertifiedWandering as exc:  # a report, not an error
            payload = {
                "status": "NotCertifiedWandering",
                "certificate": _ser_certificate(exc.certificate),
            }
            if exc.member is not None:  # named by collection
                payload["member"] = exc.member
        report = {
            "version": __version__,
            "command": args.command,
            "config": _config_echo(args, eps),
            "payload": payload,
        }
        _emit(_to_json(report) + "\n", args.out)
        return 0
    except (ValueError, NotInjectiveError, NonInjectiveAtStep, OSError) as exc:
        # ValueError covers the syntax, base, chord and precondition errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnresolvedComparison, EnclosureTooWide) as exc:
        print(f"precision: {exc}", file=sys.stderr)
        return 3
    except (AssertionBreach, TieUnresolvable) as exc:
        # facts (a unique critical hole among them) that genuine wandering
        # inputs satisfy; jumps and leaves do not check that the input is one
        hint = _STAGES_ASSUME if args.command in ("jumps", "leaves") else ""
        print(f"assertion breach: {exc}{hint}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
