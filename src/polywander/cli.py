"""Command-line front end: parsing, orchestration, JSON reports, SVG.

Exit codes: 0 = report produced (including inconclusive and not-certified
statuses), 2 = input error, 3 = precision exhausted, 4 = assertion breach.
Reports are JSON with sorted keys; rationals are serialized as "p/q"
strings plus a non-authoritative 12-place decimal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .angles import (
    Angle,
    PrecisionBudget,
    Value,
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
from .geometry import Polygon, _check_injective, _orientation, hole_profile
from .orbit import (
    critical_hole_index,
    detect_jumps,
    iterate_orbit,
    jump_gap_stats,
    track_critical_value,
)
from .recurrence import (
    _check_epsilon,
    extract_jumping_leaves,
    verify_collection_bound,
    verify_theorem1,
)
from .render import render_svg

__version__ = "0.1.0"


# ---------------------------------------------------------------------------
# serialization


def _dec12(fr: Fraction) -> str:
    """Truncated 12-place decimal rendering; non-authoritative."""
    neg = fr < 0
    fr = abs(fr)
    whole = fr.numerator // fr.denominator
    rest = fr - whole
    digits = rest.numerator * 10**12 // rest.denominator
    return f"{'-' if neg else ''}{whole}.{str(digits).zfill(12)}"


def _ser_fraction(fr: Fraction) -> dict:
    return {
        "fraction": f"{fr.numerator}/{fr.denominator}",
        "decimal_approx_12": _dec12(fr),
    }


def _ser_bounds(lo: Fraction, hi: Fraction) -> dict:
    return {
        "enclosure": {"lo": _ser_fraction(lo), "hi": _ser_fraction(hi)},
        "decimal_approx_12": _dec12((lo + hi) / 2),
    }


def _ser_angle(a: Angle, k: int = 64) -> dict:
    if a.is_rational:
        out = _ser_fraction(a.value)
    else:
        out = _ser_bounds(*a.enclosure_bounds(k))
    out["literal"] = format_angle(a)
    return out


def _ser_value(v: Value, k: int = 64) -> dict:
    if isinstance(v, Fraction):
        return _ser_fraction(v)
    return _ser_bounds(*v.bounds(k))


def _ser_arc(arc) -> dict:
    return {"start": _ser_angle(arc.start), "end": _ser_angle(arc.end)}


def _ser_iv(iv) -> dict:
    return {"lo": _ser_fraction(iv[0] % 1), "hi": _ser_fraction(iv[1] % 1)}


def _ser_certificate(cert) -> dict:
    return {
        "horizon": cert.horizon,
        "status": cert.status,
        "step": cert.step,
        "pair": list(cert.pair) if cert.pair else None,
        "s_trajectory": [_ser_value(s) for s in cert.diagnostics],
    }


def _ser_jump(jr) -> dict:
    (slo, shi), (tlo, thi) = jr.strip.endpoint_arc_bounds()
    return {
        "index": jr.index,
        "cr": jr.cr,
        "s_tilde_cr": _ser_value(jr.s_tilde_cr),
        "edge": [_ser_angle(jr.edge.a), _ser_angle(jr.edge.b)],
        "strip": {
            "j": jr.strip.j,
            "start_range": _ser_iv((slo, shi)),
            "partner_range": _ser_iv((tlo, thi)),
            "rho_value": _ser_value(jr.strip.rho_value),
        },
        "image_hole": _ser_arc(jr.image_hole),
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
        "bins": sorted(o.bins),
        "burn_in": o.burn_in,
        "horizon": o.horizon,
    }


# ---------------------------------------------------------------------------
# argument handling


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
    except ZeroDivisionError:
        eps = Fraction(0)  # a zero denominator fails the check below
    _check_epsilon(eps, text)
    return eps


def _read_polygon_lines(path: str) -> list[list[Angle]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    out = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        out.append([parse_angle(tok) for tok in ln.split(",") if tok.strip()])
    return out


def _input_angles(args) -> list[Angle]:
    if args.angles:
        return [parse_angle(t) for t in args.angles]
    if args.file:
        polys = _read_polygon_lines(args.file)
        if polys:
            return polys[0]
    return []


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
    profile = hole_profile(P, d, budget)
    cert = _orientation(_check_injective(P, d, budget), profile, d, budget)
    cr = None
    cr_reason = None
    try:
        rank = critical_hole_index(profile, d, budget)
        h = profile.hole(rank)
        cr = {
            "rank": rank,
            "hole": _ser_arc(h),
            "remainder": _ser_value(profile.remainder(rank)),
        }
    except NoHoleExceeds1OverD:
        cr_reason = "no hole exceeds 1/d"
    except TieUnresolvable as exc:
        cr_reason = str(exc)
    return {
        "vertices": [_ser_angle(v) for v in P.vertices],
        "holes": [
            {
                "start": _ser_angle(h.start),
                "end": _ser_angle(h.end),
                "size": _ser_value(profile.sizes_cyclic[i]),
                "remainder": _ser_value(profile.remainders_cyclic[i]),
                "rank": profile.rank_of_cyclic(i),
            }
            for i, h in enumerate(profile.holes)
        ],
        "orientation": {
            "verdict": cert.verdict,
            "remainder_sum": _ser_value(cert.remainder_sum),
            "witness_arcs": (
                [_ser_arc(a) for a in cert.witness_arcs]
                if cert.witness_arcs is not None
                else None
            ),
        },
        "cr": cr,
        "cr_unavailable_reason": cr_reason,
    }


def _orbit_records(args, budget):
    P = Polygon(_input_angles(args), budget)
    return iterate_orbit(P, args.degree, args.horizon, budget)


def _cmd_orbit(args, budget, eps):
    orbit = _orbit_records(args, budget)
    return {
        "records": [
            {
                "index": rec.index,
                "vertices": [_ser_angle(v) for v in rec.polygon.vertices],
                "sizes_by_rank": [_ser_value(s) for s in rec.profile.sizes_by_rank()],
                "orientation": rec.orientation.verdict,
            }
            for rec in orbit
        ]
    }


def _jump_pipeline(args, budget):
    orbit = _orbit_records(args, budget)
    if args.burn_in is not None:
        orbit = [r for r in orbit if r.index >= args.burn_in]
    return orbit, detect_jumps(orbit, args.degree, budget)


def _cmd_jumps(args, budget, eps):
    orbit, log = _jump_pipeline(args, budget)
    payload = {
        "jumps": [_ser_jump(j) for j in log.records],
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
    try:
        traces = track_critical_value(log, orbit, args.degree, budget)
        payload["traces"] = [
            {"jump_index": t.jump_index, "steps": [list(s) for s in t.steps]}
            for t in traces
        ]
    except EnclosureTooWide as exc:
        payload["traces"] = None
        payload["trace_note"] = str(exc)
    return payload


def _cmd_leaves(args, budget, eps):
    _orbit, log = _jump_pipeline(args, budget)
    leaves = extract_jumping_leaves(log, args.degree)
    return {"leaves": [_ser_leaf(l) for l in leaves]}


def _cmd_verify(args, budget, eps):
    P = Polygon(_input_angles(args), budget)
    try:
        rep = verify_theorem1(
            P,
            args.degree,
            args.horizon,
            eps,
            budget,
            kiwi_precheck=not args.no_kiwi_precheck,
            burn_in_override=args.burn_in,
        )
    except NotCertifiedWandering as exc:
        return {
            "status": "NotCertifiedWandering",
            "certificate": _ser_certificate(exc.certificate),
        }
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
    if args.file:
        polys = [Polygon(vs, budget) for vs in _read_polygon_lines(args.file)]
    elif args.angles:
        polys = [Polygon(_input_angles(args), budget)]
    else:
        raise PreconditionError("collection needs --file or angle literals")
    try:
        rep = verify_collection_bound(
            polys,
            args.degree,
            args.horizon,
            eps,
            budget,
            kiwi_precheck=not args.no_kiwi_precheck,
        )
    except NotCertifiedWandering as exc:
        return {
            "status": "NotCertifiedWandering",
            "member": exc.member,
            "certificate": _ser_certificate(exc.certificate),
        }
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
    args = _build_parser().parse_args(argv)
    try:
        eps = _parse_epsilon(args.epsilon)
        if args.degree < 2:
            raise PreconditionError(f"degree must be >= 2, got {args.degree}")
        budget = PrecisionBudget(max_digits=args.budget)
        if args.command == "render":
            svg = render_svg(
                _input_angles(args), args.degree, args.horizon, budget
            )
            _emit(svg, args.out)
            return 0
        payload = _COMMANDS[args.command](args, budget, eps)
        report = {
            "version": __version__,
            "command": args.command,
            "config": _config_echo(args, eps),
            "payload": payload,
        }
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    except (ValueError, NotInjectiveError, NonInjectiveAtStep, OSError) as exc:
        # ValueError covers the syntax, base, chord and precondition errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnresolvedComparison, EnclosureTooWide) as exc:
        print(f"precision: {exc}", file=sys.stderr)
        return 3
    except AssertionBreach as exc:
        print(f"assertion breach: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
