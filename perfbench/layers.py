"""Per-layer spans and work counts, recorded from outside the package.

``Tracer.install`` replaces each traced function at every module attribute
of the package that refers to it (so calls from other layers, such as
``polywander.orbit.unlinked``, and calls inside the layer both go through
the wrapper), and ``Tracer.remove`` puts the originals back.  Nothing
under ``src/`` knows about tracing; the untraced run calls the package
unwrapped.

A span is (id, parent id, request id, name, start, end).  Self time is a
span's duration minus the time covered by its child spans.  The functions
called once per iterate or more often (compare and its helpers, up to ~10^5
calls a request, and Polygon construction) are only aggregated, not kept as
individual spans; they still count as children of the span that called them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

PACKAGE = "polywander"

# (module, function) pairs traced at their module attributes; names are
# "<module>.<function>".  HOT ones are aggregated only.
FUNCTIONS = (
    ("angles", "compare"),
    ("angles", "cmp_values"),
    ("angles", "parse_angle"),
    ("geometry", "unlinked"),
    ("geometry", "hole_profile"),
    ("geometry", "is_orientation_preserving"),
    ("orbit", "iterate_orbit"),
    ("orbit", "certify_wandering"),
    ("orbit", "find_burn_in"),
    ("orbit", "detect_jumps"),
    ("orbit", "track_critical_value"),
    ("recurrence", "verify_theorem1"),
    ("recurrence", "verify_collection_bound"),
    ("recurrence", "extract_jumping_leaves"),
    ("render", "render_svg"),
)
# (module, class, method) traced on the class itself.
METHODS = (
    ("angles", "Angle", "enclosure_bounds"),
    ("angles", "Approx", "__init__"),
    ("geometry", "Polygon", "__init__"),
)
HOT = {
    "angles.compare",
    "angles.cmp_values",
    "angles.Angle.enclosure_bounds",
    "angles.Approx.__init__",
    "geometry.Polygon.__init__",
}
REQUEST = "cli.main"


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # frames: [child time, span id, name, rungs]
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.request_id = None
        self.reset()

    def reset(self) -> None:
        """Start a new collection window (one pass over the request plan)."""
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []

    # -- recording

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [0.0, self._next_id, name, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, t0: float, t1: float, keep: bool):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[0]
        if frame[3]:
            self.counts[name + ".ladder_calls"] += 1
            self.counts[name + ".rungs"] += frame[3]
        if keep:
            self.spans.append(
                (frame[1], parent[1] if parent else None, self.request_id, name, t0, t1)
            )
        return parent

    def _wrap(self, name: str, fn):
        keep = name not in HOT
        enter, leave, clock = self._enter, self._exit, time.perf_counter
        on_return = _ON_RETURN.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            frame = enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = leave(frame, name, t0, clock(), keep)
            if on_return is not None:
                on_return(counts, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _ladder(self, fn):
        stack = self._stack

        def traced(budget):
            for k in fn(budget):
                if stack:
                    stack[-1][3] += 1
                yield k

        return traced

    def request(self, request_id, fn, *args):
        """Run one request as the root span ``cli.main``."""
        self.request_id = request_id
        frame = self._enter(REQUEST)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, REQUEST, t0, time.perf_counter(), True)

    # -- installation

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        targets = {}
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(modules[f"{PACKAGE}.{mod_name}"], fn_name)
            targets[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        angles = modules[f"{PACKAGE}.angles"]
        ladder = angles._precision_ladder
        targets[id(ladder)] = (ladder, self._ladder(ladder))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{mod_name}"], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", fn))

    def remove(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _certify_return(counts, cert, parent):
    if not cert.certified:
        counts["orbit.certify_wandering.records_before_failure"] += len(cert.records)


def _unlinked_return(counts, result, parent):
    # unlinked called straight from verify_collection_bound is its cross-pair loop
    if parent is not None and parent[2] == "recurrence.verify_collection_bound":
        counts["recurrence.verify_collection_bound.unlinked_calls"] += 1


_ON_RETURN = {
    "orbit.certify_wandering": _certify_return,
    "geometry.unlinked": _unlinked_return,
}
