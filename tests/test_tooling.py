"""Source checks: exactness (no floats outside SVG drawing) and a
stdlib-only runtime, read from the syntax trees of the package modules."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polywander"
MODULES = sorted(SRC.glob("*.py"))
FLOAT_OK = {"render.py"}  # floats there only place SVG coordinates


def test_package_modules_found():
    names = {p.name for p in MODULES}
    assert {"angles.py", "geometry.py", "orbit.py", "cli.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_outside_render(path):
    if path.name in FLOAT_OK:
        return
    hits = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert hits == [], f"{path.name}: float at lines {hits}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [
            n
            for n in names
            if n.split(".")[0] not in sys.stdlib_module_names
            and n.split(".")[0] != "polywander"
        ]
    assert outside == [], f"{path.name} imports {outside}"


PROFILE_INTERNALS = {"_sizes", "_rems", "nums", "enclosures", "size_num", "_vertices"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_geometry_reads_the_int_representation(path):
    """No module but ``geometry.py`` reads the int representation of a hole
    profile or polygon (``_sizes``, ``_rems``, ``nums``, ``enclosures``,
    ``size_num``, and ``_vertices``, whose rational slots a stream iterate
    leaves empty) or tests a ``.den`` against None, so whether a profile is
    exact is decided in one module, and only it reads a vertex tuple with
    empty slots."""
    if path.name == "geometry.py":
        return
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in PROFILE_INTERNALS:
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Attribute) and x.attr == "den"
            for x in [node.left, *node.comparators]
        ) and any(
            isinstance(x, ast.Constant) and x.value is None for x in node.comparators
        ):
            hits.append((node.lineno, "den"))
    assert hits == [], f"{path.name} reads {hits}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_angles_runs_the_precision_ladder(path):
    """No module but ``angles.py`` names ``_precision_ladder`` (imports,
    loads or reads it as an attribute): every refinement past the carried
    enclosures goes through ``angles.decide``, the one place that raises
    the ladder's UnresolvedComparison."""
    if path.name == "angles.py":
        return
    name = "_precision_ladder"
    hits = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    ]
    assert hits == [], f"{path.name} names {name} at lines {hits}"


def test_angles_builds_every_angle_in_one_constructor():
    """``angles.py`` calls no ``__new__`` and writes an ``Angle``'s slots
    (as attributes, or by ``setattr`` or ``object.__setattr__`` under any
    name it binds them to) only inside ``Angle.__init__``: every rational
    or stream angle comes from that one constructor, from reduced parts."""
    tree = ast.parse((SRC / "angles.py").read_text(encoding="utf-8"))
    angle = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Angle"
    )
    slots = next(
        ast.literal_eval(n.value)
        for n in angle.body
        if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "__slots__"
    )
    init = next(
        n for n in angle.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"
    )
    inside = set(map(id, ast.walk(init)))
    setters = {"setattr", "object.__setattr__"} | {
        ast.unparse(target)
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and ast.unparse(n.value) == "object.__setattr__"
        for target in n.targets
    }
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("__new__"):
            hits.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in setters:
            if id(node) not in inside:
                hits.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr in slots and id(node) not in inside:
                hits.append((node.lineno, node.attr))
    assert hits == [], f"angles.py builds or writes an Angle at {hits}"


def test_report_leaves_are_not_reindented():
    """``cli.py`` calls no ``replace``: each report leaf is rendered once, at
    the indentation where it sits, never rendered at one indentation and
    then moved to another by ``str.replace``."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    hits = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "replace"
    ]
    assert hits == [], f"cli.py reads .replace at lines {hits}"


MEMOS = {"cache", "lru_cache"}


def test_no_memo_outlives_a_request():
    """``functools.cache`` and ``lru_cache`` wrap nothing in the package but
    ``cli._build_parser``, whose parser is the same for every run.  The
    benchmark resends one plan in a closed loop, so a memo of values or of
    report text kept across requests would time lookups, not work."""
    hits = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if ast.unparse(dec).split(".")[-1] in MEMOS:
                        hits.append(f"{path.stem}.{node.name}")
                        decorators.add(id(dec))
        hits += [  # any other use: a call such as cache(f), functools.cache read
            f"{path.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in decorators
            and (isinstance(node, ast.Call) and ast.unparse(node.func) in MEMOS
                 or isinstance(node, ast.Attribute) and node.attr in MEMOS)
        ]
    assert hits == ["cli._build_parser"]


LAYERS_PY = SRC.parent.parent / "perfbench" / "layers.py"


def test_benchmark_tracer_installs_and_restores_every_patch():
    """The per-layer tracer of ``perfbench/layers.py`` (loaded read-only)
    finds every function and method it wraps, and ``remove`` puts each
    original back, so a rename in the package fails here and not first in
    a traced benchmark run."""
    import importlib.util

    import polywander  # noqa: F401  (imports every layer module)

    spec = importlib.util.spec_from_file_location("layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == layers.PACKAGE]
    classes = [
        getattr(sys.modules[f"{layers.PACKAGE}.{mod}"], cls)
        for mod, cls, _ in layers.METHODS
    ]
    owners = modules + classes
    before = [dict(vars(owner)) for owner in owners]

    tracer = layers.Tracer()
    tracer.install()
    try:
        patched = {
            (getattr(owner, "__name__", owner), attr)
            for owner, snap in zip(owners, before)
            for attr, value in vars(owner).items()
            if snap.get(attr) is not value
        }
    finally:
        tracer.remove()

    for mod, fn in layers.FUNCTIONS:
        assert (f"{layers.PACKAGE}.{mod}", fn) in patched
    assert (f"{layers.PACKAGE}.angles", "_precision_ladder") in patched
    for mod, cls, meth in layers.METHODS:
        assert (cls, meth) in patched
    for owner, snap in zip(owners, before):
        after = vars(owner)
        assert after.keys() == snap.keys()
        assert all(after[attr] is value for attr, value in snap.items()), owner


ROOT = SRC.parent.parent


def _uses(tree: ast.AST) -> Counter:
    """Names ``perfbench/`` uses, with their counts: names, attributes, and
    string constants (``perfbench/layers.py`` names what it patches in
    strings).  Imports and definitions are not uses."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def _src_uses(tree: ast.AST) -> tuple[Counter, Counter]:
    """Uses in ``src/``, with their counts: loaded names outside annotations,
    which use a module-level definition, and attributes, which use a method.
    A stored name, an annotation or a string that shares a definition's
    name (a dataclass field, a report key) is not a use."""
    annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, ast.FunctionDef) and node.returns:
            annotations.update(map(id, ast.walk(node.returns)))
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if id(node) not in annotations:
                names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function or class and of
    each method of those classes whose name is not a dunder."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if isinstance(meth, ast.FunctionDef) and not (
                    meth.name.startswith("__") and meth.name.endswith("__")
                ):
                    yield f"{node.name}.{meth.name}", meth


# Definitions that nothing in src/ or perfbench/ calls, kept as library API
# that the tests exercise.
TESTED_API = {
    "Angle.from_fraction": "the constructor of an angle from an exact rational",
    "rho": "the paper's rho metric; acceptance criterion 3 checks its laws",
    "omega_approx": "the omega-limit bins of one angle; acceptance criterion 10",
    "recurrence_evidence": "a leaf's recurrence series; acceptance criterion 8",
    "orbit_disjointness": "pairwise status of leaf value orbits, as verify grades it",
    "image_hole": "the arc (f(u), f(w)) of a hole; acceptance criterion 2",
    "Chord": "the chords `rho` takes; acceptance criterion 3",
}


def test_every_module_level_definition_is_used():
    """Each module-level function or class of the package, and each
    non-dunder method of those classes, is used in ``src/`` outside its own
    body (loaded by name, or as an attribute for a method) or in
    ``perfbench/``; the re-export from ``__init__`` does not count.  The
    only exceptions are the names in ``TESTED_API``, and each of those must
    still be defined."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    in_src = [sum(uses, Counter()) for uses in zip(*map(_src_uses, trees))]
    in_perfbench = Counter()
    for path in (ROOT / "perfbench").rglob("*.py"):
        in_perfbench += _uses(ast.parse(path.read_text(encoding="utf-8")))
    defined, unused = set(), []
    for tree in trees:
        for qualname, node in _definitions(tree):
            defined.add(qualname)
            kind = 1 if "." in qualname else 0  # a method's uses are attributes
            outside = in_src[kind][node.name] - _src_uses(node)[kind][node.name]
            if outside <= 0 and not in_perfbench[node.name]:
                unused.append(qualname)
    assert [name for name in unused if name not in TESTED_API] == []
    assert set(TESTED_API) <= defined


STAGE_FUNCTIONS = (
    "find_burn_in",
    "detect_jumps",
    "extract_jumping_leaves",
    "track_critical_value",
)


def _callers(name: str) -> set[str]:
    """Qualified names of the functions in ``src/`` that call ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == name) or (
                    isinstance(f, ast.Attribute) and f.attr == name
                ):
                    found.add(scope)
            visit(child, inner)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


@pytest.mark.parametrize("name", STAGE_FUNCTIONS)
def test_jump_stage_called_only_from_the_analysis(name):
    """Burn-in, jumps, leaves and traces are each run by one stage of
    ``recurrence.JumpAnalysis``; every other consumer reads the analysis."""
    callers = _callers(name)
    assert len(callers) == 1, callers
    assert callers.pop().startswith("recurrence.JumpAnalysis."), name


def test_every_orbit_step_is_one_geometry_step():
    """``orbit.py`` names none of ``_image_sort``, ``hole_profile`` or
    ``_orientation`` (imports, calls or reads them): each record comes from
    ``geometry.orbit_step``, which takes one int pass over a rational
    polygon's numerators."""
    names = {"_image_sort", "hole_profile", "_orientation"}
    hits = [
        (node.lineno, name)
        for node in ast.walk(ast.parse((SRC / "orbit.py").read_text(encoding="utf-8")))
        for name in [
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        ]
        if name in names
    ]
    assert hits == []
    assert _callers("orbit_step") >= {"orbit._records"}


def _function(path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


@pytest.mark.parametrize(
    "module, name", [("geometry.py", "_orientation"), ("orbit.py", "_jumped")]
)
def test_orientation_and_jumps_are_decided_on_ints(module, name):
    """``_orientation`` and ``_jumped`` take no precision budget and call
    none of ``cmp_values``, ``compare``, ``decide`` or ``floor_scaled``:
    orientation reads the landing and the floors, a jump the sizes' int
    bounds, a floor and an image rank."""
    fn = _function(SRC / module, name)
    assert "budget" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    called = {
        f.id if isinstance(f, ast.Name) else f.attr
        for node in ast.walk(fn) if isinstance(node, ast.Call)
        for f in [node.func] if isinstance(f, (ast.Name, ast.Attribute))
    }
    assert called.isdisjoint({"cmp_values", "compare", "decide", "floor_scaled"})


def test_no_remainder_sum_recheck_is_left():
    """``HoleProfile`` has no ``total`` field (the sizes' sum that only a
    remainder-sum re-check of orientation read), and nothing in ``src/``
    defines ``scale_value``."""
    geometry = ast.parse((SRC / "geometry.py").read_text(encoding="utf-8"))
    profile = next(
        n for n in geometry.body if isinstance(n, ast.ClassDef) and n.name == "HoleProfile"
    )
    fields = [n.target.id for n in profile.body if isinstance(n, ast.AnnAssign)]
    assert "order" in fields and "total" not in fields
    defined = [
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert "orbit_step" in defined and "scale_value" not in defined
