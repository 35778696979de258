"""Every definition in the package has a reader outside the tests, and
every import has a reader in its own file.

A `def` or `class` in `src/teichlab` is reached when live code names it:
module-level code of the package, any code under `tools/` or `bench/`, or
the body of a definition that is itself reached.  Code inside an
unreached definition reads nothing, so the walk runs to a fixpoint and a
chain of helpers that only its own tests call is reported whole.

Names are matched by identifier, as a `Name`, an attribute or a string
constant (the bench rebinds functions through `getattr`), so two
definitions that share a name are reached together.  That errs toward
passing: only a reader that builds a name at run time goes unseen.

An import under `src`, `tools` or `tests` is read when its file uses the
name it binds as a `Name` (the base of an attribute is one).
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teichlab"

# Read only by tests, and kept because a test uses them as the reference
# for a live path or as a fixture for one.  They count as reached, and so
# does what they call.
KEPT = {
    "hyp2.distance_to_line": "criterion 4's chord-depth oracle",
    "hyp2.point_on_line": "criterion 4's chord-depth oracle",
    "hyp2.map_zero_inf_to": "frames the lines of criterion 4's oracle",
    "hyp2.mobius_apply": "moves the points of criterion 4's oracle",
    "hyp2.translation_along_imaginary_axis":
        "builds the isometries of the axis_endpoints, translation_length "
        "and lift_of tests",
    "hyp2.rotation_at_i":
        "builds the isometries of the axis_endpoints, translation_length "
        "and lift_of tests",
    "hyp2.IsometryMatrix.approx_eq":
        "compares matrices in the relator assertions",
    "hyp2.distance": "oracle of cylinder._fermi_distance and of the "
                     "isometry-invariance tests",
    "cones.jordan_projection": "oracle of the decompose_projection tests",
    "cones.hl_membership": "oracle of the decompose_projection tests",
    "cones.ConeSpecL.log_ratio_max":
        "oracle of the decompose_projection tests",
    "cones.PolyCone.contains": "membership oracle of the cone tests",
    "pants.shorts_side_lengths_subtraction":
        "oracle of hexagon_data's shorts lengths",
    "cylinder.ratio_residue_check":
        "checks spiral_residue, which `teichlab excursion` prints, across "
        "pinching",
    "thurston.PiecewiseLinearPath.zero":
        "builds the noise-free paths of criterion 9 and the thurston tests",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Definition:
    def __init__(self, qualname, node, parent):
        self.qualname = qualname
        self.name = node.name
        self.parent = parent
        self.reads = _names(node)


def _names(node):
    """Identifiers a node reads, not descending into nested definitions."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(p for p in n.value.split(".") if p.isidentifier())
        stack.extend(c for c in ast.iter_child_nodes(n)
                     if not isinstance(c, _DEFS))
    return out


def _collect(node, prefix, parent, defs):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            d = _Definition(prefix + child.name, child, parent)
            defs.append(d)
            _collect(child, d.qualname + ".", d, defs)


@functools.lru_cache(maxsize=None)
def _program():
    """(definitions in the package, names read by code outside any def)."""
    defs, live = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        live |= _names(tree)
        _collect(tree, path.stem + ".", None, defs)
    for sub in ("tools", "bench"):
        for path in sorted((ROOT / sub).glob("*.py")):
            live |= _names(ast.parse(path.read_text(), str(path)))
    return defs, frozenset(live)


def unreached(kept):
    """Qualified names of the outermost definitions no live code reads."""
    defs, live = _program()
    live = set(live)
    reached = {d for d in defs if d.qualname in kept}
    for d in reached:
        live |= d.reads
    grew = True
    while grew:
        grew = False
        for d in defs:
            if d in reached or (d.parent and d.parent not in reached):
                continue
            dunder = d.name.startswith("__") and d.name.endswith("__")
            if dunder or d.name in live:
                reached.add(d)
                live |= d.reads
                grew = True
    return [d.qualname for d in defs
            if d not in reached and (d.parent is None or d.parent in reached)]


def test_every_definition_has_a_reader():
    dead = unreached(KEPT)
    assert not dead, "read only by tests: " + ", ".join(dead)


def unused_imports():
    """"file: name" for each name that a file imports and never reads."""
    out = []
    for sub in ("src", "tools", "tests"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            out.append("%s: %s" % (
                                path.relative_to(ROOT).as_posix(), name))
    return out


def test_every_import_is_read():
    unused = unused_imports()
    assert not unused, "imported and never read: " + ", ".join(unused)


def test_kept_names_are_read_only_by_tests():
    # a kept name that gains a live reader, or is deleted, leaves the dict
    assert set(KEPT) <= set(unreached({}))
