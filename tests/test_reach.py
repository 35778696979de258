"""Every definition, stored attribute and defaulted parameter in the
package has a reader outside the tests, and every import has a reader in
its own file.

Live code is the module-level code of the package, any code under
`tools/` or `bench/`, and the body of a definition that is itself
reached.  Code inside an unreached definition reads nothing, so the walk
runs to a fixpoint and a chain of helpers that only its own tests call is
reported whole.  Each rule errs toward passing: a reader that builds a
name at run time goes unseen, but nothing is reported that live code
reads.

- A module-level `def` or `class` is reached only through its own name:
  when its own module loads the name where no enclosing function, lambda
  or comprehension binds it, when other live code loads it as an
  attribute of the module or of a name bound to the module
  (`surface_mod.x`, `lab.combinat.x`), when live code imports it, or
  when a string under `tools/` or `bench/` names it (the bench rebinds
  functions through `getattr`).  A parameter, a local or another
  object's attribute of the same name does not reach it.
- A definition nested in a function is reached when live code names it.
- A method (a non-dunder `def` in a class) is reached only when live code
  reads its name as an attribute, or a string under `tools/` or `bench/`
  names it; a local variable of the same name does not reach it.
- An attribute that a reached class stores (`self.x = ...`,
  `object.__setattr__(self, "x", ...)` or a `__slots__` entry) is read
  when live code loads `.x` outside a `__repr__`, or `getattr` or a
  string under `tools/` or `bench/` names it.
- A defaulted parameter of a reached module-level function or method is
  supplied when some live call of a callee of that name passes it by
  keyword, by position (one further for the bound first argument of a
  method), or through `*args` or `**kwargs`.  An `__init__` is called by
  its class name, and as `cls(...)` from its class's classmethods.
  Nested closures are skipped: their defaults capture values.

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
    "pants.seam_lengths": "oracle of the seam-word lengths in "
                          "test_seam_lengths_against_pants_oracle",
    "cylinder.ratio_residue_check":
        "checks spiral_residue, which `teichlab excursion` prints, across "
        "pinching",
}

# Stored and read only by tests, and kept because building them is part
# of a live path's outputs, or an open ROADMAP item reads them.
_ROTATION = "per-class rotation record that ROADMAP items 1 and 10 read"
KEPT_STATE = {
    "surface.PantsGeometry.axes":
        "the pants' one float view; building it raises the bench's known "
        "defect 1 below a cuff of about 2e-6, so deleting it changes "
        "outputs; ROADMAP item 4 deletes it when the bench digests are "
        "re-recorded",
    "surface.PantsGeometry._side_frames":
        "the 80-digit hexagon sides, which the pants-geometry tests check "
        "and ROADMAP item 1's wall walk numbers its sides by",
    "combinat.RotationData.crossing_flags": _ROTATION,
    "combinat.RotationData.internal_words": _ROTATION,
    "combinat.RotationData.leftover_pairs": _ROTATION,
    "combinat.RotationData.per_crossing":
        _ROTATION + "; its orientation check raises the bench's known "
        "defect 2, so deleting it changes the `lifts` outputs",
}

# Never set by live code, and kept for a planned reader.
KEPT_PARAMS = {
    "cones.decompose_projection(search_depth)":
        "ROADMAP item 2 deletes every search_depth together with the beam",
    "thurston.verify_noisy_geodesic(log_pinch)":
        "ROADMAP item 6's frontier tool passes it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCS + (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                    ast.GeneratorExp)


def _bound(scope):
    """Names a function, lambda or comprehension binds: its parameters or
    loop targets, and what its own body stores, defines or imports, less
    what it declares global or nonlocal."""
    if isinstance(scope, _FUNCS + (ast.Lambda,)):
        a = scope.args
        names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                 + [a.vararg, a.kwarg] if p}
        stack = ([scope.body] if isinstance(scope, ast.Lambda)
                 else list(scope.body))
    else:
        names, stack = set(), [g.target for g in scope.generators]
    declared = set()
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.alias):
            names.add(n.asname or n.name.split(".")[0])
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            declared.update(n.names)
        if isinstance(n, _DEFS):
            names.add(n.name)
        elif not isinstance(n, _SCOPES):
            stack.extend(ast.iter_child_nodes(n))
    return names - declared


def _modules(tree, stems):
    """Names a file can reach a package module through: each module's own
    name, and the aliases its imports bind to one."""
    out = {stem: stem for stem in stems}
    for n in ast.walk(tree):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for a in n.names:
                stem = a.name.split(".")[-1]
                if a.asname and stem in stems:
                    out[a.asname] = stem
    return out


class _Reads:
    """What a node reads: every identifier it names, the attributes it
    loads, the names given to `getattr`, its string constants, its calls
    as (callee, positional count, keywords, *args, **kwargs), and the
    module-level definitions it refers to as "module.name".

    A reference is a `Name` load in `module` that neither `bound` (the
    names of the enclosing scopes) nor a scope inside the node binds, an
    attribute loaded from a name in `modules` (see `_modules`), or a name
    imported from a package module.  Nested definitions are left to their
    own entries unless `whole`."""

    def __init__(self, node, whole=False, module=None, bound=frozenset(),
                 modules=None):
        modules = modules or {}
        self.idents, self.loads, self.getattrs = set(), set(), set()
        self.strings, self.calls, self.refs = set(), [], set()
        stack = [(node, bound)]
        while stack:
            n, b = stack.pop()
            if isinstance(n, _SCOPES):
                b = b | _bound(n)
            if isinstance(n, ast.Name):
                self.idents.add(n.id)
                if module and isinstance(n.ctx, ast.Load) and n.id not in b:
                    self.refs.add(module + "." + n.id)
            elif isinstance(n, ast.Attribute):
                self.idents.add(n.attr)
                if isinstance(n.ctx, ast.Load):
                    self.loads.add(n.attr)
                    base = getattr(n.value, "id", getattr(n.value, "attr",
                                                          None))
                    if base in modules:
                        self.refs.add(modules[base] + "." + n.attr)
            elif isinstance(n, ast.ImportFrom) and n.module:
                stem = n.module.split(".")[-1]
                if stem in modules.values():
                    self.refs.update(stem + "." + a.name for a in n.names)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                self.strings.update(
                    p for p in n.value.split(".") if p.isidentifier())
            elif isinstance(n, ast.Call):
                self._call(n)
            stack.extend((c, b) for c in ast.iter_child_nodes(n)
                         if whole or not isinstance(c, _DEFS))
        self.idents |= self.strings

    def _call(self, n):
        f = n.func
        callee = (f.id if isinstance(f, ast.Name)
                  else f.attr if isinstance(f, ast.Attribute) else None)
        if callee == "getattr" and len(n.args) > 1 and isinstance(
                n.args[1], ast.Constant):
            self.getattrs.add(n.args[1].value)
        if callee is not None:
            self.calls.append((
                callee,
                sum(not isinstance(a, ast.Starred) for a in n.args),
                {k.arg for k in n.keywords if k.arg},
                any(isinstance(a, ast.Starred) for a in n.args),
                any(k.arg is None for k in n.keywords)))


def _decorators(node):
    return {d.id for d in getattr(node, "decorator_list", ())
            if isinstance(d, ast.Name)}


class _Definition:
    def __init__(self, qualname, node, parent, modules):
        self.qualname = qualname
        self.name = node.name
        self.node = node
        self.parent = parent
        self.in_class = isinstance(getattr(parent, "node", None), ast.ClassDef)
        bound, d = set(), parent
        while d is not None:
            if isinstance(d.node, _FUNCS):
                bound |= _bound(d.node)
            d = d.parent
        self.reads = _Reads(node, module=qualname.split(".")[0], bound=bound,
                            modules=modules)
        if "classmethod" in _decorators(node) and self.in_class:
            # cls(...) in a classmethod calls its class's __init__
            self.reads.calls = [(parent.name if c[0] == "cls" else c[0],)
                                + c[1:] for c in self.reads.calls]

    @property
    def method(self):
        return (self.in_class and isinstance(self.node, _FUNCS)
                and not (self.name.startswith("__")
                         and self.name.endswith("__")))

    @property
    def closure(self):
        d = self.parent
        while d is not None:
            if isinstance(d.node, _FUNCS):
                return True
            d = d.parent
        return False


def _collect(node, prefix, parent, defs, modules):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            d = _Definition(prefix + child.name, child, parent, modules)
            defs.append(d)
            _collect(child, d.qualname + ".", d, defs, modules)


def _stored(cls):
    """Attribute names a class stores on its instances."""
    out = set()
    for stmt in cls.node.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets):
            out.update(e.value for e in ast.walk(stmt.value)
                       if isinstance(e, ast.Constant))
        if not (isinstance(stmt, _FUNCS) and stmt.args.args):
            continue
        me = stmt.args.args[0].arg
        for n in ast.walk(stmt):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == me):
                out.add(n.attr)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "__setattr__" and len(n.args) > 1
                  and isinstance(n.args[0], ast.Name) and n.args[0].id == me
                  and isinstance(n.args[1], ast.Constant)):
                out.add(n.args[1].value)
    return out


def _defaulted(d):
    """(parameter, call position or None) for each defaulted parameter."""
    a = d.node.args
    bound = d.in_class and "staticmethod" not in _decorators(d.node)
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i - bound) for i, p in enumerate(pos) if i >= first]
    out += [(p.arg, None) for p, v in zip(a.kwonlyargs, a.kw_defaults)
            if v is not None]
    return out


def analyse(package, outside, kept):
    """Run the rules on parsed modules.

    `package` maps module names to the trees whose definitions are
    checked, `outside` lists the trees of other live code, and `kept`
    names definitions that count as reached.  Returns the unreached
    outermost definitions, the unread attributes ("module.Class.attr")
    and the unsupplied parameters ("module.qualname(parameter)").
    """
    defs, live = [], []
    for stem, tree in sorted(package.items()):
        modules = _modules(tree, package)
        live.append(_Reads(tree, module=stem, modules=modules))
        _collect(tree, stem + ".", None, defs, modules)
    extern = [_Reads(tree, whole=True, modules=_modules(tree, package))
              for tree in outside]
    named = set().union(*(r.strings for r in extern))
    idents = set().union(*(r.idents for r in live + extern))
    attrs = set().union(*(r.loads for r in live + extern))
    refs = set().union(*(r.refs for r in live + extern))

    reached = {d for d in defs if d.qualname in kept}
    for d in reached:
        idents |= d.reads.idents
        attrs |= d.reads.loads
        refs |= d.reads.refs
    grew = True
    while grew:
        grew = False
        for d in defs:
            if d in reached or (d.parent and d.parent not in reached):
                continue
            if d.method:
                hit = d.name in attrs or d.name in named
            elif d.parent is None:
                hit = d.qualname in refs or d.name in named
            else:
                hit = (d.name.startswith("__") and d.name.endswith("__")
                       or d.name in idents)
            if hit:
                reached.add(d)
                idents |= d.reads.idents
                attrs |= d.reads.loads
                refs |= d.reads.refs
                grew = True
    unreached = [d.qualname for d in defs if d not in reached
                 and (d.parent is None or d.parent in reached)]

    reads = live + extern + [d.reads for d in reached]
    loads = named.union(*(r.getattrs for r in reads),
                        *(r.loads for r in live + extern),
                        *(d.reads.loads for d in reached
                          if d.name != "__repr__"))
    unread = [d.qualname + "." + attr for d in defs
              if d in reached and isinstance(d.node, ast.ClassDef)
              for attr in sorted(_stored(d)) if attr not in loads]

    calls = {}
    for r in reads:
        for c in r.calls:
            calls.setdefault(c[0], []).append(c[1:])
    unsupplied = []
    for d in defs:
        if (d not in reached or d.qualname in kept or d.closure
                or not isinstance(d.node, _FUNCS)):
            continue
        callee = d.parent.name if d.name == "__init__" else d.name
        for param, at in _defaulted(d):
            if not any(param in kw or dstar or (
                    at is not None and (star or npos > at))
                    for npos, kw, star, dstar in calls.get(callee, ())):
                unsupplied.append("%s(%s)" % (d.qualname, param))
    return unreached, unread, unsupplied


def _parse(path):
    return ast.parse(path.read_text(), str(path))


@functools.lru_cache(maxsize=None)
def _program():
    """The package's rule reports, with `KEPT` counted as reached."""
    package = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    outside = [_parse(p) for sub in ("tools", "bench")
               for p in sorted((ROOT / sub).glob("*.py"))]
    return (analyse(package, outside, KEPT),
            analyse(package, outside, {})[0])


def test_every_definition_has_a_reader():
    dead = _program()[0][0]
    assert not dead, "read only by tests: " + ", ".join(dead)


def test_every_stored_attribute_has_a_reader():
    unread = [a for a in _program()[0][1] if a not in KEPT_STATE]
    assert not unread, "stored and read only by tests: " + ", ".join(unread)


def test_every_defaulted_parameter_is_set():
    unset = [p for p in _program()[0][2] if p not in KEPT_PARAMS]
    assert not unset, "no live call sets: " + ", ".join(unset)


def unused_imports():
    """"file: name" for each name that a file imports and never reads."""
    out = []
    for sub in ("src", "tools", "tests"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            tree = _parse(path)
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
    # an entry that gains a live reader, or is deleted, leaves its dict
    (_, unread, unsupplied), unreached = _program()
    assert set(KEPT) <= set(unreached)
    assert set(KEPT_STATE) <= set(unread)
    assert set(KEPT_PARAMS) <= set(unsupplied)


_SAMPLE = '''
class Box:
    def __init__(self, size, scale=1, tag=None, spin=0):
        self.size = size * scale + spin
        self.tag = tag
        self.spare = 0

    @classmethod
    def unit(cls):
        return cls(1, 1)

    def volume(self):
        return self.size ** 3

    def label(self):
        return "box"


def measure(box, label=None):
    if label is None:
        label = box.volume()
    return label, getattr(box, "tag"), [area for area in (box.size,)]


def scale(box):
    return box


def volume(box):
    return box.size


def area(box):
    return box.size ** 2


print(measure(Box.unit(), 2), Box(2, tag="t"))
'''

# imports one definition of the sample and reads another as an attribute
_OTHER = '''
from . import sample as box_mod
from .sample import area

print(area(box_mod.Box(3)), box_mod.volume)
'''


def test_each_rule_reports_what_only_tests_read():
    # the method `label` is reached only through a local variable; the
    # functions `scale`, `volume` and `area` only through a parameter, a
    # method and a comprehension variable of their names, until another
    # module imports `area` and reads `volume` as the module's attribute;
    # `spare` is never loaded and no call sets `spin`; `scale` is set by
    # cls(1, 1), `tag` by keyword and read through getattr
    unreached, unread, unsupplied = analyse(
        {"sample": ast.parse(_SAMPLE)}, [], {})
    assert unreached == ["sample.Box.label", "sample.scale",
                         "sample.volume", "sample.area"]
    unreached, _, _ = analyse(
        {"sample": ast.parse(_SAMPLE), "other": ast.parse(_OTHER)}, [], {})
    assert unreached == ["sample.Box.label", "sample.scale"]
    assert unread == ["sample.Box.spare"]
    assert unsupplied == ["sample.Box.__init__(spin)"]


# --- no global mpmath state ------------------------------------------------------

_SCOPED_PRECISION = {"workdps", "workprec", "extradps", "extraprec"}


def global_mpmath_uses(files):
    """"file:line: use" for each place in the parsed files (file name ->
    tree) that could read or set mpmath's global context, in line order:
    a scoped precision change, an import of mpmath outside surface.py, a
    name other than libmp imported from it, or a use of the module other
    than the call that makes surface's private context,
    `mpmath.MPContext()`."""
    out = []
    for name, tree in files.items():
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            use = None
            if isinstance(node, ast.Import):
                if name != "surface.py" and any(
                        a.name.split(".")[0] == "mpmath" for a in node.names):
                    use = "import mpmath"
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                if (node.module or "").split(".")[0] == "mpmath" and (
                        name != "surface.py" or names != ["libmp"]):
                    use = "from mpmath import " + ", ".join(names)
            elif isinstance(node, ast.Name) and node.id == "mpmath":
                attr = getattr(parents[node], "attr", None)
                if attr != "MPContext" or not isinstance(
                        parents[parents[node]], ast.Call):
                    use = "mpmath" + ("." + attr if attr else "")
            else:
                use = getattr(node, "attr", None) or getattr(node, "id", None)
                if use not in _SCOPED_PRECISION:
                    use = None
            if use:
                out.append((name, node.lineno, use))
    return ["%s:%d: %s" % u for u in sorted(out)]


def test_numerics_read_no_global_mpmath_state():
    files = {p.name: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    uses = global_mpmath_uses(files)
    assert not uses, "global mpmath state: " + "; ".join(uses)


_GLOBAL_SAMPLE = '''
import mpmath
from mpmath import libmp, mp

_mp = mpmath.MPContext()
with _mp.workdps(30):
    x = mpmath.mpf(1) + _mp.mpf(2)
y = split(x, mpmath)
prec = mpmath.mp.prec
'''


def test_global_mpmath_rule_reports_each_use():
    # surface.py may import mpmath and libmp and make its context, and
    # nothing more; any other file may not import mpmath at all
    assert global_mpmath_uses({"surface.py": ast.parse(_GLOBAL_SAMPLE)}) == [
        "surface.py:3: from mpmath import libmp, mp",
        "surface.py:6: workdps",
        "surface.py:7: mpmath.mpf",
        "surface.py:8: mpmath",
        "surface.py:9: mpmath.mp",
    ]
    assert global_mpmath_uses({"other.py": ast.parse(
        "import mpmath\nfrom mpmath import libmp\n")}) == [
        "other.py:1: import mpmath",
        "other.py:2: from mpmath import libmp",
    ]
