"""Spans and call counters installed from outside the teichlab package.

Tracing rebinds module attributes (and two `MarkedSurface` methods) to
wrappers; nothing under `src/` is edited.  Every caller inside the package
reaches these functions through a module attribute or a module global, so
the wrappers also see the package's internal calls, and spans nest.

Two kinds of wrapper exist because their costs differ by orders of
magnitude: `SpanTracer` times calls into the layers (a few per unit, up to
~10^5 per second for `curve_length`), while `CallCounter` only counts the
`hyp2` primitives, which the lift search calls millions of times per class.
The two are never installed together, so counting never inflates a span.
"""

import inspect
import time

# layers timed by spans, by module name; `hyp2` is counted instead, and
# `constants` (data only) and `cli` (parsing and formatting) are not layers
TIMED_MODULES = ("curves", "surface", "pants", "cylinder", "combinat",
                 "thurston", "cones")

# helpers run once per letter, per enumerated prefix or per sampled point;
# a span each would multiply the span count of an enumeration by ~50 (and
# of a Lipschitz sample by ~40) while marking no layer boundary
UNTIMED = frozenset({
    "curves.canonical_cyclic_form", "curves.cyclic_reduce",
    "curves.word_to_text", "curves.word_from_text",
    "surface.parse_word", "surface.format_word",
    "cylinder.lift_point",
})

COUNTED_HYP2 = ("mobius_boundary", "translation_length", "axis_endpoints",
                "geodesics_link")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class _Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _span_tag(name, args, result):
    """Small derived attributes kept with a span instead of its arguments."""
    if name == "surface.MarkedSurface.curve_length":
        surf, word = args[0], args[1]
        return (len(word), min(surf.coords.lengths), max(surf.coords.lengths))
    if name == "combinat.intersection_sequence":
        lengths = args[0].coords.lengths
        return (min(lengths), max(lengths))
    if name == "curves.enumerate_conj_classes":
        return args[1]
    if name == "cylinder.sampled_lipschitz":
        return args[1]
    if name == "thurston.ratio_sup" and result is not None:
        return (result.skipped, result.skipped + result.family_size)
    return None


class SpanTracer:
    """Records (name, start, end, parent, phase, tag) spans in memory.

    `parent` is the index of the enclosing span or -1; `phase` is whatever
    label the caller set last (workload passes, fixed probes).
    """

    def __init__(self, package):
        self.spans = []
        self.phase = None
        self._stack = []
        self._patches = _Patches()
        self._package = package

    def install(self):
        for modname in TIMED_MODULES:
            module = getattr(self._package, modname)
            for name, fn in list(_public_functions(module)):
                qual = "%s.%s" % (modname, name)
                if qual not in UNTIMED:
                    self._patches.set(module, name, self._wrap(qual, fn))
        marked = self._package.surface.MarkedSurface
        for name in ("curve_length", "holonomy"):
            self._patches.set(marked, name, self._wrap(
                "surface.MarkedSurface." + name, marked.__dict__[name]))

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, qual, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (qual, t0, t1, parent, tracer.phase,
                                _span_tag(qual, args, result))

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Per span: duration minus the time covered by its child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own


class CallCounter:
    """Counts calls into the hot `hyp2` primitives; no clock is read."""

    def __init__(self, package):
        self.counts = dict.fromkeys(COUNTED_HYP2, 0)
        self._patches = _Patches()
        self._hyp2 = package.hyp2

    def install(self):
        for name in COUNTED_HYP2:
            self._patches.set(self._hyp2, name,
                              self._wrap(name, getattr(self._hyp2, name)))

    def uninstall(self):
        self._patches.undo()

    def snapshot(self):
        return dict(self.counts)

    def _wrap(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted
