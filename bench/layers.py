"""The traced run: per-layer metrics measured from outside the package.

A traced run has four phases, in this order:

1. untraced passes for half of `--seconds` (the base of the overhead ratio);
2. as many traced passes, with spans on every timed layer;
3. fixed probes, still traced, so that every layer is measured on every
   workload, including the ROADMAP baseline (lift search on `c`, `cd`,
   `aB`, `aaac` at the thick reference, `curve_length` at pinching 1e-1
   and 1e-5, enumeration at L = 4, 5, 6);
4. one pass with only the `hyp2` call counters installed.

A metric is taken from the workload's own spans (phase 2) when the
workload reaches that layer, and from the probes otherwise.
"""

import json
import math
import os
import statistics

from spans import COUNTED_HYP2, CallCounter, SpanTracer

HERE = os.path.dirname(os.path.abspath(__file__))

BASELINE_CLASSES = ("c", "cd", "aB", "aaac")
BASELINE_PINCHINGS = (("p1e-1", 1e-1), ("p1e-5", 1e-5))

# what each per-layer metric should move: end-to-end metric and workload,
# and where the prediction is no change
PREDICTIONS = {
    "combinat.lift_search_s.thick": "lifts unit_p50_ms, unit_tail_ms, units_per_s; none on spectrum, construct",
    "combinat.lift_search_s.pinched": "lifts unit_p50_ms, unit_tail_ms, units_per_s; none on spectrum, construct",
    "combinat.rotate_ms": "lifts units_per_s (below 1% of the workload)",
    "combinat.distortion_self_s": "lifts units_per_s",
    "combinat.searches_per_class": "lifts units_per_s (a rotation cache lowers it)",
    "cones.decompose_projection_s": "lifts unit_tail_ms, units_per_s",
    "cones.verify_limit_cone_self_s": "spectrum units_per_s",
    "surface.curve_length_us": "spectrum units_per_s, unit_p50_ms; small on construct; none on lifts",
    "surface.curve_length_calls": "spectrum units_per_s",
    "surface.build_ms": "construct units_per_s, unit_p50_ms; small on spectrum; lifts setup_s",
    "curves.enumerate_s": "spectrum units_per_s; lifts setup_s (L4)",
    "thurston.ratio_sup_self_s": "spectrum units_per_s",
    "thurston.skipped_ratio": "spectrum fail_ratio (wasted work)",
    "thurston.verify_noisy_ms": "construct units_per_s, unit_p50_ms",
    "pants.hexagon_us": "construct units_per_s",
    "cylinder": "construct units_per_s",
    "hyp2": "lifts units_per_s (a float boundary map cuts mobius_boundary)",
    "trace.overhead_ratio": "none: the cost of tracing itself",
    "fail_ratio": "every workload; failed units are listed with inputs",
}


def prediction(name):
    """The longest PREDICTIONS key that prefixes the metric name."""
    keys = [k for k in PREDICTIONS if name == k or name.startswith(k + ".")]
    return PREDICTIONS[max(keys, key=len)] if keys else ""


class _CurveLengthCalls:
    """curve_length spans opened inside each completed unit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls = 0
        self.units = 0
        self._start = 0

    def begin(self):
        self._start = len(self.tracer.spans)

    def end(self, unit, ok):
        if unit and ok:
            self.units += 1
            self.calls += sum(
                1 for s in self.tracer.spans[self._start:]
                if s[0] == "surface.MarkedSurface.curve_length")


class _Hyp2PerUnit:
    """hyp2 calls made inside each completed unit."""

    def __init__(self, counter):
        self.counter = counter
        self.totals = dict.fromkeys(COUNTED_HYP2, 0)
        self.units = 0
        self._before = None

    def begin(self):
        self._before = self.counter.snapshot()

    def end(self, unit, ok):
        if unit and ok:
            self.units += 1
            for name, n in self.counter.snapshot().items():
                self.totals[name] += n - self._before[name]


def run_probes(lab, tracer):
    """Fixed inputs through every timed layer; labels select the baseline."""
    combinat, cones = lab.combinat, lab.cones
    thurston, cylinder, pants = lab.thurston, lab.cylinder, lab.pants
    for word in BASELINE_CLASSES:
        tracer.phase = "baseline.lift." + word
        combinat.intersection_sequence(lab.thick, word, 12)
    tracer.phase = "probe"
    pinched = lab.build([0.02, 0.03, 0.025])
    seq = combinat.intersection_sequence(pinched, "cd", 12)
    combinat.combinatorial_rotation(combinat.classify_and_rotate(seq))
    cones.decompose_projection([pinched], "cd")
    x = lab.build([1e-6, 5e-5, 1e-5])
    y = lab.build([1e-4, 1e-6, 2e-5])
    combinat.distortion_check(x, y, ["cd"], C=2.0)
    for max_len in (4, 5, 6):
        family = lab.curves.enumerate_conj_classes(2, max_len)
        if max_len == 5:
            family5 = [c.word for c in family]
    for label, length in BASELINE_PINCHINGS:
        surf = lab.build([length] * 3)
        tracer.phase = "baseline.cl." + label
        for word in family5:
            surf.curve_length(word)
    tracer.phase = "probe"
    spec = thurston.random_noisy_spec([-13.0, -12.5, -12.2], 1.0, 0,
                                      D=5.0, seed=20260823)
    x, y = lab.build_at(spec, 0.2), lab.build_at(spec, 0.7)
    thurston.ratio_sup(x, y, family5, x.curve_words[0], math.exp(0.5))
    rows = [[0.8, 0.1, 0.1], [0.15, 0.8, 0.05], [0.1, 0.2, 0.7]]
    cones.verify_limit_cone(
        [lab.build([1e-3 * rows[i][j] for i in range(3)]) for j in range(3)],
        family5)
    thurston.verify_noisy_geodesic(spec, lab.dec, [(0.2, 0.7)],
                                   family5[:20])
    pants.hexagon_data(pants.PantsShape(0.1, 0.2, 0.3))
    m = cylinder.ModelMap(0.1, math.acosh(10.0), 0.2, math.acosh(5.0))
    cylinder.sampled_lipschitz(m, 10_000, seed=1)
    cylinder.damping_profile(1e-4, 0.5, 1.0, n_samples=400, seed=1)
    cylinder.excursion_depth(1e-2, 10.0)
    cylinder.cusp_rotation_check(10_000, seed=1)


def _source(phase):
    return "workload" if phase == "workload" else "probe"


class _Samples:
    """Seconds per metric and source, source being 'workload' or 'probe'."""

    def __init__(self):
        self.values = {}

    def add(self, metric, phase, seconds):
        self.values.setdefault(metric, {}).setdefault(
            _source(phase), []).append(seconds)

    def median(self, metric):
        """(median in the metric's unit, n, source); the workload's own
        samples win.  The unit is the suffix of the name's second part."""
        unit = metric.split(".")[1].rsplit("_", 1)[1]
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        by_source = self.values[metric]
        source = "workload" if "workload" in by_source else "probe"
        vals = by_source[source]
        return statistics.median(vals) * scale, len(vals), source


def span_metrics(tracer, classes):
    """Per-layer values from the spans of phases 2 and 3."""
    own = tracer.self_times()
    samples = _Samples()
    skipped = {}
    searches = 0
    for i, (name, t0, t1, parent, phase, tag) in enumerate(tracer.spans):
        dur = t1 - t0
        if name == "surface.MarkedSurface.curve_length":
            length, lo, hi = tag
            bucket = "len1-2" if length <= 2 else "len%d" % length
            samples.add("surface.curve_length_us." + bucket, phase, own[i])
            if lo >= 0.1:
                samples.add("surface.curve_length_us.thick", phase, own[i])
            if hi <= 1e-4:
                samples.add("surface.curve_length_us.pinched", phase, own[i])
            if phase.startswith("baseline.cl.") and length <= 4:
                samples.add("surface.curve_length_us." + phase[12:], "probe",
                            own[i])
        elif name == "combinat.intersection_sequence":
            lo, hi = tag
            searches += phase == "workload"
            if lo >= 0.1:
                samples.add("combinat.lift_search_s.thick", phase, dur)
            elif hi <= 0.1:
                samples.add("combinat.lift_search_s.pinched", phase, dur)
            if phase.startswith("baseline.lift."):
                samples.add("combinat.lift_search_s.thick." + phase[14:],
                            "probe", dur)
        elif name == "curves.enumerate_conj_classes":
            # enumeration does not depend on the workload: pool all calls
            samples.add("curves.enumerate_s.L%d" % tag, "probe", dur)
        elif name == "cylinder.sampled_lipschitz":
            if parent < 0:   # not the short samples inside damping_profile
                samples.add("cylinder.lipschitz_ms", phase, dur * 1e4 / tag)
        elif name == "thurston.ratio_sup" and tag is not None:
            got = skipped.setdefault(_source(phase), [0, 0])
            got[0] += tag[0]
            got[1] += tag[1]
        if name in _SPAN_METRICS:
            metric, self_time = _SPAN_METRICS[name]
            samples.add(metric, phase, own[i] if self_time else dur)

    out = {metric: samples.median(metric) for metric in samples.values}
    source = "workload" if "workload" in skipped else "probe"
    got = skipped.get(source, [0, 0])
    out["thurston.skipped_ratio"] = (got[0] / got[1] if got[1] else 0.0,
                                     got[1], source)
    out["combinat.searches_per_class"] = (searches / classes if classes else 0.0,
                                          classes, "workload")
    return out


# span name -> (metric, whether the metric is self time or whole duration)
_SPAN_METRICS = {
    "combinat.classify_and_rotate": ("combinat.rotate_ms", False),
    "combinat.distortion_check": ("combinat.distortion_self_s", True),
    "cones.decompose_projection": ("cones.decompose_projection_s", False),
    "cones.verify_limit_cone": ("cones.verify_limit_cone_self_s", True),
    "surface.build_holonomy": ("surface.build_ms", False),
    "thurston.ratio_sup": ("thurston.ratio_sup_self_s", True),
    "thurston.verify_noisy_geodesic": ("thurston.verify_noisy_ms", False),
    "pants.hexagon_data": ("pants.hexagon_us", False),
    "cylinder.damping_profile": ("cylinder.damping_ms", False),
    "cylinder.excursion_depth": ("cylinder.excursion_us", False),
    "cylinder.cusp_rotation_check": ("cylinder.cusp_ms", False),
}


def traced_run(lab, runner, ops, half):
    """Phases 1-4, with `half` passes in each of phases 1 and 2; returns
    (passes, wall seconds, {metric: (value, n, source)})."""
    n0 = len(ops.latencies)
    passes_a, wall_a, _ = runner.run_passes(ops, half)
    untraced = (len(ops.latencies) - n0) / wall_a

    tracer = SpanTracer(lab.package)
    calls = _CurveLengthCalls(tracer)
    tracer.install()
    try:
        tracer.phase = "workload"
        ops.listeners.append(calls)
        n1 = len(ops.latencies)
        passes_b, wall_b, classes = runner.run_passes(ops, half)
        ops.listeners.remove(calls)
        traced = (len(ops.latencies) - n1) / wall_b
        run_probes(lab, tracer)
    finally:
        tracer.uninstall()

    counter = CallCounter(lab.package)
    per_unit = _Hyp2PerUnit(counter)
    counter.install()
    try:
        ops.listeners.append(per_unit)
        runner.run_pass(ops)
        ops.listeners.remove(per_unit)
    finally:
        counter.uninstall()

    metrics = span_metrics(tracer, classes)
    metrics["surface.curve_length_calls"] = (
        calls.calls / calls.units if calls.units else 0.0, calls.units,
        "workload")
    for name in COUNTED_HYP2:
        metrics["hyp2.%s.calls" % name] = (
            per_unit.totals[name] / per_unit.units if per_unit.units else 0.0,
            per_unit.units, "workload")
    metrics["trace.overhead_ratio"] = (traced / untraced, passes_b,
                                       "workload")
    metrics["fail_ratio"] = (ops.failed / ops.attempted, ops.attempted,
                             "workload")
    write_spans(tracer, runner)
    return passes_a + passes_b + 1, wall_a + wall_b, metrics


def write_spans(tracer, runner):
    """Spans as JSON lines: name, start, end, parent index, phase."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                        % (runner.workload.name, runner.seed))
    with open(path, "w") as f:
        for name, t0, t1, parent, phase, _tag in tracer.spans:
            f.write(json.dumps([name, t0, t1, parent, phase]) + "\n")
