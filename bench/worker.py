"""One benchmark worker: a fresh, single-threaded process per workload.

`run.py` starts this file and reads the JSON record it prints on stdout.
Set-up runs from the spawn of this process to the start of its first pass:
importing teichlab and mpmath, the builtin decomposition, the thick
reference surface and each workload's own preparation.

A *pass* is one full experiment set drawn from (workload, seed, pass
index); no two passes share inputs.  Passes run whole, so every piece of
work in a pass counts in the wall time that `units_per_s` divides by.
A run does a fixed number of passes, sized from --seconds and the
workload's PASS_S, so that the work it does, and which units fail, does
not depend on how fast the host happens to be.
Every operation is checked: a unit that raises, or whose output fails its
check, is recorded with its inputs and exception and counted as failed.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

DEFAULT_SEED = 0
# unit_tail_ms needs 10 samples above it; 20 keeps it at or above the
# median.  A 50 s lifts run completes 20 to 24 units, so there it lands at
# the 50th to 58th percentile and says little more than unit_p50_ms.
MIN_UNITS = 20
REFERENCE_LENGTHS = [0.7, 0.8, 0.9]


class CheckFailed(Exception):
    """A unit completed but its output is wrong."""


class InvarianceViolated(CheckFailed):
    """Criterion 7: two untwisted surfaces gave one class different
    rotation maps."""


# Known defects at the parent commit, each recognised by its signature: the
# exception class, its message and the inputs it occurs on.  A failure that
# matches one counts in `failed` and prints, but leaves `correct` alone; any
# other raise or wrong output makes the run incorrect.
#
# build_holonomy raises Hyp2Error "geodesic needs distinct endpoints" when a
# cuff is below about 2e-6 (a float view in PantsGeometry); no surface with
# every cuff at or above TINY_CUFF has raised it.
TINY_CUFF = 3e-6
TINY_CUFF_ERROR = ("Hyp2Error", "geodesic needs distinct endpoints")
# The next two signatures come from running every class of the lifts pool
# on the thick reference and on ten pinched untwisted surfaces (the three of
# criterion 7 and seven drawn from [0.012, 0.04]), and from benchmark runs.
# Both defects depend on the surface, and a list of the classes seen failing
# missed some later seen in benchmark runs, so they are matched by the form
# of the class.
#
# the lift search's own cross-checks, seen only on classes of length 4
# (abdB, abdd, acbc, aCbc), each on few of the surfaces tried
LIFT_SEARCH_ERRORS = (
    "counting-rule pair missed by the lift census",
    "inconsistent seam orientations at a crossing",
    "lift search unstable: increase search_depth",
)
# criterion 7: each of the 40 classes seen with another rotation map on a
# pinched surface than on the thick reference has two cyclically adjacent
# letters from these; 190 of the pool's 374 classes have them
NOT_INVARIANT_LETTERS = frozenset("cCdD")


def may_lose_invariance(word):
    """Whether word has the form of the classes that fail criterion 7."""
    return any(a in NOT_INVARIANT_LETTERS and b in NOT_INVARIANT_LETTERS
               for a, b in zip(word, word[1:] + word[:1]))


def known_defects(word=None, cuffs=()):
    """The known defects that an operation on these inputs can hit, as
    (exception class name, message or None for any message) pairs."""
    known = []
    if cuffs and min(cuffs) < TINY_CUFF:
        known.append(TINY_CUFF_ERROR)
    if word is not None and len(word) == 4:
        known.extend(("CombinatError", msg) for msg in LIFT_SEARCH_ERRORS)
    if word is not None and may_lose_invariance(word):
        known.append(("InvarianceViolated", None))
    return known


def expected_failure(exc, known):
    """Whether exc matches one of the `known` defect signatures."""
    return any(type(exc).__name__ == name and (msg is None or str(exc) == msg)
               for name, msg in known)


def _rng(workload, seed, index):
    # string seeding hashes with sha512, independent of PYTHONHASHSEED
    return random.Random("%s:%d:%d" % (workload, seed, index))


def _fmt_error(exc):
    return "%s: %s" % (type(exc).__name__, exc)


class Ops:
    """Attempted, failed and completed operations of one run.

    Units are the operations whose latency is reported; pass steps that
    are not units (the distortion census, the collar experiments) are
    checked and counted the same way but not timed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.failures = []
        self.listeners = []

    def run(self, kind, inputs, fn, check=None, unit=True, known=()):
        """Run fn() and check its output; `known` lists the defect
        signatures (known_defects) that these inputs may hit."""
        self.attempted += 1
        for lst in self.listeners:
            lst.begin()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # any raise is a failed unit; keep going
            for lst in self.listeners:
                lst.end(unit, False)
            self._fail(kind, inputs, exc, known)
            return None
        elapsed = time.perf_counter() - t0
        for lst in self.listeners:
            lst.end(unit, True)
        if check is not None:
            try:
                check(out)
            except CheckFailed as exc:
                self._fail(kind, inputs, exc, known)
                return None
        if unit:
            self.latencies.append(elapsed)
        return out

    def _fail(self, kind, inputs, exc, known):
        self.failed += 1
        self.failures.append({"kind": kind, "inputs": inputs,
                              "error": _fmt_error(exc),
                              "expected": expected_failure(exc, known)})


class Lab:
    """Set-up shared by all workloads: package, decomposition, reference."""

    def __init__(self):
        import teichlab
        from teichlab import (combinat, cones, curves, cylinder, pants,
                              surface, thurston)
        self.package = teichlab
        self.combinat, self.cones, self.curves = combinat, cones, curves
        self.cylinder, self.pants = cylinder, pants
        self.surface, self.thurston = surface, thurston
        self.dec = surface.builtin_genus2_convenient()
        self.thick = self.build(REFERENCE_LENGTHS)
        self.system = combinat.HexagonSystem(self.thick)

    def build(self, lengths, twists=None):
        return self.surface.build_holonomy(
            self.dec, self.surface.FNCoordinates(lengths, twists))

    def build_at(self, spec, t):
        """The surface at time t of a noisy path."""
        return self.surface.build_holonomy(
            self.dec, self.thurston.noisy_path_point(spec, t))

    def path_cuffs(self, spec, times):
        """The FN lengths of a noisy path at the given times."""
        return [c for t in times
                for c in self.thurston.noisy_path_point(spec, t).lengths]

    def check_fn_lengths(self, surf, rel=1e-9):
        """Criterion 2: pants curves reproduce the FN lengths."""
        for word, want in zip(surf.curve_words, surf.coords.lengths):
            got = surf.curve_length(word)
            if abs(got - want) > rel * want:
                raise CheckFailed("pants curve %s has length %r, FN %r"
                                  % (word, got, want))


# --- workloads ----------------------------------------------------------------

class Lifts:
    """Lift search, rotation and the reference-surface repeats of a class."""

    name = "lifts"
    # seconds one pass takes on the 2-vCPU host the benchmark was sized on
    PASS_S = 10.0

    def __init__(self, lab):
        self.lab = lab
        classes = lab.curves.enumerate_conj_classes(2, 4)
        self.pool = {n: [c.word for c in classes if len(c) == n
                         and not lab.system.excludes(c.word)]
                     for n in (2, 3, 4)}

    def draw(self, rng):
        word = rng.choice(self.pool[rng.choice((2, 3, 4))])
        return {
            "word": self.lab.curves.word_to_text(word),
            "pinched": [[rng.uniform(0.012, 0.04) for _ in range(3)]
                        for _ in range(3)],
            "x": [10.0 ** rng.uniform(-6.0, -4.0) for _ in range(3)],
            "y": [10.0 ** rng.uniform(-6.0, -4.0) for _ in range(3)],
        }

    def chain(self, surf, word):
        combinat = self.lab.combinat
        seq = combinat.intersection_sequence(surf, word, 12)
        data = combinat.classify_and_rotate(seq)
        return combinat.combinatorial_rotation(data)

    def run_pass(self, ops, inp):
        lab, word = self.lab, inp["word"]
        surfaces = [lab.build(lengths) for lengths in inp["pinched"]]
        # criterion 7: one rotation map for every untwisted surface.  The
        # thick reference's map, from the distortion census, is the one the
        # pinched maps must match; when X or Y cannot be built, the first
        # pinched map is.
        seen = {"reference": None, "pinched": [], "i_P": None}

        def distortion():
            x, y = lab.build(inp["x"]), lab.build(inp["y"])
            return lab.combinat.distortion_check(x, y, [word], C=2.0)

        def census_holds(rows):
            row = rows[0]
            seen["reference"], seen["i_P"] = row["rotation"], row["i_P"]
            # criterion 8: ratio within the bounds, crossing floor held
            floor = lab.package.constants.B_NONROT * row["i_P"]
            if (not row["bound_lo"] <= row["ratio"] <= row["bound_hi"]
                    or row["nonrot_X"] < floor):
                raise CheckFailed("ratio %r outside [%r, %r] or nonrot %r < %r"
                                  % (row["ratio"], row["bound_lo"],
                                     row["bound_hi"], row["nonrot_X"], floor))

        ops.run("distortion_check", {"word": word, "x": inp["x"],
                                     "y": inp["y"]},
                distortion, census_holds, unit=False,
                known=known_defects(word, inp["x"] + inp["y"]))
        reference = seen["reference"]

        def same_map(rot):
            seen["pinched"].append(rot)
            want = reference or seen["pinched"][0]
            if rot != want:
                raise InvarianceViolated("rotation map %r differs from %r"
                                         % (rot, want))

        for surf, lengths in zip(surfaces, inp["pinched"]):
            ops.run("lift_chain", {"word": word, "lengths": lengths},
                    lambda: self.chain(surf, word), same_map,
                    known=known_defects(word))

        def projections_match(out):
            want = reference or (seen["pinched"] or [None])[0]
            if want is None:
                raise CheckFailed("no rotation map to compare against")
            r_vec, l_vec = out
            for surf, r, rest in zip(surfaces, r_vec, l_vec):
                proj = sum(want[k] * surf.curve_length(surf.curve_words[k - 1])
                           for k in (1, 2, 3))
                total = surf.curve_length(word)
                if abs(r + rest - total) > 1e-12 * total:
                    raise CheckFailed("projection %r + rest %r != length %r"
                                      % (r, rest, total))
                if abs(r - proj) > 1e-12 * max(1.0, abs(proj)):
                    # decompose_projection rotates on the thick reference:
                    # against a pinched map, a mismatch is criterion 7's
                    error = CheckFailed if reference else InvarianceViolated
                    raise error("projection %r, expected %r from %r"
                                % (r, proj, want))

        out = ops.run("decompose_projection", {"word": word},
                      lambda: lab.cones.decompose_projection(surfaces, word),
                      projections_match, known=known_defects(word))
        seen["projection"] = None if out is None else ["%.10g" % r
                                                       for r in out[0]]
        return dict(seen, word=word, classes=1)


class Spectrum:
    """Family certificates: thousands of 80-digit traces per surface."""

    name = "spectrum"
    PASS_S = 12.0
    # per pass: this many ratio certificates and one cone certificate, so
    # that the slower cone units stay fewer than the 10 that the tail
    # percentile leaves above it.  Each certificate has its own noisy path,
    # so the known build failures are independent draws and their share
    # varies little between runs.
    RATIO_UNITS = 24

    def __init__(self, lab):
        self.lab = lab

    def draw(self, rng):
        paths = []
        for _ in range(self.RATIO_UNITS):
            t1 = rng.uniform(0.0, 0.9)
            paths.append({
                "base": [rng.uniform(-14.0, -12.0) for _ in range(3)],
                "stretched": rng.randrange(3),
                "noise_seed": rng.randrange(2 ** 31),
                "t1": t1, "t2": rng.uniform(t1 + 1e-3, 1.0),
            })
        return {
            "paths": paths,
            "rows": [[rng.uniform(0.7, 0.9) if i == j
                      else rng.uniform(0.05, 0.2) for j in range(3)]
                     for i in range(3)],
        }

    def run_pass(self, ops, inp):
        lab = self.lab
        family = lab.curves.enumerate_conj_classes(2, 5)
        built, cuffs = [], []
        for path in inp["paths"]:
            spec = lab.thurston.random_noisy_spec(
                path["base"], 1.0, path["stretched"], D=5.0,
                seed=path["noise_seed"])
            cuffs.append(lab.path_cuffs(spec, (path["t1"], path["t2"])))
            try:
                built.append((lab.build_at(spec, path["t1"]),
                              lab.build_at(spec, path["t2"])))
            except Exception as exc:  # raised again, and counted, in its unit
                built.append(exc)
        cone_surfs = [lab.build([1e-3 * inp["rows"][i][j] for i in range(3)])
                      for j in range(3)]

        digest = {"ratio": [], "cone": None}
        for path, xy, lengths in zip(inp["paths"], built, cuffs):

            def certify(xy=xy, path=path):
                if isinstance(xy, Exception):
                    raise xy
                x, y = xy
                return lab.thurston.ratio_sup(
                    x, y, family, x.curve_words[path["stretched"]],
                    math.exp(path["t2"] - path["t1"]))

            def exact(cert, xy=xy, path=path):
                # criterion 9: the stretched pants curve attains e^(t2-t1),
                # no class beats it, and the witness realizes the sup
                x, y = xy
                expected = math.exp(path["t2"] - path["t1"])
                witness = y.curve_length(cert.witness) / x.curve_length(cert.witness)
                if (not cert.exact_flag
                        or cert.sup_ratio > expected * (1.0 + 1e-9)
                        or witness < cert.sup_ratio * (1.0 - 1e-12)):
                    raise CheckFailed("sup %r (exact %r), witness %s at %r, "
                                      "expected %r" % (cert.sup_ratio,
                                                       cert.exact_flag,
                                                       cert.witness, witness,
                                                       expected))
                for surf in xy:
                    lab.check_fn_lengths(surf)

            cert = ops.run("ratio_sup", path, certify, exact,
                           known=known_defects(cuffs=lengths))
            digest["ratio"].append(
                type(xy).__name__ if isinstance(xy, Exception)
                else None if cert is None
                else lab.curves.word_to_text(cert.witness))

        def contained(report):
            # criterion 11: every ray inside, every vertex attained
            if report["containment_rate"] != 1.0 or not report["vertex_attained"]:
                raise CheckFailed("containment %r, vertices attained %r"
                                  % (report["containment_rate"],
                                     report["vertex_attained"]))
            for surf in cone_surfs:
                lab.check_fn_lengths(surf)

        report = ops.run("verify_limit_cone", {"rows": inp["rows"]},
                         lambda: lab.cones.verify_limit_cone(cone_surfs, family),
                         contained)
        if report is not None:
            digest["cone"] = [report["containment_rate"],
                              report["vertex_witnesses"], report["worst_word"]]
        return {"digest": digest, "classes": 0}


class Construct:
    """Many surfaces with few words each, plus the collar and pants layers."""

    name = "construct"
    PASS_S = 0.5
    PAIRS = 16
    MAPS = 2
    SHAPES = 8

    def __init__(self, lab):
        self.lab = lab
        self.family = [c.word for c in lab.curves.enumerate_conj_classes(2, 2)]

    def draw(self, rng):
        pairs = []
        for _ in range(self.PAIRS):
            t1 = rng.uniform(0.0, 0.9)
            pairs.append((t1, rng.uniform(t1 + 1e-3, 1.0)))
        maps = []
        for _ in range(self.MAPS):
            # criterion 3's shape; a1 <= 0.35 keeps a2 < 1 = delta*
            a1 = rng.uniform(0.05, 0.35)
            maps.append((a1, a1 * math.exp(rng.uniform(0.05, 1.0)),
                         rng.randrange(2 ** 31)))
        return {
            "base": [rng.uniform(-13.0, -12.0) for _ in range(3)],
            "stretched": rng.randrange(3),
            "noise_seed": rng.randrange(2 ** 31),
            "pairs": pairs,
            "maps": maps,
            "damping": (10.0 ** rng.uniform(-5.0, -3.0),
                        rng.uniform(0.25, 1.0), rng.randrange(2 ** 31)),
            "excursion": (10.0 ** rng.uniform(-3.0, -2.0),
                          10.0 ** rng.uniform(0.0, 4.0)),
            "cusp_seed": rng.randrange(2 ** 31),
            "shapes": [[rng.uniform(0.05, 0.45) for _ in range(3)]
                       for _ in range(self.SHAPES)],
        }

    def run_pass(self, ops, inp):
        lab, cylinder = self.lab, self.lab.cylinder
        spec = lab.thurston.random_noisy_spec(
            inp["base"], 1.0, inp["stretched"], D=5.0, seed=inp["noise_seed"])
        digest = {"pairs": []}

        def passed(report):
            if not report["passed"]:
                raise CheckFailed("counterexamples %r" % report["counterexamples"])

        for pair in inp["pairs"]:
            report = ops.run(
                "verify_noisy_geodesic",
                {"base": inp["base"], "stretched": inp["stretched"],
                 "noise_seed": inp["noise_seed"], "pair": pair},
                lambda: lab.thurston.verify_noisy_geodesic(
                    spec, lab.dec, [pair], self.family),
                passed, known=known_defects(cuffs=lab.path_cuffs(spec, pair)))
            digest["pairs"].append(None if report is None
                                   else report["pairs"][0]["sup_witness"])

        for a1, a2, seed in inp["maps"]:
            m = cylinder.ModelMap(a1, math.acosh(1.0 / a1),
                                  a2, math.acosh(1.0 / a2))

            def optimal(rep, m=m):
                # criterion 3: the sampled sup never beats the theory
                if rep.sampled_sup > m.theoretical * (1.0 + 1e-6):
                    raise CheckFailed("sampled sup %r > theoretical %r"
                                      % (rep.sampled_sup, m.theoretical))

            ops.run("sampled_lipschitz", {"a1": a1, "a2": a2, "seed": seed},
                    lambda: cylinder.sampled_lipschitz(m, 10_000, seed=seed),
                    optimal, unit=False)

        a, t, seed = inp["damping"]

        def below_exact(val):
            bound = math.log(cylinder.damping_restriction_constant(a, t, 1.0))
            if not 0.0 < val <= bound * (1.0 + 1e-9):
                raise CheckFailed("log-Lipschitz %r outside (0, %r]"
                                  % (val, bound))

        ops.run("damping_profile", {"a": a, "t": t, "seed": seed},
                lambda: cylinder.damping_profile(a, t, 1.0, n_samples=400,
                                                 seed=seed),
                below_exact, unit=False)

        a, t = inp["excursion"]

        def monotone(depths):
            big_r = math.acosh(1.0 / a)
            if not 0.0 <= depths[0] <= depths[1] <= big_r:
                raise CheckFailed("depths %r not monotone within [0, %r]"
                                  % (depths, big_r))

        ops.run("excursion_depth", {"a": a, "t": t},
                lambda: (cylinder.excursion_depth(a, t),
                         cylinder.excursion_depth(a, 2.0 * t)),
                monotone, unit=False)

        def within_bound(best):
            if best > lab.package.constants.CUSP_ROTATION_BOUND:
                raise CheckFailed("cusp rotation %r above the bound" % best)

        best = ops.run("cusp_rotation_check", {"seed": inp["cusp_seed"]},
                       lambda: cylinder.cusp_rotation_check(
                           10_000, seed=inp["cusp_seed"]),
                       within_bound, unit=False)
        digest["cusp"] = best

        for halves in inp["shapes"]:
            ops.run("hexagon_data", {"halves": halves},
                    lambda: lab.pants.hexagon_data(lab.pants.PantsShape(*halves)),
                    lambda data, h=halves: self.pentagons_close(h, data),
                    unit=False)
        return {"digest": digest, "classes": 0}

    def pentagons_close(self, halves, data):
        # criterion 1: each split satisfies the pentagon identities
        for i in range(3):
            a1, a2, a3 = halves[i], halves[(i + 1) % 3], halves[(i + 2) % 3]
            (a_k, a_l), t = data.splits[i], data.split_heights[i]
            add, r1, r2 = self.lab.pants.pentagon_residuals(a_k, a_l, t,
                                                            a1, a2, a3)
            if abs(add) > 1e-11 or max(abs(r1), abs(r2)) > 1e-10:
                raise CheckFailed("pentagon residuals %r on side %d"
                                  % ((add, r1, r2), i + 1))


WORKLOADS = {cls.name: cls for cls in (Lifts, Spectrum, Construct)}


# --- running passes -------------------------------------------------------------

class Runner:
    """Runs whole passes of one workload and keeps what the pass returned."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.next_pass = 0
        self.first_outputs = None

    def run_pass(self, ops):
        inp = self.workload.draw(_rng(self.workload.name, self.seed,
                                      self.next_pass))
        out = self.workload.run_pass(ops, inp)
        if self.next_pass == 0:
            self.first_outputs = out
        self.next_pass += 1
        return out

    def run_passes(self, ops, passes, min_units=0):
        """`passes` whole passes, then more until `min_units` units have
        completed or a pass completes none.  Which units fail depends only
        on their inputs, so the passes run, and `attempted` and `failed`,
        depend only on the workload, the seed and `passes`, not on the
        speed of the host.

        Returns (passes run, wall seconds, classes drawn).
        """
        start = time.perf_counter()
        done, classes, progress = 0, 0, True
        while done < passes or (len(ops.latencies) < min_units and progress):
            before = len(ops.latencies)
            classes += self.run_pass(ops).get("classes", 0)
            progress = len(ops.latencies) > before
            done += 1
        return done, time.perf_counter() - start, classes


def passes_for(workload, seconds):
    """Whole passes that take about `seconds` at the workload's PASS_S."""
    return max(1, round(seconds / workload.PASS_S))


def digest_of(outputs):
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(ops, runner):
    """At the default seed, pass 0 must reproduce the recorded outputs."""
    if runner.seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json")) as f:
        want = json.load(f).get(runner.workload.name)
    got = digest_of(runner.first_outputs)

    def same(_):
        if got != want:
            raise CheckFailed("pass-0 digest %s, recorded %s" % (got, want))

    ops.run("digest", {"seed": runner.seed, "pass": 0}, lambda: got, same,
            unit=False)
    return got


def env_facts():
    import platform

    import mpmath
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "TEICHLAB_THREADS": os.environ.get("TEICHLAB_THREADS"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    lab = Lab()
    workload = WORKLOADS[args.workload](lab)
    runner = Runner(workload, args.seed)
    setup_done = time.monotonic()
    record = {"setup_done": setup_done}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    record["env"] = env_facts()
    ops = Ops()
    if not args.trace:
        passes, wall, _ = runner.run_passes(
            ops, passes_for(workload, args.seconds), MIN_UNITS)
        record["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import layers
        passes, wall, record["layers"] = layers.traced_run(
            lab, runner, ops, passes_for(workload, args.seconds / 2.0))
    record["digest"] = check_digest(ops, runner)
    record.update({
        "passes": passes,
        "wall_s": wall,
        "latencies_s": ops.latencies,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "unexpected": sum(not f["expected"] for f in ops.failures),
        "failures": ops.failures,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
