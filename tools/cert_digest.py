"""Print a digest of the ratio certificates and cone verdicts of fixed runs.

Every certificate that `thurston._certificates` forms and every verdict
that `cones.verify_limit_cone` returns during the runs is recorded, and
each run prints one line: its label, the number of certificates and of
verdicts and a SHA-256 over them.  A certificate enters as the repr of its
sup_ratio, its witness, family_size, skipped and exact_flag, and a verdict
as the repr of its containment_rate, worst_word, worst_excess and
vertex_witnesses, so two trees print the same line only when every one
matches bit for bit.  A run that raises prints the exception's type and
message instead.  The last line digests all runs.  Compare two trees with
`diff`:

    python3 tools/cert_digest.py --src /path/to/old/src > old.txt
    python3 tools/cert_digest.py > new.txt
    diff old.txt new.txt

The runs are `ratio_sup` with the stretched pants curve designated, over
the classes of up to 5 letters, on each of 4 seeded noisy pairs from each
of 8 base points (thick, pinched and twisted ones, and three drawn as the
benchmark's `spectrum` workload draws them), then criterion 9 (twenty
noisy pairs and the inadmissible slope) and criterion 10 (the 5-point
grid), with the seeds and families of tests/test_acceptance.py.  Then
the cone checks: criterion 11's five calls, and a thin cone (rows
THIN_ROWS at 1e-2) with a twist T on curve 1 of its first factor only,
for each T in THIN_TWISTS at each tolerance in THIN_TOLERANCES, over the
classes of up to 5 letters.  Last, one line per base point, on the
surface at its lengths and twists, gives a SHA-256 over the repr of
`length_estimates` of the classes of up to 5 letters and one over
`_int_traces` of them at `surface._BITS` bits, so an estimate whose bits
move shows even where no certificate moves.  About 5 s on a 2-core
x86-64 machine.  Only the standard library and the package under --src
are imported.
"""

import argparse
import hashlib
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the seed of tests/test_acceptance.py, and criteria 9 and 10's base
CRITERION_SEED = 20260823
CRITERION_BASE = [-13.0, -12.5, -12.2]
PAIRS_PER_BASE = 4
# criterion 11's rows, and the thin cone that a twist in one factor breaks
CONE_ROWS = [[0.8, 0.1, 0.1], [0.15, 0.8, 0.05], [0.1, 0.2, 0.7]]
THIN_ROWS = [[1.0, 1.1, 1.0], [1.1, 1.0, 1.0], [1.0, 1.0, 1.1]]
THIN_TWISTS = (0.0, 1.0, 2.0, 3.0, 3.5, 8.0)
THIN_TOLERANCES = (1e-2, 1e-12, 0.0)


def base_points():
    """(label, log-lengths, twists) of the 8 base points."""
    points = [
        ("thick", [math.log(v) for v in (0.7, 0.8, 0.9)], None),
        ("pinched", [math.log(v) for v in (1e-5, 5e-5, 2e-5)], None),
        ("twisted", [math.log(v) for v in (0.7, 0.8, 0.9)],
         [0.3, -1.1, 2.0]),
        ("skew", [math.log(v) for v in (1e-3, 2e-4, 5e-4)],
         [0.5, 0.1, -0.4]),
        ("criterion9", list(CRITERION_BASE), None),
    ]
    rng = random.Random(24)
    for k in range(3):
        points.append(("drawn%d" % k,
                       [rng.uniform(-14.0, -12.0) for _ in range(3)], None))
    return points


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fields(cert):
    return repr((cert.sup_ratio, cert.witness, cert.family_size,
                 cert.skipped, cert.exact_flag))


def verdict_fields(report):
    return repr((report["containment_rate"], report["worst_word"],
                 report["worst_excess"], report["vertex_witnesses"]))


def factors(surface, dec, rows, scale, twists=None, first_only=False):
    """One surface per column of rows * scale, with the twists on every
    factor or on the first one only."""
    return [surface.build_holonomy(dec, surface.FNCoordinates(
        [scale * row[j] for row in rows],
        twists if j == 0 or not first_only else None))
        for j in range(len(rows[0]))]


def cone_runs(cones, surface, dec, family):
    """(label, run) of criterion 11 and of each thin twisted cone."""

    def criterion_11():
        cones.verify_limit_cone(factors(surface, dec, CONE_ROWS, 1e-3),
                                family)
        cones.verify_limit_cone(factors(surface, dec, CONE_ROWS, 1e-3,
                                        [1.0, -0.8, 0.6]), family)
        for scale in (1e-2, 1e-3, 1e-4):
            cones.verify_limit_cone(factors(surface, dec, CONE_ROWS, scale),
                                    family)

    runs = [("criterion 11", criterion_11)]
    for twist in THIN_TWISTS:

        def thin(twist=twist):
            surfaces = factors(surface, dec, THIN_ROWS, 1e-2,
                               [twist, 0.0, 0.0], first_only=True)
            for tol in THIN_TOLERANCES:
                cones.verify_limit_cone(surfaces, family, tol)
        runs.append(("thin T=%g" % twist, thin))
    return runs


def noisy_pairs(thurston, surface, dec, family):
    """(label, run) of each seeded noisy pair from each base point."""
    runs = []
    for seed, (label, logs, twists) in enumerate(base_points()):
        rng = random.Random(seed)
        for k in range(PAIRS_PER_BASE):
            spec = thurston.random_noisy_spec(
                logs, 1.0, rng.randrange(3), D=5.0,
                seed=rng.randrange(2 ** 31), base_twists=twists)
            t1 = rng.uniform(0.0, 0.9)
            t2 = rng.uniform(t1 + 1e-3, 1.0)

            def run(spec=spec, t1=t1, t2=t2):
                x = surface.build_holonomy(
                    dec, thurston.noisy_path_point(spec, t1))
                y = surface.build_holonomy(
                    dec, thurston.noisy_path_point(spec, t2))
                thurston.ratio_sup(x, y, family,
                                   x.curve_words[spec.stretched_index],
                                   math.exp(t2 - t1))
            runs.append(("%s %d" % (label, k), run))
    return runs


def criterion_9(thurston, dec, family):
    spec = thurston.random_noisy_spec(CRITERION_BASE, 1.0, 0, D=5.0,
                                      seed=CRITERION_SEED)
    rng = random.Random(CRITERION_SEED + 9)
    pairs = []
    for _ in range(20):
        t1 = rng.uniform(0.0, 0.9)
        pairs.append((t1, rng.uniform(t1 + 1e-3, 1.0)))
    thurston.verify_noisy_geodesic(spec, dec, pairs, family)
    bad_f = thurston.PiecewiseLinearPath(1.0, [(0.0, 0.0), (1.5, 1.5)])
    bad = thurston.NoisyPathSpec(CRITERION_BASE, None, 1.0, 0, bad_f,
                                 thurston.PiecewiseLinearPath.zero(1.0, 3),
                                 enforce_slopes=False)
    thurston.verify_noisy_geodesic(bad, dec, [(0.0, 0.8)], family)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree whose teichlab package runs "
                             "(default: this repository's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from teichlab import cones, curves, surface, thurston

    recorded, verdicts = [], []
    certificates = thurston._certificates
    verify = cones.verify_limit_cone

    def recording(*call):
        certs = certificates(*call)
        recorded.extend(certs)
        return certs

    def recording_verdict(*call):
        report = verify(*call)
        verdicts.append(report)
        return report

    thurston._certificates = recording
    cones.verify_limit_cone = recording_verdict
    dec = surface.builtin_genus2_convenient()
    family4 = [c.word for c in curves.enumerate_conj_classes(2, 4)]
    family5 = curves.enumerate_conj_classes(2, 5)
    runs = noisy_pairs(thurston, surface, dec, family5)
    runs.append(("criterion 9", lambda: criterion_9(thurston, dec, family4)))
    runs.append(("criterion 10", lambda: thurston.linf_grid_check(
        CRITERION_BASE, 1.0, 1, 5, family4, dec)))
    runs += cone_runs(cones, surface, dec, family5)
    whole = hashlib.sha256()

    def emit(label, line):
        whole.update((label + line).encode())
        print("%-20s %s" % (label, line), flush=True)

    for label, run in runs:
        del recorded[:], verdicts[:]
        try:
            run()
        except Exception as exc:  # the message is part of the record
            line = "%s: %s" % (type(exc).__name__, exc)
        else:
            text = "\n".join([fields(c) for c in recorded]
                             + [verdict_fields(r) for r in verdicts])
            line = "%d certificates %d verdicts sha256 %s" % (
                len(recorded), len(verdicts), sha256(text))
        emit(label, line)
    words5 = [c.word for c in family5]
    for label, logs, twists in base_points():
        try:
            s = surface.build_holonomy(dec, surface.FNCoordinates(
                [math.exp(v) for v in logs], twists))
            line = "estimates sha256 %s traces sha256 %s" % (
                sha256(repr(s.length_estimates(words5))),
                sha256(repr(s._int_traces(words5, surface._BITS))))
        except Exception as exc:  # the message is part of the record
            line = "%s: %s" % (type(exc).__name__, exc)
        emit("fold " + label, line)
    print("%-20s sha256 %s" % ("all", whole.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
