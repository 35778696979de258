"""Print a digest of the ratio certificates for a fixed set of runs.

Every certificate that `thurston._certificates` forms during the runs is
recorded, and each run prints one line: its label, the number of
certificates and a SHA-256 over them.  A certificate enters as the repr of
its sup_ratio, its witness, family_size, skipped and exact_flag, so two
trees print the same line only when every certificate matches bit for bit.
A run that raises prints the exception's type and message instead.  The
last line digests all runs.  Compare two trees with `diff`:

    python3 tools/cert_digest.py --src /path/to/old/src > old.txt
    python3 tools/cert_digest.py > new.txt
    diff old.txt new.txt

The runs are `ratio_sup` with the stretched pants curve designated, over
the classes of up to 5 letters, on each of 4 seeded noisy pairs from each
of 8 base points (thick, pinched and twisted ones, and three drawn as the
benchmark's `spectrum` workload draws them), then criterion 9 (twenty
noisy pairs and the inadmissible slope) and criterion 10 (the 5-point
grid), with the seeds and families of tests/test_acceptance.py.  About
3 s on a 2-core x86-64 machine, with the single trace kernel as with the
80-digit fold it replaced (5 s before the integer screen fold).  Only
the standard library and the package under --src are imported.
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


def fields(cert):
    return repr((cert.sup_ratio, cert.witness, cert.family_size,
                 cert.skipped, cert.exact_flag))


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
    from teichlab import curves, surface, thurston

    recorded = []
    certificates = thurston._certificates

    def recording(*call):
        certs = certificates(*call)
        recorded.extend(certs)
        return certs

    thurston._certificates = recording
    dec = surface.builtin_genus2_convenient()
    family4 = [c.word for c in curves.enumerate_conj_classes(2, 4)]
    runs = noisy_pairs(thurston, surface, dec,
                       curves.enumerate_conj_classes(2, 5))
    runs.append(("criterion 9", lambda: criterion_9(thurston, dec, family4)))
    runs.append(("criterion 10", lambda: thurston.linf_grid_check(
        CRITERION_BASE, 1.0, 1, 5, family4, dec)))
    whole = hashlib.sha256()
    for label, run in runs:
        del recorded[:]
        try:
            run()
        except Exception as exc:  # the message is part of the record
            line = "%s: %s" % (type(exc).__name__, exc)
        else:
            text = "\n".join(fields(c) for c in recorded)
            line = "%d certificates sha256 %s" % (
                len(recorded), hashlib.sha256(text.encode()).hexdigest())
        whole.update((label + line).encode())
        print("%-20s %s" % (label, line), flush=True)
    print("%-20s sha256 %s" % ("all", whole.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
