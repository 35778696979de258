"""Compare rotation maps on pinched surfaces with the thick reference's.

Rotation numbers do not depend on the untwisted surface, so a lift search
on any untwisted surface should return the map that the thick reference
(0.7 0.8 0.9) gives.  The tool draws 12 untwisted surfaces with cuffs
log-uniform in [2e-5, 3e-3] and 20 classes of up to 4 letters outside the
hexagon system, both from a fixed seed, and runs `rotation` (the lift
search, `classify_and_rotate` and `combinatorial_rotation`) for every
pair: 240 searches plus one per class on the reference.  Each line gives
the class, the cuffs and the outcome: `right` (the reference's map),
`wrong` (another map; the reference's follows) or `error` (the search
raised; the message follows).  A class whose reference search raises
marks its searches `noref`.  The last line has the totals, and after
them the errors split by defect: each message up to its first colon, with
its count, most frequent first.  Compare two trees with `diff`:

    python3 tools/rotation_sweep.py --src /path/to/old/src > old.txt
    python3 tools/rotation_sweep.py > new.txt
    diff old.txt new.txt

Only the standard library and the package under --src are imported.
"""

import argparse
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 20261018
N_SURFACES = 12
N_CLASSES = 20
MAX_LEN = 4
CUFF_RANGE = (2e-5, 3e-3)
REFERENCE = (0.7, 0.8, 0.9)


def rotation_map(combinat, marked, word):
    """The rotation map as text, or the raised exception."""
    try:
        seq = combinat.intersection_sequence(marked, word)
        rot = combinat.combinatorial_rotation(combinat.classify_and_rotate(seq))
    except Exception as exc:  # the message is part of the record
        return exc
    return " ".join("%g" % rot[k] for k in (1, 2, 3))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree whose teichlab package runs "
                             "(default: this repository's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from teichlab import combinat, curves, surface

    rng = random.Random(SEED)
    lo, hi = (math.log(v) for v in CUFF_RANGE)
    lengths = [tuple(float("%.3g" % math.exp(rng.uniform(lo, hi)))
                     for _ in range(3)) for _ in range(N_SURFACES)]
    dec = surface.builtin_genus2_convenient()
    reference = surface.build_holonomy(dec, surface.FNCoordinates(REFERENCE))
    system = combinat.HexagonSystem(reference)
    candidates = [c.word for c in curves.enumerate_conj_classes(2, MAX_LEN)
                  if not system.excludes(c.word)]
    words = rng.sample(candidates, N_CLASSES)

    expected = {w: rotation_map(combinat, reference, w) for w in words}
    totals = {"right": 0, "wrong": 0, "error": 0, "noref": 0}
    defects = {}
    for ls in lengths:
        try:
            marked = surface.build_holonomy(dec, surface.FNCoordinates(ls))
        except Exception as exc:
            marked, build_error = None, exc
        for w in words:
            got = (rotation_map(combinat, marked, w) if marked is not None
                   else build_error)
            if isinstance(expected[w], Exception):
                outcome = "noref"
            elif isinstance(got, Exception):
                outcome = "error"
            else:
                outcome = "right" if got == expected[w] else "wrong"
            totals[outcome] += 1
            if outcome == "error":
                defect = str(got).split(":")[0]
                defects[defect] = defects.get(defect, 0) + 1
            if isinstance(got, Exception):
                detail = "%s: %s" % (type(got).__name__, got)
            elif outcome == "wrong":
                detail = "%s (reference %s)" % (got, expected[w])
            else:
                detail = got
            print("%-5s %-22s %-5s %s" % (
                curves.word_to_text(w), " ".join("%g" % x for x in ls),
                outcome, detail), flush=True)
    print(" ".join("%s %d" % item for item in totals.items())
          + "".join("; %d %s" % (n, defect) for defect, n in sorted(
              defects.items(), key=lambda item: (-item[1], item[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
