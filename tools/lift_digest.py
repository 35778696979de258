"""Print a digest of the lift search for a fixed set of classes and surfaces.

For each (word, surface) pair the tool builds the surface, runs the lift
search of `combinat._collect_lifts` at the default depth, and prints one
line: the word, the three cuff lengths and a SHA-256 over both lift lists
(the lifts found at that depth and two levels deeper).  Each lift enters
as (curve, family, att, rep, s, shift, path) with the floats in hex, so
two trees print the same line only when every lift matches bit for bit.
A pair whose search raises prints the exception's type and message
instead.  Compare two trees with `diff`:

    python3 tools/lift_digest.py --src /path/to/old/src > old.txt
    python3 tools/lift_digest.py > new.txt
    diff old.txt new.txt

The words are c, cd, aB, aaac, abAB and aBcB; the surfaces are the thick
reference (0.7 0.8 0.9), the three criterion-7 surfaces, 0.02 0.03 0.015
and the pinched 1e-4 2e-5 5e-5, all untwisted.  With --all the words are
every class of the benchmark's `lifts` pool instead (the classes of 2 to
4 letters outside the hexagon system, in enumeration order, 374 of them),
on the thick reference and the three criterion-7 surfaces: 1,496
searches, about 7 minutes on a 2-core x86-64 machine.  Only the standard
library and the package under --src are imported.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORDS = ("c", "cd", "aB", "aaac", "abAB", "aBcB")
LENGTHS = ((0.7, 0.8, 0.9), (0.02, 0.03, 0.025), (0.035, 0.015, 0.04),
           (0.012, 0.028, 0.02), (0.02, 0.03, 0.015), (1e-4, 2e-5, 5e-5))


def lift_fields(lift):
    return (lift.curve, lift.family, lift.att.hex(), lift.rep.hex(),
            lift.s.hex(), lift.shift.hex(), lift.path)


def digest(combinat, constants, marked, word):
    try:
        frame = combinat._Frame(marked, combinat._normalize_word(word))
        lists = combinat._collect_lifts(
            frame, constants.LIFT_SEARCH_DEPTH_DEFAULT)
    except Exception as exc:  # the message is part of the record
        return "%s: %s" % (type(exc).__name__, exc)
    text = repr([[lift_fields(l) for l in lifts] for lifts in lists])
    return "%d+%d lifts sha256 %s" % (
        len(lists[0]), len(lists[1]),
        hashlib.sha256(text.encode()).hexdigest())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree whose teichlab package runs "
                             "(default: this repository's src)")
    parser.add_argument("--all", action="store_true",
                        help="every class of the lifts pool on the thick "
                             "reference and the criterion-7 surfaces")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from teichlab import combinat, constants, curves, surface

    dec = surface.builtin_genus2_convenient()
    words, surfaces = WORDS, LENGTHS
    if args.all:
        thick = surface.build_holonomy(dec, surface.FNCoordinates(LENGTHS[0]))
        system = combinat.HexagonSystem(thick)
        words = [curves.word_to_text(c.word)
                 for c in curves.enumerate_conj_classes(2, 4)
                 if len(c) >= 2 and not system.excludes(c.word)]
        surfaces = LENGTHS[:4]
    for lengths in surfaces:
        try:
            marked = surface.build_holonomy(dec,
                                            surface.FNCoordinates(lengths))
        except Exception as exc:
            marked, error = None, "%s: %s" % (type(exc).__name__, exc)
        for word in words:
            line = (digest(combinat, constants, marked, word)
                    if marked is not None else error)
            print("%-5s %-22s %s" % (word, " ".join("%g" % x for x in lengths),
                                     line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
