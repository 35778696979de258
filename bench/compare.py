"""Compare two benchmark records written by run.py.

    python3 bench/compare.py bench/out/A.json bench/out/B.json

Refuses (exit 2) when the records differ in workload, trace mode, Python
version or mpmath backend: their timings are not comparable.  Otherwise
prints, per metric, both values, B/A, and for end-to-end metrics whether
B is worse than A by more than the bound in BENCHMARK.json (exit 1 if so).
One pair of runs shows a change, not a gain; see BENCHMARK.json's bounds.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUST_MATCH = ("python", "implementation", "mpmath", "mpmath_backend")


def _load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (_load(path) for path in argv)
    differ = [k for k in ("workload", "trace") if a[k] != b[k]]
    differ += [k for k in MUST_MATCH if a["env"].get(k) != b["env"].get(k)]
    if differ:
        print("refusing to compare: %s differ (%s)" % (", ".join(differ), "; ".join(
            "%r vs %r" % (a.get(k, a["env"].get(k)), b.get(k, b["env"].get(k)))
            for k in differ)), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_any = False
    for name, va in a["metrics"].items():
        x, y = va["value"], b["metrics"][name]["value"]
        rule = rules[name]
        note = ""
        if "bound" in rule and x:
            change = (y - x) / x if rule["better"] == "lower" else (x - y) / x
            worse = change > rule["bound"]
            worse_any |= worse
            note = "WORSE than bound %.2f" % rule["bound"] if worse else ""
        ratio = "%.4f" % (y / x) if x else "-"
        print("%-40s %14.6g %14.6g  B/A %-8s %s %s"
              % (name, x, y, ratio, va["unit"], note))
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
