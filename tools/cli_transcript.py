"""Write a transcript of the teichlab CLI on a fixed command set.

The command set is every example in the README's CLI block plus
`rotation` and `nonrot` for the classes c, cd, aB and aaac on a thick
(0.7 0.8 0.9) and a pinched (1e-4 2e-5 5e-5) surface, `cones designer` on
a 2-factor and a 4-factor cone, whose printed length rows follow the
hull's vertex order, and two `lengths` commands for powers of a pants
curve whose exact lengths lie just off a midpoint between two doubles;
repeated commands run once.  Each command runs in its own interpreter
from a temporary directory that holds the `noisy.json`, `L.json` and
`cone.json` the README examples read and the `cone2.json` and
`cone4.json` of the designer commands.  For each one the transcript
records the command, its stdout, the last line of its stderr and its
exit code, so two trees can be compared with `diff`:

    python3 tools/cli_transcript.py --src /path/to/old/src -o old.txt
    python3 tools/cli_transcript.py -o new.txt
    diff old.txt new.txt

The README parser is `readme_examples()` in tests/test_cli.py, loaded from
there (which needs pytest, the test dependency).  Everything else is the
standard library.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROTATION_WORDS = ("c", "cd", "aB", "aaac")
ROTATION_LENGTHS = (("0.7", "0.8", "0.9"), ("1e-4", "2e-5", "5e-5"))

ROWS = [[0.8, 0.1, 0.1], [0.15, 0.8, 0.05], [0.1, 0.2, 0.7]]
INPUT_FILES = {
    "noisy.json": {"base_log_lengths": [-13.0, -12.5, -12.2], "T": 1.0,
                   "stretched_index": 0, "D": 5.0, "seed": 7},
    "L.json": {"rows": ROWS},
    "cone.json": {"vertices": ROWS},
    "cone2.json": {"vertices": [[0.5, 0.5], [0.2, 0.9], [0.8, 0.15]]},
    "cone4.json": {"vertices": [[0.8, 0.1, 0.1, 0.1], [0.1, 0.85, 0.05, 0.1],
                                [0.3, 0.3, 0.3, 0.3], [0.1, 0.1, 0.7, 0.2],
                                [0.15, 0.1, 0.1, 0.75]]},
}
DESIGNER_COMMANDS = (
    ["cones", "designer", "--spec", "cone2.json", "--scale", "1e-3"],
    ["cones", "designer", "--spec", "cone4.json", "--total-curves", "5",
     "--scale", "1e-3"],
)
# powers of a pants curve whose exact lengths lie just off a midpoint
# between two doubles, so the printed bits show how lengths are rounded
MIDPOINT_COMMANDS = (
    ["lengths", "--lengths", "0.7", "0.8", "0.9", "--words", "bbb"],
    ["lengths", "--lengths", "2.3e-6", "3.7e-6", "5e-6", "--twists", "1",
     "2", "-3", "--words", "bbbbb"],
)

RUN_MAIN = "import sys; from teichlab.cli import main; sys.exit(main(sys.argv[1:]))"


def readme_examples():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from test_cli import readme_examples as examples
    return [argv for argv, _ in examples()]


def command_set():
    commands = readme_examples()
    for lengths in ROTATION_LENGTHS:
        for word in ROTATION_WORDS:
            for sub in ("rotation", "nonrot"):
                commands.append([sub, "--lengths", *lengths, "--word", word])
    commands.extend(DESIGNER_COMMANDS)
    commands.extend(MIDPOINT_COMMANDS)
    unique = []
    for argv in commands:
        if argv not in unique:
            unique.append(argv)
    return unique


def run(argv, src, cwd):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    lines = proc.stderr.splitlines()
    return proc.stdout, lines[-1] if lines else "", proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree whose teichlab package runs "
                             "(default: this repository's src)")
    parser.add_argument("-o", "--output", required=True,
                        help="transcript file to write")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    with tempfile.TemporaryDirectory() as tmp, \
            open(args.output, "w") as out:
        for name, data in INPUT_FILES.items():
            with open(os.path.join(tmp, name), "w") as f:
                json.dump(data, f)
        for command in command_set():
            stdout, stderr, code = run(command, src, tmp)
            out.write("$ teichlab %s\n%sstderr: %s\nexit: %d\n\n"
                      % (" ".join(command), stdout, stderr, code))
            out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
