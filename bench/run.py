"""teichlab benchmark: run workloads, check every result, print the metrics.

    python3 bench/run.py [--workload lifts|spectrum|construct] [--seed N]
                         [--seconds S] [--trace 0|1]

Without --workload the workloads listed in BENCHMARK.json run in turn, and
--seconds defaults to its run_seconds; construct runs only when named.
Each workload runs in fresh, single-threaded worker processes
(TEICHLAB_THREADS=1): four that only set up, and one that sets up and then
measures a fixed number of passes, sized to take about --seconds
(worker.passes_for), so that `attempted` and `failed` depend only on the
workload, the seed and --seconds; set-up time is the median of the five.  Every
metric prints by name with its unit; failed units print with their inputs
and exception, marked when they match a known defect.  Each workload
ends with one line holding a JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics, or the per-layer ones with
--trace 1).
The full record, with the machine facts, is written to
bench/out/<workload>-seed<N>-trace<T>.json; compare two records with
bench/compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# a measuring worker runs about --seconds plus its set-up and, traced, the
# fixed probes
WORKER_ALLOWANCE_S = 120
DEFAULT_SEED = 0
# BENCHMARK.json lists the workloads of the regression gate.  construct is
# left out of it: its 20 ms units put the tail at the 99.6th percentile,
# where hypervisor stalls moved it by half from run to run
WORKLOADS = ("lifts", "spectrum", "construct")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["TEICHLAB_THREADS"] = "1"
    # set iteration order inside the package must not vary between runs
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, extra, timeout):
    """Start one worker; returns (record, seconds from spawn to set-up)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded %d s" % timeout)
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s"
                         % (proc.returncode, proc.stderr.strip()))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record, record["setup_done"] - spawned


def tail(values, above=10):
    """Highest percentile with at least `above` samples above it.

    Returns (value, percentile); the k-th smallest of n samples has
    exactly n - k above it.
    """
    xs = sorted(values)
    k = len(xs) - above
    if k < 1:
        raise BenchError("%d samples: no percentile has %d above it"
                         % (len(xs), above))
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(record, setups):
    lat_ms = [v * 1e3 for v in record["latencies_s"]]
    n = len(lat_ms)
    tail_ms, pct = tail(lat_ms)
    return {
        "setup_s": (statistics.median(setups), "n=%d" % len(setups)),
        "units_per_s": (n / record["wall_s"], "%d units in %d passes, %.2f s"
                        % (n, record["passes"], record["wall_s"])),
        "unit_p50_ms": (statistics.median(lat_ms), "n=%d" % n),
        "unit_tail_ms": (tail_ms, "p%.1f, n=%d" % (pct, n)),
        "peak_rss_mb": (record["rss_mb"], "worker ru_maxrss"),
    }


def per_layer(record):
    import layers
    return {name: (value, "n=%d from %s; moves %s"
                   % (n, source, layers.prediction(name)))
            for name, (value, n, source) in record["layers"].items()}


def run_workload(args, spec):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker(args, ["--setup-only"], SETUP_TIMEOUT_S)[1])
    record, setup = run_worker(args, [], args.seconds + WORKER_ALLOWANCE_S)
    setups.append(setup)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = per_layer(record) if args.trace else end_to_end(record, setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))

    print("== %s  seed %d  %g s  trace %d" % (args.workload, args.seed,
                                             args.seconds, args.trace))
    print("env " + json.dumps(record["env"], sort_keys=True))
    metrics = {}
    for m in wanted:
        value, note = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %14.6g %-6s %s" % (m["name"], value, m["unit"], note))
    print("fail_ratio %.4g (%d of %d operations failed)"
          % (record["failed"] / record["attempted"], record["failed"],
             record["attempted"]))
    for f in record["failures"]:
        print("FAILED %s %s: %s%s" % (f["kind"], json.dumps(f["inputs"]),
                                      f["error"], " (known defect)"
                                      if f["expected"] else ""))
    if record["digest"] is not None:
        print("pass-0 digest %s" % record["digest"])

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": record["env"], "setups_s": setups,
                   "metrics": metrics, "attempted": record["attempted"],
                   "failed": record["failed"],
                   "failures": record["failures"]}, f, indent=1)
    # wrong outputs and raises all count in `failed`; `correct` is false
    # for any failure that matches no known defect (worker.known_defects)
    result = {"correct": record["unexpected"] == 0,
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": metrics}
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "teichlab")):
            raise BenchError("no teichlab sources under %s"
                             % os.path.join(ROOT, "src"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        names = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
        for name in names:
            args.workload = name
            run_workload(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
