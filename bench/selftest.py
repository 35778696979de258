"""Self-test of the benchmark's checks: every check must be able to fail.

    python3 bench/selftest.py

Runs one real pass of each workload while a library function's output is
corrupted on its way to the check (a rotation value changed, a sup ratio
scaled by 1 + 1e-6, a wrong witness word, ...) or made to raise a teichlab
error on inputs where no known defect occurs.  Each corrupted unit must be
counted as failed and match no known defect, so that the run reports
`correct: false`.  The known-defect signatures are also tried on their own.
Exits 1 if any corruption goes unnoticed.  Takes about a minute.
"""

import os
import sys

os.environ["TEICHLAB_THREADS"] = "1"
import worker  # noqa: E402  (sets up the path to src/)


def corrupt(module, name, how):
    """Rebind module.name so that its i-th call's output goes through
    how(i, output); returns the undo function."""
    original = getattr(module, name)
    calls = [0]

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        calls[0] += 1
        return how(calls[0], out)

    setattr(module, name, corrupted)
    return lambda: setattr(module, name, original)


def first_only(change):
    return lambda i, out: change(out) if i == 1 else out


def raise_first(exc):
    def how(i, out):
        if i == 1:
            raise exc
        return out
    return how


def expect(label, workload, seed, corruptions, kinds):
    """One pass with the corruptions; exactly the units of `kinds` must fail
    without matching a known defect."""
    undo = [corrupt(*c) for c in corruptions]
    ops = worker.Ops()
    try:
        worker.Runner(workload, seed).run_pass(ops)
    finally:
        for u in reversed(undo):
            u()
    caught = [f["kind"] for f in ops.failures if not f["expected"]]
    ok = sorted(caught) == sorted(kinds)
    print("%-4s %-44s fail_ratio %.3f, unexpected failures %s"
          % ("ok" if ok else "MISS", label, ops.failed / ops.attempted,
             caught))
    return ok


def bump_rotation(rot):
    rot = dict(rot)
    rot[1] += 0.5
    return rot


def scale_projection(out):
    r_vec, l_vec = out
    return tuple(r * (1.0 + 1e-9) + 1e-9 for r in r_vec), l_vec


def flip_rows(rows):
    rows[0] = dict(rows[0], ratio=rows[0]["bound_hi"] * 2.0)
    return rows


def scale_sup(cert):
    cert.sup_ratio *= 1.0 + 1e-6
    return cert


def wrong_witness(cert):
    cert.witness = (1, 2) if cert.witness != (1, 2) else (3, 4)
    return cert


def signatures():
    """Each known defect is tolerated on its own inputs and nowhere else."""
    from teichlab.combinat import CombinatError
    from teichlab.hyp2 import Hyp2Error

    known = worker.known_defects
    tiny = Hyp2Error(worker.TINY_CUFF_ERROR[1])
    pair_missed = CombinatError(worker.LIFT_SEARCH_ERRORS[0])
    moved = worker.InvarianceViolated("rotation map differs")
    # bcdd fails criterion 7 on some surfaces; aBcB is not like it
    cd_class, plain = "bcdd", "aBcB"
    cases = [
        ("Hyp2Error, a cuff of 1e-6", tiny, known(cuffs=[1e-6, 0.1, 0.1]), True),
        ("Hyp2Error, cuffs of 1e-5", tiny, known(cuffs=[1e-5] * 3), False),
        ("Hyp2Error, other message", Hyp2Error("degenerate"),
         known(cuffs=[1e-6] * 3), False),
        ("lift-search CombinatError on abdB", pair_missed, known("abdB"),
         True),
        ("lift-search CombinatError on acd", pair_missed, known("acd"), False),
        ("other CombinatError on abdB", CombinatError("trivial class"),
         known("abdB"), False),
        ("InvarianceViolated on " + cd_class, moved, known(cd_class), True),
        ("InvarianceViolated on " + plain, moved, known(plain), False),
        ("CheckFailed on " + cd_class, worker.CheckFailed("wrong"),
         known(cd_class), False),
    ]
    results = []
    for label, exc, sigs, want in cases:
        ok = worker.expected_failure(exc, sigs) == want
        print("%-4s %-44s %s" % ("ok" if ok else "MISS", "signature: " + label,
                                 "known defect" if want else "unexpected"))
        results.append(ok)
    return all(results)


def main():
    lab = worker.Lab()
    combinat, cones, thurston = lab.combinat, lab.cones, lab.thurston
    cylinder, pants = lab.cylinder, lab.pants
    results = []

    results.append(expect(
        # seed 2 draws aBcB, for which criterion 7 is not known to fail
        "lifts: rotation, projection, distortion", worker.Lifts(lab), 2,
        # call 1 is the reference map inside distortion_check
        [(combinat, "combinatorial_rotation",
          lambda i, rot: bump_rotation(rot) if i == 2 else rot),
         (cones, "decompose_projection", first_only(scale_projection)),
         (combinat, "distortion_check", first_only(flip_rows))],
        ["lift_chain", "decompose_projection", "distortion_check"]))

    results.append(expect(
        # seed 3 draws acd, of length 3
        "lifts: lift-search CombinatError on acd", worker.Lifts(lab), 3,
        [(combinat, "classify_and_rotate", raise_first(combinat.CombinatError(
            worker.LIFT_SEARCH_ERRORS[0])))],
        ["distortion_check"]))

    results.append(expect(
        "spectrum: sup x (1 + 1e-6), witness, cone", worker.Spectrum(lab), 2,
        [(thurston, "ratio_sup",
          lambda i, c: scale_sup(c) if i == 1 else
          wrong_witness(c) if i == 2 else c),
         (cones, "verify_limit_cone",
          first_only(lambda r: dict(r, containment_rate=0.99)))],
        ["ratio_sup", "ratio_sup", "verify_limit_cone"]))

    def bad_split(data):
        (a_k, a_l), rest = data.splits[0], data.splits[1:]
        return pants.HexagonData(data.seam_lengths,
                                 ((a_k * (1.0 + 1e-9), a_l),) + rest,
                                 data.split_heights, data.shorts_lengths,
                                 data.hypercycle_side)

    def failed_pair(report):
        return dict(report, passed=False)

    def above_theory(report):
        report.sampled_sup *= 1.0 + 1e-5
        return report

    results.append(expect(
        "construct: pair, collar, cusp, hexagon", worker.Construct(lab), 1,
        [(thurston, "verify_noisy_geodesic", first_only(failed_pair)),
         (cylinder, "sampled_lipschitz", first_only(above_theory)),
         (cylinder, "damping_profile", first_only(lambda v: v + 1.0)),
         (cylinder, "excursion_depth",
          lambda i, d: d + 100.0 if i == 2 else d),
         (cylinder, "cusp_rotation_check", first_only(lambda b: 2.6)),
         (pants, "hexagon_data", first_only(bad_split))],
        ["verify_noisy_geodesic", "sampled_lipschitz", "damping_profile",
         "excursion_depth", "cusp_rotation_check", "hexagon_data"]))

    runner = worker.Runner(worker.Construct(lab), worker.DEFAULT_SEED)
    runner.first_outputs = {"digest": "not what pass 0 returned"}
    ops = worker.Ops()
    worker.check_digest(ops, runner)
    ok = [f["expected"] for f in ops.failures] == [False]
    print("%-4s %-44s fail_ratio %.3f" % ("ok" if ok else "MISS",
                                          "digest: other pass-0 outputs",
                                          ops.failed / ops.attempted))
    results.append(ok)
    results.append(signatures())
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
