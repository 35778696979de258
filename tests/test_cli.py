import json
import os
import re
import shlex

import pytest

from teichlab import cli, cones, cylinder


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hexagon_pass(capsys):
    code, out, _ = run(["hexagon", "--a", "0.1", "0.2", "0.3"], capsys)
    assert code == 0
    assert "worst_residual" in out


def test_hexagon_random_shapes(capsys):
    code, out, _ = run(["hexagon", "--samples", "50", "--seed", "3"],
                       capsys)
    assert code == 0
    assert "shapes 50" in out


def test_hexagon_long_side_judged_relative(capsys):
    # cosh 70 is about 1.3e30: the identities hold to ~1e-15 of it, which
    # is far above 1e-10 in absolute terms
    code, out, _ = run(["hexagon", "--a", "70", "0.2", "0.3"], capsys)
    assert code == 0
    worst = float(out.split("worst_residual ")[1].split()[0])
    assert worst < 1e-13


def test_surface_consistency(capsys):
    code, out, _ = run(["surface", "--lengths", "0.5", "0.6", "0.7"],
                       capsys)
    assert code == 0
    assert "relator_residual" in out


def test_lengths_output_precision(capsys):
    code, out, _ = run(["lengths", "--lengths", "0.5", "0.6", "0.7",
                        "--words", "ab"], capsys)
    assert code == 0
    assert "ab 0.69999999999999996" in out


def test_invalid_lengths_exit_2(capsys):
    code, _, err = run(["lengths", "--lengths", "0.5", "0.6", "-0.7",
                        "--words", "c"], capsys)
    assert code == 2
    assert "positive" in err


def test_missing_subcommand_exit_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_rotation_command(capsys):
    code, out, _ = run(["rotation", "--lengths", "0.7", "0.8", "0.9",
                        "--word", "cd"], capsys)
    assert code == 0
    assert "i_P 4" in out
    assert "r_1 1" in out
    assert "r_3 1" in out


def test_nonrot_command(capsys):
    code, out, _ = run(["nonrot", "--lengths", "1e-4", "2e-5", "5e-5",
                        "--word", "cd"], capsys)
    assert code == 0
    assert "pass 1" in out


def test_nonrot_refuses_twisted_surfaces(capsys):
    # rotation maps are read on untwisted surfaces, so `nonrot` takes no
    # twists; the library's refusal is tested in test_combinat.py
    code, out, err = run(["nonrot", "--lengths", "1e-3", "2e-3", "3e-3",
                          "--twists", "0.5", "-0.3", "0.2", "--word", "cd"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.endswith(
        "error: unrecognized arguments: --twists 0.5 -0.3 0.2\n")


def test_cusp_command(capsys):
    code, out, _ = run(["cylinder", "cusp", "--samples", "200",
                        "--seed", "1"], capsys)
    assert code == 0
    assert "max_rotation 2 " in out


def test_cusp_requires_seed(capsys):
    assert cli.main(["cylinder", "cusp", "--samples", "10"]) == 2
    capsys.readouterr()


def test_lipschitz_command(capsys):
    code, out, _ = run(["cylinder", "lipschitz", "--a1", "0.1",
                        "--a2", "0.2", "--samples", "200", "--seed", "0"],
                       capsys)
    assert code == 0
    assert "theoretical 2" in out


def test_excursion_command(capsys):
    code, out, _ = run(["cylinder", "excursion", "--a", "0.01",
                        "--t", "100"], capsys)
    assert code == 0
    assert "depth" in out and "residue" in out


def test_cones_verify(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "L.json"
    spec.write_text(json.dumps({"rows": [[0.8, 0.1, 0.1],
                                         [0.15, 0.8, 0.05],
                                         [0.1, 0.2, 0.7]]}))
    hulls = []
    hull = cones.cone_over_hull

    def counting(rows):
        hulls.append(rows)
        return hull(rows)

    monkeypatch.setattr(cones, "cone_over_hull", counting)
    code, out, _ = run(["cones", "verify", "--spec", str(spec),
                        "--max-word-len", "3", "--scale", "1e-3"], capsys)
    assert code == 0
    assert "containment_rate 1 " in out
    assert "vertices_attained 1" in out
    # the verdict's hull serves the hypothesis check too
    assert len(hulls) == 1


def test_cones_verify_out_dir(tmp_path, capsys):
    spec = tmp_path / "L.json"
    spec.write_text(json.dumps({"rows": [[0.8, 0.1, 0.1],
                                         [0.15, 0.8, 0.05],
                                         [0.1, 0.2, 0.7]]}))
    out_dir = tmp_path / "reports"
    code, out, _ = run(["--out-dir", str(out_dir), "cones", "verify",
                        "--spec", str(spec), "--max-word-len", "2",
                        "--scale", "1e-3"], capsys)
    assert code == 0
    cloud = (out_dir / "ray_cloud.csv").read_text().splitlines()
    assert cloud[0] == ("word,lambda_1,lambda_2,lambda_3,"
                       "dir_1,dir_2,dir_3,in_cone,angular_excess")
    cone = json.loads((out_dir / "cone.json").read_text())
    assert cone["interior_ones"] is True


def test_cones_verify_exterior_diagonal_exit_2(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"rows": [[0.9, 0.05, 0.05],
                                         [0.8, 0.1, 0.05],
                                         [0.85, 0.05, 0.1]]}))
    code, _, err = run(["cones", "verify", "--spec", str(spec),
                        "--max-word-len", "2"], capsys)
    assert code == 2
    assert "(1, ..., 1) must be interior" in err


def test_malformed_json_exit_2(tmp_path, capsys):
    # JSON that does not parse, and JSON that parses to the wrong shape:
    # each is a usage error with nothing on stdout, never a traceback
    noisy = {"T": 1.0, "stretched_index": 0, "seed": 7}
    cases = [
        ("cones verify", '{"rows": [[0.1,', "line 1 column"),
        ("cones verify", '{"rows": 5}', "needs a \"rows\" matrix"),
        ("cones verify", '{"rows": [5]}', "needs a \"rows\" matrix"),
        ("cones verify", '7', "needs a \"rows\" matrix"),
        ("cones designer", '7', "needs a \"vertices\" list"),
        ("cones designer", '{"vertices": [3]}', "needs a \"vertices\" list"),
        ("cones designer", '{"vertices": []}', "at least 2 factors"),
        ("thurston verify-noisy", '[1, 2]', "must be an object"),
        ("thurston verify-noisy", '7', "must be an object"),
        ("thurston verify-noisy",
         json.dumps(dict(noisy, base_log_lengths=3)), "must be an object"),
        ("thurston verify-noisy",
         json.dumps(dict(noisy, base_log_lengths=[-13.0, -12.5, -12.2],
                         T=[1.0])), "must be an object"),
        # a string is not a list of numbers, knobs must be finite floats,
        # and those read as integers whole
        ("cones designer", '{"vertices": ["811", "181", "118"]}',
         "needs a \"vertices\" list"),
        ("thurston verify-noisy",
         json.dumps(dict(noisy, base_log_lengths="123")), "must be an object"),
        ("thurston verify-noisy",
         json.dumps(dict(noisy, base_log_lengths=[-13.0, -12.5, -12.2],
                         stretched_index=0.9)), "must be an object"),
        ("thurston verify-noisy",
         json.dumps(dict(noisy, base_log_lengths=[-13.0, -12.5, -12.2],
                         seed=float("inf"))), "must be an object"),
        ("thurston verify-noisy",
         json.dumps(dict(noisy, base_log_lengths=[-13.0, -12.5, 10 ** 400])),
         "must be an object"),
    ]
    for command, text, message in cases:
        spec = tmp_path / "input.json"
        spec.write_text(text)
        flag = "--config" if command.startswith("thurston") else "--spec"
        code, out, err = run(command.split() + [flag, str(spec)], capsys)
        assert (code, out) == (2, ""), (command, text, err)
        assert err.startswith("error: ") and message in err, (text, err)


def test_out_dir_naming_a_file_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(["--out-dir", str(taken), "cylinder", "lipschitz",
                          "--a1", "0.1", "--a2", "0.2", "--samples", "10",
                          "--seed", "0"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ")


def test_cones_designer(tmp_path, capsys):
    spec = tmp_path / "cone.json"
    spec.write_text(json.dumps({"vertices": [[0.8, 0.1, 0.1],
                                             [0.15, 0.8, 0.05],
                                             [0.1, 0.2, 0.7]]}))
    out_dir = tmp_path / "reports"
    code, out, _ = run(["--out-dir", str(out_dir), "cones", "designer",
                        "--spec", str(spec), "--scale", "1e-3"], capsys)
    assert code == 0
    rows = json.loads((out_dir / "designer_lengths.json").read_text())
    assert len(rows["rows"]) == 3


def test_thurston_verify_noisy_deterministic(tmp_path, capsys):
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps({"base_log_lengths": [-13.0, -12.5, -12.2],
                               "T": 1.0, "stretched_index": 0, "D": 5.0,
                               "seed": 7}))
    argv = ["thurston", "verify-noisy", "--config", str(cfg),
            "--max-word-len", "2", "--pairs", "2"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "passed 1" in out1


def test_thurston_config_missing_knob(tmp_path, capsys):
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps({"base_log_lengths": [-13.0, -12.5, -12.2],
                               "T": 1.0, "stretched_index": 0}))
    code, _, err = run(["thurston", "verify-noisy", "--config", str(cfg)],
                       capsys)
    assert code == 2
    assert "seed" in err


def test_thurston_symmetric(capsys):
    code, out, _ = run(["thurston", "verify-symmetric", "--base", "-13",
                        "-12.5", "-12.2", "--seed", "5", "--pairs", "1",
                        "--max-word-len", "2"], capsys)
    assert code == 0
    assert "forward" in out and "reverse" in out


def test_thurston_symmetric_bad_shrunk_index_exit_2(capsys):
    base = ["thurston", "verify-symmetric", "--base", "-13", "-12.5",
            "-12.2", "--seed", "5", "--pairs", "1", "--max-word-len", "2"]
    for flags in (["--shrunk-index", "5"],
                  ["--shrunk-index", "-1", "--stretched-index", "2"]):
        code, out, err = run(base + flags, capsys)
        assert (code, out) == (2, "")
        assert err == "error: shrunk index out of range\n"


def test_certificate_over_no_pair_exit_2(tmp_path, capsys):
    # --pairs below 1 and a cube of side 0 would certify nothing
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps({"base_log_lengths": [-13.0, -12.5, -12.2],
                               "T": 1.0, "stretched_index": 0, "seed": 7}))
    noisy = ["thurston", "verify-noisy", "--config", str(cfg)]
    symmetric = ["thurston", "verify-symmetric", "--base", "-13", "-12.5",
                 "-12.2", "--seed", "5", "--max-word-len", "2"]
    for argv in (noisy + ["--pairs", "0"], noisy + ["--pairs", "-3"],
                 symmetric + ["--pairs", "0"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err == "error: --pairs must be at least 1\n"
    grid = ["thurston", "linf-grid", "--base", "-13", "-12.5", "-12.2",
            "--max-word-len", "2"]
    for extra, msg in ((["--T", "0"], "need a positive cube side T"),
                       (["--k", "0"], "need a cube dimension k of at least 1"),
                       (["--k", "-1"], "need a cube dimension k of at least 1")):
        code, out, err = run(grid + extra, capsys)
        assert (code, out) == (2, ""), extra
        assert err == "error: " + msg + "\n"


def test_thurston_linf_grid(capsys):
    code, out, _ = run(["thurston", "linf-grid", "--base", "-13", "-12.5",
                        "-12.2", "--grid", "2", "--max-word-len", "2"],
                       capsys)
    assert code == 0
    assert "passed 1" in out


def test_thurston_asymmetry(capsys):
    code, out, _ = run(["thurston", "asymmetry", "--base", "-13", "-12.5",
                        "-12.2", "--max-word-len", "2"], capsys)
    assert code == 0
    assert "pass 1" in out


def test_distortion_csv(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, out, _ = run(["--out-dir", str(out_dir), "distortion",
                        "--x-lengths", "1e-6", "5e-5", "1e-5",
                        "--y-lengths", "1e-4", "1e-6", "2e-5",
                        "--max-word-len", "1"], capsys)
    assert code == 0
    lines = (out_dir / "distortion.csv").read_text().splitlines()
    assert lines[0].startswith("word,i_P,r1,r2,r3,")
    assert "failures 0" in out


def test_arithmetic_error_exit_3(capsys):
    # exp(800) overflows while building the first path point
    code, out, err = run(["thurston", "asymmetry", "--base", "800", "-12.5",
                          "-12.2", "--max-word-len", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: thurston asymmetry: math range error\n"


def test_default_word_lengths_run(tmp_path, capsys):
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps({"base_log_lengths": [-13.0, -12.5, -12.2],
                               "T": 1.0, "stretched_index": 0, "D": 5.0,
                               "seed": 7}))
    code, out, _ = run(["thurston", "verify-noisy", "--config", str(cfg),
                        "--pairs", "1"], capsys)
    assert code == 0
    assert "passed 1" in out
    spec = tmp_path / "L.json"
    spec.write_text(json.dumps({"rows": [[0.8, 0.1, 0.1],
                                         [0.15, 0.8, 0.05],
                                         [0.1, 0.2, 0.7]]}))
    code, out, _ = run(["cones", "verify", "--spec", str(spec),
                        "--scale", "1e-3"], capsys)
    assert code == 0
    assert "classes 390 " in out


@pytest.mark.parametrize("word, rotation", [("c", "1 0 0"),
                                             ("cd", "1 0 1")])
def test_pinched_rotation_matches_thick_reference(capsys, word, rotation):
    # the frame's float generators are roundings of the 80-digit chart, so
    # they keep their bottom rows on these cuffs and the search runs
    for lengths in (["0.7", "0.8", "0.9"], ["1e-4", "2e-5", "5e-5"]):
        code, out, err = run(["rotation", "--lengths", *lengths,
                              "--word", word], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["r_%d %s" % (k, r) for k, r in
                                        enumerate(rotation.split(), start=1)]


def test_pinched_underflow_names_thicker_surface(capsys):
    # on these cuffs a product in the beam for aBcB rounds a row to (0, 0)
    code, out, err = run(["rotation", "--lengths", "1e-4", "2e-5", "5e-5",
                          "--word", "aBcB"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: float lift search underflowed on this "
                          "pinched surface")
    assert "thicker" in err


def test_pinched_order_tie_names_thicker_surface(capsys):
    # two lift endpoints of aB on these cuffs are closer than the tie
    # tolerance, so the float search cannot order them
    code, out, err = run(["rotation", "--lengths", "1e-4", "2e-5", "5e-5",
                          "--word", "aB"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: boundary order tie: ")
    assert "use a thicker one" in err


@pytest.mark.parametrize("word, rotation, pinched", [
    ("bCD", "1 1 1", "0.00146 5.47e-05 0.001"),
    ("addC", "1 1 1", "0.00146 5.47e-05 0.001"),
    ("aCCB", "3 1 0", "0.00146 5.47e-05 0.001"),
    ("addb", "1 1 2", "0.00146 5.47e-05 0.001"),
    ("addb", "1 1 2", "0.00151 0.000248 0.000307")])
def test_far_endpoints_keep_their_cyclic_order(capsys, word, rotation,
                                               pinched):
    # on these cuffs distinct lift endpoints far out on the boundary round
    # to one angle 2 atan(x); the crossing orientations compare the frame
    # reals themselves, so the pinched maps match the thick reference's
    for lengths in (["0.7", "0.8", "0.9"], pinched.split()):
        code, out, err = run(["rotation", "--lengths", *lengths,
                              "--word", word], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["r_%d %s" % (k, r) for k, r in
                                        enumerate(rotation.split(), start=1)]


def test_linking_tie_names_thicker_surface(capsys):
    # a shifted pants chord of cccd on these cuffs has float endpoints
    # that coincide, so the census cannot test it for linking
    code, out, err = run(["rotation", "--lengths", "3.57e-05", "6.05e-05",
                          "2.65e-05", "--word", "cccd"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: boundary order tie: ")
    assert "use a thicker one" in err


def test_crossing_tie_names_thicker_surface(capsys):
    # two seam lifts of adBD cross the axis within ENDPOINT_TIE_TOL of each
    # other on these cuffs, which leaves the cyclic sequence ill defined
    code, out, err = run(["rotation", "--lengths", "0.00146", "5.47e-05",
                          "0.001", "--word", "adBD"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: crossing parameter tie: ")
    assert "use a thicker one" in err


def test_thin_cuff_gate_names_thicker_surface(capsys):
    # the float disjointness check of the pants curves cannot place the
    # axis of a 1e-6 cuff; it still refuses, since without it the search
    # returns wrong maps on such surfaces
    code, out, err = run(["rotation", "--lengths", "1e-6", "5e-5", "1e-5",
                          "--word", "c"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: pants curve too short for the float "
                          "disjointness check")
    assert "use a thicker one" in err


def test_cusp_check_can_fail(monkeypatch, capsys):
    # criterion 6 measures every sample and the tangent semicircle through
    # segment_rotation, so a rotation above the bound must fail it
    monkeypatch.setattr(cylinder, "segment_rotation",
                        lambda rho, y_cut=1.0: 3.0)
    assert cylinder.cusp_rotation_check(200, seed=1) == 3.0
    code, out, _ = run(["cylinder", "cusp", "--samples", "200",
                        "--seed", "1"], capsys)
    assert code == 1
    assert "max_rotation 3 bound 2.5" in out


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def readme_examples():
    """(argv, documented exit code) for each line of the README CLI block."""
    with open(README) as f:
        block = f.read().split("## CLI", 1)[1].split("```\n")[1]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "teichlab"
        documented = re.search(r"exits (\d)", comment)
        examples.append((argv[1:], int(documented.group(1)) if documented
                         else 0))
    return examples


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    rows = [[0.8, 0.1, 0.1], [0.15, 0.8, 0.05], [0.1, 0.2, 0.7]]
    (tmp_path / "noisy.json").write_text(json.dumps(
        {"base_log_lengths": [-13.0, -12.5, -12.2], "T": 1.0,
         "stretched_index": 0, "D": 5.0, "seed": 7}))
    (tmp_path / "L.json").write_text(json.dumps({"rows": rows}))
    (tmp_path / "cone.json").write_text(json.dumps({"vertices": rows}))
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) == 16
    assert [argv[:2] for argv, code in examples if code] == [
        ["cylinder", "damping"]]
    for argv, expected in examples:
        code, out, err = run(argv, capsys)
        assert code == expected, (argv, err)
        assert out
