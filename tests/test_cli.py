import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from csw import norming
from csw.analysis import basis_constant, coherence_report, well_definedness_report
from csw.cli import main
from csw.norming import family_loads
from csw.schemes import AxiomReport

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_type_validate_accepts_forced_arithmetic(capsys):
    code, out, _ = run(capsys, "type", "validate",
                       "--m", "1,2,4,10", "--n", "2,3,4", "--r", "0,1,2")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_type_validate_names_broken_constraint(capsys):
    code, out, _ = run(capsys, "type", "validate", "--m", "1,3", "--n", "2", "--r", "0")
    assert code == 1
    payload = json.loads(out)
    assert payload["violations"][0]["constraint"] == "recursion"


def test_type_validate_width_rule(capsys):
    code, out, _ = run(capsys, "type", "validate", "--m", "1,2", "--n", "1", "--r", "0")
    assert code == 1
    assert any(v["constraint"] == "n_exceeds_rank"
               for v in json.loads(out)["violations"])


def test_scheme_build_check_round_trip(tmp_path, capsys):
    scheme_file = tmp_path / "s.json"
    code, _, _ = run(capsys, "scheme", "build",
                     "--type", "1,2,4;2,3;0,1", "--out", str(scheme_file))
    assert code == 0
    code, out, _ = run(capsys, "scheme", "check", str(scheme_file))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_scheme_check_flags_corruption(tmp_path, capsys):
    scheme_file = tmp_path / "s.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1",
        "--out", str(scheme_file))
    payload = json.loads(scheme_file.read_text())
    payload["levels"][1][0] = [0]  # drop an element from a rank-1 set
    scheme_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "scheme", "check", str(scheme_file))
    assert code == 1
    report = json.loads(out)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert any(c["name"] == "set-sizes" for c in failed)


def test_depth_zero_scheme(tmp_path, capsys):
    scheme_file = tmp_path / "point.json"
    code, _, _ = run(capsys, "scheme", "build", "--type", "1", "--out", str(scheme_file))
    assert code == 0
    code, out, _ = run(capsys, "scheme", "check", str(scheme_file))
    assert code == 0 and json.loads(out)["passed"]


def _limited(tmp_path, *argv):
    """`csw argv` in a child process held to 1 GiB of address space."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "csw.cli", *argv], cwd=tmp_path, env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=60)


def test_a_scheme_file_naming_a_huge_universe_is_refused_in_bounded_memory(tmp_path):
    # an 87-byte file names a universe of 10**9 positions: the axioms compare
    # sizes before they build any set the file does not list
    scheme_file = tmp_path / "huge.json"
    scheme_file.write_text(json.dumps({"type": {"m": [1, 10 ** 9], "n": [10 ** 9], "r": [0]},
                                       "levels": [[[0]], [[0]]]}))
    proc = _limited(tmp_path, "norming", "build", "--scheme", str(scheme_file),
                    "--space", "eps", "--param", "1/2")
    assert proc.returncode == 2 and "first set-sizes" in proc.stderr, proc.stderr
    proc = _limited(tmp_path, "scheme", "check", str(scheme_file))
    assert proc.returncode == 1, proc.stderr
    failed = {c["name"] for c in json.loads(proc.stdout)["checks"] if not c["passed"]}
    assert {"set-sizes", "rank0-singletons", "top-covers-all"} <= failed


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "scheme", "check", "/nonexistent/s.json")
    assert code == 3
    assert "i/o" in err


@pytest.fixture()
def k_family_file(tmp_path, capsys):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    assert main(["scheme", "build", "--type", "1,2;2;0",
                 "--out", str(scheme_file)]) == 0
    assert main(["norming", "build", "--scheme", str(scheme_file),
                 "--space", "k", "--param", "2", "--out", str(family_file)]) == 0
    capsys.readouterr()
    return family_file


def test_norm_eval_values(k_family_file, capsys):
    code, out, _ = run(capsys, "norm", "eval", "--family", str(k_family_file),
                       "--vec", "0:1")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "norm", "eval", "--family", str(k_family_file),
                       "--vec", "0:1,1:-1")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "norm", "eval", "--family", str(k_family_file),
                       "--vec", "")
    assert (code, out.strip()) == (0, "0")
    for mode in ("local", "all"):
        for vec, value in (("0:0", "0"), ("0:1,1:0", "1")):
            code, out, _ = run(capsys, "norm", "eval", "--family", str(k_family_file),
                               "--vec", vec, "--norm-mode", mode)
            assert (code, out.strip()) == (0, value)


def test_norm_mode_flag_demonstrates_discrepancy(tmp_path, capsys):
    scheme_file = tmp_path / "s6.json"
    family_file = tmp_path / "H6.json"
    run(capsys, "scheme", "build", "--type", "1,6;6;0", "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", "eps", "--param", "1/2", "--out", str(family_file))
    w = "0:1,1:-1,2:-1/2,3:1/2,4:-1/2,5:1/2"
    code, out, _ = run(capsys, "norm", "eval", "--family", str(family_file),
                       "--vec", w, "--norm-mode", "local")
    assert (code, out.strip()) == (0, "1/2")
    code, out, _ = run(capsys, "norm", "eval", "--family", str(family_file),
                       "--vec", w, "--norm-mode", "all")
    assert (code, out.strip()) == (0, "1")


def test_analyze_biorth_csv(tmp_path, capsys):
    scheme_file = tmp_path / "s6.json"
    family_file = tmp_path / "H6.json"
    run(capsys, "scheme", "build", "--type", "1,6;6;0", "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", "eps", "--param", "1/2", "--out", str(family_file))
    code, out, _ = run(capsys, "analyze", "biorth", "--family", str(family_file),
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "claim,lhs,relation,rhs,pass,vacuous"
    assert any(line.startswith("offdiagonal_attained,1/2") for line in lines)


def test_analyze_basis_constant_and_coherence(k_family_file, capsys):
    code, out, _ = run(capsys, "analyze", "basis-constant",
                       "--family", str(k_family_file))
    assert code == 0
    assert json.loads(out)["norms"]["constant"] == "1"
    code, out, _ = run(capsys, "analyze", "coherence",
                       "--family", str(k_family_file), "--lp-every", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "analyze", "welldef",
                       "--family", str(k_family_file), "--samples", "20",
                       "--seed", "4")
    assert code == 0


def test_analyze_basis_constant_prints_the_library_report(k_family_file, capsys):
    code, out, _ = run(capsys, "analyze", "basis-constant",
                       "--family", str(k_family_file))
    report = basis_constant(family_loads(k_family_file.read_text())).report
    assert code == 0
    assert out == json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("space, param, cap_args, code, cap", [
    ("k", "2", ["--scale-cap", "7"], 0, 7),
    ("k", "2", [], 0, 1),
    ("eps", "1/2", ["--scale-cap", "7"], 2, None),
], ids=["k_cap", "k_default", "eps_refused"])
def test_scale_cap_is_k_only(tmp_path, capsys, space, param, cap_args, code, cap):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2;2;0", "--out", str(scheme_file))
    result, _, err = run(capsys, "norming", "build", "--scheme", str(scheme_file),
                         "--space", space, "--param", param, *cap_args,
                         "--out", str(family_file))
    assert result == code
    if cap is None:
        assert "--scale-cap" in err and not family_file.exists()
    else:
        assert json.loads(family_file.read_text())["scale_cap"] == cap


def test_experiment_eps_cli(tmp_path, capsys):
    out_file = tmp_path / "eps.json"
    code, _, _ = run(capsys, "experiment", "eps", "--eps", "1/2", "--n", "2",
                     "--type", "1,6;6;0", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True
    assert report["norms"]["w_local"] == "1/2"


def test_experiment_kbasis_cli(tmp_path, capsys):
    out_file = tmp_path / "k.json"
    code, _, _ = run(capsys, "experiment", "kbasis", "--k", "2", "--n", "4",
                     "--L", "5/4", "--type", "1,8;8;0", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True
    assert report["norms"]["ratio"] == "2"


@pytest.mark.parametrize("n, L, message", [
    ("4", "3/2", "1/K + 1/n"),
    ("0", "5/4", "n must be a positive integer"),
], ids=["slack", "n0"])
def test_experiment_rejects_bad_slack(capsys, n, L, message):
    code, _, err = run(capsys, "experiment", "kbasis", "--k", "2", "--n", n,
                       "--L", L, "--type", "1,8;8;0")
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv", [
    ["eps", "--eps", "1/2", "--n", "1", "--type", "1,6;6;0"],
    ["kbasis", "--k", "2", "--n", "4", "--L", "5/4", "--type", "1,8;8;0"],
], ids=["eps", "kbasis"])
def test_experiment_pattern_outside_the_first_piece_is_config_error(capsys, argv):
    code, out, err = run(capsys, "experiment", *argv, "--pattern", "0:1,3:1")
    assert code == 2
    assert out == "" and "first piece" in err


@pytest.mark.parametrize("argv", [
    ["--eps", "1/3", "--n", "2"],
    ["--eps", "1/2", "--n", "0"],
], ids=["non_integer_m", "n0"])
def test_experiment_rejects_non_integer_m(capsys, argv):
    code, _, _ = run(capsys, "experiment", "eps", *argv, "--type", "1,6;6;0")
    assert code == 2


def test_family_without_scheme_is_config_error(k_family_file, capsys):
    payload = json.loads(k_family_file.read_text())
    del payload["scheme"]
    k_family_file.write_text(json.dumps(payload))
    code, _, err = run(capsys, "norm", "eval", "--family", str(k_family_file),
                       "--vec", "0:1")
    assert code == 2
    assert str(k_family_file) in err


@pytest.mark.parametrize("rank, index", [(0, 3), (1, 1)])
def test_scheme_listing_a_set_twice_is_refused(tmp_path, capsys, rank, index):
    scheme_file = tmp_path / "s.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1",
        "--out", str(scheme_file))
    payload = json.loads(scheme_file.read_text())
    payload["levels"][rank].append(payload["levels"][rank][index])
    scheme_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "scheme", "check", str(scheme_file))
    assert code == 1
    assert "is listed twice at level" in out
    code, _, err = run(capsys, "norming", "build", "--scheme", str(scheme_file),
                       "--space", "k", "--param", "2")
    assert code == 2 and "fails its axioms" in err


# the 1,2,4;2,3;0,1 scheme with its top set cut into {0,1}, {0,3}, {0,3},
# which leave out position 2, and the family file that a build without the
# axiom check writes for it: on the k file the top set's family took
# |e_0 - e_1 + e_2 - e_3| to 2 where the valid file gives 1
@pytest.mark.parametrize("space, param, unchecked_norm", [("eps", "1/2", "3/2"),
                                                         ("k", "2", "2")])
def test_family_on_pieces_that_leave_out_a_position_is_refused(
        tmp_path, capsys, monkeypatch, space, param, unchecked_norm):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1", "--out", str(scheme_file))
    payload = json.loads(scheme_file.read_text())
    payload["decomposition"]["2:0"] = [0, 2, 2]
    scheme_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "scheme", "check", str(scheme_file))
    assert code == 1 and "do not union to it" in out
    code, _, err = run(capsys, "norming", "build", "--scheme", str(scheme_file),
                       "--space", space, "--param", param, "--out", str(family_file))
    assert code == 2 and "fails its axioms, first decomposition-delta-system" in err
    with monkeypatch.context() as patch:
        patch.setattr(norming, "check_axioms", lambda scheme: AxiomReport([]))
        assert run(capsys, "norming", "build", "--scheme", str(scheme_file), "--space",
                   space, "--param", param, "--out", str(family_file))[0] == 0
        assert run(capsys, "norm", "eval", "--vec", "0:1,1:-1,2:1,3:-1", "--family",
                   str(family_file))[:2] == (0, unchecked_norm + "\n")
    for argv in (["norm", "eval", "--vec", "0:1,1:-1,2:1,3:-1"], ["analyze", "coherence"],
                 ["analyze", "basis-constant"]):
        code, out, err = run(capsys, *argv, "--family", str(family_file))
        assert code == 2 and out == "", argv
        assert str(family_file) in err and "fails its axioms" in err


def _rename(mapping, old, new):
    mapping[new] = mapping.pop(old)


# edits of a built 1,2,4;2,3;0,1 scheme file that loading must refuse: a set
# index out of range, negative or below rank 0, an invalid type, an extra level,
# a key that is not "rank:index" or not in its canonical spelling, a set with
# non-integer elements, a boolean where the type or a child list needs an integer
@pytest.mark.parametrize("edit", [
    lambda p: _rename(p["decomposition"], "1:0", "1:5"),
    lambda p: _rename(p["decomposition"], "2:0", "2:-1"),
    lambda p: p["decomposition"]["2:0"].__setitem__(0, -1),
    lambda p: p["decomposition"].update({"0:0": [0]}),
    lambda p: p["type"].update(n=[2]),
    lambda p: p["levels"].append([[0, 1, 2, 3]]),
    lambda p: p["type"].update(m=[1, 2, 5]),
    lambda p: _rename(p["decomposition"], "1:0", "1:0:0"),
    lambda p: p["levels"][1].__setitem__(0, ["a", "b"]),
    lambda p: p["type"].update(m=[True, 2, 4]),
    lambda p: p["decomposition"]["2:0"].__setitem__(1, True),
    lambda p: _rename(p["decomposition"], "1:0", "1:00"),
], ids=["key_out_of_range", "negative_key", "negative_child", "rank0_parent",
        "short_n", "extra_level", "bad_m", "three_part_key", "non_integer_elements",
        "boolean_type_entry", "boolean_child", "non_canonical_key"])
def test_scheme_with_bad_decomposition_key_is_config_error(tmp_path, capsys, edit):
    scheme_file = tmp_path / "s.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1",
        "--out", str(scheme_file))
    payload = json.loads(scheme_file.read_text())
    edit(payload)
    scheme_file.write_text(json.dumps(payload))
    code, _, err = run(capsys, "scheme", "check", str(scheme_file))
    assert code == 2
    assert str(scheme_file) in err


# edits of a built eps family file that loading must refuse: a negative set
# key, a parameter that is not a rational, has a zero denominator, lies
# outside (0, 1) or is a boolean, an unknown space, a scale_cap that is not an
# integer, a boolean vector entry, a vector position outside the universe or
# outside the functional's set, a vector naming one position twice, an eps
# set without exactly one functional per position, a scheme set without a
# family, a set key not in its canonical spelling, a vector value outside the
# "p/q" grammar (an exponent, a non-ASCII digit), a vector position that is
# not ASCII digits; a set whose entries are not the writer's for the family
# rebuilt from the file (a vector value, origin alphas, a rank-0 vector, the
# order of two functionals); an
# embedded scheme whose rank-1 sets differ in size or whose first rank-1 set
# has no decomposition
@pytest.mark.parametrize("edit", [
    lambda p: _rename(p["families"], "2:0", "2:-1"),
    lambda p: p.update(param="x"),
    lambda p: p.update(param="1/0"),
    lambda p: p.update(space="zzz"),
    lambda p: p.update(param="3/2"),
    lambda p: p.update(param=True),
    lambda p: p.update(scale_cap=1.7),
    lambda p: p["families"]["0:0"][0]["vec"].update({"0": True}),
    lambda p: p["families"]["1:0"][0]["vec"].update({"999": "1"}),
    lambda p: p["families"]["1:0"][0]["vec"].update({"3": "1"}),
    lambda p: p["families"]["1:0"][0]["vec"].update({"00": "5"}),
    lambda p: p["families"]["2:0"].pop(),
    lambda p: p["families"]["2:0"].append(p["families"]["2:0"][0]),
    lambda p: p["families"]["2:0"][3]["origin"].update(alpha=2),
    lambda p: p["families"]["1:0"][0]["origin"].pop("alpha"),
    lambda p: p["families"].pop("1:1"),
    lambda p: _rename(p["families"], "1:1", "1:01"),
    lambda p: p["families"]["1:0"][0]["vec"].update({"0": "1e0"}),
    lambda p: p["families"]["1:0"][0]["vec"].update({"0": "\u0661"}),
    lambda p: _rename(p["families"]["0:0"][0]["vec"], "0", "+0"),
    lambda p: p["families"]["1:1"][0]["vec"].update({"2": "3"}),
    lambda p: [e["origin"].update(alpha=a) for e, a in zip(p["families"]["1:1"], (2, 0))],
    lambda p: p["families"]["0:3"][0]["vec"].update({"3": "2"}),
    lambda p: p["families"]["1:2"].reverse(),
    lambda p: p["scheme"]["levels"][1].__setitem__(1, [0, 2, 3]),
    lambda p: p["scheme"]["decomposition"].pop("1:0"),
], ids=["negative_key", "bad_param", "zero_denominator_param", "bad_space",
        "eps_out_of_range", "boolean_param", "fractional_scale_cap",
        "boolean_vec_entry", "vec_outside_universe", "vec_outside_set",
        "repeated_vec_position", "top_set_lacks_a_functional", "duplicated_alpha",
        "alpha_moved_within_set", "missing_alpha", "missing_set",
        "non_canonical_set_key", "exponent_value", "non_ascii_value",
        "signed_position", "transported_vec_value", "transported_alphas_swapped",
        "transported_rank0_vec", "transported_entries_swapped",
        "scheme_set_size_differs", "scheme_first_set_undecomposed"])
def test_family_with_negative_set_key_is_config_error(tmp_path, capsys, edit):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1",
        "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", "eps", "--param", "1/2", "--out", str(family_file))
    payload = json.loads(family_file.read_text())
    edit(payload)
    family_file.write_text(json.dumps(payload))
    code, _, err = run(capsys, "norm", "eval", "--family", str(family_file),
                       "--vec", "0:1")
    assert code == 2
    assert str(family_file) in err


# edits of the top set's first origin in a built eps family file that loading
# must refuse: a position that is not an integer or lies outside the universe,
# a rule that is not a string, a rank or exponent that is not an integer
@pytest.mark.parametrize("command", ["coherence", "biorth"])
@pytest.mark.parametrize("edit", [
    lambda o: o.update(alpha="x"),
    lambda o: o.update(alpha=10),
    lambda o: o.update(alpha=-1),
    lambda o: o.update(alpha=True),
    lambda o: o.update(cut=1.5),
    lambda o: o.update(rule=3),
    lambda o: o.update(rank=True),
    lambda o: o.update(exponent="1"),
], ids=["string_alpha", "alpha_past_universe", "negative_alpha", "boolean_alpha",
        "fractional_cut", "integer_rule", "boolean_rank", "string_exponent"])
def test_family_with_bad_origin_is_config_error(tmp_path, capsys, edit, command):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1",
        "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", "eps", "--param", "1/2", "--out", str(family_file))
    payload = json.loads(family_file.read_text())
    edit(payload["families"]["2:0"][0]["origin"])
    family_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "analyze", command, "--family", str(family_file))
    assert code == 2
    assert out == "" and str(family_file) in err


# edits of a built 1,2;2;0 K=2 cap1 family file that loading must refuse: the
# parameters, and a functional that is not the writer's K^-e on a nonempty support
# for one exponent e in 0..scale_cap (a wrong value, a merged origin of another
# exponent, an exponent above the cap, a value not written as format_rational
# writes it, an empty vector)
@pytest.mark.parametrize("edit", [
    lambda p: p.update(param="1"),
    lambda p: p.update(scale_cap=0),
    lambda p: p.update(scale_cap=True),
    lambda p: p["families"]["1:0"][-1]["vec"].update({"1": "5"}),
    lambda p: p["families"]["1:0"][3]["merged"][0].pop("exponent"),
    lambda p: p["families"]["1:0"][-1].update(
        origin={"exponent": 2, "rank": 1, "rule": "scaled_cut"}, vec={"1": "1/4"}),
    lambda p: p["families"]["1:0"][-1]["vec"].update({"1": "2/4"}),
    lambda p: p["families"]["1:0"][-1].update(vec={}),
], ids=["K_not_above_1", "scale_cap_0", "boolean_scale_cap", "value_not_K_power",
        "merged_exponent_differs", "exponent_above_cap", "value_not_canonical",
        "empty_vec"])
def test_k_family_parameters_are_checked_at_load(k_family_file, capsys, edit):
    payload = json.loads(k_family_file.read_text())
    edit(payload)
    k_family_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "norm", "eval", "--family", str(k_family_file),
                         "--vec", "0:1,1:1")
    assert code == 2
    assert out == "" and str(k_family_file) in err


def _move_unit(payload):
    unit = next(e for e in payload["families"]["2:0"] if e["vec"] == {"3": "1"})
    unit["vec"] = {"0": "1", "2": "1"}


def _change_eps_value(payload):
    entry = next(e for e in payload["families"]["2:0"] if e["origin"].get("alpha") == 1)
    entry["vec"]["3"] = "5"


def _edit_1_2_and_2_0(payload):
    payload["families"]["1:2"][2]["vec"].update({"3": "2"})
    _move_unit(payload)


# edits of built 1,2,4;2,3;0,1 family files that loading refuses because the
# writer writes something else for the family rebuilt from the file, each
# naming the first field or set that differs: the K=2 unit at 3 moved onto
# {0, 2} (norm 2 instead of 1 when only the first set of a rank was parsed),
# an eps value 1/2 changed to 5 (norm 6 instead of 3/2 then), an origin rank
# written as `true` or `1.0` where the writer writes `1`, a parameter not in
# the writer's spelling, an eps file with a nonzero scale_cap, and a
# scale_cap far past the file's 0:0, refused before anything is built; and
# at 1:2, a set whose entries the writer moves from 1:0's: a vec key, an
# alpha or a cut left at 1:0's value, a merged origin's rank written as
# `true`, an alpha written as a float, and an edit there named before one at
# 2:0
@pytest.mark.parametrize("space, param, edit, vec, where", [
    ("k", "2", _move_unit, "0:1,1:-1,2:1,3:-1", "2:0 is not the writer's"),
    ("eps", "1/2", _change_eps_value, "1:1,3:1", "2:0 is not the writer's"),
    ("k", "2", lambda p: p["families"]["1:0"][0]["origin"].update(rank=True), "0:1",
     "1:0 is not the writer's"),
    ("eps", "1/2", lambda p: p["families"]["1:1"][0]["origin"].update(rank=1.0), "0:1",
     "1:1 is not the writer's"),
    ("k", "2", lambda p: p.update(param="4/2"), "0:1", "param is not the writer's"),
    ("eps", "1/2", lambda p: p.update(scale_cap=1), "0:1",
     "scale_cap is not the writer's: 1 where it writes 0"),
    ("k", "2", lambda p: p.update(scale_cap=100000), "0:1", "0:0 is not the writer's"),
    ("eps", "1/2", lambda p: _rename(p["families"]["1:2"][1]["vec"], "3", "1"), "0:1",
     "1:2 is not the writer's"),
    ("eps", "1/2", lambda p: p["families"]["1:2"][1]["origin"].update(alpha=1), "0:1",
     "1:2 is not the writer's"),
    ("k", "2", lambda p: p["families"]["1:2"][3]["origin"].update(cut=1), "0:1",
     "1:2 is not the writer's"),
    ("k", "2", lambda p: p["families"]["1:2"][3]["merged"][0].update(rank=True), "0:1",
     "1:2 is not the writer's"),
    ("eps", "1/2", lambda p: p["families"]["1:2"][1]["origin"].update(alpha=3.0), "0:1",
     "1:2 is not the writer's"),
    ("k", "2", _edit_1_2_and_2_0, "0:1", "1:2 is not the writer's"),
], ids=["k_unit_moved", "eps_value_changed", "boolean_rank", "float_rank",
        "param_not_canonical",
        "eps_scale_cap", "k_scale_cap_past_its_units", "derived_vec_key_moved",
        "derived_alpha_unmoved", "derived_cut_unmoved", "derived_boolean_merged_rank",
        "derived_float_alpha", "derived_set_named_before_2_0"])
def test_family_file_must_be_the_writers(tmp_path, capsys, space, param, edit, vec,
                                         where):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1", "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", space, "--param", param, "--out", str(family_file))
    payload = json.loads(family_file.read_text())
    edit(payload)
    family_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "norm", "eval", "--family", str(family_file),
                         "--vec", vec)
    assert code == 2
    assert out == "" and str(family_file) in err and where in err


# a 1,2,4;2,3;0,1 K=2 file with scale_cap 6400 whose 0:0 is 6,401 empty
# objects (30 KB): 0:0 is compared with the writer's units before anything is
# built, so the closure the file asks for is never run
def test_zero_zero_is_refused_before_building(tmp_path, capsys, monkeypatch):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1", "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", "k", "--param", "2", "--out", str(family_file))
    payload = json.loads(family_file.read_text())
    payload["scale_cap"] = 6400
    payload["families"]["0:0"] = [{} for _ in range(6401)]
    family_file.write_text(json.dumps(payload))
    monkeypatch.setattr(norming, "build_K_family",
                        lambda *args: pytest.fail("the family was built"))
    code, out, err = run(capsys, "norm", "eval", "--family", str(family_file),
                         "--vec", "0:1")
    assert code == 2
    assert out == "" and str(family_file) in err and "0:0 is not the writer's" in err


# a family file whose embedded scheme lists a set twice, with a family for
# each listing: the sweeps would count the duplicate's nested pairs twice
def test_family_with_a_set_listed_twice_is_config_error(tmp_path, capsys):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1", "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", "k", "--param", "2", "--out", str(family_file))
    payload = json.loads(family_file.read_text())
    payload["scheme"]["levels"][0].append([3])
    payload["families"]["0:4"] = payload["families"]["0:3"]
    family_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "analyze", "coherence", "--family", str(family_file))
    assert code == 2
    assert out == "" and str(family_file) in err


@pytest.mark.parametrize("type_obj", [
    {"m": [True, 2, 4], "n": [2, 3], "r": [0, 1]},
    {"m": [1, 2, 4], "n": [2, 3], "r": [False, 1]},
], ids=["boolean_m", "boolean_r"])
def test_type_file_with_booleans_is_config_error(tmp_path, capsys, type_obj):
    type_file = tmp_path / "t.json"
    type_file.write_text(json.dumps(type_obj))
    code, out, err = run(capsys, "scheme", "build", "--type", str(type_file))
    assert code == 2
    assert str(type_file) in err and out == ""


@pytest.mark.parametrize("argv", [
    ["welldef", "--samples", "-3"],
    ["welldef", "--samples", "0"],
    ["coherence", "--lp-every", "-1"],
], ids=["negative_samples", "zero_samples", "negative_lp_every"])
def test_sweep_arguments_are_checked(k_family_file, capsys, argv):
    code, out, err = run(capsys, "analyze", argv[0], "--family", str(k_family_file),
                         *argv[1:])
    assert code == 2
    assert out == "" and argv[1][2:].replace("-", "_") in err


# an option of `analyze` that only one analysis reads is refused, naming it,
# by every other analysis, before the family is read; 0 is refused too
ANALYZE_OTHERS = {"coherence": ["biorth", "basis-constant", "welldef"],
                  "welldef": ["biorth", "basis-constant", "coherence"]}


def _refused_outside(k_family_file, capsys, option, value, reader):
    for what in ANALYZE_OTHERS[reader]:
        code, out, err = run(capsys, "analyze", what, "--family", str(k_family_file),
                             option, value)
        assert code == 2 and out == ""
        assert f"configuration error: {option} applies only to analyze {reader}" in err


@pytest.mark.parametrize("value", ["3", "0"])
def test_lp_every_is_coherence_only(k_family_file, capsys, value):
    _refused_outside(k_family_file, capsys, "--lp-every", value, "coherence")


@pytest.mark.parametrize("value", ["10", "200"])
def test_samples_is_welldef_only(k_family_file, capsys, value):
    _refused_outside(k_family_file, capsys, "--samples", value, "welldef")


@pytest.mark.parametrize("value", ["1", "0"])
def test_seed_is_welldef_only(k_family_file, capsys, value):
    _refused_outside(k_family_file, capsys, "--seed", value, "welldef")


def test_analyze_options_are_read_by_their_analysis(k_family_file, capsys):
    family = family_loads(k_family_file.read_text())
    for argv, report in [
            (["coherence"], coherence_report(family)),
            (["coherence", "--lp-every", "1"], coherence_report(family, lp_every=1)),
            (["welldef"], well_definedness_report(family)),
            (["welldef", "--samples", "7", "--seed", "3"],
             well_definedness_report(family, samples=7, seed=3))]:
        code, out, _ = run(capsys, "analyze", argv[0], "--family", str(k_family_file),
                           *argv[1:])
        assert code == 0
        assert out == json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"


def test_zero_denominator_vector_is_config_error(k_family_file, capsys):
    code, _, err = run(capsys, "norm", "eval", "--family", str(k_family_file),
                       "--vec", "0:1/0")
    assert code == 2
    assert "zero denominator" in err


# numbers that Fraction or int would read but that are outside the grammar
# format_rational writes: a decimal, an exponent, a "_" separator, a "+" sign,
# a non-ASCII digit
@pytest.mark.parametrize("text", ["1.5", "1e3", "1_0", "+2", "\u0663"],
                         ids=["decimal", "exponent", "underscore", "plus", "arabic_digit"])
@pytest.mark.parametrize("argv", [
    ["norm", "eval", "--family", "H.json", "--vec", "0:{}"],
    ["norming", "build", "--scheme", "s.json", "--space", "k", "--param", "{}",
     "--out", "H2.json"],
], ids=["vec", "param"])
def test_number_outside_the_p_q_grammar_is_config_error(k_family_file, capsys,
                                                         argv, text):
    argv = [str(k_family_file.with_name(a)) if a.endswith(".json") else a.format(text)
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and f"{text!r} is not a rational" in err


@pytest.mark.parametrize("text", ["+0", "0_0", "\u0660"],
                         ids=["plus", "underscore", "arabic_digit"])
def test_vec_position_outside_ascii_digits_is_config_error(k_family_file, capsys, text):
    code, out, err = run(capsys, "norm", "eval", "--family", str(k_family_file),
                         "--vec", f"{text}:1")
    assert code == 2
    assert out == "" and f"position {text!r} is not written in ASCII digits" in err


# integers that int() would read but that are outside the "p" of the p/q
# grammar: a "_" separator, a "+" sign, a non-ASCII digit; argparse refuses
# an option value itself (exit 2), the library a comma list
@pytest.mark.parametrize("text", ["1_0", "+3", "\u0662"],
                         ids=["underscore", "plus", "arabic_digit"])
@pytest.mark.parametrize("argv", [
    ["type", "validate", "--m", "1,{}", "--n", "2", "--r", "0"],
    ["type", "validate", "--m", "1,2", "--n", "{}", "--r", "0"],
    ["scheme", "build", "--type", "1,{};2;0"],
    ["analyze", "welldef", "--family", "H.json", "--samples", "{}"],
    ["analyze", "welldef", "--family", "H.json", "--seed", "{}"],
    ["analyze", "coherence", "--family", "H.json", "--lp-every", "{}"],
    ["norming", "build", "--scheme", "s.json", "--space", "k", "--param", "2",
     "--scale-cap", "{}", "--out", "H2.json"],
    ["experiment", "eps", "--type", "1,6;6;0", "--eps", "1/2", "--n", "{}"],
    ["experiment", "kbasis", "--type", "1,8;8;0", "--k", "2", "--L", "5/4",
     "--n", "{}"],
    ["experiment", "kbasis", "--type", "1,8;8;0", "--k", "2", "--L", "5/4",
     "--n", "4", "--scale-cap", "{}"],
], ids=["type_list", "type_n_list", "inline_type", "samples", "seed", "lp_every",
        "norming_scale_cap", "eps_n", "kbasis_n", "kbasis_scale_cap"])
def test_integer_outside_ascii_digits_is_config_error(k_family_file, capsys, argv, text):
    argv = [str(k_family_file.with_name(a)) if a.endswith(".json") else a.format(text)
            for a in argv]
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and repr(text) in err


def test_negative_root_size_is_a_claim_failure(capsys):
    code, out, _ = run(capsys, "type", "validate", "--m", "1,2", "--n", "2", "--r", "-1")
    assert code == 1
    assert {v["constraint"] for v in json.loads(out)["violations"]} >= {"root_nonnegative"}


# a zero value is dropped from the vector, but its position is still checked
@pytest.mark.parametrize("mode", ["local", "all"])
@pytest.mark.parametrize("vec", ["999:1", "0:1,999:1", "9:0", "0:1,2:0"])
def test_norm_refuses_positions_outside_the_universe(k_family_file, capsys, mode, vec):
    code, out, err = run(capsys, "norm", "eval", "--family", str(k_family_file),
                         "--vec", vec, "--norm-mode", mode)
    assert code == 2
    assert out == "" and "exceed the universe" in err


@pytest.mark.parametrize("argv", [
    ["norm", "eval", "--vec", "0:1,0:2", "--family", None],
    ["experiment", "eps", "--type", "1,6;6;0", "--eps", "1/2", "--n", "1",
     "--pattern", "0:1, 00:2"],
], ids=["vec", "pattern"])
def test_repeated_vector_position_is_config_error(k_family_file, capsys, argv):
    argv = [str(k_family_file) if a is None else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "position 0 appears twice" in err


def test_coherence_reports_a_missing_functional_as_failure(tmp_path, capsys):
    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    run(capsys, "scheme", "build", "--type", "1,2,4;2,3;0,1",
        "--out", str(scheme_file))
    run(capsys, "norming", "build", "--scheme", str(scheme_file),
        "--space", "eps", "--param", "1/2", "--out", str(family_file))
    payload = json.loads(family_file.read_text())
    payload["families"]["1:0"].pop()  # the functional at 1 of {0, 1}
    family_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "analyze", "coherence", "--family", str(family_file))
    assert code == 2
    assert out == "" and str(family_file) in err


@pytest.mark.parametrize("content", [b"[" * 100000, b'{"levels": [}', b"\xff{}"],
                         ids=["deep_nesting", "syntax_error", "not_utf8"])
@pytest.mark.parametrize("argv", [
    ["scheme", "check"],
    ["norm", "eval", "--vec", "0:1", "--family"],
    ["scheme", "build", "--type"],
], ids=["scheme", "family", "type"])
def test_undecodable_json_is_io_error_naming_the_file(tmp_path, capsys, content, argv):
    bad_file = tmp_path / "bad.json"
    bad_file.write_bytes(content)
    code, out, err = run(capsys, *argv, str(bad_file))
    assert code == 3
    assert out == "" and err.startswith("i/o error") and str(bad_file) in err


def test_reports_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert main(["experiment", "kbasis", "--k", "2", "--n", "4",
                     "--L", "5/4", "--type", "1,8;8;0", "--out", str(path)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CSW_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "scheme", "build", "--type", "1,2;2;0",
                     "--out", "nested/s.json")
    assert code == 0
    assert (tmp_path / "nested" / "s.json").exists()


def test_out_file_honours_umask(tmp_path, capsys):
    out_file = tmp_path / "s.json"
    previous = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "scheme", "build", "--type", "1,2;2;0",
                         "--out", str(out_file))
    finally:
        os.umask(previous)
    assert code == 0
    assert out_file.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize("argv, message", [
    (["eps", "--eps", "1/2", "--n", "1", "--type", "1,6;6;0", "--pattern", "0:0"],
     "pattern must be nonzero"),
    (["kbasis", "--k", "2", "--n", "4", "--L", "5/4", "--type", "1,8;8;0", "--pattern", "0:0"],
     "pattern must be nonzero"),
    (["kbasis", "--k", "2", "--n", "4", "--L", "5/4", "--kprime", "5/4", "--type", "1,8;8;0"],
     "need 1 <= K' < L < K, got K'=5/4, L=5/4, K=2"),
], ids=["eps-zero-pattern", "kbasis-zero-pattern", "kprime-at-L"])
def test_experiment_refusals_are_config_errors(capsys, argv, message):
    code, out, err = run(capsys, "experiment", *argv)
    assert code == 2
    assert out == "" and err == f"configuration error: {message}\n"


def test_a_failed_write_leaves_no_temp_file_and_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()  # replacing a directory with the written file fails
    code, out, err = run(capsys, "scheme", "build", "--type", "1,2;2;0", "--out", str(target))
    assert code == 3
    assert out == "" and err.startswith("i/o error") and str(target) in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"] and not any(target.iterdir())
