import json
import os
import subprocess
import sys
import time

import pytest

import forge
from forge import magic
from forge.cli import main, make_parser


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "tables" in out and "e8-dempwolff" in out


def test_build_round_trip(tmp_path, capsys):
    path = tmp_path / "okubo.alg"
    assert main(["build", "okubo:2,3", "--out", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("dim 8 over Q(w)")
    from forge.algebra import algebra_from_text
    back = algebra_from_text(text)
    assert back.to_text() == text
    # nonzero products of the Okubo table: one per basis pair row entry
    assert sum(1 for ln in text.splitlines() if "->" in ln) == 32


def test_build_unknown_is_usage_error(capsys):
    assert main(["build", "nonsense"]) == 2


@pytest.mark.parametrize("spec, want", [("okubo:1", 2), ("s2:1,2", 1),
                                        ("quadratic:1,2", 1), ("k:1", 0)])
def test_build_wrong_parameter_count_is_usage_error(spec, want, capsys):
    assert main(["build", spec]) == 2
    assert "takes %d parameter(s)" % want in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "dim 2 over Q(w)\n0 9 -> 1:1\n",
    "dim 2 over Q(w)\n0 0 -> 1:1\npolar 5 5 1\n",
    "dim -1 over Q(w)\n",
    "dim 2 over Q(w)\n0 1 -> 0:1/0\n",
    "dim 2 over Q(w)\n0 1 -> 0:1\n0 1 -> 1:1\n",
    "dim 2 over Q(w)\n0 1 -> 0:1,0:2\n",
    "dim 2 over Q(w)\n0 0 -> 0:1\npolar 0 1 1\npolar 1 0 2\n",
])
@pytest.mark.parametrize("what", ["lie", "jordan", "composition", "symmetric"])
def test_verify_rejects_malformed_algebra_file(tmp_path, capsys, text, what):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert main(["verify", what, "--algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("line", ["deg 99 = 1 0", "deg -1 = 1 0", "deg = 1 0",
                                  "deg 0 = 1 0\ndeg 0 = 2 0"])
def test_grade_rejects_malformed_degree_line(tmp_path, capsys, line):
    apath, gpath = tmp_path / "okubo.alg", tmp_path / "bad.grad"
    assert main(["build", "okubo:1,1", "--out", str(apath)]) == 0
    gpath.write_text("group free=0 torsion=3,3\n%s\n" % line)
    capsys.readouterr()
    assert main(["grade", "--algebra", str(apath), "--grading", str(gpath),
                 "--check"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("line", ["0 0 ->", "0 -> 0:1", "0 1 0:1", "polar 0 1"])
def test_verify_names_a_malformed_algebra_line(tmp_path, capsys, line):
    path = tmp_path / "bad.alg"
    path.write_text("dim 2 over Q(w)\n%s\n" % line)
    assert main(["verify", "lie", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed line %r\n" % line


@pytest.mark.parametrize("text, bad", [
    ("dim 2 over Q(w)\na 0 -> 0:1\n", "line 'a 0 -> 0:1'"),
    ("dim 2 over Q(w)\n0 1 -> z:1\n", "line '0 1 -> z:1'"),
    ("dim 2 over Q(w)\n0 0 -> 0:1\npolar q 0 1\n", "line 'polar q 0 1'"),
    ("dim x over Q(w)\n", "header 'dim x over Q(w)'"),
])
def test_verify_names_a_non_integer_index(tmp_path, capsys, text, bad):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert main(["verify", "lie", "--algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: malformed %s\n" % bad and "Traceback" not in err


@pytest.mark.parametrize("line", ["0 1 -> 0:a", "0 1 -> 0:1/0", "1 1 -> 0:1,1:2/",
                                  "polar 0 1 1+x*w"])
def test_verify_names_a_malformed_coefficient(tmp_path, capsys, line):
    path = tmp_path / "bad.alg"
    path.write_text("dim 2 over Q(w)\n0 0 -> 1:1\n%s\n" % line)
    assert main(["verify", "lie", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed line %r\n" % line


@pytest.mark.parametrize("line", [
    "0 0 -> 0:1e9999999", "0 0 -> 0:1e5", "0 0 -> 0:1.5", "0 0 -> 0:1_0",
    "0 0 -> 0:\u0661", "0 1_0 -> 0:1", "0 \u0661 -> 0:1", "polar 0 1 1e9999999"])
def test_verify_rejects_what_the_formatter_never_writes(tmp_path, capsys, line):
    path = tmp_path / "bad.alg"
    path.write_text("dim 11 over Q(w)\n%s\n" % line, encoding="utf-8")
    start = time.perf_counter()
    assert main(["verify", "lie", "--algebra", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: malformed line %r\n" % line


@pytest.mark.parametrize("spec", ["okubo:1e9999999,1", "okubo:1.5,1",
                                  "okubo:1_0,1", "okubo:\u0661,1"])
def test_magic_rejects_a_parameter_the_formatter_never_writes(spec, capsys):
    start = time.perf_counter()
    assert main(["magic", "--left", spec]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed scalar")
    assert captured.out == ""


@pytest.mark.parametrize("text, bad", [
    ("group free=0 torsion=3,3\ndeg x = 1 0\n", "line 'deg x = 1 0'"),
    ("group free=0 torsion=3,3\ndeg 0 = 1 a\n", "line 'deg 0 = 1 a'"),
    ("group free=a\n", "group header 'group free=a'"),
    ("group torsion=3,b\n", "group header 'group torsion=3,b'"),
])
def test_grade_names_a_non_integer_entry(tmp_path, capsys, text, bad):
    apath, gpath = tmp_path / "okubo.alg", tmp_path / "bad.grad"
    assert main(["build", "okubo:1,1", "--out", str(apath)]) == 0
    gpath.write_text(text)
    capsys.readouterr()
    assert main(["grade", "--algebra", str(apath), "--grading", str(gpath),
                 "--check"]) == 2
    err = capsys.readouterr().err
    assert err == "error: malformed %s\n" % bad and "Traceback" not in err


@pytest.mark.parametrize("line", ["deg 0 1 = 1 1", "deg 0 1 1"])
def test_grade_names_a_malformed_degree_line(tmp_path, capsys, line):
    apath, gpath = tmp_path / "okubo.alg", tmp_path / "bad.grad"
    assert main(["build", "okubo:1,1", "--out", str(apath)]) == 0
    gpath.write_text("group free=0 torsion=3,3\n%s\n" % line)
    capsys.readouterr()
    assert main(["grade", "--algebra", str(apath), "--grading", str(gpath),
                 "--check"]) == 2
    assert capsys.readouterr().err == "error: malformed line %r\n" % line


@pytest.mark.parametrize("text", [
    "group free=0 torsion=0\ndeg 0 = 0\n",
    "group free torsion=3\ndeg 0 = 0\n",
    "group free=-1 torsion=3\ndeg 0 =\n",
    "group free=1 torsion=-2\ndeg 0 = 0 0\n",
    "group free=0 torsion=3,1\ndeg 0 = 0 0\n",
    "group free=0 torsion=3,3 rank=2\ndeg 0 = 0 0\n",
    # free ranks above the dimension 8 are refused before any allocation
    "group free=9 torsion=-\ndeg 0 = 1 0 0 0 0 0 0 0 0\n",
    "group free=1999999999999 torsion=2\ndeg 0 = 1\n",
])
def test_grade_rejects_malformed_group_header(tmp_path, capsys, text):
    apath, gpath = tmp_path / "okubo.alg", tmp_path / "bad.grad"
    assert main(["build", "okubo:1,1", "--out", str(apath)]) == 0
    gpath.write_text(text)
    capsys.readouterr()
    assert main(["grade", "--algebra", str(apath), "--grading", str(gpath),
                 "--check"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_grade_check_type_universal(capsys):
    rc = main(["grade", "--family", "okubo", "--kind", "z3^2",
               "--check", "--type", "--universal", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["type"] == [8]
    assert payload["universal"] == "Z3 x Z3"


def test_grade_emit_and_check_files(tmp_path, capsys):
    apath = tmp_path / "okubo.alg"
    gpath = tmp_path / "okubo.grad"
    assert main(["build", "okubo:1,1", "--out", str(apath)]) == 0
    assert main(["grade", "--family", "okubo", "--kind", "z3^2",
                 "--out", str(gpath)]) == 0
    capsys.readouterr()
    rc = main(["grade", "--algebra", str(apath), "--grading", str(gpath),
               "--check", "--type", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True and payload["type"] == [8]


@pytest.mark.parametrize("argv, want", [
    (["--algebra", "{alg}", "--check"], "--algebra and --grading go together"),
    (["--grading", "{grad}", "--check"], "--algebra and --grading go together"),
    (["--family", "dim2", "--params", "1,2", "--check"],
     "grading family 'dim2' takes 1 parameter(s), got 2"),
    (["--family", "okubo", "--kind", "z3", "--params", "1"],
     "grading family 'okubo' takes 2 parameter(s), got 1"),
], ids=["algebra-alone", "grading-alone", "dim2-params", "okubo-params"])
def test_grade_argument_mismatch_is_usage_error(argv, want, tmp_path, capsys):
    files = {"alg": tmp_path / "okubo.alg", "grad": tmp_path / "okubo.grad"}
    assert main(["build", "okubo:1,1", "--out", str(files["alg"])]) == 0
    assert main(["grade", "--family", "okubo", "--kind", "z3^2",
                 "--out", str(files["grad"])]) == 0
    capsys.readouterr()
    assert main(["grade"] + [a.format(**files) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: %s\n" % want


@pytest.mark.parametrize("family, kind, params", [
    ("okubo", "z4", "0,0"), ("okubo", "z-5grading", "1,1"),
    ("okubo", "z-3grading", "1,1"), ("okubo", "z^2", "5,7"),
    ("okubo", "zxz2", "1,1"), ("cayley", "z3", "0,0,0"),
    ("cayley", "z4", "1,1,1"), ("cayley", "z-3grading", "1,1,1"),
    ("cayley", "z-5grading", "1,1,1"), ("cayley", "z^2", "1,1,1"),
    ("cayley", "zxz2", "2,3,5"), ("quaternion", "z-3grading", "1,1"),
])
def test_grade_fixed_algebra_kinds_refuse_params(family, kind, params, capsys):
    argv = ["grade", "--family", family, "--kind", kind, "--check"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--params", params]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == \
        "error: %s grading kind %r takes no parameters\n" % (family, kind)


def test_verify_command(capsys):
    assert main(["verify", "composition", "--name", "split-cayley"]) == 0
    assert main(["verify", "symmetric", "--name", "split-cayley"]) == 1
    assert main(["verify", "symmetric", "--name", "okubo:1,1"]) == 0


def test_scenario_exit_codes(capsys):
    assert main(["scenario", "tables"]) == 0
    assert main(["scenario", "no-such-scenario"]) == 2
    # the toral-operator bundle carries the documented red claim
    assert main(["scenario", "toral-operator"]) == 1


def test_scenario_json(capsys):
    assert main(["scenario", "round-trip", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["details"]["claims"])


def test_scenario_json_is_byte_identical(tmp_path, capsys):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["scenario", "round-trip", "--json", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "timings" not in json.loads(outs[0].read_text())
    assert main(["scenario", "round-trip", "--json", "--timings"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["timings"]["wall_time_s"] >= 0
    assert payload["details"] == json.loads(outs[0].read_text())["details"]


def test_e8_dempwolff_scenario(tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["scenario", "e8-dempwolff", "--json", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    claims = {c["id"]: c for c in json.loads(outs[0].read_text())["details"]["claims"]}
    assert all(c["passed"] for c in claims.values())
    assert claims["component-count"]["got"] == "31"
    assert claims["component-dim"]["got"] == "8"


def test_cli_import_leaves_numpy_unloaded():
    # no checker runs the modular rank bound, the only code that loads numpy
    src = os.path.dirname(os.path.dirname(forge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, forge.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


def test_e8_dempwolff_scenario_leaves_numpy_unloaded():
    # is_cartan certifies with exact ranks only, so no modular bound runs
    src = os.path.dirname(os.path.dirname(forge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from forge.cli import main; "
            "rc = main(['scenario', 'e8-dempwolff']); "
            "print(rc, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.splitlines()[-1] == "0 False"


def test_jordan_layer_leaves_numpy_unloaded():
    # phi_isomorphism bounds dim Der(J) by an exact rank, not a modular one
    src = os.path.dirname(os.path.dirname(forge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from forge.cli import main; "
            "rc = main(['scenario', 'jordan-layer']); "
            "print(rc, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.splitlines()[-1] == "0 False"


def test_magic_small(capsys):
    rc = main(["magic", "--left", "s1", "--right", "s2:1", "--check", "jacobi",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    dims = [r for r in payload if r["name"] == "dimension"]
    assert dims[0]["details"]["dim"] == 8


@pytest.mark.parametrize("extra", [["--left", "okubo:2,3"], ["--right", "s1"],
                                   ["--left", "okubo:2,3", "--right", "s1"]])
def test_magic_grade_rejects_left_and_right(extra, capsys):
    assert main(["magic", "--grade", "z2_8"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_magic_grade_z3_5(capsys):
    assert main(["magic", "--grade", "z3_5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["details"]["dim"] == 248
    types = [r for r in payload if r["name"].startswith("type(")]
    assert types[0]["details"]["type"] == [240, 0, 0, 2]


def test_magic_grade_dempwolff_check_cartan(capsys):
    # every one of the 31 components of the Dempwolff decomposition of e8 is
    # certified as a Cartan subalgebra
    assert main(["magic", "--grade", "dempwolff", "--check", "cartan",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jordan = [r for r in payload if r["name"] == "jordan-grading(e8)"]
    assert jordan[0]["passed"]
    assert jordan[0]["details"] == {"components": 31, "component_dim": 8}


@pytest.mark.parametrize("grade, dim, want", [("f4_z2_5", 52, [24, 0, 0, 7]),
                                             ("f4_z3_3", 52, [0, 26]),
                                             ("e6_z3_3", 78, [0, 0, 26])])
def test_magic_grade_builds_every_lie_row(grade, dim, want, capsys):
    assert main(["magic", "--grade", grade, "--json"]) == 0
    dimension, verified, gtype = json.loads(capsys.readouterr().out)
    assert dimension["details"]["dim"] == dim
    assert verified["name"].startswith("grading(") and verified["passed"]
    assert gtype["details"]["type"] == want


@pytest.mark.parametrize("grade, name", [("f4_z3_3", "grading(f4(okubo(1,1)):z3^3)"),
                                         ("e6_z3_3", "grading(e6:z3^3)"),
                                         ("z3_5", "grading(e8w:z3^5)")])
def test_magic_grade_names_a_ternary_grading_once(grade, name, capsys):
    # the theta-eigenbasis rebase keeps the name of the algebra it rebases
    assert main(["magic", "--grade", grade, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[1]["name"] == name


def test_list_names_every_magic_grade(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = out.split("induced gradings (forge magic --grade):\n  ")[1]
    names = names.splitlines()[0].split(", ")
    lie_rows = [n for n, row in magic.INDUCED.items() if row[0] is not None]
    assert names == lie_rows + ["z2_8", "z3_5", "dempwolff"]
    parser = make_parser()
    for name in names:
        assert parser.parse_args(["magic", "--grade", name]).grade == name
    with pytest.raises(SystemExit):
        parser.parse_args(["magic", "--grade", "albert_z2_5"])


def test_build_nested_albert(capsys):
    assert main(["verify", "jordan", "--name", "albert:okubo:1,1"]) == 0
    assert main(["verify", "lie", "--name", "albert:okubo:1,1"]) == 1


def test_grade_dim2_refuses_other_kinds(capsys):
    assert main(["grade", "--family", "dim2", "--kind", "nonsense", "--type"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown dim2 grading kind 'nonsense'\n"
    assert main(["list"]) == 0
    assert "\n  dim2: z3\n" in capsys.readouterr().out


@pytest.mark.parametrize("name, algebra", [("p8", "P8"), ("p8-nst", "P8(nst)"),
                                           ("p8-omega", "P8(omega)")])
def test_verify_names_the_petersson_algebra(name, algebra, capsys):
    assert main(["verify", "symmetric", "--name", name, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "symmetric(%s)" % algebra


def test_grade_type_of_a_zero_dimensional_algebra(tmp_path, capsys):
    apath, gpath = tmp_path / "zero.alg", tmp_path / "zero.grad"
    apath.write_text("dim 0 over Q(w)\n")
    gpath.write_text("group free=0 torsion=-\n")
    assert main(["grade", "--algebra", str(apath), "--grading", str(gpath),
                 "--type"]) == 0
    assert capsys.readouterr().out == "verified: True\ntype: []\n"


@pytest.mark.parametrize("argv, name", [
    (["build", "albert:mat2"], "mat2"),
    (["magic", "--left", "cd:1,1,1"], "CD(CD(CD(k,1),1),1)"),
])
def test_a_non_symmetric_algebra_is_named_as_such(argv, name, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: %s is not a symmetric composition algebra\n" % name


def test_grade_dim2_family(capsys):
    rc = main(["grade", "--family", "dim2", "--check", "--type",
               "--universal", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == [2] and payload["universal"] == "Z3"


def test_every_builder_emits_and_reingests(tmp_path):
    from forge.cli import _BUILDERS, build_algebra
    from forge.algebra import algebra_from_text
    for name in sorted(_BUILDERS):
        A = build_algebra(name)
        text = A.to_text()
        assert algebra_from_text(text).to_text() == text, name


def test_help_exits_zero():
    assert main(["--help"]) == 0
