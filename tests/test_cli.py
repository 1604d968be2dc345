import json
import subprocess
import sys

import pytest

from braidalg.builtin import builtin_sl
from braidalg.cli import main
from braidalg.fixtures import (matrix_entries, representation_fixture,
                               write_fixture)
from braidalg.linalg import BraidedSpace, SymMatrix, flip_matrix
from braidalg.scalar import ONE
from braidalg.uqg import Gen, Representation


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "braidalg", *args],
                          capture_output=True, text=True)
    return proc


def test_validate_r_builtin_ok(tmp_path):
    out = tmp_path / "v.json"
    proc = run_cli(["validate-r", "--builtin", "sl:2", "--show-minimal-poly",
                    "--json-out", str(out)])
    assert proc.returncode == 0
    assert "braid equation: holds" in proc.stdout
    assert "minimal polynomial" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert doc["braid_equation"] is True
    assert doc["minimal_poly"] == ["-1", "-q + q^-1", "1"]


def test_validate_r_flip_fixture(tmp_path):
    fixture = tmp_path / "flip.json"
    write_fixture({"kind": "rmatrix", "dim": 2, "form": "braiding",
                   "name": "flip", "entries": matrix_entries(flip_matrix(2))},
                  fixture)
    proc = run_cli(["validate-r", "--input", str(fixture),
                    "--show-minimal-poly"])
    assert proc.returncode == 0
    assert "minimal polynomial: x^2 - 1" in proc.stdout


def test_validate_r_non_braid_exits_1(tmp_path):
    bad = SymMatrix.from_diagonal([ONE, ONE, ONE, ONE]) + \
        SymMatrix.unit(4, 1, 2)
    fixture = tmp_path / "bad.json"
    write_fixture({"kind": "rmatrix", "dim": 2, "form": "braiding",
                   "entries": matrix_entries(bad)}, fixture)
    proc = run_cli(["validate-r", "--input", str(fixture)])
    assert proc.returncode == 1
    assert "FAILS" in proc.stdout


def test_validate_r_malformed_fixture_exits_2(tmp_path):
    fixture = tmp_path / "trunc.json"
    fixture.write_text('{"kind": "rmatrix", "dim": 2, "entries": [["q"]]}')
    proc = run_cli(["validate-r", "--input", str(fixture)])
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_validate_r_unreadable_json_exits_2(tmp_path):
    fixture = tmp_path / "broken.json"
    fixture.write_text('{"kind": ')
    proc = run_cli(["validate-r", "--input", str(fixture)])
    assert proc.returncode == 2


def test_chi_relations_output():
    proc = run_cli(["chi", "--builtin", "sl:3", "--poly", "x - q",
                    "--show-relations"])
    assert proc.returncode == 0
    for line in ("x1 x2 = q*x2 x1", "x1 x3 = q*x3 x1", "x2 x3 = q*x3 x2"):
        assert line in proc.stdout


def test_chi_hilbert_output():
    proc = run_cli(["chi", "--builtin", "sl:2", "--poly", "x + q^-1",
                    "--hilbert", "--max-degree", "4"])
    assert proc.returncode == 0
    assert "hilbert: 1, 2, 1, 0, 0" in proc.stdout


def test_chi_invertible_poly_warns():
    proc = run_cli(["chi", "--builtin", "sl:2", "--poly", "x - q^5"])
    assert proc.returncode == 0
    assert "warning" in proc.stdout
    assert "rank: 4" in proc.stdout


def test_chi_bad_poly_exits_2():
    proc = run_cli(["chi", "--builtin", "sl:2", "--poly", "x + *"])
    assert proc.returncode == 2


def test_chi_relations_fixture(tmp_path):
    fixture = tmp_path / "rels.json"
    write_fixture({
        "kind": "relations", "alphabet": 2, "name": "quantum plane",
        "relations": [[{"coeff": "1", "word": [1, 2]},
                       {"coeff": "-q", "word": [2, 1]}]],
    }, fixture)
    proc = run_cli(["chi", "--input", str(fixture), "--hilbert",
                    "--max-degree", "3"])
    assert proc.returncode == 0
    assert "hilbert: 1, 2, 3, 4" in proc.stdout


def test_check_builtin_all_subchecks():
    proc = run_cli(["check", "--rep", "sl:2", "relations", "admissible",
                    "ideal", "--poly", "x - q"])
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_check_measuring_cli():
    proc = run_cli(["check", "--rep", "sl:2", "measuring", "--poly", "x - q",
                    "--max-degree", "3", "--samples", "100", "--seed", "1"])
    assert proc.returncode == 0


def test_check_ideal_and_measuring_together(capsys):
    # both subchecks share one relation set; the output is that of the two
    # runs one after the other
    outs = []
    for subs in (["ideal"], ["measuring"], ["ideal", "measuring"]):
        assert main(["check", "--rep", "sl:2", *subs, "--poly", "x - q",
                     "--max-degree", "3", "--samples", "50",
                     "--seed", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[2] == outs[0] + outs[1]
    assert main(["check", "--rep", "sl:2", "ideal", "measuring",
                 "--poly", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_check_independence_cli():
    proc = run_cli(["check", "--rep", "sl:2", "independence"])
    assert proc.returncode == 0
    assert "necessary" in proc.stdout


def test_validate_r_reports_convention():
    proc = run_cli(["validate-r", "--builtin", "sl:3"])
    assert proc.returncode == 0
    assert "convention" in proc.stdout


def test_check_mutated_representation_fails(tmp_path):
    rep, space = builtin_sl(2)
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    mutated = Representation(rep.presentation, assign, name="mutated")
    fixture = tmp_path / "mutated.json"
    write_fixture(representation_fixture(mutated, space), fixture)
    proc = run_cli(["check", "--rep", str(fixture), "admissible"])
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_check_rep_fixture_roundtrip(tmp_path):
    rep, space = builtin_sl(2)
    fixture = tmp_path / "sl2.json"
    write_fixture(representation_fixture(rep, space), fixture)
    proc = run_cli(["check", "--rep", str(fixture), "relations", "admissible"])
    assert proc.returncode == 0


def test_check_missing_space_exits_2(tmp_path):
    rep, _ = builtin_sl(2)
    fixture = tmp_path / "nospace.json"
    write_fixture(representation_fixture(rep), fixture)
    proc = run_cli(["check", "--rep", str(fixture), "admissible"])
    assert proc.returncode == 2


def test_check_rmatrix_override(tmp_path):
    rep, _ = builtin_sl(2)
    fixture = tmp_path / "nospace.json"
    write_fixture(representation_fixture(rep), fixture)
    proc = run_cli(["check", "--rep", str(fixture), "--rmatrix", "sl:2",
                    "admissible"])
    assert proc.returncode == 0


def test_frt_command(tmp_path):
    out = tmp_path / "frt.json"
    proc = run_cli(["frt", "--builtin", "sl:2", "--max-degree", "3",
                    "--json-out", str(out)])
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["relation_count"] == 6
    assert doc["degree2_dimension"] == 10
    assert doc["hilbert"] == [1, 4, 10, 20]
    assert doc["coideal"]["passed"] is True


def test_frt_pair_with():
    proc = run_cli(["frt", "--builtin", "sl:2", "--pair-with", "sl:2"])
    assert proc.returncode == 0
    assert "annihilation" in proc.stdout
    assert "orientation: direct" in proc.stdout


def test_frt_n1_fixture(tmp_path):
    fixture = tmp_path / "n1.json"
    write_fixture({"kind": "rmatrix", "dim": 1, "form": "braiding",
                   "entries": [["q"]]}, fixture)
    proc = run_cli(["frt", "--input", str(fixture)])
    assert proc.returncode == 0
    assert "empty relation set" in proc.stdout


def test_frt_pair_with_on_empty_relation_set_exits_2(tmp_path):
    rmatrix = tmp_path / "r1.json"
    write_fixture({"kind": "rmatrix", "dim": 1, "form": "braiding",
                   "entries": [["q"]]}, rmatrix)
    trivial = tmp_path / "trivial.json"
    write_fixture({"kind": "representation", "name": "trivial",
                   "cartan": {"matrix": [[2]], "d": [1]}, "dim": 1,
                   "generators": {"E1": [["0"]], "F1": [["0"]],
                                  "K1": [["1"]], "K1^-1": [["1"]]}}, trivial)
    proc = run_cli(["frt", "--input", str(rmatrix), "--pair-with",
                    str(trivial)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "empty relation set" in proc.stderr


def test_usage_error_exits_2():
    proc = run_cli(["validate-r"])
    assert proc.returncode == 2
    proc = run_cli(["chi", "--builtin", "sl:2"])  # missing --poly
    assert proc.returncode == 2


def test_main_inprocess_returns_codes(capsys):
    assert main(["validate-r", "--builtin", "sl:2"]) == 0
    capsys.readouterr()


def test_reports_byte_identical(tmp_path):
    args = ["frt", "--builtin", "sl:2", "--max-degree", "2"]
    first = run_cli(args + ["--json-out", str(tmp_path / "a.json")])
    second = run_cli(args + ["--json-out", str(tmp_path / "b.json")])
    assert first.stdout == second.stdout
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_zero_division_in_poly_exits_2(capsys):
    assert main(["chi", "--builtin", "sl:2", "--poly", "1/0"]) == 2
    assert "division by the zero polynomial" in capsys.readouterr().err
    assert main(["check", "--rep", "sl:2", "ideal", "--poly", "x - 0^-1"]) == 2


@pytest.mark.parametrize("poly", ["0^0", "(1-1)^0", "(q-q)^0"])
def test_zero_to_the_zero_exits_2(poly, capsys):
    assert main(["chi", "--builtin", "sl:2", "--poly", poly]) == 2
    assert "zero raised to a non-positive power" in capsys.readouterr().err


def test_zero_division_in_fixture_exits_2(tmp_path, capsys):
    fixture = tmp_path / "div0.json"
    write_fixture({"kind": "rmatrix", "dim": 1, "form": "braiding",
                   "entries": [["1/0"]]}, fixture)
    assert main(["validate-r", "--input", str(fixture)]) == 2
    assert "entries[0][0]" in capsys.readouterr().err


def test_negative_max_degree_exits_2(capsys):
    for argv in (["frt", "--builtin", "sl:2"],
                 ["chi", "--builtin", "sl:2", "--poly", "x - q"],
                 ["check", "--rep", "sl:2", "measuring"]):
        assert main(argv + ["--max-degree", "-1"]) == 2, argv
        assert "non-negative" in capsys.readouterr().err


def test_measuring_over_no_pairs_exits_2(capsys):
    for extra in (["--samples", "0"], ["--samples", "0", "--max-degree", "0"]):
        assert main(["check", "--rep", "sl:2", "measuring"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no monomial pairs" in captured.err


def test_chi_low_max_degree_completes_at_degree_2(capsys):
    for degree, dims in (("1", "hilbert: 1, 2"), ("0", "hilbert: 1")):
        assert main(["chi", "--builtin", "sl:2", "--poly", "x - q",
                     "--hilbert", "--max-degree", degree]) == 0
        out = capsys.readouterr().out
        assert "(bound 2)" in out
        assert out.splitlines()[-1] == dims


def test_ideal_check_on_empty_relation_set_exits_2():
    proc = run_cli(["check", "--rep", "sl:2", "ideal", "--poly", "0"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "empty relation set" in proc.stderr


def test_duality_at_degree_0_exits_2():
    proc = run_cli(["frt", "--builtin", "sl:2", "--pair-with", "sl:2",
                    "--max-degree", "0"])
    assert proc.returncode == 2
    assert "max_degree >= 1, got 0" in proc.stderr
    assert "randrange" not in proc.stderr


@pytest.mark.parametrize("pair_with, extra, message", [
    ("missing.json", [], "cannot read fixture {path}: [Errno 2] No such "
                         "file or directory: '{path}'"),
    ("sl:1", [], "builtin sl(n) needs n >= 2"),
    ("sl:3", [], "representation dimension must equal n"),
    ("sl:2", ["--max-degree", "0"],
     "duality check needs max_degree >= 1, got 0"),
    ("relations.json", [],
     "--pair-with expects a representation fixture or 'sl:n'"),
], ids=["missing-fixture", "no-builtin", "other-dimension", "degree-0",
        "relations-fixture"])
def test_frt_refuses_a_bad_pair_with_before_any_work(
        pair_with, extra, message, tmp_path, monkeypatch, capsys):
    import braidalg.cli
    import braidalg.frt
    calls = []
    for module, name in ((braidalg.cli, "frt_relations"),
                         (braidalg.cli, "frt_coideal_check"),
                         (braidalg.frt, "frt_relations")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: calls.append(name))
    write_fixture({"kind": "relations", "alphabet": 1,
                   "relations": [[{"coeff": "1", "word": [1, 1]}]]},
                  tmp_path / "relations.json")
    if pair_with.endswith(".json"):
        pair_with = str(tmp_path / pair_with)
    code = main(["frt", "--builtin", "sl:2", "--pair-with", pair_with,
                 *extra])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message.format(path=pair_with)}\n"
    assert calls == []


def test_chi_relations_fixture_independent_of_order(tmp_path):
    # x2x1 - x2x2 and x1x2 + x2x1 span the same relations in either order
    first = [{"coeff": "1", "word": [2, 1]}, {"coeff": "-1", "word": [2, 2]}]
    second = [{"coeff": "1", "word": [1, 2]}, {"coeff": "1", "word": [2, 1]}]
    outputs = []
    for name, rels in (("ab", [first, second]), ("ba", [second, first])):
        fixture = tmp_path / f"{name}.json"
        write_fixture({"kind": "relations", "alphabet": 2, "name": "pair",
                       "relations": rels}, fixture)
        proc = run_cli(["chi", "--input", str(fixture), "--show-relations",
                        "--hilbert"])
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "  x1 x2 = -x2 x2\n  x2 x1 = x2 x2\n" in outputs[0]


def test_check_negative_samples_exits_2():
    proc = run_cli(["check", "--rep", "sl:2", "measuring", "--samples", "-1"])
    assert proc.returncode == 2
    assert "-1" in proc.stderr
    assert "Sample larger" not in proc.stderr


def test_validate_r_minimal_poly_signs_on_dim_1(tmp_path):
    for entry, expected in (("q - q^-1", "x - q + q^-1"),
                            ("1/(q + 1)", "x - 1/(q + 1)")):
        fixture = tmp_path / "n1.json"
        write_fixture({"kind": "rmatrix", "dim": 1, "form": "braiding",
                       "entries": [[entry]]}, fixture)
        proc = run_cli(["validate-r", "--input", str(fixture),
                        "--show-minimal-poly"])
        assert proc.returncode == 0
        assert f"minimal polynomial: {expected}\n" in proc.stdout


def test_ideal_check_with_mismatched_rmatrix_exits_2():
    for rep, rmatrix in (("sl:2", "sl:3"), ("sl:3", "sl:2")):
        proc = run_cli(["check", "--rep", rep, "--rmatrix", rmatrix,
                        "ideal"])
        assert proc.returncode == 2, (rep, rmatrix)
        assert proc.stdout == ""
        assert "alphabet sizes differ" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_relations_fixture_bad_names_exit_2(tmp_path):
    rels = [[{"coeff": "1", "word": [1, 2]}, {"coeff": "-q", "word": [2, 1]}]]
    for names in (["a", "b"], [1, 2, 3]):
        fixture = tmp_path / "names.json"
        write_fixture({"kind": "relations", "alphabet": 3, "names": names,
                       "relations": rels}, fixture)
        proc = run_cli(["chi", "--input", str(fixture), "--show-relations"])
        assert proc.returncode == 2, names
        assert "'names' must be a list of 3 strings" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_relations_fixture_names_that_do_not_read_back_exit_2(tmp_path):
    rels = [[{"coeff": "1", "word": [1, 2]}, {"coeff": "-q", "word": [2, 1]}]]
    for names in (["a", "a"], ["a b", ""]):
        fixture = tmp_path / "names.json"
        write_fixture({"kind": "relations", "alphabet": 2, "names": names,
                       "relations": rels}, fixture)
        proc = run_cli(["chi", "--input", str(fixture), "--show-relations"])
        assert proc.returncode == 2, names
        assert proc.stdout == ""
        assert "distinct non-empty strings without whitespace" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_representation_fixture_with_unknown_generators_exits_2(tmp_path,
                                                                 capsys):
    rep, space = builtin_sl(2)
    for extra in ("E2", "F0", "E-1"):
        doc = representation_fixture(rep, space)
        doc["generators"][extra] = matrix_entries(SymMatrix.identity(2))
        fixture = tmp_path / "extra.json"
        write_fixture(doc, fixture)
        assert main(["check", "--rep", str(fixture), "relations"]) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"not in the presentation: {extra}" in captured.err


def test_builtin_space_is_not_built_again(monkeypatch, capsys):
    def refuse(braiding):
        raise AssertionError("builtin space rebuilt from its braiding")
    monkeypatch.setattr(BraidedSpace, "from_braiding", refuse)
    assert main(["frt", "--builtin", "sl:2", "--max-degree", "2"]) == 0
    assert main(["chi", "--builtin", "sl:2", "--poly", "x - q"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["sl:3_0", "sl: 3", "sl:\u0663", "sl:x",
                                  "sl:", "sl:+3", "sl:3\n"],
                         ids=["underscore", "space", "arabic-indic", "letter",
                              "empty", "plus", "newline"])
def test_builtin_spec_other_than_ascii_digits_exits_2(spec, tmp_path,
                                                       monkeypatch, capsys):
    # int() would read sl:3_0 as sl:30 and sl: 3 or sl:<Arabic-Indic 3> as
    # sl:3; each is refused before a builtin is built
    import braidalg.builtin
    rep, space = builtin_sl(2)
    rmatrix = tmp_path / "r.json"
    write_fixture({"kind": "rmatrix", "dim": 2, "form": "braiding",
                   "entries": matrix_entries(space.braiding)}, rmatrix)
    fixture = tmp_path / "rep.json"
    doc = representation_fixture(rep)
    doc["rmatrix"] = {"builtin": spec}
    write_fixture(doc, fixture)
    built = []
    monkeypatch.setattr(braidalg.builtin, "builtin_sl", built.append)
    for argv in (["frt", "--builtin", spec, "--max-degree", "1"],
                 ["check", "--rep", spec, "relations"],
                 ["frt", "--input", str(rmatrix), "--pair-with", spec],
                 ["check", "--rep", str(fixture), "relations"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: unknown builtin {spec!r} (expected 'sl:n')\n"
    assert built == []


def test_non_braid_fixture_is_invalid_for_chi_and_frt(tmp_path, capsys):
    bad = SymMatrix.from_diagonal([ONE, ONE, ONE, ONE]) + \
        SymMatrix.unit(4, 1, 2)
    fixture = tmp_path / "bad.json"
    write_fixture({"kind": "rmatrix", "dim": 2, "form": "braiding",
                   "entries": matrix_entries(bad)}, fixture)
    for argv in (["chi", "--input", str(fixture), "--poly", "x - q"],
                 ["frt", "--input", str(fixture)]):
        assert main(argv) == 1, argv
        assert "invalid braiding" in capsys.readouterr().out


def _sl2_fixture_with(path, key, value):
    """The sl:2 representation fixture with doc[key] (or cartan[key], for a
    key 'cartan.x') replaced by `value`."""
    rep, _ = builtin_sl(2)
    doc = representation_fixture(rep)
    doc["rmatrix"] = {"builtin": "sl:2"}
    if key.startswith("cartan."):
        doc["cartan"][key[len("cartan."):]] = value
    else:
        doc[key] = value
    write_fixture(doc, path)


@pytest.mark.parametrize("doc, argv, message", [
    ({"kind": "rmatrix", "dim": True, "entries": [["q"]]},
     ["validate-r", "--input"], "positive integer 'dim'"),
    ({"kind": "relations", "alphabet": True,
      "relations": [[{"coeff": "1", "word": [1, 1]}]]},
     ["chi", "--input"], "positive 'alphabet'"),
    ({"kind": "relations", "alphabet": 2, "relations": [[
        {"coeff": "1", "word": [True, 2]}, {"coeff": "-q", "word": [2, 1]}]]},
     ["chi", "--input"], "1-based indices"),
    ({"kind": "relations", "alphabet": 2, "relations": [[
        {"coeff": "1", "word": [1.0, 2]}, {"coeff": "-q", "word": [2, 1]}]]},
     ["chi", "--input"], "1-based indices"),
], ids=["rmatrix-dim", "alphabet", "word-bool", "word-float"])
def test_fixture_refuses_non_integers(tmp_path, capsys, doc, argv, message):
    fixture = tmp_path / "f.json"
    write_fixture(doc, fixture)
    assert main([*argv, str(fixture)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("key, value, message", [
    ("dim", True, "positive 'dim'"),
    ("cartan.matrix", [[2.9]], "cartan.matrix must be"),
    ("cartan.matrix", [[True]], "cartan.matrix must be"),
    ("cartan.d", [True], "cartan.d must be"),
    ("cartan.d", [1.0], "cartan.d must be"),
], ids=["dim", "cartan-float", "cartan-bool", "d-bool", "d-float"])
def test_representation_fixture_refuses_non_integers(tmp_path, capsys, key,
                                                     value, message):
    fixture = tmp_path / "rep.json"
    _sl2_fixture_with(fixture, key, value)
    assert main(["check", "--rep", str(fixture), "relations"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("matrix", [[[2, -1], [0, 2]], [[2], [-1, 2]]],
                         ids=["zero-pattern", "ragged"])
def test_representation_fixture_with_invalid_cartan_matrix_exits_2(tmp_path,
                                                                   matrix):
    # with no cartan.d the symmetrizers are derived from the matrix
    rep, _ = builtin_sl(2)
    doc = representation_fixture(rep)
    doc["cartan"] = {"matrix": matrix}
    fixture = tmp_path / "rep.json"
    write_fixture(doc, fixture)
    proc = run_cli(["check", "--rep", str(fixture), "relations"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "invalid Cartan data" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("rmatrix", [[1, 2], 5, {"builtin": 5}, "sl:2"],
                         ids=["list", "int", "builtin-int", "string"])
def test_representation_fixture_with_a_bad_rmatrix_block_exits_2(tmp_path,
                                                                  rmatrix):
    fixture = tmp_path / "rep.json"
    _sl2_fixture_with(fixture, "rmatrix", rmatrix)
    proc = run_cli(["check", "--rep", str(fixture), "relations"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert ("representation fixture 'rmatrix' must be an rmatrix object "
            'or {"builtin": "sl:n"}') in proc.stderr
    assert "Traceback" not in proc.stderr


def test_wrong_symmetrizer_count_in_a_fixture_exits_2(tmp_path, capsys):
    rep, space = builtin_sl(3)
    doc = representation_fixture(rep, space)
    doc["cartan"]["d"] = [1]
    fixture = tmp_path / "rep.json"
    write_fixture(doc, fixture)
    assert main(["check", "--rep", str(fixture), "relations"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid Cartan data: need 2 symmetrizers, "
                            "one per row, got 1\n")


@pytest.mark.parametrize("dim", [1, 2])
def test_singular_braid_solution_is_a_mathematical_failure(tmp_path, capsys,
                                                           dim):
    # the zero operator satisfies the braid equation but is not invertible
    fixture = tmp_path / "zero.json"
    write_fixture({"kind": "rmatrix", "dim": dim, "form": "braiding",
                   "entries": matrix_entries(SymMatrix.zeros(dim * dim))},
                  fixture)
    assert main(["validate-r", "--input", str(fixture)]) == 0
    assert "braid equation: holds" in capsys.readouterr().out
    out = tmp_path / "out.json"
    for argv in (["chi", "--input", str(fixture), "--poly", "x - q"],
                 ["frt", "--input", str(fixture)]):
        assert main([*argv, "--json-out", str(out)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "invalid braiding: braiding is not invertible\n"
        assert captured.err == ""
        doc = json.loads(out.read_text())
        assert doc["error"] == "braiding is not invertible"
        assert doc["exit_code"] == 1
    assert main(["check", "--rep", "sl:2", "--rmatrix", str(fixture),
                 "relations"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: braiding is not invertible\n"


def _spy_on_load_fixture(monkeypatch):
    import braidalg.cli
    reads = []
    load = braidalg.cli.load_fixture
    monkeypatch.setattr(braidalg.cli, "load_fixture",
                        lambda path: reads.append(path) or load(path))
    return reads


def test_chi_reads_its_input_fixture_once(tmp_path, monkeypatch, capsys):
    _, space = builtin_sl(2)
    fixture = tmp_path / "r.json"
    write_fixture({"kind": "rmatrix", "dim": 2, "form": "braiding",
                   "entries": matrix_entries(space.braiding)}, fixture)
    reads = _spy_on_load_fixture(monkeypatch)
    assert main(["chi", "--input", str(fixture), "--poly", "x - q"]) == 0
    assert f"space: {fixture} (dim 2)" in capsys.readouterr().out
    assert reads == [str(fixture)]


def test_a_fixture_path_starting_with_sl_is_given_as_dot_slash(
        tmp_path, monkeypatch, capsys):
    # any spec that starts with 'sl:' names a builtin; './' makes it a path
    rep, space = builtin_sl(2)
    write_fixture(representation_fixture(rep), tmp_path / "sl:2-rep.json")
    write_fixture({"kind": "rmatrix", "dim": 2, "form": "braiding",
                   "entries": matrix_entries(space.braiding)},
                  tmp_path / "sl:2-r.json")
    monkeypatch.chdir(tmp_path)
    reads = _spy_on_load_fixture(monkeypatch)
    assert main(["check", "--rep", "./sl:2-rep.json",
                 "--rmatrix", "./sl:2-r.json", "admissible"]) == 0
    assert main(["frt", "--builtin", "sl:2", "--max-degree", "1",
                 "--pair-with", "./sl:2-rep.json"]) == 0
    capsys.readouterr()
    assert reads == ["./sl:2-rep.json", "./sl:2-r.json", "./sl:2-rep.json"]
    assert main(["check", "--rep", "sl:2-rep.json", "relations"]) == 2
    assert capsys.readouterr().err == \
        "error: unknown builtin 'sl:2-rep.json' (expected 'sl:n')\n"


@pytest.mark.parametrize("argv", [
    ["validate-r", "--builtin", "sl:2"],
    ["chi", "--builtin", "sl:2", "--poly", "x - q"],
    ["check", "--rep", "sl:2", "relations"],
    ["frt", "--builtin", "sl:2", "--max-degree", "1"],
], ids=["validate-r", "chi", "check", "frt"])
def test_unwritable_json_out_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main([*argv, "--json-out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot write --json-out: [Errno 2] No "
                            f"such file or directory: '{out}'\n")


def test_frt_pair_with_builds_the_relations_once(monkeypatch, capsys):
    import braidalg.cli
    import braidalg.frt
    calls = []
    real = braidalg.frt.frt_relations

    def spy(space):
        calls.append(space)
        return real(space)

    monkeypatch.setattr(braidalg.cli, "frt_relations", spy)
    monkeypatch.setattr(braidalg.frt, "frt_relations", spy)
    assert main(["frt", "--builtin", "sl:3", "--max-degree", "2",
                 "--pair-with", "sl:3"]) == 0
    assert "finite-degree duality for" in capsys.readouterr().out
    assert len(calls) == 1


# 10**21 overflows the index range of a list; 10**17 is inside it, but its
# dense list needs more bytes than any 64-bit address space holds, so the
# allocation fails whatever the host's overcommit policy
@pytest.mark.parametrize("command, exponent", [
    pytest.param("chi", 10 ** 21, id="chi"),
    pytest.param("check", 10 ** 30, id="check"),
    pytest.param("chi", 10 ** 17, id="chi-memory"),
    pytest.param("check", 10 ** 17, id="check-memory")])
def test_huge_exponent_span_exits_2(command, exponent, tmp_path, capsys):
    """A q-power whose exponent span the dense coefficient list cannot hold
    is refused with one error line, whether it comes from a parsed
    polynomial or from a fixture's symmetrizer."""
    if command == "chi":
        argv = ["chi", "--builtin", "sl:2", "--poly", f"x - q^{exponent}"]
        span = exponent - 1
    else:
        rep, space = builtin_sl(2)
        doc = representation_fixture(rep, space)
        doc["cartan"]["d"] = [exponent]
        fixture = tmp_path / "rep.json"
        write_fixture(doc, fixture)
        argv = ["check", "--rep", str(fixture), "relations"]
        span = 2 * exponent
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: exponent span {span} of a polynomial "
                            f"in q is too large\n")
