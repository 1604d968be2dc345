"""Golden CLI outputs: stdout, exit code and `--json-out` of fixed commands,
compared byte for byte with the files in `tests/golden/`.

The commands run in-process with `tests/golden/` as the working directory,
so a fixture is named by a path relative to it (`check` copies `--rep` into
its JSON).  `<name>.stdout` and `<name>.json` hold the expected bytes.
There is no switch that rewrites them: a changed output is either a fault to
fix in the program, or a golden file edited by hand with the reason given
alongside the change.
"""

import contextlib
import io
from pathlib import Path

import pytest

from braidalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code)
CASES = {
    "validate_r_sl3": (["validate-r", "--builtin", "sl:3",
                        "--show-minimal-poly"], 0),
    "chi_sl3_exterior": (["chi", "--builtin", "sl:3", "--poly", "x+q^-1",
                          "--show-relations", "--hilbert",
                          "--max-degree", "5"], 0),
    "frt_sl3_pair_sl3": (["frt", "--builtin", "sl:3", "--pair-with", "sl:3"],
                         0),
    "check_sl3": (["check", "--rep", "sl:3", "relations", "admissible",
                   "ideal", "measuring", "independence"], 0),
    "check_perturbed_sl2": (["check", "--rep", "perturbed_sl2.json",
                             "relations", "admissible", "ideal",
                             "measuring"], 1),
    "frt_sl2_pair_perturbed_sl2": (["frt", "--builtin", "sl:2", "--pair-with",
                                    "perturbed_sl2.json"], 1),
}


def run_in_golden_dir(argv, json_out: Path, monkeypatch):
    """(exit code, stdout) of the CLI run with `tests/golden/` as the
    working directory, writing its JSON report to `json_out`."""
    monkeypatch.chdir(GOLDEN)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json-out", str(json_out)])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    argv, expected_code = CASES[name]
    json_out = tmp_path / "out.json"
    code, stdout = run_in_golden_dir(argv, json_out, monkeypatch)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert json_out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
