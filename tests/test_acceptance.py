"""Acceptance suite: each numbered check prints one PASS/FAIL line and then
asserts.  Every tolerance here is exact (all arithmetic is symbolic), so a
check passes only on literal equality."""

import json
import math
import subprocess
import sys
import time

from braidalg.builtin import classical_space, sl2_lie_actions, \
    sp4_symmetric_relations
from braidalg.frt import check_duality, frt_coideal_check, frt_hilbert, \
    frt_relations
from braidalg.linalg import SymMatrix, check_braid, solve_commutant
from braidalg.ncalg import complete_rewrite, hilbert, hilbert_oracle, \
    relations_from_image
from braidalg.scalar import ONE, Q, parse_poly
from braidalg.uqg import (Gen, Representation, check_derivation_measuring,
                          check_ideal_preserved, check_measuring,
                          check_preserves_R, check_representation)


def announce(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "braidalg", *args],
                          capture_output=True, text=True)


def test_criterion_1_braid_and_hecke(sl2, sl3, sl4):
    start = time.monotonic()
    ok = True
    for rep, space in (sl2, sl3, sl4):
        n = space.dim
        ident = SymMatrix.identity(n * n)
        ok = ok and check_braid(space.braiding).holds
        hecke = (space.braiding - ident * Q) * (space.braiding + ident * Q ** -1)
        ok = ok and hecke.is_zero()
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    assert announce(1, ok, f"braid + Hecke for n in 2..4, exact, "
                           f"{elapsed:.2f}s (< 60s)")


SYM_EXPECT = {
    n: [f"x{i} x{j} = q*x{j} x{i}"
        for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for n in (2, 3, 4)
}
EXT_EXPECT = {
    n: sorted(
        [f"x{i} x{i} = 0" for i in range(1, n + 1)] +
        [f"x{i} x{j} = -q^-1*x{j} x{i}"
         for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        key=lambda line: line[:5])
    for n in (2, 3, 4)
}


def test_criterion_2_paper_relations_exact(tmp_path):
    ok = True
    for n in (2, 3, 4):
        out = tmp_path / f"sym{n}.json"
        proc = run_cli(["chi", "--builtin", f"sl:{n}", "--poly", "x - q",
                        "--show-relations", "--json-out", str(out)])
        ok = ok and proc.returncode == 0
        got = json.loads(out.read_text())["relations"]
        ok = ok and got == SYM_EXPECT[n]
        out = tmp_path / f"ext{n}.json"
        proc = run_cli(["chi", "--builtin", f"sl:{n}", "--poly", "x + q^-1",
                        "--show-relations", "--json-out", str(out)])
        ok = ok and proc.returncode == 0
        got = json.loads(out.read_text())["relations"]
        ok = ok and got == EXT_EXPECT[n]
    assert announce(2, ok, "chi emits exactly the printed symmetric/exterior "
                           "relations for n in 2..4")


def test_criterion_3_hilbert_flatness(sl2, sl3, sl4):
    ok = True
    for rep, space in (sl2, sl3, sl4):
        n = space.dim
        sym = relations_from_image(space, parse_poly("x - q"))
        rs = complete_rewrite(sym, 5)
        ok = ok and hilbert(rs, 5) == [math.comb(n + d - 1, d)
                                       for d in range(6)]
        ok = ok and hilbert_oracle(sym, 4) == hilbert(rs, 4)
        ext = relations_from_image(space, parse_poly("x + q^-1"))
        rs = complete_rewrite(ext, 5)
        dims = hilbert(rs, 5)
        ok = ok and dims == [math.comb(n, d) for d in range(6)]
        ok = ok and sum(dims) == 2 ** n
        ok = ok and hilbert_oracle(ext, 4) == dims[:5]
    assert announce(3, ok, "symmetric dims C(n+d-1,d), exterior dims C(n,d) "
                           "with total 2^n, for n <= 4, d <= 5; "
                           "linear-algebra oracle agrees at d <= 4")


def test_criterion_4_sp4_fixture():
    rels = sp4_symmetric_relations()
    rs = complete_rewrite(rels, 4)
    dims = hilbert(rs, 4)
    ok = dims == [1, 4, 10, 20, 35]
    ok = ok and hilbert_oracle(rels, 3) == [1, 4, 10, 20]
    ok = ok and rs.certified(4)
    assert announce(4, ok, f"six-relation symplectic algebra completes "
                           f"confluently; dims {dims}, oracle-checked d <= 3")


def test_criterion_5_verification_chain(sl2, sl3):
    ok = True
    details = []
    for rep, space in (sl2, sl3):
        ok = ok and check_representation(rep).passed
        ok = ok and check_preserves_R(rep, space).passed
        for poly in ("x - q", "x + q^-1"):
            rels = relations_from_image(space, parse_poly(poly))
            ok = ok and check_ideal_preserved(rep, rels).passed
            rs = complete_rewrite(rels, 4)
            report = check_measuring(rep, rs, max_degree=4)
            ok = ok and report.passed
            ok = ok and "exhaustive" in report.notes[0]
        details.append(f"sl:{space.dim}")
    assert announce(5, ok, "relations + braiding preservation (degree 2 and "
                           "3) + ideal preservation + exhaustive measuring "
                           f"to degree 4, for {', '.join(details)}")


def test_criterion_6a_frt_sl2(sl2):
    _, space = sl2
    pres = frt_relations(space)
    ok = pres.rank == 6
    ok = ok and frt_coideal_check(pres).passed
    ok = ok and frt_hilbert(pres, 3) == [1, 4, 10, 20]
    assert announce("6a", ok, "sl:2 t-bialgebra: 6 independent relations, "
                              "coideal passes, dims 1, 4, 10, 20")


def test_criterion_6b_frt_sl3_stated_counts(sl3):
    _, space = sl3
    n = space.dim
    # Expected counts derived without frt_relations.  The braiding is Hecke
    # and semisimple, so the images of B + q^-1 and B - q are its q- and
    # (-q^-1)-eigenspaces.  The commutator map X -> XB - BX on End(V (x) V)
    # has rank n^4 minus the dimension of the commutant of B, which is the
    # sum of the squared eigenspace dimensions.
    sym = relations_from_image(space, parse_poly("x + q^-1"))
    ext = relations_from_image(space, parse_poly("x - q"))
    sym_dim, ext_dim = len(sym.relations), len(ext.relations)
    ok = sym_dim == math.comb(n + 1, 2) and ext_dim == math.comb(n, 2)
    derived_rank = n ** 4 - sym_dim ** 2 - ext_dim ** 2
    ok = ok and derived_rank == n ** 4 - len(solve_commutant([space.braiding]))
    # quantum matrices M_q(n): one relation per unordered pair of distinct t_ij
    ok = ok and derived_rank == math.comb(n * n, 2)
    derived_dim = n ** 4 - derived_rank
    pres = frt_relations(space)
    actual_rank, actual_dim = pres.rank, n ** 4 - pres.rank
    ok = ok and actual_rank == derived_rank and actual_dim == derived_dim
    ok = ok and frt_coideal_check(pres).passed
    ok = ok and frt_hilbert(pres, 3) == [math.comb(n * n + d - 1, d)
                                         for d in range(4)]
    assert announce("6b", ok,
                    f"sl:3 t-bialgebra: derived rank={derived_rank}/"
                    f"dim={derived_dim} (= 81 - {sym_dim}^2 - {ext_dim}^2); "
                    f"computed rank={actual_rank}/dim={actual_dim}, coideal "
                    f"passes, dims C(9+d-1,d) for d <= 3")


def test_criterion_7_duality_and_mutation(sl2, sl3):
    ok = True
    for rep, space in (sl2, sl3):
        ok = ok and check_duality(rep, space, max_degree=3).passed
    rep, space = sl2
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    mutated = Representation(rep.presentation, assign, name="mutated")
    report = check_duality(mutated, space, max_degree=2)
    annihilation = [i for i in report.items if "annihilation" in i.name]
    ok = ok and annihilation and not annihilation[0].passed
    assert announce(7, ok, "all annihilation and compatibility checks pass "
                           "for sl:2 and sl:3 at degree 3; a single-entry "
                           "perturbation of E1 breaks annihilation")


def test_criterion_8_classical_mode():
    space = classical_space(2)
    rels = relations_from_image(space, parse_poly("x - 1"))
    rs = complete_rewrite(rels, 4)
    report = check_derivation_measuring(sl2_lie_actions(), rs, max_degree=4)
    ok = report.passed
    assert announce(8, ok, "sl_2 acts by derivations on the 2-variable "
                           "polynomial quotient through degree 4")


ACCEPTANCE_COMMANDS = [
    ["validate-r", "--builtin", "sl:2", "--show-minimal-poly"],
    ["validate-r", "--builtin", "sl:4"],
    ["chi", "--builtin", "sl:3", "--poly", "x - q", "--show-relations",
     "--hilbert", "--max-degree", "4"],
    ["chi", "--builtin", "sl:2", "--poly", "x + q^-1", "--hilbert",
     "--max-degree", "4"],
    ["check", "--rep", "sl:2", "relations", "admissible", "ideal",
     "measuring", "--poly", "x - q", "--max-degree", "3", "--seed", "0"],
    ["frt", "--builtin", "sl:2", "--max-degree", "3", "--pair-with", "sl:2"],
]


def test_criterion_9_determinism(tmp_path):
    ok = True
    for idx, args in enumerate(ACCEPTANCE_COMMANDS):
        first_json = tmp_path / f"{idx}_a.json"
        second_json = tmp_path / f"{idx}_b.json"
        first = run_cli(args + ["--json-out", str(first_json)])
        second = run_cli(args + ["--json-out", str(second_json)])
        ok = ok and first.returncode == second.returncode == 0
        ok = ok and first.stdout == second.stdout
        ok = ok and first_json.read_bytes() == second_json.read_bytes()
    assert announce(9, ok, f"{len(ACCEPTANCE_COMMANDS)} commands re-run "
                           f"byte-identically (stdout and JSON reports)")
