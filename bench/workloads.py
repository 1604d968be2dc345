"""The benchmark's three workloads.

Each repetition builds fresh program objects in `setup` (timed as set-up),
runs every operation of the workload in `verdict` (timed as the verdict)
and then has its outputs checked by `check`, outside both timings.  One
operation is one check call or one CLI command.  `lib` is the namespace
from `run.fresh_import`: `lib.B` is the braidalg package, `lib.cli` its
command-line module.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile

from expect import (adjoint_frt_relation_count, cone_dims,
                    ext_dims, ext_relation_lines, frt_dims, frt_relation_count,
                    hecke_minimal_poly, numbers_in, pair_count,
                    parse_laurent, poly2_dims, require, sym_dims,
                    sym_relation_lines, uq_generator_count, word_count)

# Sizes.  The README gives the reason for each.
SYM3_SAMPLES = 16          # seeded pairs out of 210 in the sl:3 q-symmetric check
MEASURING_DEGREE = 4       # sl:3 measuring checks
CONE_DEGREE = 3            # adjoint sl_2 on its quantum cone
LEIBNIZ_DEGREE = 5         # classical sl_2 on two commuting variables
CONTROL_DEGREE = 3         # perturbed sl:2 measuring control
DUALITY_CASES = (("sl:3", 3), ("sl:2", 4), ("adjoint", 3))
DUALITY_CONTROL_DEGREE = 2
FRT_N, FRT_DEGREE = 4, 4   # frt --builtin sl:4
CHI_N, CHI_DEGREE = 4, 7   # chi --builtin sl:4
ORACLE_FRT_N, ORACLE_FRT_DEGREE = 3, 3
ORACLE_N, ORACLE_DEGREE = 4, 5


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition `rep` of a run started with `seed`."""
    return random.Random(f"{seed}:{rep}").randrange(2 ** 31)


def perturbed_sl2(B):
    """sl:2 with the (1, 1) entry of E1 set to 1, as in acceptance criterion 7."""
    rep, space = B.builtin_sl(2)
    assign = dict(rep.assign)
    e1 = B.Gen("E", 0)
    entries = [list(row) for row in assign[e1].entries]
    entries[0][0] = B.ONE
    assign[e1] = B.SymMatrix(entries)
    return B.Representation(rep.presentation, assign, name="perturbed sl:2"), space


def _attempt(clock, outputs: dict, failures: dict, key: str, fn, *args,
             **kwargs):
    """Run one operation as a section of `clock`."""
    try:
        outputs[key] = clock.time(fn, *args, **kwargs)
    except Exception as exc:  # an operation that raises counts as failed
        failures[key] = f"{type(exc).__name__}: {exc}"


def _items_named(report, word: str):
    return [i for i in report.items if word in i.name]


class Workload:
    name = ""
    ops = 0  # operations per repetition

    def collect(self, x: dict, out: dict) -> dict:
        """Finish the outputs after the verdict is timed; returns byte
        counts for the trace."""
        return {}


class Measuring(Workload):
    """The measuring identity and the checks that lead up to it."""

    name = "measuring"
    ops = 9
    # pair counts of the exhaustive checks and items (symbols) per report
    exhaustive = {
        "ext3": pair_count(ext_dims(3, MEASURING_DEGREE), MEASURING_DEGREE),
        "cone": pair_count(cone_dims(CONE_DEGREE), CONE_DEGREE),
        "leibniz": pair_count(poly2_dims(LEIBNIZ_DEGREE), LEIBNIZ_DEGREE),
        "control": pair_count(sym_dims(2, CONTROL_DEGREE), CONTROL_DEGREE),
    }
    symbols = {"sym3": uq_generator_count(3), "ext3": uq_generator_count(3),
               "cone": uq_generator_count(2), "leibniz": 3,
               "control": uq_generator_count(2)}

    def setup(self, lib, seed: int) -> dict:
        B = lib.B
        rep3, space3 = B.builtin_sl(3)
        adj, adj_space = B.adjoint_sl2()
        sym3 = B.relations_from_image(space3, B.parse_poly("x - q"))
        ext3 = B.relations_from_image(space3, B.parse_poly("x + q^-1"))
        cone = B.relations_from_image(adj_space, B.parse_poly("x - q^2"))
        plane = B.relations_from_image(B.classical_space(2), B.parse_poly("x - 1"))
        bad2, space2 = perturbed_sl2(B)
        sym2 = B.relations_from_image(space2, B.parse_poly("x - q"))
        return {
            "seed": seed, "rep3": rep3, "space3": space3, "adj": adj,
            "sym3": sym3, "ext3": ext3, "bad2": bad2,
            "rs_sym3": B.complete_rewrite(sym3, MEASURING_DEGREE),
            "rs_ext3": B.complete_rewrite(ext3, MEASURING_DEGREE),
            "rs_cone": B.complete_rewrite(cone, CONE_DEGREE),
            "rs_plane": B.complete_rewrite(plane, LEIBNIZ_DEGREE),
            "rs_sym2": B.complete_rewrite(sym2, CONTROL_DEGREE),
            "lie": B.sl2_lie_actions(),
        }

    def verdict(self, lib, x: dict, clock):
        B = lib.B
        out, failures = {}, {}
        _attempt(clock, out, failures, "relations", B.check_representation, x["rep3"])
        _attempt(clock, out, failures, "preserves_R", B.check_preserves_R,
                 x["rep3"], x["space3"])
        _attempt(clock, out, failures, "ideal_sym", B.check_ideal_preserved,
                 x["rep3"], x["sym3"])
        _attempt(clock, out, failures, "ideal_ext", B.check_ideal_preserved,
                 x["rep3"], x["ext3"])
        _attempt(clock, out, failures, "sym3", B.check_measuring, x["rep3"],
                 x["rs_sym3"], sample_count=SYM3_SAMPLES,
                 max_degree=MEASURING_DEGREE, seed=x["seed"])
        # sample_count = the closed-form pair count: the check is exhaustive
        # exactly when the program enumerates that many pairs
        _attempt(clock, out, failures, "ext3", B.check_measuring, x["rep3"],
                 x["rs_ext3"], sample_count=self.exhaustive["ext3"],
                 max_degree=MEASURING_DEGREE)
        _attempt(clock, out, failures, "cone", B.check_measuring, x["adj"],
                 x["rs_cone"], sample_count=self.exhaustive["cone"],
                 max_degree=CONE_DEGREE)
        _attempt(clock, out, failures, "leibniz", B.check_derivation_measuring,
                 x["lie"], x["rs_plane"], max_degree=LEIBNIZ_DEGREE)
        _attempt(clock, out, failures, "control", B.check_measuring, x["bad2"],
                 x["rs_sym2"], sample_count=self.exhaustive["control"],
                 max_degree=CONTROL_DEGREE)
        return out, failures

    def check(self, out: dict):
        for key in ("relations", "preserves_R", "ideal_sym", "ideal_ext"):
            if key in out:
                require(out[key].passed and out[key].items,
                        f"{key}: report fails or is empty")
        for key in ("sym3", "ext3", "cone", "leibniz", "control"):
            if key not in out:
                continue
            report = out[key]
            pairs = (SYM3_SAMPLES if key == "sym3" else self.exhaustive[key])
            mode = "seeded sample of" if key == "sym3" else "exhaustive over"
            require(any(n.startswith(f"{mode} {pairs} monomial pairs")
                        for n in report.notes),
                    f"{key}: expected {mode} {pairs} pairs, notes {report.notes}")
            require(len(report.items) == self.symbols[key],
                    f"{key}: {len(report.items)} items, expected "
                    f"{self.symbols[key]}")
            for item in report.items:
                require(numbers_in(item.name)[-1] == pairs,
                        f"{key}: item {item.name!r} does not cover {pairs} pairs")
            if key == "control":
                require(not report.passed and any(
                    "counterexamples" in i.detail for i in report.failures()),
                    "control: the perturbed representation passes")
            else:
                require(report.passed, f"{key}: {report.failures()[:1]}")


class Duality(Workload):
    """The finite-degree dual pairing with the t-bialgebra."""

    name = "duality"
    ops = len(DUALITY_CASES) + 1

    def setup(self, lib, seed: int) -> dict:
        B = lib.B
        made = {"sl:3": B.builtin_sl(3), "sl:2": B.builtin_sl(2),
                "adjoint": B.adjoint_sl2()}
        return {"seed": seed, "cases": [(key, made[key], degree)
                                        for key, degree in DUALITY_CASES],
                "control": perturbed_sl2(B)}

    def verdict(self, lib, x: dict, clock):
        B = lib.B
        out, failures = {}, {}
        for offset, (key, (rep, space), degree) in enumerate(x["cases"]):
            _attempt(clock, out, failures, key, B.check_duality, rep, space,
                     max_degree=degree, seed=x["seed"] + offset)
        rep, space = x["control"]
        _attempt(clock, out, failures, "control", B.check_duality, rep, space,
                 max_degree=DUALITY_CONTROL_DEGREE, seed=x["seed"])
        return out, failures

    @staticmethod
    def annihilation_size(key: str, degree: int) -> tuple[int, int]:
        """(generator words, relations) that the annihilation item covers."""
        if key == "adjoint":
            return (word_count(uq_generator_count(2), degree),
                    adjoint_frt_relation_count())
        n = 2 if key == "control" else int(key[3:])
        return word_count(uq_generator_count(n), degree), frt_relation_count(n)

    def check(self, out: dict):
        cases = list(DUALITY_CASES) + [("control", DUALITY_CONTROL_DEGREE)]
        for key, degree in cases:
            if key not in out:
                continue
            report = out[key]
            words, rels = self.annihilation_size(key, degree)
            ann = _items_named(report, "annihilation")
            require(len(ann) == 1, f"{key}: no single annihilation item")
            require(numbers_in(ann[0].name)[-2:] == [words, rels],
                    f"{key}: {ann[0].name!r}, expected {words} words x "
                    f"{rels} relations")
            require(len(report.items) == 3, f"{key}: {len(report.items)} items")
            if key == "control":
                require(not ann[0].passed,
                        "control: the perturbed representation annihilates "
                        "every relation")
            else:
                require(report.passed, f"{key}: {report.failures()[:1]}")


class Construction(Workload):
    """CLI commands that build relation sets and quotients, then the rank
    oracle through the library."""

    name = "construction"
    ops = 7

    commands = {
        "frt": ["frt", "--builtin", f"sl:{FRT_N}", "--max-degree",
                str(FRT_DEGREE)],
        "chi_sym": ["chi", "--builtin", f"sl:{CHI_N}", "--poly", "x - q",
                    "--show-relations", "--hilbert", "--max-degree",
                    str(CHI_DEGREE)],
        "chi_ext": ["chi", "--builtin", f"sl:{CHI_N}", "--poly", "x + q^-1",
                    "--show-relations", "--hilbert", "--max-degree",
                    str(CHI_DEGREE)],
        "validate": ["validate-r", "--builtin", f"sl:{CHI_N}",
                     "--show-minimal-poly"],
    }

    def __init__(self, scratch: str):
        self.scratch = scratch

    def setup(self, lib, seed: int) -> dict:
        B = lib.B
        _, space3 = B.builtin_sl(ORACLE_FRT_N)
        _, space4 = B.builtin_sl(ORACLE_N)
        order = sorted(self.commands)
        random.Random(seed).shuffle(order)
        return {
            "order": order,
            "json_dir": tempfile.mkdtemp(prefix="json-", dir=self.scratch),
            "frt3": B.frt_relations(space3).relations,
            "sym4": B.relations_from_image(space4, B.parse_poly("x - q")),
            "ext4": B.relations_from_image(space4, B.parse_poly("x + q^-1")),
        }

    def verdict(self, lib, x: dict, clock):
        B = lib.B
        out, failures = {}, {}
        for key in x["order"]:
            path = os.path.join(x["json_dir"], f"{key}.json")
            _attempt(clock, out, failures, key, self._cli, lib.cli,
                     self.commands[key] + ["--json-out", path])
        _attempt(clock, out, failures, "oracle_frt3", B.hilbert_oracle, x["frt3"],
                 ORACLE_FRT_DEGREE)
        _attempt(clock, out, failures, "oracle_sym4", B.hilbert_oracle, x["sym4"],
                 ORACLE_DEGREE)
        _attempt(clock, out, failures, "oracle_ext4", B.hilbert_oracle, x["ext4"],
                 ORACLE_DEGREE)
        return out, failures

    @staticmethod
    def _cli(cli, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), argv[-1]

    def collect(self, x: dict, out: dict) -> dict:
        """Read back the JSON reports, remove the scratch files and return
        the byte counts of everything the commands wrote."""
        stdout_bytes = json_bytes = 0
        for key in self.commands:
            if key in out:
                code, text, path = out[key]
                with open(path, "rb") as fh:
                    raw = fh.read()
                out[key] = (code, text, json.loads(raw))
                stdout_bytes += len(text.encode())
                json_bytes += len(raw)
        shutil.rmtree(x["json_dir"], ignore_errors=True)
        return {"cli.stdout_bytes": stdout_bytes, "cli.json_bytes": json_bytes}

    def check(self, out: dict):
        if "frt" in out:
            code, text, doc = out["frt"]
            rank = frt_relation_count(FRT_N)
            dim2 = FRT_N ** 4 - rank
            require(code == 0, f"frt: exit code {code}")
            require(doc["relation_count"] == rank and len(doc["relations"]) == rank,
                    f"frt: {doc['relation_count']} relations, expected {rank}")
            require(doc["degree2_dimension"] == dim2,
                    f"frt: degree-2 dimension {doc['degree2_dimension']}, "
                    f"expected {dim2}")
            require(f"relations: {rank} independent (degree-2 dimension {dim2})"
                    in text, "frt: stdout lacks the relation count line")
            require(doc["coideal"]["passed"]
                    and len(doc["coideal"]["items"]) == 2 * rank,
                    "frt: coideal check fails or skips relations")
            want = frt_dims(FRT_N, FRT_DEGREE)
            require(doc["hilbert"] == want,
                    f"frt: hilbert {doc['hilbert']}, expected {want}")
        for key, lines, dims in (
                ("chi_sym", sym_relation_lines(CHI_N), sym_dims(CHI_N, CHI_DEGREE)),
                ("chi_ext", ext_relation_lines(CHI_N), ext_dims(CHI_N, CHI_DEGREE))):
            if key not in out:
                continue
            code, text, doc = out[key]
            require(code == 0, f"{key}: exit code {code}")
            require(doc["relations"] == lines,
                    f"{key}: relations {doc['relations']}, expected {lines}")
            require(doc["hilbert"] == dims,
                    f"{key}: hilbert {doc['hilbert']}, expected {dims}")
            require("hilbert: " + ", ".join(map(str, dims)) in text
                    and all(f"  {line}" in text for line in lines),
                    f"{key}: stdout differs from the expected lists")
        if "validate" in out:
            code, text, doc = out["validate"]
            require(code == 0 and doc["braid_equation"] is True
                    and "braid equation: holds" in text,
                    "validate-r: the braid equation does not hold")
            got = [parse_laurent(c) for c in doc["minimal_poly"]]
            require(got == hecke_minimal_poly(),
                    f"validate-r: minimal polynomial {doc['minimal_poly']}, "
                    "expected (x - q)(x + q^-1)")
        for key, want in (
                ("oracle_frt3", frt_dims(ORACLE_FRT_N, ORACLE_FRT_DEGREE)),
                ("oracle_sym4", sym_dims(ORACLE_N, ORACLE_DEGREE)),
                ("oracle_ext4", ext_dims(ORACLE_N, ORACLE_DEGREE))):
            if key in out:
                require(out[key] == want, f"{key}: {out[key]}, expected {want}")


def make(name: str, scratch: str):
    if name == "measuring":
        return Measuring()
    if name == "duality":
        return Duality()
    if name == "construction":
        return Construction(scratch)
    raise ValueError(f"unknown workload {name!r}")
