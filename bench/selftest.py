"""The benchmark's own tests.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

They check that every output check rejects a wrong value, that the closed
forms give the figures the checks rely on, that the reference clock
scales each section by the kernel times around it, that two traced runs
with one seed give identical counts, and that the benchmark refuses to
run without the program's sources.  The file is not named test_*.py, so the
repository's own test run does not collect it: the traced runs take about
a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import expect  # noqa: E402
import run  # noqa: E402
from clock import Clock  # noqa: E402
from expect import CheckFailed  # noqa: E402
from workloads import make  # noqa: E402

_outputs: dict = {}


def outputs(name: str) -> dict:
    """The checked outputs of one repetition of a workload, made once."""
    if name not in _outputs:
        lib = run.fresh_import(Clock())
        run.OUT.mkdir(exist_ok=True)
        wl = make(name, str(run.OUT))
        inputs = wl.setup(lib, 1)
        out, failures = wl.verdict(lib, inputs, Clock())
        assert not failures, failures
        wl.collect(inputs, out)
        _outputs[name] = (wl, out)
    wl, out = _outputs[name]
    return wl, copy.deepcopy(out)


def with_item(report, index: int, **changes):
    items = list(report.items)
    items[index] = dataclasses.replace(items[index], **changes)
    return dataclasses.replace(report, items=items)


class ClosedForms(unittest.TestCase):
    def test_pair_counts(self):
        self.assertEqual(expect.pair_count(expect.ext_dims(3, 4), 4), 57)
        self.assertEqual(expect.pair_count(expect.cone_dims(3), 3), 70)
        self.assertEqual(expect.pair_count(expect.poly2_dims(5), 5), 126)
        self.assertEqual(expect.pair_count(expect.sym_dims(3, 4), 4), 210)

    def test_duality_counts(self):
        self.assertEqual(expect.word_count(expect.uq_generator_count(3), 3), 585)
        self.assertEqual(expect.frt_relation_count(3), 36)
        self.assertEqual(expect.frt_relation_count(4), 120)
        self.assertEqual(expect.adjoint_frt_relation_count(), 46)

    def test_laurent_parser(self):
        self.assertEqual(expect.parse_laurent("-q + q^-1"), {1: -1, -1: 1})
        self.assertEqual(expect.parse_laurent("3*q^2 - 1"), {2: 3, 0: -1})
        self.assertEqual(expect.parse_laurent("0"), {})
        with self.assertRaises(CheckFailed):
            expect.parse_laurent("q**2")


class MeasuringChecks(unittest.TestCase):
    def test_correct_outputs_pass(self):
        wl, out = outputs("measuring")
        wl.check(out)

    def test_passing_control_is_rejected(self):
        wl, out = outputs("measuring")
        control = out["control"]
        out["control"] = dataclasses.replace(control, items=[
            dataclasses.replace(i, passed=True, detail="")
            for i in control.items])
        with self.assertRaises(CheckFailed):
            wl.check(out)

    def test_wrong_pair_count_is_rejected(self):
        wl, out = outputs("measuring")
        out["ext3"] = dataclasses.replace(out["ext3"], notes=[
            "exhaustive over 56 monomial pairs, total degree <= 4"])
        with self.assertRaises(CheckFailed):
            wl.check(out)

    def test_failing_item_is_rejected(self):
        wl, out = outputs("measuring")
        out["cone"] = with_item(out["cone"], 0, passed=False)
        with self.assertRaises(CheckFailed):
            wl.check(out)


class DualityChecks(unittest.TestCase):
    def test_correct_outputs_pass(self):
        wl, out = outputs("duality")
        wl.check(out)

    def test_passing_control_is_rejected(self):
        wl, out = outputs("duality")
        out["control"] = with_item(out["control"], 0, passed=True)
        with self.assertRaises(CheckFailed):
            wl.check(out)

    def test_wrong_relation_count_is_rejected(self):
        wl, out = outputs("duality")
        name = out["sl:3"].items[0].name.replace("36 relations", "27 relations")
        out["sl:3"] = with_item(out["sl:3"], 0, name=name)
        with self.assertRaises(CheckFailed):
            wl.check(out)


class ConstructionChecks(unittest.TestCase):
    def test_correct_outputs_pass(self):
        wl, out = outputs("construction")
        wl.check(out)

    def test_hilbert_off_by_one_is_rejected(self):
        for key, where in (("frt", 3), ("chi_sym", 5), ("chi_ext", 2)):
            wl, out = outputs("construction")
            out[key][2]["hilbert"][where] += 1
            with self.assertRaises(CheckFailed, msg=key):
                wl.check(out)
        wl, out = outputs("construction")
        out["oracle_sym4"][4] -= 1
        with self.assertRaises(CheckFailed):
            wl.check(out)

    def test_wrong_relation_count_is_rejected(self):
        wl, out = outputs("construction")
        out["frt"][2]["relation_count"] = 119
        with self.assertRaises(CheckFailed):
            wl.check(out)
        wl, out = outputs("construction")
        del out["chi_ext"][2]["relations"][0]
        with self.assertRaises(CheckFailed):
            wl.check(out)

    def test_wrong_minimal_polynomial_is_rejected(self):
        wl, out = outputs("construction")
        out["validate"][2]["minimal_poly"][1] = "-q + 2*q^-1"
        with self.assertRaises(CheckFailed):
            wl.check(out)


class ReferenceClock(unittest.TestCase):
    def test_sections_are_scaled_by_the_surrounding_references(self):
        refs = iter([0.02, 0.04, 0.06])
        saved = clock.ref_loop
        clock.ref_loop = lambda: next(refs)
        try:
            c = Clock()
            self.assertEqual(c.time(lambda: time.sleep(0.05) or 7), 7)
            first = (c.wall, c.scaled)
            c.reset()
            with self.assertRaises(ZeroDivisionError):
                c.time(lambda: 1 / 0)
        finally:
            clock.ref_loop = saved
        self.assertEqual(c.refs, [0.02, 0.04, 0.06])
        self.assertGreaterEqual(first[0], 0.05)
        self.assertAlmostEqual(first[1], first[0] * clock.REF_S / 0.03)
        self.assertAlmostEqual(c.scaled, c.wall * clock.REF_S / 0.05)

    def test_kernel_is_fixed_work(self):
        self.assertEqual(clock.ref_kernel(), clock.ref_kernel())


def bench_result(*args, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)
    return proc.returncode, proc.stdout


class Runs(unittest.TestCase):
    def test_traced_counts_repeat(self):
        for name in run.WORKLOADS:
            results = []
            for _ in range(2):
                code, stdout = bench_result("--workload", name, "--seed", "3",
                                            "--seconds", "1", "--trace", "1")
                self.assertEqual(code, 0, stdout)
                results.append(json.loads(stdout.splitlines()[-1]))
            first, second = (r["metrics"] for r in results)
            self.assertEqual(set(first), set(second))
            for metric, value in first.items():
                if value["unit"] in ("count", "ratio") \
                        and metric != "trace.overhead_ratio":
                    self.assertEqual(value, second[metric], f"{name} {metric}")

    def test_missing_sources_fail_without_result(self):
        bare = Path(tempfile.mkdtemp(prefix="bench-bare-"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            code, stdout = bench_result("--workload", "duality", "--seed", "1",
                                        "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', stdout)


if __name__ == "__main__":
    unittest.main()
