"""Benchmark for braidalg: measuring, duality and construction workloads.

    python3 bench/run.py --workload measuring --seed 1 --seconds 30 --trace 0

Runs one workload in this process, in a closed loop: each repetition
builds fresh program objects, runs every operation of the workload, and
starts when the previous one has ended and its outputs have been checked.
Repetitions continue until `--seconds` have passed; the last one always
runs to its end.  `--workload all` runs the three workloads one after the
other, each in a process of its own.

Every timed section (an import, a repetition's set-up, each operation)
runs between two runs of a fixed reference kernel, and its time is
reported at reference speed (see clock.py): the shared host's speed
wanders, and the kernel moves with it.  With `--trace 0` the last line
of stdout is a JSON object with the end-to-end metrics `verdict_s`,
`setup_s` and `peak_rss_mb`; with
`--trace 1` a third of the time runs untraced and the rest traced, and the
JSON object holds the per-layer metrics instead.  The exit code is 0 when
every output was correct, 1 when one was not, 2 on a usage error or when
the program's sources are missing.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from clock import REF_S, Clock
from tracing import Tracer, layer_metrics
from expect import CheckFailed
from workloads import make, rep_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("measuring", "duality", "construction")
IMPORT_REPEATS = 5


def forget_program():
    for name in [n for n in sys.modules
                 if n == "braidalg" or n.startswith("braidalg.")]:
        del sys.modules[name]


def import_program() -> SimpleNamespace:
    """Import braidalg and its CLI module; returns the namespace the
    workloads call into."""
    pkg = importlib.import_module("braidalg")
    cli = importlib.import_module("braidalg.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: braidalg imported from {pkg.__file__}, "
                         f"not from {SRC}")
    return SimpleNamespace(B=pkg, cli=cli)


def fresh_import(clock: Clock) -> SimpleNamespace:
    """Import the program from scratch as a section of `clock`."""
    forget_program()
    return clock.time(import_program)


def program_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "braidalg" or n.startswith("braidalg.")]


def repetition(wl, lib, seed: int, rep: int, clock: Clock,
               tracer=None) -> dict:
    gc.collect()
    if tracer is not None:
        tracer.begin_rep(rep)
    clock.reset()
    inputs = clock.time(wl.setup, lib, rep_seed(seed, rep))
    setup = (clock.wall, clock.scaled)
    clock.reset()
    out, failures = wl.verdict(lib, inputs, clock)
    if tracer is not None:
        tracer.end_rep()
    problems = []
    try:
        extra = wl.collect(inputs, out)
        if tracer is not None:
            tracer.rep_counts[-1].update(extra)
        wl.check(out)
    except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return {"setup": setup, "verdict": (clock.wall, clock.scaled),
            "failures": failures, "problems": problems}


def loop(wl, lib, seed: int, until: float, clock: Clock,
         tracer=None) -> list:
    """Repetitions 0, 1, ... until the clock passes `until`; at least one."""
    reps = []
    while True:
        reps.append(repetition(wl, lib, seed, len(reps), clock, tracer))
        if perf_counter() >= until:
            return reps


def quartiles(values: list) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def medians(pairs: list) -> tuple[float, float]:
    """Median wall and median reference-speed time of (wall, scaled) pairs."""
    return (statistics.median(p[0] for p in pairs),
            statistics.median(p[1] for p in pairs))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    wl = make(name, str(OUT))
    clock = Clock()
    imports = []
    for _ in range(IMPORT_REPEATS):
        clock.reset()
        lib = fresh_import(clock)
        imports.append((clock.wall, clock.scaled))
    start = perf_counter()
    untraced = loop(wl, lib, seed, start + (seconds / 3 if trace else seconds),
                    clock)
    traced = []
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(program_modules())
        traced = loop(wl, lib, seed, start + seconds, clock, tracer)

    reps = untraced + traced
    attempted = wl.ops * len(reps)
    failed = sum(len(r["failures"]) for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    for line in sorted({f"failed: {name}/{key}: {why}" for r in reps
                        for key, why in r["failures"].items()}):
        print(line)
    for p in sorted(set(problems)):
        print(f"wrong output: {name}: {p}")
    verdict_wall, verdict_s = medians([r["verdict"] for r in untraced])
    import_wall, import_s = medians(imports)
    build_wall, build_s = medians([r["setup"] for r in untraced])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_s = statistics.median(clock.refs)
    scaled = [r["verdict"][1] for r in untraced]
    print(f"workload {name}, seed {seed}: {len(reps)} repetitions "
          f"({len(traced)} traced), {attempted} operations, {failed} failed")
    print(f"verdict_s: median {verdict_s:.4f} s at reference speed over "
          f"{len(untraced)} untraced samples (quartiles {quartiles(scaled)}); "
          f"wall median {verdict_wall:.4f} s")
    print(f"setup_s: {import_s + build_s:.4f} s at reference speed = import "
          f"{import_s:.4f} s (median of {len(imports)}) + build {build_s:.4f} s "
          f"(median of {len(untraced)}); wall {import_wall + build_wall:.4f} s")
    print(f"peak_rss_mb: {rss_mb:.2f} MiB")
    print(f"machine.ref_loop_s: median {ref_s:.4f} s over {len(clock.refs)} "
          f"samples (reference speed: {REF_S} s)")

    if trace:
        metrics = layer_metrics(tracer, list(range(len(traced))))
        ratio = medians([r["verdict"] for r in traced])[1] / verdict_s
        metrics["machine.ref_loop_s"] = {"value": ref_s, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        path = OUT / f"trace-{name}-seed{seed}.tsv.gz"
        tracer.write(str(path))
        print(f"traced verdict: {ratio:.2f} x untraced over {len(traced)} "
              f"traced samples; {len(tracer.start)} spans in {path.relative_to(ROOT)}")
    else:
        metrics = {
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "setup_s": {"value": import_s + build_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a process of its own, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return max(code, 1)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "braidalg" / "__init__.py").is_file():
        print(f"error: the braidalg sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
