"""Timing at reference speed.

The benchmark runs on a few cores of a shared host whose speed wanders by
a fifth or more over seconds to minutes (see "Machine drift" in the
README).  A fixed pure-Python reference kernel, run right before and right
after every timed section, measures how fast the machine runs Python at
that moment.  A section's time at reference speed is its wall time times
`REF_S` over the mean of the two reference times around it: what the
section would have taken had the kernel run in `REF_S`.

    clock = Clock()
    result = clock.time(fn, *args)    # also records the section's times
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Median time of `ref_kernel` on the 2-CPU machine the README describes,
# measured over several minutes; the scaled times are in these seconds.
REF_S = 0.030
REF_ROUNDS = 48
_REF_A = [{e: Fraction(e + 2, 3 * e + 7) for e in range(-2, 3)},
          {e: Fraction(2 * e - 1, e + 5) for e in range(0, 4)}]


def ref_kernel() -> int:
    """Fixed work shaped like braidalg's inner loops: products of small
    Laurent polynomials with Fraction coefficients kept in dicts, with
    hashing of tuple keys.  Returns a checksum so no step is dead."""
    a, b = _REF_A
    seen: dict = {}
    total = 0
    for r in range(REF_ROUNDS):
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            prod: dict = {}
            for i, u in x.items():
                for j, v in y.items():
                    k = i + j
                    prod[k] = prod.get(k, 0) + u * v
            key = tuple(sorted(prod.items()))
            seen[key] = seen.get(key, 0) + 1
            total += len(prod)
    return total + len(seen)


def ref_loop() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = perf_counter()
    ref_kernel()
    return perf_counter() - t0


class Clock:
    """Times sections, each between two runs of the reference kernel.

    `wall` and `scaled` hold the summed wall and reference-speed times of
    the sections since the last `reset`; `refs` every reference time."""

    def __init__(self):
        self.refs = [ref_loop()]
        self.reset()

    def reset(self):
        self.wall = 0.0
        self.scaled = 0.0

    def time(self, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = perf_counter() - t0
            before = self.refs[-1]
            self.refs.append(ref_loop())
            self.wall += wall
            self.scaled += wall * REF_S * 2 / (before + self.refs[-1])
