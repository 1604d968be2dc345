"""Tracing for the benchmark's per-layer run.

`Tracer.install` wraps braidalg from outside: every public function and
every public method of every braidalg module (names without a leading
underscore; properties are left alone), plus the few operators that are
layer boundaries (`SymMatrix` products and construction, `BraidedSpace`
construction).  A function is rebound in every braidalg module that holds
it by name, so calls inside the program go through the wrapper too.
Private helpers are not wrapped; their cost is their caller's self time.

Each wrapper records a span (name, start, end, parent span, repetition) in
column lists kept in memory, and `write` saves them when the run ends.
Self time is a span's duration minus the durations of its child spans.

The scalar layer is the exception.  Its arithmetic runs about 600 000
times per repetition, so `Scalar` multiplication, addition, subtraction,
division, inversion and construction are counted without spans, and its
predicates (`is_zero`, `is_one`: about 3 million calls per repetition) and
`LaurentPoly`, its internal representation, are not wrapped at all.  Their
time is part of the self time of the calling span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
from collections import defaultdict
from time import perf_counter

# Scalar operators and the counter each one feeds.
SCALAR_COUNTS = {
    "__mul__": "scalar.mul_calls", "__rmul__": "scalar.mul_calls",
    "__add__": "scalar.add_calls", "__radd__": "scalar.add_calls",
    "__sub__": "scalar.add_calls", "__rsub__": "scalar.add_calls",
    "__truediv__": "scalar.div_calls", "__rtruediv__": "scalar.div_calls",
    "inverse": "scalar.inverse_calls",
    # Scalar(num, den) runs the gcd reduction; internal results that need
    # none are made by Scalar._raw, which bypasses __init__
    "__init__": "scalar.canonical_calls",
}

# Operators that are layer boundaries and get spans like public methods.
BOUNDARY_DUNDERS = {
    "SymMatrix": ("__init__", "__mul__", "__add__", "__sub__"),
    "BraidedSpace": ("__init__",),
}

MATMUL = "linalg.SymMatrix.matmul"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []      # span columns
        self.start = []
        self.end = []
        self.parent = []
        self.rep = []
        self.stack: list[int] = []
        self.current_rep = -1
        self.counts = defaultdict(int)
        self.rep_counts: list[dict] = []
        self.last_identity = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- repetitions --------------------------------------------------------

    def begin_rep(self, rep: int):
        self.current_rep = rep
        self.counts.clear()

    def end_rep(self):
        self.rep_counts.append(dict(self.counts))
        self.current_rep = -1

    # --- wrappers -------------------------------------------------------------

    def span(self, fn, name: str, before=None, after=None):
        """A wrapper recording one span per call.  `before(args, kwargs)`
        and `after(args, result)` add to the counters at the same boundary."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, reps, stack = self.parent, self.rep, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reps.append(tracer.current_rep)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn, key: str):
        counts, stack, names = self.counts, self.stack, self.name
        matmul = self.name_id(MATMUL)
        products = key == "scalar.mul_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if products and stack and names[stack[-1]] == matmul:
                counts["linalg.matmul_products"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def matmul(self, fn):
        """SymMatrix.__mul__: a span named `MATMUL` for matrix products,
        and `linalg.SymMatrix.__mul__` for scaling by a scalar."""
        counts = self.counts
        tracer = self
        product = self.span(fn, MATMUL)
        scale = self.span(fn, "linalg.SymMatrix.__mul__")

        @functools.wraps(fn)
        def wrapper(a, b):
            if not hasattr(b, "entries"):
                return scale(a, b)
            cells = a.rows * a.cols * b.cols
            counts["linalg.matmul_cells"] += cells
            if a is tracer.last_identity:
                counts["linalg.matmul_identity_cells"] += cells
            return product(a, b)

        return wrapper

    # --- installation ---------------------------------------------------------

    def install(self, modules: list):
        """Wrap `modules` (the braidalg package and its submodules) in place."""
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = self.span(obj, name, *self._hooks(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{short}.{obj.__name__}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, qual: str, cls):
        if cls.__name__ == "LaurentPoly":
            return
        if cls.__name__ == "Scalar":
            for attr, key in SCALAR_COUNTS.items():
                setattr(cls, attr, self.counter(cls.__dict__[attr], key))
            return
        dunders = BOUNDARY_DUNDERS.get(cls.__name__, ())
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in dunders:
                continue
            name = f"{qual}.{attr}"
            if name == "linalg.SymMatrix.__mul__":
                setattr(cls, attr, self.matmul(raw))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(
                    self.span(raw.__func__, name, *self._hooks(name))))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.span(raw, name, *self._hooks(name)))

    def _hooks(self, name: str):
        """(before, after) counters recorded at the boundary `name`."""
        counts = self.counts
        before = after = None
        if name == "linalg.kron":
            def before(args, kwargs):
                a, b = args
                counts["linalg.kron_cells"] += a.rows * b.rows * a.cols * b.cols
        elif name == "ncalg.complete_rewrite":
            def after(args, rs):
                counts["ncalg.rules_added"] += sum(rs.log.rules_added.values())
        elif name == "linalg.SymMatrix.__init__":
            def after(args, result):
                counts["linalg.matrix_init_cells"] += args[0].rows * args[0].cols
        elif name == "linalg.SymMatrix.identity":
            def after(args, result):
                self.last_identity = result
        elif name == "linalg.Echelon.insert":
            def after(args, grew):
                if grew:
                    counts["linalg.echelon_insert_grew"] += 1
        elif name == "ncalg.RewriteSystem.normal_form_word":
            def before(args, kwargs):
                if tuple(args[1]) in args[0]._nf_cache:
                    counts["ncalg.nf_cache_hits"] += 1
        elif name == "frt.PairingTable.action":
            def before(args, kwargs):
                if (tuple(args[1]), args[2]) in args[0]._actions:
                    counts["frt.action_cache_hits"] += 1
        return before, after

    # --- results --------------------------------------------------------------

    def per_rep(self):
        """{rep: {key: [calls, total duration, total self time]}}, where a
        key is a span name or a (parent name, child name) pair."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_time[p] -= dur[i]
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        names, parent = self.names, self.parent
        for i, nid in enumerate(self.name):
            cells = out[self.rep[i]]
            cell = cells[names[nid]]
            cell[0] += 1
            cell[1] += dur[i]
            cell[2] += self_time[i]
            if parent[i] >= 0:
                cells[(names[self.name[parent[i]]], names[nid])][0] += 1
        return out

    def write(self, path: str):
        """Save every span as `rep, name, start, end, parent` lines."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("rep\tname\tstart_s\tend_s\tparent\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{self.rep[i]}\t{self.names[nid]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                         f"{self.parent[i]}\n")


# --- per-layer metrics -------------------------------------------------------
#
# Each entry: metric -> (kind, span names or counter keys).
#   calls: number of spans;  self: summed self time;  incl: summed duration;
#   count: a counter;  ratio: counter / counter (0 when the base is 0).
# Counts come from the first traced repetition, times are medians over all
# traced repetitions.

CHAIN = ("uqg.check_representation", "uqg.check_preserves_R",
         "uqg.check_ideal_preserved")
MEASURING = ("uqg.check_measuring", "uqg.check_derivation_measuring",
             "uqg._MeasuringContext.act_word",
             "uqg._MeasuringContext.measuring_residual",
             "uqg._MatrixHolder.matrix", "uqg._MatrixHolder.word_matrix")
NORMAL_FORM = ("ncalg.RewriteSystem.normal_form",
               "ncalg.RewriteSystem.normal_form_word")

LAYER_METRICS = {
    "scalar.mul_calls": ("count", "scalar.mul_calls"),
    "scalar.add_calls": ("count", "scalar.add_calls"),
    "scalar.inverse_calls": ("count", "scalar.inverse_calls"),
    "scalar.canonical_calls": ("count", "scalar.canonical_calls"),
    "linalg.matmul_calls": ("calls", (MATMUL,)),
    "linalg.matmul_self_s": ("self", (MATMUL,)),
    "linalg.matmul_cells": ("count", "linalg.matmul_cells"),
    "linalg.matmul_useful_ratio": ("ratio", ("linalg.matmul_products",
                                             "linalg.matmul_cells")),
    "linalg.matmul_identity_cells": ("count", "linalg.matmul_identity_cells"),
    "linalg.matrix_init_cells": ("count", "linalg.matrix_init_cells"),
    "linalg.matrix_init_self_s": ("self", ("linalg.SymMatrix.__init__",)),
    "linalg.kron_calls": ("calls", ("linalg.kron",)),
    "linalg.kron_self_s": ("self", ("linalg.kron",)),
    "linalg.kron_cells": ("count", "linalg.kron_cells"),
    "linalg.echelon_insert_calls": ("calls", ("linalg.Echelon.insert",)),
    "linalg.echelon_insert_self_s": ("self", ("linalg.Echelon.insert",)),
    "linalg.echelon_growth_ratio": ("ratio", ("linalg.echelon_insert_grew",
                                              "linalg.Echelon.insert")),
    "linalg.echelon_reduce_calls": ("calls", ("linalg.Echelon.reduce",)),
    "linalg.echelon_reduce_self_s": ("self", ("linalg.Echelon.reduce",)),
    # Echelon.reduce sorts the vector once per pass: one pass per
    # elimination (a vec_add_scaled call) plus the final one
    "linalg.echelon_reduce_sorts": ("calls", (
        "linalg.Echelon.reduce",
        ("linalg.Echelon.reduce", "linalg.vec_add_scaled"))),
    "linalg.braided_space_self_s": ("incl", ("linalg.BraidedSpace.__init__",)),
    "ncalg.complete_rewrite_self_s": ("self", ("ncalg.complete_rewrite",)),
    "ncalg.rules_added": ("count", "ncalg.rules_added"),
    "ncalg.normal_form_calls": ("calls", ("ncalg.RewriteSystem.normal_form",)),
    "ncalg.normal_form_self_s": ("self", NORMAL_FORM),
    "ncalg.nf_cache_hit_ratio": ("ratio", ("ncalg.nf_cache_hits",
                                           "ncalg.RewriteSystem.normal_form_word")),
    "ncalg.hilbert_oracle_self_s": ("self", ("ncalg.hilbert_oracle",)),
    "ncalg.irreducible_words_self_s": ("self", (
        "ncalg.RewriteSystem.irreducible_words",)),
    "uqg.check_measuring_self_s": ("self", MEASURING),
    "uqg.chain_self_s": ("self", CHAIN),
    "uqg.residuals_checked": ("calls", (
        "uqg._MeasuringContext.measuring_residual",)),
    "uqg.act_word_calls": ("calls", ("uqg._MeasuringContext.act_word",)),
    "uqg.act_word_self_s": ("self", ("uqg._MeasuringContext.act_word",)),
    "uqg.coproduct_action_calls": ("calls", ("uqg.coproduct_action",)),
    "uqg.word_action_calls": ("calls", ("uqg.word_action",)),
    "uqg.word_action_self_s": ("self", ("uqg.word_action",)),
    "frt.frt_relations_self_s": ("self", ("frt.frt_relations",)),
    "frt.coideal_self_s": ("self", ("frt.frt_coideal_check",)),
    "frt.pair_calls": ("calls", ("frt.PairingTable.pair",)),
    "frt.action_calls": ("calls", ("frt.PairingTable.action",)),
    "frt.action_cache_hit_ratio": ("ratio", ("frt.action_cache_hits",
                                             "frt.PairingTable.action")),
    "frt.check_duality_self_s": ("self", ("frt.check_duality",)),
    "builtin.builtin_sl_s": ("incl", ("builtin.builtin_sl",)),
    "builtin.adjoint_sl2_s": ("incl", ("builtin.adjoint_sl2",)),
    "cli.main_s": ("incl", ("cli.main",)),
    "cli.self_s": ("module_self", "cli."),
    "cli.stdout_bytes": ("count", "cli.stdout_bytes"),
    "cli.json_bytes": ("count", "cli.json_bytes"),
}

UNITS = {"calls": "count", "count": "count", "ratio": "ratio",
         "self": "s", "incl": "s", "module_self": "s"}


def layer_metrics(tracer: Tracer, traced_reps: list[int]) -> dict:
    spans = tracer.per_rep()
    first = traced_reps[0]
    counts = tracer.rep_counts[0]

    def span_value(rep, kind, names):
        cells = spans.get(rep, {})
        if kind == "module_self":
            return sum(v[2] for k, v in cells.items()
                       if isinstance(k, str) and k.startswith(names))
        column = {"calls": 0, "incl": 1, "self": 2}[kind]
        return sum(cells[n][column] for n in names if n in cells)

    def count_of(key):
        if key in counts:
            return counts[key]
        return span_value(first, "calls", (key,))

    out = {}
    for metric, (kind, arg) in LAYER_METRICS.items():
        if kind == "count":
            value = counts.get(arg, 0)
        elif kind == "ratio":
            num, base = count_of(arg[0]), count_of(arg[1])
            value = num / base if base else 0.0
        elif kind == "calls":
            value = span_value(first, kind, arg)
        else:
            value = statistics.median(span_value(r, kind, arg)
                                      for r in traced_reps)
        out[metric] = {"value": value, "unit": UNITS[kind]}
    return out
