"""Spans around calls into the package's public functions, recorded from
outside the package.

``Tracer.install`` replaces each traced function in the namespace of every
latreg module that imported it from another module (and in the package
namespace the benchmark calls through).  Calls a module makes to its own
functions are left alone, so a layer's span covers the work of that layer
as seen from its callers.  Spans live in memory: (name, start, end, parent
index, job id).  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time


def _param_tuples(args, result):
    field, vs = args[0], args[1]
    n = len(vs[0]) if isinstance(vs[0], (tuple, list)) else len(vs)
    return {"ffvanish.param_tuples": (field.p - 1) ** n, "ffvanish.points": len(result)}


# (module, function) -> (layer metric, counts taken from the call's inputs and result)
TRACED = {
    ("intlat", "kernel_lattice"): ("intlat.kernel_s", None),
    ("intlat", "homogenize_lattice"): ("intlat.homogenize_s", None),
    ("binomial_gb", "lattice_ideal_generators"): (
        "binomial_gb.lattice_ideal_s",
        lambda a, r: {"binomial_gb.ideal_gens": len(r.gens)},
    ),
    ("binomial_gb", "toric_ideal_monomial_map"): (
        "binomial_gb.lattice_ideal_s",
        lambda a, r: {"binomial_gb.ideal_gens": len(r.gens)},
    ),
    ("binomial_gb", "buchberger"): (
        "binomial_gb.buchberger_s",
        lambda a, r: {"binomial_gb.basis_elems": len(r.elements)},
    ),
    ("binomial_gb", "initial_ideal_with_monomials"): (
        "binomial_gb.buchberger_s",
        lambda a, r: {"binomial_gb.basis_elems": len(r)},
    ),
    ("binomial_gb", "vanishing_ideal_finite_field"): (
        "binomial_gb.vanish_elim_s",
        lambda a, r: {"binomial_gb.ideal_gens": len(r.gens)},
    ),
    ("ffvanish", "enumerate_parameterized"): ("ffvanish.enumerate_s", _param_tuples),
    ("ffvanish", "enumerate_degenerate_torus"): ("ffvanish.enumerate_s", _param_tuples),
    ("ffvanish", "regularity_points"): (
        "ffvanish.rank_s",
        lambda a, r: {"ffvanish.rank_steps": r},
    ),
    ("ffvanish", "hilbert_table_points"): (
        "ffvanish.rank_s",
        lambda a, r: {"ffvanish.rank_steps": a[1] + 1},
    ),
    ("ffvanish", "hilbert_function_points"): (
        "ffvanish.rank_s",
        lambda a, r: {"ffvanish.rank_steps": a[1]},
    ),
    ("hilbert", "monomial_hilbert"): (
        "hilbert.monomial_s",
        lambda a, r: {
            "hilbert.initial_gens": len(a[0]),
            "hilbert.numerator_len": len(r.numerator),
        },
    ),
    ("hilbert", "reg_cm"): ("hilbert.bridge_s", None),
    ("hilbert", "hilbert_table"): ("hilbert.bridge_s", None),
    ("hilbert", "degree_dim1_standard"): ("hilbert.bridge_s", None),
    ("hilbert", "index_of_regularity"): ("hilbert.bridge_s", None),
    ("graphblocks", "reg_colon_method"): ("graphblocks.colon_s", None),
    ("graphblocks", "reg_bipartite_blocks"): ("graphblocks.blocks_s", None),
}

LAYER_TIMES = sorted({layer for layer, _ in TRACED.values()})
# per-layer metric -> (unit, better), besides the layer self times
COUNTS = {
    "ffvanish.param_tuples": ("count", "lower"),
    "ffvanish.points": ("count", "higher"),
    "ffvanish.points_per_tuple": ("ratio", "higher"),
    "ffvanish.rank_steps": ("count", "lower"),
    "binomial_gb.ideal_gens": ("count", "lower"),
    "binomial_gb.basis_elems": ("count", "lower"),
    "hilbert.initial_gens": ("count", "lower"),
    "hilbert.numerator_len": ("count", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}
JOB_SPAN = "job"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.job = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def begin_job(self, job_id):
        self.job = job_id
        self.open(JOB_SPAN)

    def end_job(self):
        # a cap can interrupt a layer call; its finally clause closed the span
        while len(self.stack) > 1:
            self.close()
        self.close()
        self.job = None

    # -- instrumentation

    def _wrap(self, fn, layer, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:  # oracle calls between jobs are not traced
                return fn(*args, **kwargs)
            self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                for k, v in count(args, result).items():
                    self.counts[k] = self.counts.get(k, 0) + v
            return result

        return traced

    def install(self):
        import latreg

        modules = [latreg] + [
            m for n, m in sys.modules.items() if n.startswith("latreg.") and m
        ]
        for (mod_name, fn_name), (layer, count) in TRACED.items():
            home = sys.modules[f"latreg.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, layer, count)
            for m in modules:
                if m is not home and getattr(m, fn_name, None) is original:
                    self._saved.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)

    def uninstall(self):
        for m, fn_name, original in reversed(self._saved):
            setattr(m, fn_name, original)
        self._saved.clear()

    # -- summaries

    def self_times(self, first=0):
        """Self seconds per span name over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


def per_layer_metrics(pass_self_times, pass_counts, traced_walls, plain_walls):
    """Medians over the traced passes of the per-pass layer self times and
    counts, plus the tracing overhead against the untraced passes."""
    out = {}
    for layer in LAYER_TIMES:
        out[layer] = (statistics.median(t.get(layer, 0.0) for t in pass_self_times), "s")
    for c, (unit, _) in COUNTS.items():
        if unit == "count":
            out[c] = (statistics.median(k.get(c, 0) for k in pass_counts), unit)
    tuples = out["ffvanish.param_tuples"][0]
    out["ffvanish.points_per_tuple"] = (
        out["ffvanish.points"][0] / tuples if tuples else 0.0,
        "ratio",
    )
    out["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        "ratio",
    )
    return out
