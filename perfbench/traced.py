"""Run one bfk CLI command in this process with its public functions timed.

The tracer wraps, from outside the package, every public function and
public method of the modules in LAYERS: each function where it is
defined, in every ``bfk`` module that imported it by name, and on the
class for methods.  Each call becomes a span (name, start, end, parent),
kept in memory and written out when the command ends, together with the
exact counters of COUNT_HOOKS.  No file of the package changes.

    python3 traced.py --src SRC --report OUT --summary SUMMARY.json \
        --spans SPANS.jsonl.gz --run-id ID -- verify main --p 5 ...

The summary holds, per span name, the call count and the self time (the
span's duration minus the durations of its direct child spans), plus the
top span ``cli.main`` and the time its direct children cover.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("groups", "bisets", "burnside", "zlinalg", "limits", "transfers",
          "campaigns", "cli")

# Not wrapped.  The element and vector helpers run millions of times per
# command, so a span around them would time the tracer; their time stays in
# the caller's self time.  run_campaign is the engine loop itself: leaving
# it unwrapped makes its glue the top span's self time.
UNWRAPPED = frozenset({
    "groups.FiniteGroup.mul",
    "groups.FiniteGroup.inv_of",
    "groups.FiniteGroup.power",
    "zlinalg.xgcd",
    "zlinalg.LatticeBuilder.add",
    "campaigns.run_campaign",
})

TOP = "cli.main"
MISS_PARENT = "campaigns.cached_inverse_limit"


class Tracer:
    """Spans and counters of one traced command, held in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []      # [name id, parent index, start, end]
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def count_max(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), int(value))

    def wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def summary(self) -> dict:
        """Calls and self seconds per span name, and the top span's cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counters = dict(self.counters)
        # a cache miss is a solve made inside the cached lookup
        counters["cache.limit_misses"] = 0
        top_wall = top_children = 0.0
        for k, (nid, parent, t0, t1) in enumerate(spans):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[k])
            if name == TOP and parent < 0:
                top_wall += t1 - t0
                top_children += child[k]
            elif (name == "limits.inverse_limit" and parent >= 0
                  and self.names[spans[parent][0]] == MISS_PARENT):
                counters["cache.limit_misses"] += 1
        return {"calls": calls, "self_s": self_s, "counters": counters,
                "top_wall_s": top_wall, "top_children_s": top_children,
                "spans": len(spans)}

    def write_spans(self, path: str, run_id: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"run": run_id, "names": self.names,
                                 "fields": ["id", "parent", "name",
                                            "start", "end"]}) + "\n")
            for k, (nid, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"[{k},{parent},{nid},{t0:.9f},{t1:.9f}]\n")


# -- exact counters recorded at construction or return ----------------------

def _after_analysis_init(tr, args, _):
    tr.count("groups.analysis.built")
    tr.count("groups.subgroups", args[0].n_sub)


def _after_family_init(tr, args, _):
    tr.count("limits.sections", len(args[0].sections))


def _after_system_init(tr, args, _):
    system = args[0]
    tr.count_max("limits.unknowns_max", system.total)
    fam = system.family
    tr.count_max("limits.edges_max",
                 len(fam.cover_edges) + len(fam.conj_edges))


def _basis_bits(basis) -> int:
    return max((abs(int(v)).bit_length() for v in basis.flat), default=0)


def _after_inverse_limit(tr, _, lim):
    tr.count_max("limits.limit_rank_max", lim.rank)
    tr.count_max("limits.basis_max_bits", _basis_bits(lim.basis))


def _after_limit_load(tr, _, lim):
    tr.count("cache.limit_hits")
    tr.count_max("limits.limit_rank_max", lim.rank)
    tr.count_max("limits.basis_max_bits", _basis_bits(lim.basis))


def _after_report(tr, args, _):
    tr.count("campaigns.rows", len(args[0]["rows"]))


# "module.qualname" -> hook(tracer, args, result) run after each return;
# the private names here are hooked for their counts only, with no span
COUNT_HOOKS = {
    "groups.GroupAnalysis.__init__": _after_analysis_init,
    "limits.SectionFamily.__init__": _after_family_init,
    "limits.CoefficientSystem.__init__": _after_system_init,
    "limits.inverse_limit": _after_inverse_limit,
    "campaigns._limit_from_payload": _after_limit_load,
    "campaigns.emit_json": _after_report,
    "campaigns.emit_csv": _after_report,
}


def _count_only(tr: Tracer, fn, hook):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(tr, args, out)
        return out

    return counted


def install(tr: Tracer) -> None:
    """Wrap the public callables of every layer."""
    mods = {m: importlib.import_module(f"bfk.{m}") for m in LAYERS}
    swaps: dict[int, tuple] = {}       # id(original) -> (original, wrapper)
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                qual = f"{short}.{name}"
                hook = COUNT_HOOKS.get(qual)
                if name.startswith("_"):
                    if hook is not None:
                        swaps[id(obj)] = (obj, _count_only(tr, obj, hook))
                    continue
                if qual in UNWRAPPED:
                    continue
                swaps[id(obj)] = (obj, tr.wrap(qual, obj, hook))
            elif inspect.isclass(obj) and not name.startswith("_"):
                for mname, meth in list(vars(obj).items()):
                    if not inspect.isfunction(meth):
                        continue
                    qual = f"{short}.{name}.{mname}"
                    hook = COUNT_HOOKS.get(qual)
                    if hook is not None:
                        setattr(obj, mname, _count_only(tr, meth, hook))
                    elif not mname.startswith("_") and qual not in UNWRAPPED:
                        setattr(obj, mname, tr.wrap(qual, meth))
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("bfk"):
            continue
        for name, obj in list(vars(mod).items()):
            hit = swaps.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


# -- per-layer metrics ------------------------------------------------------

# metric stem -> span names whose self seconds (and calls) it sums
SPAN_METRICS = {
    "groups.analysis": ("groups.analysis",),
    "groups.sections_in_class": ("groups.sections_in_class",),
    "burnside.ring_data": ("burnside.ring_data",),
    "burnside.sum_of_induced_kernels": ("burnside.sum_of_induced_kernels",),
    "burnside.dual_exactness_report": ("burnside.dual_exactness_report",),
    "bisets.build": tuple(f"bisets.{n}_biset" for n in (
        "identity", "indinf", "defres", "restriction", "induction",
        "inflation", "deflation", "iso", "left_quotient")),
    "bisets.compose": ("bisets.compose",),
    "transfers.act_on_limit": ("transfers.act_on_limit_matrix",
                               "transfers.act_on_limit"),
    "transfers.adjunction": ("transfers.adjunction_plus",
                             "transfers.adjunction_minus"),
    "transfers.retraction_matrix": ("transfers.retraction_matrix",),
    "limits.section_family": ("limits.section_family",),
    "limits.coefficient_system": ("limits.coefficient_system",),
    "limits.edge_matrix": ("limits.CoefficientSystem.edge_matrix",),
    "limits.inverse_limit": ("limits.inverse_limit",),
    "limits.residual_check": ("limits.residual_check",),
    "limits.comparison_report": ("limits.comparison_report",),
    "limits.counit_kernel_report": ("limits.counit_kernel_report",),
    "zlinalg.hnf": ("zlinalg.hnf", "zlinalg.LatticeBuilder.hnf"),
    "zlinalg.snf": ("zlinalg.snf_diagonal", "zlinalg.sparse_snf_invariants"),
    "zlinalg.kernel": ("zlinalg.kernel_basis", "zlinalg.sparse_kernel"),
    "zlinalg.coords_in_hnf": ("zlinalg.coords_in_hnf",),
    "campaigns.cached_inverse_limit": ("campaigns.cached_inverse_limit",),
    "campaigns.report": ("campaigns.emit_json", "campaigns.emit_csv"),
}
CALL_METRICS = ("bisets.build", "bisets.compose", "limits.edge_matrix",
                "limits.inverse_limit", "zlinalg.hnf", "zlinalg.snf",
                "zlinalg.coords_in_hnf")
COUNTERS = ("groups.analysis.built", "groups.subgroups", "limits.sections",
            "limits.unknowns_max", "limits.edges_max", "limits.limit_rank_max",
            "limits.basis_max_bits", "cache.limit_hits", "cache.limit_misses",
            "campaigns.rows")
# wall seconds per CLI command of the untraced pass; 0 where not run
COMMAND_STEMS = ("induction", "exact", "probe", "main", "appendix", "limit",
                 "limit_warm")
# Times of layers that some workload never reaches.  They read 0 s on every
# run of that workload, which cannot be told from a constant, so they go to
# the run record and the table only; every other metric is in the result.
LOCAL_TIMES = frozenset(
    [f"{m}.self_s" for m in (
        "bisets", "transfers", "groups.sections_in_class",
        "burnside.sum_of_induced_kernels", "burnside.dual_exactness_report",
        "bisets.build", "bisets.compose", "transfers.act_on_limit",
        "transfers.adjunction", "transfers.retraction_matrix",
        "limits.comparison_report")]
    + [f"campaign.{c}_s" for c in COMMAND_STEMS if c != "probe"])


def in_result(name: str) -> bool:
    return name not in LOCAL_TIMES


def per_layer_metrics(passes, command_s: dict, plain_wall: float,
                      traced_walls) -> dict:
    """name -> (value, unit) from the summaries of each traced pass.

    Times are means over the passes, summed over a pass's commands; counts
    come from the first pass (the caller checks that the passes agree).
    """
    n = len(passes)

    def mean_self(names) -> float:
        return sum(s["self_s"].get(x, 0.0) for sums in passes for s in sums
                   for x in names) / n

    def total(key) -> float:
        return sum(s[key] for sums in passes for s in sums) / n

    first = passes[0]
    out = {}
    for mod in LAYERS[:-1]:
        names = {x for s in first for x in s["self_s"]
                 if x.startswith(mod + ".")}
        out[f"{mod}.self_s"] = (mean_self(names), "s")
    for stem, names in SPAN_METRICS.items():
        out[f"{stem}.self_s"] = (mean_self(names), "s")
        if stem in CALL_METRICS:
            out[f"{stem}.calls"] = (sum(s["calls"].get(x, 0) for s in first
                                        for x in names), "count")
    for key in COUNTERS:
        vals = [s["counters"].get(key, 0) for s in first]
        out[key] = (max(vals) if "_max" in key else sum(vals),
                    "bits" if key.endswith("_bits") else "count")
    top, children = total("top_wall_s"), total("top_children_s")
    out["campaigns.other.self_s"] = (top - children, "s")
    out["cli.top.wall_s"] = (top, "s")
    out["trace.coverage"] = (children / top if top else 0.0, "ratio")
    out["trace.spans"] = (sum(s["spans"] for s in first), "count")
    out["trace.overhead_s"] = (sum(traced_walls) / n - plain_wall, "s")
    for stem in COMMAND_STEMS:
        key = f"campaign.{stem}_s"
        out[key] = (command_s.get(key, 0.0), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", required=True,
                    help="absolute path of the checkout's src directory")
    ap.add_argument("--report", required=True, help="file for the CLI's stdout")
    ap.add_argument("--summary", required=True, help="JSON summary to write")
    ap.add_argument("--spans", required=True, help="gzipped JSONL span file")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("bfk_argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    bfk_argv = args.bfk_argv[1:] if args.bfk_argv[:1] == ["--"] else args.bfk_argv

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import bfk
    import bfk.cli

    if not os.path.abspath(bfk.__file__).startswith(src + os.sep):
        print(f"traced: bfk imported from {bfk.__file__}, not {src}",
              file=sys.stderr)
        return 1
    tr = Tracer()
    install(tr)
    with open(args.report, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        rc = bfk.cli.main(bfk_argv)
    tr.write_spans(args.spans, args.run_id)
    summary = tr.summary()
    summary.update(rc=rc, run=args.run_id)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True)
    return 0 if rc == 0 else rc


if __name__ == "__main__":
    raise SystemExit(main())
