"""Spans around calls into turancover's public functions.

``Tracer.install`` wraps every public function of the measured layers
at every module attribute of the package that binds it: in the defining
module and in each importer (``rounding.solve_vc_lp``, ``cli.blow_up``,
``turancover.blow_up``).  Calls between modules and calls inside one
module through its globals (``ahtp_cover_blowup`` ->
``recursive_threshold``) are therefore both seen.  Classes are never
wrapped.  ``uninstall`` puts every original back.

A span records its name, start, end, parent span and operation id plus
a few counts taken from the call's arguments or result.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# ``oracles`` is left out on purpose: the brute-force oracles are test
# ground truth and are not on the pipeline being optimised.
LAYERS = ("lp", "rounding", "hypergraph", "formats", "generators", "setcover", "cli")

PACKAGE = "turancover"


def _solve_vc_lp_counts(bound, result, parent_name):
    H = bound.arguments["H"]
    return {"mode": bound.arguments["mode"], "pairs": H.n * H.m}


def _threshold_counts(bound, result, parent_name):
    return {"support": len(result.solution.support)}


def _ahtp_counts(bound, result, parent_name):
    won = (result.fallback_size is not None and result.rounding_size is not None
           and result.fallback_size < result.rounding_size)
    return {"fallback_won": won}


def _outermost(parent_name):
    return parent_name is None or not parent_name.startswith("formats.")


def _parse_counts(bound, result, parent_name):
    if not _outermost(parent_name):
        return None
    return {"bytes_in": len(bound.arguments["text"])}


def _serialize_counts(bound, result, parent_name):
    if not _outermost(parent_name):
        return None
    return {"bytes_out": len(result)}


def _counter_for(name):
    if name == "lp.solve_vc_lp":
        return _solve_vc_lp_counts
    if name == "rounding.recursive_threshold":
        return _threshold_counts
    if name == "rounding.ahtp_cover_blowup":
        return _ahtp_counts
    if name.startswith("formats.parse_"):
        return _parse_counts
    if name.startswith("formats.serialize_"):
        return _serialize_counts
    return None


def _public_functions(module):
    for attr in module.__all__:
        fn = getattr(module, attr)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield attr, fn


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, counts]
        self.op = None
        self.active = False
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        counter = _counter_for(name)
        signature = inspect.signature(fn) if counter else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                parent_name = spans[parent][0] if parent >= 0 else None
                record[5] = counter(bound, result, parent_name)
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in _public_functions(module):
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ analysis

    def self_times(self):
        """Per-span self time, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent, op, counts) in enumerate(self.spans)]

    def table(self):
        """Rows (key, calls, total_s, self_s); solve_vc_lp split by mode."""
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for record, self_s in zip(self.spans, self.self_times()):
            name, start, end, parent, op, counts = record
            if name == "lp.solve_vc_lp":
                name = f"{name}.{counts['mode']}"
            row = rows[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])

    def write_jsonl(self, path, table, extra):
        with open(path, "w", encoding="ascii") as handle:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                if counts:
                    record.update(counts)
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"self_time_table": [
                {"span": k, "calls": c, "total_s": tot, "self_s": s}
                for k, c, tot, s in table], **extra}) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics named ``<module>.<function>.<stat>``, with units."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    module_self = defaultdict(float)
    pairs = 0
    bytes_in = bytes_out = 0
    supports = []
    ahtp_runs = fallback_wins = 0
    for record, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, parent, op, counts = record
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
        module_self[name.split(".")[0]] += own
        if name == "lp.solve_vc_lp":
            pairs += counts["pairs"]
            self_s[f"lp.solve_vc_lp.{counts['mode']}"] += own
        elif name == "rounding.recursive_threshold":
            supports.append(counts["support"])
        elif name == "rounding.ahtp_cover_blowup":
            ahtp_runs += 1
            fallback_wins += counts["fallback_won"]
        elif counts:
            bytes_in += counts.get("bytes_in", 0)
            bytes_out += counts.get("bytes_out", 0)

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    put("lp.solve_vc_lp.calls", calls["lp.solve_vc_lp"], "count")
    put("lp.solve_vc_lp.pairs", pairs, "count")
    put("lp.solve_vc_lp.exact.self_s", self_s["lp.solve_vc_lp.exact"], "s")
    put("lp.solve_vc_lp.float.self_s", self_s["lp.solve_vc_lp.float"], "s")
    put("rounding.recursive_threshold.total_s", total["rounding.recursive_threshold"], "s")
    put("rounding.fallback_threshold_cover.total_s",
        total["rounding.fallback_threshold_cover"], "s")
    for fn in ("two_coloring", "monochromatic_pairs", "color_trial"):
        put(f"rounding.{fn}.self_s", self_s[f"rounding.{fn}"], "s")
        put(f"rounding.{fn}.calls", calls[f"rounding.{fn}"], "count")
    put("rounding.residual_support",
        sum(supports) / len(supports) if supports else 0.0, "count")
    put("rounding.empty_support_frac",
        sum(1 for s in supports if s == 0) / len(supports) if supports else 0.0, "ratio")
    put("rounding.fallback_won_frac",
        fallback_wins / ahtp_runs if ahtp_runs else 0.0, "ratio")
    put("hypergraph.blow_up.self_s", self_s["hypergraph.blow_up"], "s")
    put("hypergraph.is_vertex_cover.self_s", self_s["hypergraph.is_vertex_cover"], "s")
    put("hypergraph.is_vertex_cover.calls", calls["hypergraph.is_vertex_cover"], "count")
    put("hypergraph.is_simple.self_s", self_s["hypergraph.is_simple"], "s")
    put("formats.parse_instance.self_s", self_s["formats.parse_instance"], "s")
    put("formats.parse_document.self_s", self_s["formats.parse_document"], "s")
    put("formats.serialize.self_s",
        sum((v for k, v in self_s.items() if k.startswith("formats.serialize_")), 0.0), "s")
    put("formats.bytes_in", bytes_in, "bytes")
    put("formats.bytes_out", bytes_out, "bytes")
    for fn in ("random_hypergraph", "complete", "simplify_reduction", "greedy_hard_setsystem"):
        put(f"generators.{fn}.self_s", self_s[f"generators.{fn}"], "s")
    put("setcover.greedy_set_cover.self_s", self_s["setcover.greedy_set_cover"], "s")
    put("cli.main.self_s", self_s["cli.main"], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", module_self[layer], "s")
    return out
