"""Span tracing of fwpp from outside the package.

`Tracer.install()` replaces selected fwpp functions, in every fwpp module
namespace that holds them, by wrappers that record one span per call:
name, parent span, start and end. Spans live in compact arrays until the
pass ends; `raw_metrics()` then derives self times (span time minus the
time covered by child spans) and counters, and `finish()` turns them into
the per-layer metrics listed in BENCHMARK.json.

Functions missing from the package are skipped, so the tracer keeps
working when a later version of fwpp removes or renames one of them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function, span name). Several functions may share a span name;
# their self times add up because nested spans subtract their children.
TRACE_POINTS = [
    ("lattice", "lattice_slice_interval", "lattice.slice"),
    ("lattice", "dual_polygon", "lattice.dual"),
    ("lattice", "convex_hull", "lattice.hull"),
    ("lattice", "degree", "lattice.degree"),
    ("lattice", "triangle_from_json", "lattice.parse"),
    ("lattice", "polygon_from_obj", "lattice.parse"),
    ("lattice", "triangle_to_json", "lattice.serialize"),
    ("lattice", "polygon_to_obj", "lattice.serialize"),
    ("mutation", "admissible_widths", "mutation.widths"),
    ("mutation", "find_factors", "mutation.find_factors"),
    ("mutation", "mutate_with", "mutation.build"),
    ("mutation", "_mutate_core", "mutation.build"),
    ("mutation", "canonical_form", "mutation.canonical_form"),
    ("mutation", "enumerate_one_step", "mutation.enumerate"),
    ("fwps", "weights_of", "fwps.weights_of"),
    ("fwps", "cone_singularity", "fwps.cone_singularity"),
    ("fwps", "mutate_weights", "fwps.mutate_weights"),
    ("fwps", "wps_triangle", "fwps.wps_triangle"),
    ("diophantine", "build_mutation_tree", "diophantine.tree_build"),
    ("diophantine", "tree_to_json", "diophantine.tree_json"),
    ("diophantine", "tree_to_obj", "diophantine.tree_json"),
    ("diophantine", "tree_to_dot", "diophantine.tree_dot"),
    ("diophantine", "derive_equation", "diophantine.derive"),
    ("diophantine", "square_free_decompose", "diophantine.square_free"),
    ("diophantine", "descend_to_minimal", "diophantine.descend"),
    ("pell357", "family_a1_fixed", "pell357.family"),
    ("pell357", "family_a2_fixed", "pell357.family"),
    ("pell357", "component_of", "pell357.component"),
    ("cli", "main", "cli.main"),
]

LAYERS = ("lattice", "mutation", "fwps", "diophantine", "pell357", "cli")

# Per-layer metrics a traced pass reports: name -> unit. Keep in step with
# the per_layer list of BENCHMARK.json.
SPAN_METRICS = {
    "lattice.slice_calls": "count",
    "lattice.slice_s": "s",
    "lattice.dual_s": "s",
    "lattice.hull_s": "s",
    "lattice.parse_s": "s",
    "lattice.serialize_s": "s",
    "mutation.find_factors_s": "s",
    "mutation.build_s": "s",
    "mutation.canonical_form_s": "s",
    "mutation.canonical_form_calls": "count",
    "mutation.widths_tried": "count",
    "mutation.factors_found": "count",
    "mutation.mutations_built": "count",
    "mutation.classes_kept": "count",
    "mutation.dedupe_useful_ratio": "ratio",
    "mutation.max_height_span": "count",
    "fwps.weights_of_s": "s",
    "fwps.cone_singularity_s": "s",
    "fwps.mutate_weights_calls": "count",
    "fwps.mutate_weights_s": "s",
    "fwps.not_divisible_ratio": "ratio",
    "diophantine.tree_build_s": "s",
    "diophantine.tree_nodes": "count",
    "diophantine.tree_json_s": "s",
    "diophantine.tree_json_bytes": "bytes",
    "diophantine.derive_s": "s",
    "diophantine.square_free_s": "s",
    "diophantine.derive_calls": "count",
    "diophantine.descend_s": "s",
    "diophantine.descend_steps": "count",
    "diophantine.max_bits": "bits",
    "pell357.family_s": "s",
    "pell357.component_s": "s",
    "pell357.terms": "count",
    "trace.spans": "count",
}
SPAN_METRICS.update({f"{layer}.self_s": "s" for layer in LAYERS})


def _weights_bits(weights):
    return max((int(x).bit_length() for x in weights), default=0)


def _height_span(args, kwargs):
    P = args[0] if args else kwargs.get("P")
    w = args[1] if len(args) > 1 else kwargs.get("w")
    vs = getattr(P, "vertices", P)
    hs = [w[0] * v[0] + w[1] * v[1] for v in vs]
    return max(hs) - min(hs)


class Tracer:
    """Records spans of wrapped fwpp calls for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.errors = defaultdict(int)
        # Read before the call, so that a call cut off by its op's time cap
        # still counts.
        self._pre_hooks = {"mutation.find_factors": self._on_factor_search}
        self._hooks = {
            "mutation.widths": self._on_widths,
            "mutation.find_factors": self._on_find_factors,
            "mutation.enumerate": self._on_enumerate,
            "diophantine.tree_build": self._on_tree_build,
            "diophantine.tree_json": self._on_tree_json,
            "diophantine.derive": self._on_derive,
            "diophantine.descend": self._on_descend,
            "pell357.family": self._on_family,
        }

    # --- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        """Open a span by hand (used for the root span of each op)."""
        i = len(self.span_name)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self.stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        # An op interrupted by its time cap may leave wrapper frames on the
        # stack; closing the root span drops them.
        del self.stack[self.stack.index(i):]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, errors, clock = self.stack, self.errors, time.perf_counter
        hook = self._hooks.get(name)
        pre = self._pre_hooks.get(name)

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            i = len(sn)
            sn.append(nid)
            sp.append(stack[-1])
            ss.append(0.0)
            se.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                se[i] = clock()
                ss[i] = t0
                if stack[-1] == i:
                    stack.pop()
                errors[(name, type(exc).__name__)] += 1
                raise
            se[i] = clock()
            ss[i] = t0
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced function in every loaded fwpp module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fwpp" or n.startswith("fwpp."))]
        for modname, attr, name in TRACE_POINTS:
            home = sys.modules.get(f"fwpp.{modname}")
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                continue
            wrapper = self.wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    # --- counters read from arguments and results ---------------------------

    def _on_widths(self, args, kwargs, result):
        self.counts["mutation.widths_tried"] += len(result)

    def _on_factor_search(self, args, kwargs):
        span = _height_span(args, kwargs)
        if span > self.maxima["mutation.max_height_span"]:
            self.maxima["mutation.max_height_span"] = span

    def _on_find_factors(self, args, kwargs, result):
        self.counts["mutation.factors_found"] += len(result)

    def _on_enumerate(self, args, kwargs, result):
        self.counts["mutation.classes_kept"] += len(result)

    def _bits(self, bits):
        if bits > self.maxima["diophantine.max_bits"]:
            self.maxima["diophantine.max_bits"] = bits

    def _on_tree_build(self, args, kwargs, result):
        self.counts["diophantine.tree_nodes"] += len(result.nodes)
        self._bits(max(_weights_bits(n.weights) for n in result.nodes))

    def _on_tree_json(self, args, kwargs, result):
        if isinstance(result, str):
            self.counts["diophantine.tree_json_bytes"] += len(result)

    def _on_derive(self, args, kwargs, result):
        self._bits(_weights_bits(args[0] if args else kwargs["weights"]))

    def _on_descend(self, args, kwargs, result):
        self.counts["diophantine.descend_steps"] += len(result) - 1
        self._bits(_weights_bits(result[0]))

    def _on_family(self, args, kwargs, result):
        self.counts["pell357.terms"] += len(result)

    # --- reduction -----------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, self seconds), plus the count of build
        spans that are not nested in another build span."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [0.0] * n
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end
        for i in range(n):
            d = se[i] - ss[i] if se[i] >= ss[i] else 0.0
            dur[i] = d
            p = sp[i]
            if p >= 0:
                child[p] += d
        calls = defaultdict(int)
        self_s = defaultdict(float)
        build = self._ids.get("mutation.build", -2)
        outer_builds = 0
        for i in range(n):
            name = self.names[sn[i]]
            calls[name] += 1
            self_s[name] += max(dur[i] - child[i], 0.0)
            if sn[i] == build and (sp[i] < 0 or sn[sp[i]] != build):
                outer_builds += 1
        return calls, self_s, outer_builds

    def raw_metrics(self) -> dict:
        """Additive per-layer figures of this process; `finish` turns the
        merged figures of one pass into the reported metrics."""
        calls, self_s, outer_builds = self.span_totals()
        c = self.counts
        m = {
            "lattice.slice_calls": calls["lattice.slice"],
            "lattice.slice_s": self_s["lattice.slice"],
            "lattice.dual_s": self_s["lattice.dual"],
            "lattice.hull_s": self_s["lattice.hull"],
            "lattice.parse_s": self_s["lattice.parse"],
            "lattice.serialize_s": self_s["lattice.serialize"],
            "mutation.find_factors_s": self_s["mutation.find_factors"],
            "mutation.build_s": self_s["mutation.build"],
            "mutation.canonical_form_s": self_s["mutation.canonical_form"],
            "mutation.canonical_form_calls": calls["mutation.canonical_form"],
            "mutation.widths_tried": c["mutation.widths_tried"],
            "mutation.factors_found": c["mutation.factors_found"],
            "mutation.mutations_built": outer_builds,
            "mutation.classes_kept": c["mutation.classes_kept"],
            "mutation.max_height_span": self.maxima["mutation.max_height_span"],
            "fwps.weights_of_s": self_s["fwps.weights_of"],
            "fwps.cone_singularity_s": self_s["fwps.cone_singularity"],
            "fwps.mutate_weights_calls": calls["fwps.mutate_weights"],
            "fwps.mutate_weights_s": self_s["fwps.mutate_weights"],
            "fwps.not_divisible": self.errors[("fwps.mutate_weights", "NotDivisible")],
            "diophantine.tree_build_s": self_s["diophantine.tree_build"],
            "diophantine.tree_nodes": c["diophantine.tree_nodes"],
            "diophantine.tree_json_s": self_s["diophantine.tree_json"],
            "diophantine.tree_json_bytes": c["diophantine.tree_json_bytes"],
            "diophantine.derive_s": self_s["diophantine.derive"],
            "diophantine.square_free_s": self_s["diophantine.square_free"],
            "diophantine.derive_calls": calls["diophantine.derive"],
            "diophantine.descend_s": self_s["diophantine.descend"],
            "diophantine.descend_steps": c["diophantine.descend_steps"],
            "diophantine.max_bits": self.maxima["diophantine.max_bits"],
            "pell357.family_s": self_s["pell357.family"],
            "pell357.component_s": self_s["pell357.component"],
            "pell357.terms": c["pell357.terms"],
            "trace.spans": len(self.span_name),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + "."))
        return m

    def write(self, path: str) -> None:
        """Write every span: one JSON header line (span names and count),
        then the name, parent, start and end arrays in native byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)


_MAXIMA = ("mutation.max_height_span", "diophantine.max_bits")


def merge_metrics(parts) -> dict:
    """Combine the raw figures of several traced processes of one pass."""
    out = defaultdict(float)
    for part in parts:
        for k, v in part.items():
            out[k] = max(out[k], v) if k in _MAXIMA else out[k] + v
    return dict(out)


def finish(raw: dict) -> dict:
    """Reported per-layer metrics of one pass from its merged raw figures."""
    m = {k: v for k, v in raw.items() if k in SPAN_METRICS}
    built = raw.get("mutation.mutations_built", 0)
    m["mutation.dedupe_useful_ratio"] = (
        raw.get("mutation.classes_kept", 0) / built if built else 0.0)
    calls = raw.get("fwps.mutate_weights_calls", 0)
    m["fwps.not_divisible_ratio"] = (
        raw.get("fwps.not_divisible", 0) / calls if calls else 0.0)
    return m
