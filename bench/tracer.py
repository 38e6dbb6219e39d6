"""Per-layer tracing from outside the library.

`Tracer.install` wraps public library functions and rebinds each wrapper
under every name the original has in a `peribrauer` module, so a call
through `procedures.is_gamma` is seen as well as one through
`skew.is_gamma`.  A timed wrapper records a span (layer, parent span,
start, end) in memory; `write_spans` writes them out at the end of the
traced sample and `layer_metrics` turns a span file into per-layer
numbers.  The self time of a span is its duration minus the durations of
its child spans.

Functions called millions of times (see COUNTED) are only counted: a
span per call would cost more than the work it measures.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, function, layer): a span per call.  The four operator
# variants share one layer.
TIMED = (
    ("skew", "is_gamma", "skew.is_gamma"),
    ("skew", "covering", "skew.covering"),
    ("skew", "components", "skew.components"),
    ("skew", "skew_from_pair", "skew.skew_from_pair"),
    ("skew", "conjugate_skew", "skew.conjugate_skew"),
    ("procedures", "generate_upsilon", "procedures.generate_upsilon"),
    ("procedures", "op_P_all", "procedures.op_all"),
    ("procedures", "op_E_all", "procedures.op_all"),
    ("procedures", "op_Pbar_all", "procedures.op_all"),
    ("procedures", "op_Ebar_all", "procedures.op_all"),
    ("procedures", "equivalence_report", "procedures.equivalence_report"),
    ("multiplicities", "cell_matrix", "multiplicities.cell_matrix"),
    ("multiplicities", "cartan_matrix", "multiplicities.cartan_matrix"),
    ("multiplicities", "cartan_mult_sum", "multiplicities.cartan_mult_sum"),
    ("multiplicities", "cartan_mult_witness", "multiplicities.cartan_mult_witness"),
    ("arrows", "pi_set", "arrows.pi_set"),
    ("arrows", "rim_hook_of_flip", "arrows.rim_hook_of_flip"),
    ("grothendieck", "verify_tl", "grothendieck.verify_tl"),
    ("grothendieck", "apply_Rq", "grothendieck.apply_Rq"),
)
# A generator: one span per next(), so its time is counted where the
# consumer pulls each item.
GENERATORS = (
    ("skew", "enumerate_skew_diagrams", "skew.enumerate_skew_diagrams"),
)
COUNTED = (
    ("partitions", "contains", "partitions.contains"),
    ("partitions", "conjugate", "partitions.conjugate"),
    ("partitions", "labels_Lambda", "partitions.labels_Lambda"),
    ("partitions", "add_q", "partitions.add_q"),
    ("partitions", "remove_q", "partitions.remove_q"),
    ("arrows", "flip", "arrows.flip"),
    ("grothendieck", "apply_E", "grothendieck.apply_E"),
)
# Layers whose results' total length is also recorded.
SIZED = ("procedures.op_all", "procedures.generate_upsilon")


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []  # per layer, for counted layers
        self.sizes: list[int] = []  # per layer: results' total length, or items yielded
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _layer(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
            self.calls.append(0)
            self.sizes.append(0)
        return self.layers.index(name)

    def _timed(self, lid: int, fn, sized: bool):
        layers, parents = self.span_layer, self.span_parent
        starts, ends, stack, sizes = self.span_start, self.span_end, self._stack, self.sizes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sized:
                sizes[lid] += len(result)
            return result

        return wrapper

    def _generator(self, lid: int, fn):
        layers, parents = self.span_layer, self.span_parent
        starts, ends, stack, sizes = self.span_start, self.span_end, self._stack, self.sizes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(layers)
                layers.append(lid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                sizes[lid] += 1
                yield item

        return wrapper

    def _counted(self, lid: int, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[lid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "peribrauer" or name.startswith("peribrauer.")
        ]
        plan = (
            [(t, lambda lid, fn, t=t: self._timed(lid, fn, t[2] in SIZED)) for t in TIMED]
            + [(t, self._generator) for t in GENERATORS]
            + [(t, self._counted) for t in COUNTED]
        )
        for (module, function, layer), make in plan:
            original = getattr(sys.modules["peribrauer." + module], function)
            wrapper = make(self._layer(layer), original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def counters(self) -> dict:
        """Calls of counted layers and result sizes of sized layers."""
        out = {}
        for lid, layer in enumerate(self.layers):
            if self.calls[lid]:
                out[layer + ".calls"] = self.calls[lid]
            if self.sizes[lid]:
                out[layer + ".size"] = self.sizes[lid]
        return out

    def write_spans(self, path: str, run_id: str) -> None:
        """One JSON header line, then the layer, parent, start and end
        arrays in native binary form."""
        header = {"run_id": run_id, "layers": self.layers, "spans": len(self.span_layer)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_layer, self.span_parent, self.span_start, self.span_end):
                column.tofile(f)


def read_spans(path: str):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        columns = []
        for code in "iidd":
            column = array(code)
            column.fromfile(f, header["spans"])
            columns.append(column)
    return header, columns


def layer_metrics(spans_path: str, counters: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sample: name -> (value, unit)."""
    header, (layer, parent, start, end) = read_spans(spans_path)
    names = header["layers"]
    n = len(layer)
    self_s = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            self_s[parent[i]] -= end[i] - start[i]
    spans = dict.fromkeys(names, 0)
    self_total = dict.fromkeys(names, 0.0)
    for i in range(n):
        name = names[layer[i]]
        spans[name] += 1
        self_total[name] += self_s[i]
    gamma = names.index("skew.is_gamma") if "skew.is_gamma" in names else -1
    covering_under_gamma = sum(
        1 for i in range(n)
        if names[layer[i]] == "skew.covering" and parent[i] >= 0 and layer[parent[i]] == gamma
    )

    m: dict[str, tuple[float, str]] = {}
    for _, _, name in TIMED + GENERATORS:
        m[name + ".self_s"] = (self_total.get(name, 0.0), "s")
    for _, _, name in TIMED:
        m[name + ".calls"] = (spans.get(name, 0), "count")
    for _, _, name in COUNTED:
        m[name + ".calls"] = (counters.get(name + ".calls", 0), "count")
    items = counters.get("skew.enumerate_skew_diagrams.size", 0)
    m["skew.enumerate_skew_diagrams.items"] = (items, "count")
    gamma_calls = spans.get("skew.is_gamma", 0)
    m["skew.covering.calls_under_is_gamma"] = (covering_under_gamma, "count")
    m["skew.is_gamma.cache_hit_ratio"] = (
        1.0 - covering_under_gamma / gamma_calls if gamma_calls else 0.0, "ratio")
    members = counters.get("procedures.generate_upsilon.size", 0)
    closures = spans.get("procedures.generate_upsilon", 0)
    outcomes = counters.get("procedures.op_all.size", 0)
    m["procedures.generate_upsilon.members"] = (members, "count")
    m["procedures.op_all.outcomes"] = (outcomes, "count")
    m["procedures.op_all.useful_ratio"] = (
        (members - closures) / outcomes if outcomes else 0.0, "ratio")
    return m
