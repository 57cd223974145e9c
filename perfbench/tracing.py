"""Per-layer tracing from outside the program.

install() wraps the public functions of each layer in every strees module
namespace that binds them (bases imports classify by name, so classify is
wrapped there too). Each wrapped call is a span; a span's self time is its
duration minus the time of the spans it encloses. Self times, call counts
and argument sizes are summed per metric as the calls end. The spans of the
first traced pass, up to MAX_SPANS of them, are also kept in memory and
written out at the end.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

MAX_SPANS = 100_000  # the labeled sweep alone makes about 680,000 per pass

# (module, function, time metric, count metric, size metric, size of the arguments)
LAYERS = [
    ("exact", "tree_kernel", "exact.tree_kernel_s", "exact.tree_kernel_calls",
     "exact.tree_kernel_vertices", lambda a, k: a[0].order),
    ("exact", "tree_rank", "exact.tree_rank_s", "exact.tree_rank_calls", None, None),
    ("exact", "span_equal", "exact.span_equal_s", "exact.span_equal_calls",
     "exact.span_equal_vectors", lambda a, k: len(a[0]) + len(a[1])),
    ("exact", "in_adjacency_kernel", "exact.in_adjacency_kernel_s",
     "exact.in_adjacency_kernel_calls", None, None),
    ("exact", "brute_force", "exact.brute_force_s", "exact.brute_force_calls", None, None),
    ("bases", "forest_basis", "bases.forest_basis_s", None, None, None),
    ("bases", "grow_basic_subtree", "bases.forest_basis_s", "bases.grow_basic_subtree_calls",
     None, None),
    ("bases", "basic_vector", "bases.forest_basis_s", "bases.basic_vector_calls", None, None),
    ("bases", "tree_null_basis", "bases.tree_null_basis_s", None, None, None),
    ("bases", "atom_range_basis", "bases.atom_range_basis_s", None, None, None),
    ("bases", "tree_range_basis", "bases.tree_range_basis_s", None, None, None),
    ("decomposition", "support_core", "decomposition.support_core_s", None, None, None),
    ("decomposition", "decompose", "decomposition.decompose_s", None, None, None),
    ("decomposition", "atom_set", "decomposition.atom_set_s", None, None, None),
    ("decomposition", "invariant_report", "decomposition.invariant_report_s", None, None, None),
    ("decomposition", "classify", "decomposition.classify_s", "decomposition.classify_calls",
     None, None),
    ("ops", "stellare", "ops.stellare_s", None, None, None),
    ("ops", "s_coalescence", "ops.s_coalescence_s", None, None, None),
    ("ops", "stellare_bases", "ops.stellare_bases_s", None, None, None),
    ("ops", "coalescence_invariants", "ops.coalescence_invariants_s", None, None, None),
    ("verify", "check_tree", "verify.check_tree_s", "verify.check_tree_calls", None, None),
    ("tree", "parse_tree", "tree.parse_s", None, None, None),
    ("cli", "main", "cli.self_s", None, None, None),
] + [
    ("matching", name, "matching.dp_s", "matching.dp_calls", None, None)
    for name in ("matching_number", "count_maximum_matchings", "matching_number_and_count",
                 "matching_number_within", "matching_number_excluding",
                 "independence_number", "domination_number", "matching_invariants")
]

# generator functions: the work happens while they are iterated
GENERATORS = [("generators", "enumerate_trees", "generators.enumerate_s")]

METRICS = sorted(
    {row[i] for row in LAYERS for i in (2, 3, 4) if row[i]} | {g[2] for g in GENERATORS}
)


class Tracer:
    def __init__(self):
        self.totals = dict.fromkeys(METRICS, 0)
        self._stack: list[list] = []  # per open span: [time of its children, span id]
        self._undo: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.spans: list[tuple] = []  # name, id, parent id, request, start, end
        self.keep_spans = False
        self.dropped = 0
        self.request = -1

    def install(self, package: str = "strees") -> None:
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == package or name.startswith(package + "."))]
        for mod, fname, t_key, c_key, s_key, size in LAYERS:
            orig = getattr(sys.modules[f"{package}.{mod}"], fname)
            self._replace(mods, orig, self._wrap(orig, f"{mod}.{fname}", t_key, c_key, s_key, size))
        for mod, fname, t_key in GENERATORS:
            orig = getattr(sys.modules[f"{package}.{mod}"], fname)
            self._replace(mods, orig, self._wrap_generator(orig, f"{mod}.{fname}", t_key))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def take(self) -> dict:
        """Totals since the last take, then reset them."""
        out, self.totals = self.totals, dict.fromkeys(METRICS, 0)
        return out

    def _replace(self, mods, orig, wrapper) -> None:
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _open(self) -> float:
        self._stack.append([0.0, self._next_id])
        self._next_id += 1
        return perf_counter()

    def _close(self, name: str, start: float, t_key: str) -> None:
        end = perf_counter()
        children, span_id = self._stack.pop()
        dur = end - start
        self.totals[t_key] += dur - children
        parent = -1
        if self._stack:
            self._stack[-1][0] += dur
            parent = self._stack[-1][1]
        if self.keep_spans:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, span_id, parent, self.request, start, end))
            else:
                self.dropped += 1

    def _wrap(self, orig, name, t_key, c_key, s_key, size):
        tracer = self

        def wrapper(*args, **kwargs):
            if c_key:
                tracer.totals[c_key] += 1
            if s_key:
                tracer.totals[s_key] += size(args, kwargs)
            start = tracer._open()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(name, start, t_key)

        wrapper.__wrapped__ = orig
        return wrapper

    def _wrap_generator(self, orig, name, t_key):
        tracer = self

        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                start = tracer._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, start, t_key)
                yield item

        wrapper.__wrapped__ = orig
        return wrapper

    def write(self, path: str, header: dict) -> None:
        """A JSON header line, then one line per kept span: name, id, parent, request, start, end."""
        if os.path.exists(path):
            os.remove(path)  # a new file: rewriting one in place can stall on ext4
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans_dropped": self.dropped}, sort_keys=True) + "\n")
            for name, sid, parent, req, start, end in self.spans:
                fh.write(json.dumps([name, sid, parent, req, round(start, 9), round(end, 9)]) + "\n")
