"""
Layer tracing for the benchmark, done entirely from outside the package.

Public functions and methods of each module are replaced by wrappers that
either record a span (name, start, end, parent span, item id) or only count
calls.  Modules import each other's names with ``from .x import y``, so a
wrapper is bound under every name, in every module, that holds the original
object; ``install`` fails loudly if any reference is left behind.

Spans are kept in flat arrays while the workload runs and written out when
it ends.  A span's self time is its duration minus the durations of its
direct children; the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

ROOT = -1

# (metric prefix, module, attribute, mode, result hook)
# mode "span" records a span per call; "count" only counts calls.
BOUNDARIES = [
    ("affperm.eval", "affperm", "AffinePermutation.__call__", "count", None),
    ("affperm.init", "affperm", "AffinePermutation.__init__", "count", None),
    ("affperm.mul", "affperm", "AffinePermutation.__mul__", "span", None),
    ("affperm.right_mult_transposition", "affperm", "right_mult_transposition", "span", None),
    ("weak.cyclically_decreasing", "weak", "cyclically_decreasing", "span", None),
    ("weak.WeakStrip", "weak", "WeakStrip.__init__", "span", None),
    ("weak.weak_strips_from", "weak", "weak_strips_from", "span", "out"),
    ("weak.count_weak_tableaux", "weak", "count_weak_tableaux", "span", "nonzero"),
    ("weak.weak_order", "weak", "weak_order_lower", "span", None),
    ("weak.weak_order", "weak", "weak_order_upper", "span", None),
    ("strong.MarkedStrongCover", "strong", "MarkedStrongCover.__init__", "span", None),
    ("strong.StrongStrip", "strong", "StrongStrip.__init__", "span", None),
    ("strong.marked_covers_above", "strong", "marked_covers_above", "span", "out"),
    ("strong.strong_strips_from", "strong", "strong_strips_from", "span", "out"),
    ("strong.count_strong_tableaux", "strong", "count_strong_tableaux", "span", "nonzero"),
    ("localrule.internal_insert", "localrule", "internal_insert", "span", None),
    ("localrule.external_insert", "localrule", "external_insert", "span", None),
    ("localrule.reverse_insert", "localrule", "reverse_insert", "span", None),
    ("localrule.phi_with_audit", "localrule", "phi_with_audit", "span", "cases"),
    ("localrule.psi_with_audit", "localrule", "psi_with_audit", "span", "cases"),
    ("insertion.affine_insert", "insertion", "affine_insert", "span", None),
    ("insertion.affine_uninsert", "insertion", "affine_uninsert", "span", None),
    ("insertion.classical_rsk", "insertion", "classical_rsk", "span", None),
    ("cores.core_of", "cores", "core_of", "span", None),
    ("cores.strong_tableau_filling", "cores", "strong_tableau_filling", "span", None),
    ("cores.weak_tableau_filling", "cores", "weak_tableau_filling", "span", None),
    ("cores.spin_tableau", "cores", "spin_tableau", "span", None),
    ("cores.grassmannians_by_length", "cores", "grassmannians_by_length", "span", None),
    ("symfunc.k_schur", "symfunc", "k_schur", "span", None),
    ("symfunc.k_schur_spin", "symfunc", "k_schur_spin", "span", None),
    ("symfunc.symmetry_report", "symfunc", "WeightPolynomial.symmetry_report", "span", None),
    ("symfunc.strong_weight_function", "symfunc", "strong_weight_function", "span", None),
    ("symfunc.weak_weight_function", "symfunc", "weak_weight_function", "span", None),
    ("symfunc.pieri_checks", "symfunc", "pieri_checks", "span", None),
    ("symfunc.cauchy_check", "symfunc", "cauchy_check", "span", None),
    ("verify.run_suite", "verify", "run_suite", "span", None),
    ("cli.main", "cli", "main", "span", None),
]

CASES = ("A", "B", "C", "X", "RA", "RB", "RC", "RX")

# Per-layer metrics reported by a traced run, with their units.  Every name
# is emitted on every workload; a boundary a workload never reaches reads 0.
LAYER_METRICS = {
    "affperm.eval.calls": "count",
    "affperm.init.calls": "count",
    "affperm.mul.calls": "count",
    "affperm.mul.self_s": "s",
    "affperm.right_mult_transposition.calls": "count",
    "affperm.right_mult_transposition.self_s": "s",
    "weak.cyclically_decreasing.calls": "count",
    "weak.cyclically_decreasing.self_s": "s",
    "weak.WeakStrip.calls": "count",
    "weak.WeakStrip.self_s": "s",
    "weak.weak_strips_from.calls": "count",
    "weak.weak_strips_from.self_s": "s",
    "weak.weak_strips_from.out": "count",
    "weak.count_weak_tableaux.calls": "count",
    "weak.count_weak_tableaux.self_s": "s",
    "weak.count_weak_tableaux.nonzero_ratio": "ratio",
    "weak.weak_order.self_s": "s",
    "strong.MarkedStrongCover.calls": "count",
    "strong.MarkedStrongCover.self_s": "s",
    "strong.StrongStrip.calls": "count",
    "strong.StrongStrip.self_s": "s",
    "strong.marked_covers_above.calls": "count",
    "strong.marked_covers_above.self_s": "s",
    "strong.marked_covers_above.out": "count",
    "strong.strong_strips_from.calls": "count",
    "strong.strong_strips_from.self_s": "s",
    "strong.strong_strips_from.out": "count",
    "strong.count_strong_tableaux.calls": "count",
    "strong.count_strong_tableaux.self_s": "s",
    "strong.count_strong_tableaux.nonzero_ratio": "ratio",
    **{f"localrule.case.{c}": "count" for c in CASES},
    "localrule.internal_insert.self_s": "s",
    "localrule.external_insert.self_s": "s",
    "localrule.reverse_insert.self_s": "s",
    "localrule.phi_with_audit.calls": "count",
    "localrule.phi_with_audit.self_s": "s",
    "localrule.psi_with_audit.calls": "count",
    "localrule.psi_with_audit.self_s": "s",
    "insertion.affine_insert.self_s": "s",
    "insertion.affine_uninsert.self_s": "s",
    "insertion.cells": "count",
    "insertion.classical_rsk.self_s": "s",
    "cores.core_of.calls": "count",
    "cores.core_of.self_s": "s",
    "cores.strong_tableau_filling.self_s": "s",
    "cores.weak_tableau_filling.self_s": "s",
    "cores.spin_tableau.calls": "count",
    "cores.spin_tableau.self_s": "s",
    "cores.grassmannians_by_length.calls": "count",
    "symfunc.k_schur.self_s": "s",
    "symfunc.k_schur_spin.self_s": "s",
    "symfunc.symmetry_report.calls": "count",
    "symfunc.symmetry_report.self_s": "s",
    "symfunc.strong_weight_function.self_s": "s",
    "symfunc.weak_weight_function.self_s": "s",
    "symfunc.pieri_checks.self_s": "s",
    "symfunc.cauchy_check.self_s": "s",
    "symfunc.count_matrices.hits": "count",
    "symfunc.count_matrices.misses": "count",
    "symfunc.count_matrices.currsize": "count",
    "verify.run_suite.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "trace.items_per_s": "items/s",
}

# Which workloads each boundary serves, i.e. the workloads on which it must
# record calls.  A zero there means a missed rebinding or a changed call path.
EXPECTED_CALLS = {
    "affperm.eval": ("rsk-limit", "big-roundtrip", "kschur-table", "pieri-cauchy"),
    "affperm.init": ("rsk-limit", "big-roundtrip", "kschur-table", "pieri-cauchy"),
    "affperm.mul": ("rsk-limit", "big-roundtrip", "pieri-cauchy"),
    "affperm.right_mult_transposition": ("rsk-limit", "big-roundtrip", "kschur-table"),
    "weak.cyclically_decreasing": ("rsk-limit", "big-roundtrip", "pieri-cauchy"),
    "weak.WeakStrip": ("rsk-limit", "big-roundtrip", "pieri-cauchy"),
    "weak.weak_strips_from": ("pieri-cauchy",),
    "weak.count_weak_tableaux": ("pieri-cauchy",),
    "weak.weak_order": ("pieri-cauchy",),
    "strong.MarkedStrongCover": ("rsk-limit", "big-roundtrip", "kschur-table"),
    "strong.StrongStrip": ("rsk-limit", "big-roundtrip", "kschur-table"),
    "strong.marked_covers_above": ("kschur-table", "pieri-cauchy"),
    "strong.strong_strips_from": ("kschur-table", "pieri-cauchy"),
    "strong.count_strong_tableaux": ("kschur-table", "pieri-cauchy"),
    "localrule.internal_insert": ("rsk-limit", "big-roundtrip"),
    "localrule.external_insert": ("rsk-limit", "big-roundtrip"),
    "localrule.reverse_insert": ("rsk-limit", "big-roundtrip"),
    "localrule.phi_with_audit": ("rsk-limit", "big-roundtrip"),
    "localrule.psi_with_audit": ("rsk-limit", "big-roundtrip"),
    "insertion.affine_insert": ("rsk-limit", "big-roundtrip"),
    "insertion.affine_uninsert": ("rsk-limit", "big-roundtrip"),
    "insertion.classical_rsk": ("rsk-limit",),
    "cores.core_of": ("rsk-limit", "kschur-table"),
    "cores.strong_tableau_filling": ("rsk-limit",),
    "cores.weak_tableau_filling": ("rsk-limit",),
    "cores.spin_tableau": ("kschur-table",),
    "cores.grassmannians_by_length": ("pieri-cauchy",),
    "symfunc.k_schur": ("kschur-table",),
    "symfunc.k_schur_spin": ("kschur-table",),
    "symfunc.symmetry_report": ("kschur-table",),
    "symfunc.strong_weight_function": ("kschur-table", "pieri-cauchy"),
    "symfunc.weak_weight_function": ("pieri-cauchy",),
    "symfunc.pieri_checks": ("pieri-cauchy",),
    "symfunc.cauchy_check": ("pieri-cauchy",),
    "verify.run_suite": ("pieri-cauchy",),
    "cli.main": ("pieri-cauchy",),
}


@dataclass
class SpanStore:
    """Flat in-memory span table plus plain call counters."""

    names: list[str] = field(default_factory=list)
    name_of: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    item_of: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    counts: Counter = field(default_factory=Counter)
    stack: list[int] = field(default_factory=lambda: [ROOT])
    item: int = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, start: float, end: float, parent: int = ROOT, item: int = -1) -> int:
        """Append a finished span; used for synthetic trees in tests."""
        self.name_of.append(self.name_id(name))
        self.parent.append(parent)
        self.item_of.append(item)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def span_wrapper(self, fn, name: str, hook):
        nid = self.name_id(name)
        name_of, parent, item_of = self.name_of, self.parent, self.item_of
        start, end, stack, counts = self.start, self.end, self.stack, self.counts
        clock = time.perf_counter
        store = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            item_of.append(store.item)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook == "out":
                counts[name + ".out"] += len(result)
            elif hook == "nonzero":
                counts[name + ".nonzero"] += bool(result)
            elif hook == "cases":
                for step in result[1]:
                    counts["localrule.case." + step.case.value] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn, name: str):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self) -> Counter:
        out = Counter(self.counts)
        for nid in self.name_of:
            out[self.names[nid] + ".calls"] += 1
        return out

    def write(self, path) -> None:
        """Header line of JSON, then the five columns as raw machine arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": ["name:i", "parent:i", "item:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name_of, self.parent, self.item_of, self.start, self.end):
                col.tofile(fh)


def read_spans(path) -> SpanStore:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        store = SpanStore(names=list(header["names"]))
        for col in (store.name_of, store.parent, store.item_of, store.start, store.end):
            col.fromfile(fh, header["count"])
    return store


def self_times(store: SpanStore) -> dict[str, float]:
    """Per span name: total duration minus the time covered by direct children."""
    n = len(store.start)
    start, end, parent = store.start, store.end, store.parent
    child = [0.0] * n
    for idx in range(n):
        p = parent[idx]
        if p != ROOT:
            child[p] += end[idx] - start[idx]
    totals = [0.0] * len(store.names)
    name_of = store.name_of
    for idx in range(n):
        totals[name_of[idx]] += end[idx] - start[idx] - child[idx]
    return {name: totals[k] for k, name in enumerate(store.names)}


def _resolve(module, attr):
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def install(store: SpanStore, extra_modules=()) -> None:
    """Wrap every boundary and rebind each wrapper wherever the original lives."""
    import affine_insertion  # noqa: F401  (loads every submodule)

    pkg_modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("affine_insertion")]
    holders = pkg_modules + list(extra_modules)
    originals = []
    for name, modname, attr, mode, hook in BOUNDARIES:
        owner, last = _resolve(sys.modules["affine_insertion." + modname], attr)
        fn = vars(owner)[last]
        wrapper = store.span_wrapper(fn, name, hook) if mode == "span" else store.count_wrapper(fn, name)
        setattr(owner, last, wrapper)
        if owner is not sys.modules["affine_insertion." + modname]:
            continue  # a method: the class is shared, so one rebinding covers all callers
        originals.append(fn)
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    left = [
        f"{mod.__name__}.{key}"
        for mod in holders
        for key, value in vars(mod).items()
        if any(value is fn for fn in originals)
    ]
    if left:
        raise RuntimeError(f"boundaries left unwrapped: {left}")


def layer_metrics(store: SpanStore, workload: str, items_per_s: float) -> tuple[dict, list[str]]:
    """The per-layer metric table, and the mapped boundaries that saw no calls."""
    from affine_insertion import symfunc

    calls = store.calls()
    selfs = self_times(store)
    values = {}
    for metric in LAYER_METRICS:
        prefix, _, stat = metric.rpartition(".")
        if stat == "self_s":
            values[metric] = selfs.get(prefix, 0.0)
        elif stat == "nonzero_ratio":
            n = calls[prefix + ".calls"]
            values[metric] = calls[prefix + ".nonzero"] / n if n else 0.0
        else:  # calls, out and case tallies; the metrics below are filled in after
            values[metric] = calls[metric]
    values["insertion.cells"] = _cells(store)
    info = symfunc.count_matrices.cache_info()
    values["symfunc.count_matrices.hits"] = info.hits
    values["symfunc.count_matrices.misses"] = info.misses
    values["symfunc.count_matrices.currsize"] = info.currsize
    values["trace.items_per_s"] = items_per_s
    unreached = [
        name for name, workloads in EXPECTED_CALLS.items()
        if workload in workloads and calls[name + ".calls"] == 0
    ]
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
    return metrics, unreached


def _cells(store: SpanStore) -> int:
    """Growth-diagram cells: local-rule runs called directly by the insertion maps."""
    names = store.names
    diagram = {names.index(n) for n in ("insertion.affine_insert", "insertion.affine_uninsert") if n in names}
    local = {names.index(n) for n in ("localrule.phi_with_audit", "localrule.psi_with_audit") if n in names}
    parent, name_of = store.parent, store.name_of
    return sum(
        1 for idx in range(len(name_of))
        if name_of[idx] in local and parent[idx] != ROOT and name_of[parent[idx]] in diagram
    )


def inclusive_times(store: SpanStore) -> dict[str, float]:
    """Per span name: total duration of its outermost spans (recursion counted once)."""
    names, name_of, parent = store.names, store.name_of, store.parent
    totals = dict.fromkeys(names, 0.0)
    for idx in range(len(name_of)):
        nid, p = name_of[idx], parent[idx]
        while p != ROOT and name_of[p] != nid:
            p = parent[p]
        if p == ROOT:
            totals[names[nid]] += store.end[idx] - store.start[idx]
    return totals


def summarize_spans(path, items=None) -> str:
    """Self and inclusive seconds per span name, largest self time first."""
    store = read_spans(path)
    if items is not None:
        keep = SpanStore(names=store.names)
        kept = {}
        for idx in range(len(store.start)):
            if store.item_of[idx] in items:
                kept[idx] = len(keep.start)
                p = store.parent[idx]
                keep.add(store.names[store.name_of[idx]], store.start[idx], store.end[idx],
                         kept.get(p, ROOT), store.item_of[idx])
        store = keep
    selfs, incl = self_times(store), inclusive_times(store)
    lines = [f"{'span':40} {'self_s':>10} {'inclusive_s':>12}"]
    for name in sorted(selfs, key=selfs.get, reverse=True):
        lines.append(f"{name:40} {selfs[name]:10.4f} {incl[name]:12.4f}")
    return "\n".join(lines)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Summarize a spans file written by a traced run.")
    parser.add_argument("spans", help="e.g. .perfbench_out/spans-kschur-table.bin")
    parser.add_argument("--item", type=int, action="append", help="only spans of this item id (repeatable)")
    args = parser.parse_args()
    print(summarize_spans(args.spans, set(args.item) if args.item else None))
