"""Span tracing for the benchmark's traced runs.

The wrappers live here, in the benchmark, and are installed only for a
traced run: the program itself carries no tracing.  Each call into a
traced public function records a span (id, parent span, operation id,
name, start, end, whether it raised).  Spans stay in memory and are
written out when the traced pass ends; self time is computed from the
span tree.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Iterable

# (module, attribute, span name).  Several functions may share a span name:
# cli.command is every cmd_* function, softtop.canonical covers the
# canonical topology, its enlargement and the canonicality test.
TARGETS = (
    ("cli", "parse_space", "cli.parse_space"),
    ("cli", "cmd_check", "cli.command"),
    ("cli", "cmd_verify", "cli.command"),
    ("cli", "cmd_examples", "cli.command"),
    ("cli", "cmd_search", "cli.command"),
    ("softsets", "ElementSpace.__init__", "softsets.ElementSpace"),
    ("softsets", "is_se_representable", "softsets.is_se_representable"),
    ("softtop", "SoftTopology.build", "softtop.SoftTopology.build"),
    ("softtop", "component_topology", "softtop.component_topology"),
    ("softtop", "canonical_topology", "softtop.canonical"),
    ("softtop", "canonical_enlargement", "softtop.canonical"),
    ("softtop", "is_canonical", "softtop.canonical"),
    ("softtop", "induced_topology", "softtop.induced_topology"),
    ("softtop", "reconstruct", "softtop.reconstruct"),
    ("softtop", "check_finest_open_projections", "softtop.check_finest_open_projections"),
    ("finsets", "pairwise_t0", "finsets.pairwise_t0"),
    ("finsets", "pairwise_t1", "finsets.pairwise_t1"),
    ("finsets", "pairwise_t2", "finsets.pairwise_t2"),
    ("finsets", "generate_topology", "finsets.generate_topology"),
    ("finsets", "enumerate_topologies", "finsets.enumerate_topologies"),
    ("finsets", "minimal_subcover", "finsets.minimal_subcover"),
    ("pairwise", "pairwise_soft_t0", "pairwise.pairwise_soft_t0"),
    ("pairwise", "pairwise_soft_t1", "pairwise.pairwise_soft_t1"),
    ("pairwise", "pairwise_soft_t2", "pairwise.pairwise_soft_t2"),
    ("pairwise", "induced_bitop", "pairwise.induced_bitop"),
    ("pairwise", "verify_theorems", "pairwise.verify_theorems"),
    ("pairwise", "find_finite_subcover", "pairwise.find_finite_subcover"),
    ("pairwise", "candidate_soft_topologies", "pairwise.candidate_soft_topologies"),
    ("pairwise", "search_counterexamples", "pairwise.search_counterexamples"),
    ("symbolic", "decide_finite_subcover", "symbolic.decide_finite_subcover"),
    ("symbolic", "cf_is_cover", "symbolic.cf_is_cover"),
    ("scenarios", "run_all", "scenarios.run_all"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# Work counters, named <module>.<quantity> or <module>.<function>.<quantity>.
COUNTERS = (
    ("softsets.elements", "count"),
    ("softtop.subsets_filtered", "count"),
    ("softtop.induced_members", "count"),
    ("softtop.induced_keep_ratio", "ratio"),
    ("finsets.pairwise_t2.open_product", "count"),
    ("finsets.pairwise_t2.point_pairs", "count"),
    ("pairwise.soft_pairs", "count"),
    ("pairwise.subcover_members", "count"),
    ("pairwise.subcover_size", "count"),
    ("symbolic.candidates", "count"),
)
OVERHEAD = "trace.overhead_s"

ROOT_SPAN = "bench.op"

Span = tuple  # (span id, parent id or None, operation id, name, start, end, raised)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_elements(c, args, kwargs, result) -> None:
    c["softsets.elements"] += _arg(args, kwargs, 0, "self").size


def _count_induced(c, args, kwargs, result) -> None:
    c["softtop.subsets_filtered"] += 1 << result.space.size
    c["softtop.induced_members"] += len(result.masks)


def _count_t2(c, args, kwargs, result) -> None:
    pair = _arg(args, kwargs, 0, "pair")
    pts = pair.carrier.members()
    k = len(pts)
    c["finsets.pairwise_t2.open_product"] += len(pair.first.opens) * len(pair.second.opens)
    holds, witness = result
    if holds:
        c["finsets.pairwise_t2.point_pairs"] += k * (k - 1)
    else:
        # Ordered pairs scanned up to and including the witness.
        ix, iy = pts.index(witness[0]), pts.index(witness[1])
        c["finsets.pairwise_t2.point_pairs"] += ix * (k - 1) + iy - (iy > ix) + 1


def _count_soft_pairs(c, args, kwargs, result) -> None:
    se = _arg(args, kwargs, 0, "space").space.size
    c["pairwise.soft_pairs"] += se * (se - 1)


def _count_subcover(c, args, kwargs, result) -> None:
    c["pairwise.subcover_members"] += len(_arg(args, kwargs, 0, "cover").members)
    c["pairwise.subcover_size"] += len(result)


def _count_candidates(c, args, kwargs, result) -> None:
    family = _arg(args, kwargs, 0, "family")
    target = _arg(args, kwargs, 1, "target")
    labels = set(family.mentioned_labels()) | set(target.exception_labels)
    templated = len(labels) + 2 if family.template is not None else 0
    c["symbolic.candidates"] += templated + len(family.explicit_members)


COUNT: dict[str, Callable] = {
    "softsets.ElementSpace": _count_elements,
    "softtop.induced_topology": _count_induced,
    "finsets.pairwise_t2": _count_t2,
    "pairwise.pairwise_soft_t0": _count_soft_pairs,
    "pairwise.pairwise_soft_t1": _count_soft_pairs,
    "pairwise.pairwise_soft_t2": _count_soft_pairs,
    "pairwise.find_finite_subcover": _count_subcover,
    "symbolic.decide_finite_subcover": _count_candidates,
}


class Tracer:
    """Records spans and work counters for calls into the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int | None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, raised) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, self.op, name, start, end, raised))

    @contextmanager
    def root(self, op) -> Iterable[None]:
        """A span around one benchmark operation; calls inside nest under it."""
        self.op = op
        sid, parent = self._open()
        start = perf_counter()
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(sid, parent, ROOT_SPAN, start, perf_counter(), raised)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        count = COUNT.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start, perf_counter(), True)
                raise
            self._close(sid, parent, name, start, perf_counter(), False)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every target.  A module-level function is rebound in every
        module of the package that holds it, because the package imports
        with `from .x import y`; a method is rebound on its class."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[f"{prefix}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                setattr(cls, method, new)
                self._undo.append((cls, method, raw))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()


def self_times(spans: Iterable[Span]) -> dict[str, list]:
    """Per span name: [calls, self seconds, calls that raised].

    A span's self time is its duration minus the part of its interval
    that its children cover.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _op, _name, start, end, _raised in spans:
        if parent is not None:
            children[parent].append((start, end))
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    for sid, _parent, _op, name, start, end, raised in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = table[name]
        row[0] += 1
        row[1] += (end - start) - covered
        row[2] += int(raised)
    return table


def merge(tables: Iterable[dict[str, list]]) -> dict[str, list]:
    """Sum the self-time tables of several traced passes."""
    total: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    for table in tables:
        for name, row in table.items():
            total[name] = [a + b for a, b in zip(total[name], row)]
    return total


def layer_metrics(
    table: dict[str, list], counters: dict[str, int], passes: int, overhead_s: float
) -> dict[str, dict]:
    """Every per-layer metric, per traced pass, from the self-time table
    and work counters summed over the traced passes."""
    out: dict[str, dict] = {}
    for name in LAYERS:
        calls, self_s, errors = table.get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = {"value": calls / passes, "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s / passes, "unit": "s"}
        out[f"{name}.errors"] = {"value": errors / passes, "unit": "count"}
    for name, unit in COUNTERS:
        if unit == "ratio":
            filtered = counters.get("softtop.subsets_filtered", 0)
            value = counters.get("softtop.induced_members", 0) / filtered if filtered else 0.0
        else:
            value = counters.get(name, 0) / passes
        out[name] = {"value": value, "unit": unit}
    out[OVERHEAD] = {"value": overhead_s, "unit": "s"}
    return out


def append_spans(path, spans: Iterable[Span]) -> None:
    """Add one traced pass's spans to the run's file, one JSON list a line."""
    with open(path, "a", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
