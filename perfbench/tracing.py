"""Spans around calls into the steinberg modules, recorded from outside
the package, and the per-layer metrics computed from them.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper in
every ``steinberg`` module namespace that binds it, its home module
included, so calls between modules and calls inside one module are both
seen.  No file of the package is edited.  Each wrapped call appends one
span ``[name, parent, start, end, counts]`` to an in-memory list; the
list is written out when the run ends.  Spans are timed in wall seconds:
process CPU time advances in steps of about 1 ms on the host measured, too coarse for
most spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict


def _solve_counts(result):
    _, stats = result
    return {"nodes": stats.nodes, "propagations": stats.propagations}


def _planar_counts(cert):
    return {"obstructions": int(not cert.planar)}


def _report_counts(report):
    return {"passed": int(report.passed)}


def _bool_counts(ok):
    return {"passed": int(bool(ok))}


# (span name, module, attribute, counts taken from the return value)
TRACED = (
    ("formats.decode", "steinberg.formats", "decode", None),
    ("report.render_text", "steinberg.report", "VerificationReport.render_text", None),
    ("report.to_json_bytes", "steinberg.report", "VerificationReport.to_json_bytes", None),
    ("cli.main", "steinberg.cli", "main", None),
    ("cli.counterexample_report", "steinberg.cli", "counterexample_report", None),
    ("graphs.build_graph", "steinberg.graphs", "build_graph", None),
    ("canon.canonical_form", "steinberg.canon", "canonical_form", None),
    ("canon.canonical_digest", "steinberg.canon", "canonical_digest", None),
    ("analysis.is_planar", "steinberg.analysis", "is_planar", _planar_counts),
    ("analysis.validate_planarity_certificate", "steinberg.analysis",
     "validate_planarity_certificate", None),
    ("analysis.cycles_of_length", "steinberg.analysis", "cycles_of_length", None),
    ("analysis.forbidden_cycle_check", "steinberg.analysis", "forbidden_cycle_check", None),
    ("analysis.triangles_sharing_edge", "steinberg.analysis", "triangles_sharing_edge", None),
    ("analysis.triangle_edge_conflicts", "steinberg.analysis", "triangle_edge_conflicts", None),
    ("analysis.distance", "steinberg.analysis", "distance", None),
    ("analysis.shortest_path", "steinberg.analysis", "shortest_path", None),
    ("coloring.solve", "steinberg.coloring", "solve_3coloring_with_stats", _solve_counts),
    ("coloring.split", "steinberg.coloring", "revalidate_unsat", None),
    ("coloring.brute_force", "steinberg.coloring", "brute_force_3coloring", None),
    ("coloring.sweep", "steinberg.coloring", "exhaustive_color_count", None),
    ("coloring.behavior", "steinberg.coloring", "terminal_behavior", None),
    ("gadgets.verify_contract", "steinberg.gadgets", "verify_contract", _report_counts),
    ("gadgets.terminals_cofacial", "steinberg.gadgets", "terminals_cofacial", _bool_counts),
    ("gadgets.compositional_check", "steinberg.gadgets", "compositional_check", None),
    ("gadgets.paste", "steinberg.gadgets", "paste", None),
    ("gadgets.build_triple_gadget", "steinberg.gadgets", "build_triple_gadget", None),
    ("gadgets.build_counterexample", "steinberg.gadgets", "build_counterexample", None),
    ("search.search_gadget", "steinberg.search", "search_gadget", None),
    ("search.certify_and_freeze", "steinberg.search", "certify_and_freeze", None),
)

NAME, PARENT, START, END, COUNTS = range(5)


class Tracer:
    """Owns the span list and the swapped-in wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span[COUNTS] = counter(result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            # the span stays open until the generator is exhausted, but
            # is on the stack only while the generator's own code runs
            span = tracer.open(name)
            sid = tracer._stack.pop()
            gen = fn(*args, **kwargs)
            emitted = 0
            try:
                while True:
                    tracer._stack.append(sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._stack.pop()
                    emitted += 1
                    yield item
            finally:
                span[END] = time.perf_counter()
                span[COUNTS] = {"emitted": emitted}

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "steinberg" or name.startswith("steinberg.")
        ]
        for name, module_name, attr, counter in TRACED:
            home = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original, counter))
                continue
            original = getattr(home, attr)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics

CANON = {"canon.canonical_form", "canon.canonical_digest"}
RENDER = {"report.render_text", "report.to_json_bytes"}
CYCLES = {"analysis.cycles_of_length", "analysis.forbidden_cycle_check"}
TRIANGLES = {"analysis.triangles_sharing_edge", "analysis.triangle_edge_conflicts"}
DISTANCE = {"analysis.distance", "analysis.shortest_path"}
BUILD = {"gadgets.build_triple_gadget", "gadgets.build_counterexample"}

# metric -> spans whose outermost calls it sums (a call nested in another
# call of the same set is not counted again)
TIME_METRICS = {
    "formats.decode_s": {"formats.decode"},
    "report.render_s": RENDER,
    "graphs.build_graph_s": {"graphs.build_graph"},
    "canon.digest_s": CANON,
    "analysis.planarity_s": {"analysis.is_planar"},
    "analysis.cert_check_s": {"analysis.validate_planarity_certificate"},
    "analysis.cycles_s": CYCLES,
    "analysis.triangles_s": TRIANGLES,
    "analysis.distance_s": DISTANCE,
    "coloring.split_s": {"coloring.split"},
    "coloring.brute_force_s": {"coloring.brute_force"},
    "coloring.sweep_s": {"coloring.sweep"},
    "coloring.behavior_s": {"coloring.behavior"},
    "gadgets.contract_s": {"gadgets.verify_contract"},
    "gadgets.cofacial_s": {"gadgets.terminals_cofacial"},
    "gadgets.composition_s": {"gadgets.compositional_check"},
    "gadgets.paste_s": {"gadgets.paste"},
    "gadgets.build_s": BUILD,
    "search.freeze_s": {"search.certify_and_freeze"},
}
CALL_METRICS = {
    "graphs.build_graph_calls": {"graphs.build_graph"},
    "canon.digest_calls": CANON,
    "analysis.planarity_calls": {"analysis.is_planar"},
    "analysis.cycles_calls": CYCLES,
    "coloring.brute_force_calls": {"coloring.brute_force"},
    "gadgets.contract_calls": {"gadgets.verify_contract"},
    "gadgets.cofacial_calls": {"gadgets.terminals_cofacial"},
}
SELF_METRICS = {
    "cli.report_self_s": {"cli.counterexample_report", "cli.main"},
    "search.enumerate_self_s": {"search.search_gadget"},
}
# integer counts that must repeat exactly run to run (the fingerprint)
COUNT_KEYS = (
    *CALL_METRICS,
    "analysis.obstructions",
    "coloring.solve_calls",
    "coloring.nodes",
    "coloring.propagations",
    "coloring.split_nodes",
    "search.candidates",
    "search.contract_passed",
    "search.cofacial_passed",
    "search.emitted",
)


def _under(spans, i, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def range_metrics(spans: list, lo: int, hi: int) -> dict:
    """Per-layer totals over spans[lo:hi], plus ``solves``: the
    (nodes, propagations) of every solver call in order."""
    out = dict.fromkeys((*TIME_METRICS, *SELF_METRICS, "coloring.solve_s"), 0.0)
    out.update(dict.fromkeys(COUNT_KEYS, 0))
    solves = []
    verdicts = 0
    child_time: dict[int, float] = defaultdict(float)
    for i in range(lo, hi):
        span = spans[i]
        if span[PARENT] >= lo:
            child_time[span[PARENT]] += span[END] - span[START]
    for i in range(lo, hi):
        name, parent, start, end, counts = spans[i]
        dur = end - start
        counts = counts or {}
        for metric, names in TIME_METRICS.items():
            if name in names and not _under(spans, i, names):
                out[metric] += dur
        for metric, names in CALL_METRICS.items():
            if name in names and not _under(spans, i, names):
                out[metric] += 1
        for metric, names in SELF_METRICS.items():
            if name in names:
                out[metric] += dur - child_time[i]
        if name == "analysis.is_planar":
            out["analysis.obstructions"] += counts["obstructions"]
        elif name == "coloring.solve":
            out["coloring.solve_calls"] += 1
            out["coloring.nodes"] += counts["nodes"]
            out["coloring.propagations"] += counts["propagations"]
            solves.append([counts["nodes"], counts["propagations"]])
            if _under(spans, i, {"coloring.split"}):
                out["coloring.split_nodes"] += counts["nodes"]
            else:
                verdicts += 1
                out["coloring.solve_s"] += dur
        elif parent >= 0 and spans[parent][NAME] == "search.search_gadget":
            if name == "gadgets.verify_contract":
                out["search.candidates"] += 1
                out["search.contract_passed"] += counts["passed"]
            elif name == "gadgets.terminals_cofacial":
                out["search.cofacial_passed"] += counts["passed"]
        if name == "search.search_gadget":
            out["search.emitted"] += counts["emitted"]
    out["verdicts"] = verdicts
    out["solves"] = solves
    return out


def fingerprint(metrics: dict) -> dict:
    """The exact counts of one op or one set-up."""
    return {key: metrics[key] for key in (*COUNT_KEYS, "solves")}


def mean_metrics(per_op: list[dict]) -> dict:
    """Per-op means of every layer metric, plus the ratios."""
    n = len(per_op)
    keys = [k for k in per_op[0] if k != "solves"]
    out = {k: sum(m[k] for m in per_op) / n for k in keys}
    verdicts = out.pop("verdicts")
    out["coloring.solves_per_verdict"] = (
        out["coloring.solve_calls"] / verdicts if verdicts else 0.0
    )
    out["search.yield"] = (
        out["search.emitted"] / out["search.candidates"]
        if out["search.candidates"] else 0.0
    )
    return out
