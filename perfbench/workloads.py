"""The four benchmark workloads: their inputs, one op each, and the
verdict gate that checks every op against its known answer.

Each workload builds its inputs from the workload seed through the
package's public build functions; the program sees only those inputs.
An op looks its functions up through the module attribute at call time
(``formats.decode``, ``cli.counterexample_report``, ...), so that the
wrappers a traced run installs are the ones called.

The verdict gate shares no code with the package: it compares check
names, verdicts and digests with constants and re-checks a colorable
witness edge by edge against the input's own edge list.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

# Every solver call runs with jobs=1.  With jobs > 1,
# solve_3coloring_with_stats returns a SolveStats its process pool never
# updates, so the solver counts the traced run reads would be 0.
JOBS = 1

VERIFY_CHECKS = (
    "planarity",
    "no-4-or-5-cycles",
    "not-3-colorable",
    "no-adjacent-triangles",
    "no-triangle-sharing-edge-with-3-or-5-cycle",
)

LEMMA_CHECKS = (
    "seed:forbidden-cycles",
    "seed:distance-t0-t1",
    "seed:distance-t0-t2",
    "seed:distance-t1-t2",
    "seed:pattern-000-infeasible",
    "seed:planarity",
    "seed:all-equal-exhaustive-sweep",
    "seed:all-equal-brute-force",
    "triple:forbidden-cycles",
    "triple:distance-t0-t1",
    "triple:distance-t0-t2",
    "triple:distance-t1-t2",
    "triple:pattern-000-infeasible",
    "triple:planarity",
    "composition:case-tree",
)

FINAL_DIGEST = "6acb9d9830286561"
SEED_DIGEST = "3855c0a1d182d600"

# The final graph's three extra triangles, in the order a colorable
# round visits them, and the canonical digest of the final graph with
# each triangle edge removed.
TRIANGLES = (("d", "e", "f"), ("d'", "e'", "f'"), ("b", "c", "c'"))
COLORABLE_DIGESTS = {
    "d-e": "31f4b2730da3eb92",
    "e-f": "31f4b2730da3eb92",
    "d-f": "f432b8b4a820659b",
    "d'-e'": "31f4b2730da3eb92",
    "e'-f'": "31f4b2730da3eb92",
    "d'-f'": "f432b8b4a820659b",
    "b-c": "510e1eedf139fdcc",
    "b-c'": "510e1eedf139fdcc",
    "c-c'": "b6e0b4ffa8a5d101",
}

# Facts measured on a 2-core Intel Xeon virtual machine when the
# workloads were chosen.  They are not workloads and are not re-measured
# by a run; numbers from another machine are not comparable with them.
BASELINE_FACTS = {
    "relabeled_final_verify": (
        "a seeded random relabeling of the final graph did not finish"
        " solving in 240 s, so no relabeled-input workload exists until"
        " the solver can decide it"
    ),
    "path_probe_solve_s": {"100": 1.3, "200": 7.9, "400": 61.0},
    "path_probe_note": (
        "3-colouring paths of 100, 200 and 400 vertices grows cubically;"
        " the probes are baseline facts, not workloads"
    ),
}


class VerifyFinal:
    """One ``steinberg verify`` of the final 166-vertex graph: decode the
    graph6 bytes, run the full report, render text and JSON.  Known
    answer: all five checks PASS, digest 6acb9d9830286561."""

    name = "verify-final"
    op_limit_s = 150.0
    min_ops = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        from steinberg import formats, gadgets, stock

        triple = gadgets.build_triple_gadget(stock.load_seed_gadget(), jobs=JOBS)
        self.final = gadgets.build_counterexample(triple, jobs=JOBS)
        self.inputs = self._inputs(seed)
        self.data = {
            key: formats.encode(g, "graph6") for key, (g, _) in self.inputs.items()
        }
        self.keys = list(self.inputs)

    def _inputs(self, seed: int) -> dict:
        """key -> (graph, digest); the input keeps build_counterexample's vertex order."""
        return {"final": (self.final, FINAL_DIGEST)}

    def op(self, key: str):
        from steinberg import cli, formats

        g = formats.decode(self.data[key], "graph6")
        report = cli.counterexample_report(g, jobs=JOBS)
        return report.render_text(), report.to_json_bytes()

    def check(self, key: str, out) -> str | None:
        graph, digest = self.inputs[key]
        return check_verify_output(
            out, graph.n, list(graph.edges), digest, colorable=False
        )


class Colorable(VerifyFinal):
    """The verify op on the final graph with one of the nine extra
    triangle edges removed.  Known answer: ``not-3-colorable`` FAILs
    with a coloring the gate accepts edge by edge; the other four PASS.

    The nine edges are visited in rounds of three, one edge of each
    triangle per round, in the order of ``TRIANGLES``; the seed sets
    which edge of each triangle each round takes.  Removing an edge of
    b-c-c' leaves a graph that takes about twice as long as the others,
    so a run makes at least four ops: three of d-e-f and d'-e'-f' and
    one of b-c-c'.  Its median is then the mean of two of the three
    short ops whatever the seed, which halves the seed's effect on it
    against a run of one round."""

    name = "colorable"
    op_limit_s = 60.0
    min_ops = 4

    def _inputs(self, seed: int) -> dict:
        from steinberg import graphs

        rng = random.Random(seed)
        columns = []
        for tri in TRIANGLES:
            edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
            rng.shuffle(edges)
            columns.append(edges)
        inputs = {}
        for rnd in range(3):
            for edges in columns:
                a, b = edges[rnd]
                u = self.final.vertex_by_label(a)
                v = self.final.vertex_by_label(b)
                key = f"{a}-{b}"
                inputs[key] = (
                    graphs.remove_edge(self.final, u, v),
                    COLORABLE_DIGESTS[key],
                )
        return inputs

    def check(self, key: str, out) -> str | None:
        graph, digest = self.inputs[key]
        return check_verify_output(
            out, graph.n, list(graph.edges), digest, colorable=True
        )


def check_verify_output(
    out, n: int, edges: list, digest: str, colorable: bool
) -> str | None:
    """Gate one verify op's text and JSON; None when they are right."""
    text, json_bytes = out
    expected = [
        (name, "fail" if colorable and name == "not-3-colorable" else "pass")
        for name in VERIFY_CHECKS
    ]
    overall = "fail" if colorable else "pass"
    doc = json.loads(json_bytes)
    target = {"n": n, "m": len(edges), "canonical_digest": digest}
    if doc["target"] != target:
        return f"target {doc['target']} != {target}"
    got = [(c["name"], c["verdict"]) for c in doc["checks"]]
    if got != expected:
        return f"checks {got} != {expected}"
    if doc["overall"] != overall:
        return f"overall {doc['overall']} != {overall}"
    lines = text.splitlines()
    marks = [line.split()[:2] for line in lines if line.startswith("  [")]
    if marks != [[f"[{v.upper()}]", name] for name, v in expected]:
        return f"text check lines {marks} do not match {expected}"
    if lines[-1] != f"overall: {overall.upper()}":
        return f"text ends with {lines[-1]!r}"
    if colorable:
        witness = doc["checks"][VERIFY_CHECKS.index("not-3-colorable")].get("witness")
        return check_coloring(witness, n, edges)
    return None


def check_coloring(witness, n: int, edges: list) -> str | None:
    """Accept a witness only if it 3-colours every vertex properly."""
    if not isinstance(witness, dict) or not isinstance(witness.get("coloring"), dict):
        return f"no coloring witness: {witness!r}"
    coloring = witness["coloring"]
    if sorted(coloring) != sorted(str(v) for v in range(n)):
        return "coloring does not cover exactly the graph's vertices"
    color = [coloring[str(v)] for v in range(n)]
    if any(c not in (0, 1, 2) for c in color):
        return "coloring uses a color outside 0..2"
    for u, v in edges:
        if color[u] == color[v]:
            return f"coloring gives edge ({u}, {v}) one color"
    return None


class SearchWide:
    """``search_gadget`` run to exhaustion on the stock seed template with
    the bridges layer widened from pairs to subsets, then
    ``certify_and_freeze`` of each find into a fresh directory.  Known
    answer: exactly one gadget, the frozen seed, digest
    3855c0a1d182d600.  (The stock template alone checks 2 candidates in
    0.07 s, too short to measure.)"""

    name = "search-wide"
    op_limit_s = 30.0
    min_ops = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        from steinberg import search

        spec = search.seed_search_spec()
        layers = tuple(
            replace(layer, link_kind="subsets") if layer.name == "bridges" else layer
            for layer in spec.template.layers
        )
        self.spec = replace(spec, template=search.TemplateSpec(layers=layers))
        self.scratch = scratch
        self.keys = ["stock-wide"]

    def op(self, key: str):
        from steinberg import canon, search

        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        for gadget in list(search.search_gadget(self.spec)):
            digest = canon.canonical_digest(gadget.graph)
            search.certify_and_freeze(gadget, out_dir / f"gadget-{digest}.json")
        return out_dir

    def check(self, key: str, out_dir: Path) -> str | None:
        try:
            files = sorted(p.name for p in out_dir.iterdir())
            want = f"gadget-{SEED_DIGEST}.json"
            if files != [want]:
                return f"frozen files {files} != [{want!r}]"
            doc = json.loads((out_dir / want).read_text())
        finally:
            shutil.rmtree(out_dir)
        ver = doc["verification"]
        if ver["digest"] != SEED_DIGEST:
            return f"frozen digest {ver['digest']} != {SEED_DIGEST}"
        if (doc["n"], len(doc["edges"])) != (15, 23):
            return f"frozen gadget has {doc['n']} vertices, {len(doc['edges'])} edges"
        if ver["behavior"].get("000") is not False or ver["terminals_cofacial"] is not True:
            return f"frozen evidence wrong: {ver['behavior']}, cofacial {ver['terminals_cofacial']}"
        return None


class Lemmas:
    """``steinberg lemmas --json`` through ``cli.main`` with stdout
    captured.  Known answer: exit 0 and all 15 checks PASS."""

    name = "lemmas"
    op_limit_s = 10.0
    min_ops = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.keys = ["lemmas"]

    def op(self, key: str):
        from steinberg import cli

        path = self.scratch / "lemmas.json"
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            rc = cli.main(["lemmas", "--json", str(path), "--jobs", str(JOBS)])
        return rc, captured.getvalue(), path

    def check(self, key: str, out) -> str | None:
        rc, stdout, path = out
        if rc != 0:
            path.unlink(missing_ok=True)
            return f"exit code {rc}"
        doc = json.loads(path.read_text())
        path.unlink()
        got = [(c["name"], c["verdict"]) for c in doc["checks"]]
        want = [(name, "pass") for name in LEMMA_CHECKS]
        if got != want or doc["overall"] != "pass":
            return f"lemma checks {got} != {want}"
        if stdout.splitlines()[-2:-1] != ["overall: PASS"]:
            return f"stdout does not report overall PASS: {stdout[-200:]!r}"
        return None


WORKLOADS = {w.name: w for w in (VerifyFinal, Colorable, SearchWide, Lemmas)}
