"""Command-line interface.

Subcommands: build, verify, lemmas, search, shrink, convert.  Exit codes
are a stable contract: 0 success / all checks passed, 1 a verification
check failed, 2 usage or parse error.  All configuration arrives via
flags, and every command is deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any

from . import __version__
from .analysis import (
    forbidden_cycle_check,
    is_planar,
    triangle_edge_conflicts,
    triangles_sharing_edge,
    validate_planarity_certificate,
)
from .canon import canonical_digest
from .coloring import (
    brute_force_3coloring,
    exhaustive_color_count,
    is_proper,
    solve_3coloring_with_stats,
    terminal_behavior,
)
from .errors import (
    ContractError,
    FormatError,
    OracleMismatchError,
    SearchSpecError,
    SizeGuardError,
    SteinbergError,
)
from .formats import (
    FORMATS,
    decode,
    encode,
    graph_from_json_dict,
    parse_json_payload,
    sniff_format,
)
from .gadgets import (
    build_counterexample,
    build_triple_gadget,
    compositional_check,
    gadget_to_json_dict,
    paste_triple,
    require_contract,
    seed_in_roles,
    verify_contract,
)
from .graphs import Graph
from .report import CheckResult, VerificationReport, timed_check
from .search import (
    certify_and_freeze,
    funnel_line,
    load_search_spec,
    search_gadget,
    seed_search_spec,
    shrink_counterexample,
)
from .stock import load_seed_gadget

_STAGES = {
    "seed": "seed",
    "g1": "seed",
    "triple": "triple",
    "g2": "triple",
    "final": "final",
    "g": "final",
}

_FORMAT_ALIASES = {"g6": "graph6", "col": "dimacs"}


def _resolve_format(name: str | None, path: Path) -> str:
    if name is not None:
        name = _FORMAT_ALIASES.get(name, name)
        if name not in FORMATS:
            raise FormatError(f"unknown format {name!r}")
        return name
    fmt = sniff_format(path.name)
    if fmt is None:
        raise FormatError(
            f"cannot tell the format of {path.name!r}; pass --format"
        )
    return fmt


def _load_graph(path: Path, fmt: str) -> Graph:
    data = path.read_bytes()
    if fmt == "json":
        payload = parse_json_payload(data)
        if "graph" in payload:
            # a frozen gadget file: verify the underlying graph
            return graph_from_json_dict(payload["graph"])
        return graph_from_json_dict(payload)
    return decode(data, fmt)


def _write_report(report: VerificationReport, json_path: str | None) -> None:
    sys.stdout.write(report.render_text() + "\n")
    if json_path:
        Path(json_path).write_bytes(report.to_json_bytes())
        print(f"report written to {json_path}")


def counterexample_report(g: Graph, jobs: int = 1, oracle: bool = False) -> VerificationReport:
    """The full battery run against a bare graph, trusting nothing about
    where it came from.

    ``jobs`` is ignored: the solver runs in one process, and the keyword
    stays only so existing callers that pass it keep working.
    """
    checks: list[CheckResult] = []

    def planarity():
        cert = is_planar(g)
        validate_planarity_certificate(g, cert)
        if cert.planar:
            return True, None, {"faces_traced": True}
        return False, cert, {"obstruction": cert.kind}

    checks.append(timed_check("planarity", planarity))

    def no_short_cycles():
        witness = forbidden_cycle_check(g, frozenset({4, 5}))
        if witness is None:
            return True, None, {"lengths_checked": [4, 5]}
        return False, witness, {}

    checks.append(timed_check("no-4-or-5-cycles", no_short_cycles))

    def not_colorable():
        solution, stats = solve_3coloring_with_stats(g)
        details: dict[str, Any] = {"solver_nodes": stats.nodes}
        if solution is not None:
            if not is_proper(g, solution):
                raise OracleMismatchError("solver returned an improper coloring")
            witness = {"coloring": {str(v): c for v, c in sorted(solution.items())}}
            return False, witness, details
        if oracle:
            details["oracle"] = "brute-force"
            if brute_force_3coloring(g) is not None:
                raise OracleMismatchError(
                    "solver says UNSAT but brute force found a coloring"
                )
        return True, None, details

    checks.append(timed_check("not-3-colorable", not_colorable))

    def no_adjacent_triangles():
        conflicts = triangles_sharing_edge(g)
        if not conflicts:
            return True, None, {"triangle_pairs_sharing_an_edge": 0}
        edge, t1, t2 = conflicts[0]
        return False, {"edge": list(edge), "triangles": [list(t1.vertices), list(t2.vertices)]}, {}

    checks.append(timed_check("no-adjacent-triangles", no_adjacent_triangles))

    def no_triangle_short_cycle_edge():
        conflicts = triangle_edge_conflicts(g, frozenset({3, 5}))
        if not conflicts:
            return True, None, {"conflicts": 0}
        edge, tri, other = conflicts[0]
        return (
            False,
            {
                "triangle": list(tri.vertices),
                "cycle": list(other.vertices),
                "shared_edge": list(edge),
            },
            {},
        )

    checks.append(timed_check("no-triangle-sharing-edge-with-3-or-5-cycle", no_triangle_short_cycle_edge))

    target = {"n": g.n, "m": len(g.edges), "canonical_digest": canonical_digest(g)}
    return VerificationReport(target=target, checks=tuple(checks), tool_version=__version__)


def _get_seed(args) -> Any:
    try:
        return load_seed_gadget()
    except SteinbergError:
        if getattr(args, "search", False):
            spec = seed_search_spec()
            for gadget in search_gadget(spec, limit=1):
                return gadget
            raise ContractError("search found no seed gadget", clause="search")
        raise


def cmd_build(args) -> int:
    stage = _STAGES[args.stage]
    try:
        seed = _get_seed(args)
    except SteinbergError as exc:
        print(
            f"error: no frozen seed gadget available ({exc}); rerun with"
            " --search to derive one",
            file=sys.stderr,
        )
        return 2
    if stage == "seed":
        gadget = seed
    else:
        triple = build_triple_gadget(seed)
        if stage == "triple":
            gadget = triple
        else:
            gadget = None
            graph = build_counterexample(triple)
    if stage != "final":
        graph = gadget.graph
    digest = canonical_digest(graph)
    print(
        f"stage {args.stage}: {graph.n} vertices, {len(graph.edges)} edges,"
        f" digest {digest}"
    )
    if args.out:
        out = Path(args.out)
        fmt = _resolve_format(args.format, out)
        if fmt == "json" and gadget is not None:
            out.write_text(
                json.dumps(gadget_to_json_dict(gadget), indent=2, sort_keys=True)
                + "\n"
            )
        else:
            out.write_bytes(encode(graph, fmt))
        print(f"written to {out} ({fmt})")
    return 0


def cmd_verify(args) -> int:
    path = Path(args.graph)
    fmt = _resolve_format(args.format, path)
    graph = _load_graph(path, fmt)
    if args.oracle and graph.n > 25:
        print(
            f"error: --oracle needs at most 25 vertices, got {graph.n}",
            file=sys.stderr,
        )
        return 2
    report = counterexample_report(graph, oracle=args.oracle)
    _write_report(report, args.json)
    return 0 if report.passed else 1


def cmd_lemmas(args) -> int:
    try:
        seed = load_seed_gadget()
    except SteinbergError as exc:
        print(f"error: frozen seed gadget unavailable: {exc}", file=sys.stderr)
        return 2
    # the one check of the seed's contract, the check build_triple_gadget
    # makes, so the triple below is pasted without repeating it.  A failing
    # clause raises ContractError (exit 1) before any report is written.
    # The packaged seed lists its terminals in role order under the seed
    # contract, so the check names are those of its own contract.
    seed_report = require_contract(seed_in_roles(seed))
    checks: list[CheckResult] = []
    for c in seed_report.checks:
        checks.append(dataclasses.replace(c, name=f"seed:{c.name}"))

    def seed_exhaustive():
        fixing = {t: 0 for t in seed.terminals}
        count = exhaustive_color_count(seed.graph, fixing)
        swept = 3 ** (seed.graph.n - len(seed.terminals))
        return count == 0, (
            None if count == 0 else {"extensions_found": count}
        ), {"assignments_swept": swept, "extensions_found": count}

    checks.append(timed_check("seed:all-equal-exhaustive-sweep", seed_exhaustive))

    def seed_oracle():
        fixing = {t: 0 for t in seed.terminals}
        witness = brute_force_3coloring(seed.graph, fixing)
        if witness is None:
            return True, None, {"oracle": "brute-force"}
        return False, {"coloring": {str(v): c for v, c in sorted(witness.items())}}, {}

    checks.append(timed_check("seed:all-equal-brute-force", seed_oracle))

    triple = paste_triple(seed)
    for c in verify_contract(triple).checks:
        checks.append(dataclasses.replace(c, name=f"triple:{c.name}"))

    def composition():
        result = compositional_check(seed, terminal_behavior(seed))
        if result.ok:
            return True, None, result.to_json_dict()
        return False, result.counterexample, result.to_json_dict()

    checks.append(timed_check("composition:case-tree", composition))

    report = VerificationReport(
        target=seed_report.target, checks=tuple(checks), tool_version=__version__
    )
    _write_report(report, args.json)
    return 0 if report.passed else 1


def cmd_search(args) -> int:
    if args.stock:
        spec = seed_search_spec(max_vertices=args.max_vertices or 15)
    else:
        if not args.spec:
            print("error: pass a spec file or --stock", file=sys.stderr)
            return 2
        spec = load_search_spec(args.spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    found = 0
    funnel: Counter = Counter()
    for gadget in search_gadget(spec, limit=args.limit, funnel=funnel):
        digest = canonical_digest(gadget.graph)
        path = out_dir / f"gadget-{digest}.json"
        certify_and_freeze(gadget, path)
        found += 1
        print(
            f"found #{found}: {gadget.graph.n} vertices,"
            f" {len(gadget.graph.edges)} edges, frozen to {path}"
        )
    if found == 0:
        print("none found")
    else:
        print(f"{found} gadget(s) frozen")
    print(funnel_line(funnel))
    return 0


def cmd_shrink(args) -> int:
    path = Path(args.graph)
    fmt = _resolve_format(args.format, path)
    graph = _load_graph(path, fmt)
    try:
        shrunk = shrink_counterexample(graph, budget=args.budget)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{graph.n} vertices / {len(graph.edges)} edges ->"
        f" {shrunk.n} vertices / {len(shrunk.edges)} edges"
    )
    if args.out:
        out = Path(args.out)
        out_fmt = _resolve_format(args.to, out)
        out.write_bytes(encode(shrunk, out_fmt))
        print(f"written to {out} ({out_fmt})")
    return 0


def cmd_convert(args) -> int:
    src = Path(args.src)
    dst = Path(args.dst)
    src_fmt = _resolve_format(getattr(args, "from"), src)
    dst_fmt = _resolve_format(args.to, dst)
    graph = _load_graph(src, src_fmt)
    dst.write_bytes(encode(graph, dst_fmt))
    print(f"{src} ({src_fmt}) -> {dst} ({dst_fmt})")
    return 0


def _add_jobs(p: argparse.ArgumentParser) -> None:
    # accepted and ignored, so command lines that still pass --jobs keep
    # their exit codes; the solver runs in one process
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)


def _add_format(p: argparse.ArgumentParser, flag: str = "--format") -> None:
    p.add_argument(
        flag,
        choices=sorted(set(FORMATS) | set(_FORMAT_ALIASES)),
        default=None,
        help="file format (default: by extension)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinberg",
        description=(
            "Build and machine-verify a planar graph with no 4- or 5-cycles"
            " that cannot be properly 3-colored."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a construction stage and write it out")
    p.add_argument(
        "--stage",
        choices=sorted(_STAGES),
        default="final",
        help="seed/g1, triple/g2, or final/g (default final)",
    )
    p.add_argument("--out", help="output file")
    _add_format(p)
    p.add_argument(
        "--search",
        action="store_true",
        help="derive the seed by template search when no frozen seed exists",
    )
    _add_jobs(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run the verification battery on a graph file")
    p.add_argument("graph", help="graph file (graph6, DIMACS, or JSON)")
    _add_format(p)
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the coloring verdict by brute force (<= 25 vertices)",
    )
    _add_jobs(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lemmas", help="verify every seed and triple-gadget clause")
    p.add_argument("--json", help="also write the report as JSON to this path")
    _add_jobs(p)
    p.set_defaults(fn=cmd_lemmas)

    p = sub.add_parser("search", help="run a constrained gadget search")
    p.add_argument("spec", nargs="?", help="SearchSpec JSON file")
    p.add_argument("--stock", action="store_true", help="use the built-in seed template")
    p.add_argument("--max-vertices", type=int, default=None, help="override for --stock")
    p.add_argument("--limit", type=int, default=1, help="stop after this many finds (default 1)")
    p.add_argument("--out-dir", default=".", help="where frozen gadget files go")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("shrink", help="best-effort minimization of a counterexample")
    p.add_argument("graph", help="graph file that must already verify")
    _add_format(p)
    p.add_argument("--budget", type=int, default=60, help="candidate verifications (default 60)")
    p.add_argument("--out", help="write the shrunk graph here")
    p.add_argument("--to", default=None, help="output format (default: by extension)")
    p.set_defaults(fn=cmd_shrink)

    p = sub.add_parser("convert", help="convert between graph file formats")
    p.add_argument("src")
    p.add_argument("dst")
    _add_format(p, "--from")
    p.add_argument("--to", default=None, help="output format (default: by extension)")
    p.set_defaults(fn=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, SearchSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"ORACLE MISMATCH: {exc}", file=sys.stderr)
        return 1
    except SteinbergError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
