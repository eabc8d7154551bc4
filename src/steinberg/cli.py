"""Command-line interface.

Subcommands: build, verify, lemmas, search, convert.  Exit codes
are a stable contract: 0 success / all checks passed, 1 a verification
check failed, 2 usage or input error.  All configuration arrives via
flags, and every command is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .canon import canonical_digest
from .coloring import _BEHAVIOR_ARITIES
from .errors import (
    FormatError,
    GraphConstructionError,
    OracleMismatchError,
    SearchSpecError,
    SizeGuardError,
    SteinbergError,
)
from .formats import FORMAT_NAMES, decode, encode, sniff_format
from .gadgets import (
    TerminalGadget,
    build_counterexample,
    build_triple_gadget,
    counterexample_report,
    lemmas_report,
    save_gadget,
)
from .report import VerificationReport
from .search import (
    certify_and_freeze,
    funnel_line,
    load_search_spec,
    search_gadget,
    seed_search_spec,
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


def _resolve_format(name: str | None, path: Path) -> str:
    return sniff_format(path.name) if name is None else FORMAT_NAMES[name]


def _write_report(report: VerificationReport, json_path: str | None) -> None:
    sys.stdout.write(report.render_text() + "\n")
    if json_path:
        Path(json_path).write_bytes(report.to_json_bytes())
        print(f"report written to {json_path}")


def _load_seed() -> TerminalGadget:
    # a seed that does not load is an input error, like a bad graph file
    try:
        return load_seed_gadget()
    except SteinbergError as exc:
        raise FormatError(f"frozen seed gadget unavailable: {exc}") from exc


def cmd_build(args) -> int:
    stage = _STAGES[args.stage]
    seed = _load_seed()
    gadget = seed if stage == "seed" else build_triple_gadget(seed)
    graph = build_counterexample(gadget) if stage == "final" else gadget.graph
    digest = canonical_digest(graph)
    print(
        f"stage {args.stage}: {graph.n} vertices, {len(graph.edges)} edges,"
        f" digest {digest}"
    )
    if args.out:
        out = Path(args.out)
        fmt = _resolve_format(args.format, out)
        if fmt == "json" and stage != "final":
            save_gadget(gadget, out)
        else:
            out.write_bytes(encode(graph, fmt))
        print(f"written to {out} ({fmt})")
    return 0


def cmd_verify(args) -> int:
    path = Path(args.graph)
    fmt = _resolve_format(args.format, path)
    report = counterexample_report(decode(path.read_bytes(), fmt))
    _write_report(report, args.json)
    return 0 if report.passed else 1


def cmd_lemmas(args) -> int:
    report = lemmas_report(_load_seed())
    _write_report(report, args.json)
    return 0 if report.passed else 1


def cmd_search(args) -> int:
    # checked after parsing, so an unknown option is reported before a
    # stray argument that an argparse group would take for the spec
    if args.stock == (args.spec is not None):
        print("error: pass exactly one of a spec file or --stock", file=sys.stderr)
        return 2
    spec = seed_search_spec() if args.stock else load_search_spec(args.spec)
    arity = spec.contract.arity
    if arity is not None and arity not in _BEHAVIOR_ARITIES:
        # every find is frozen with its behavior table, which covers only
        # these terminal counts: refuse before the walk, not after it
        raise SearchSpecError(
            f"search freezes gadgets with {min(_BEHAVIOR_ARITIES)} to"
            f" {max(_BEHAVIOR_ARITIES)} terminals; the contract has {arity}"
        )
    out_dir = Path(args.out_dir)
    found = 0
    funnel: Counter = Counter()
    for gadget in search_gadget(spec, limit=args.limit, funnel=funnel):
        # made at the first find, so a refused or empty search makes none
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"gadget-{gadget.search_digest}.json"
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


def cmd_convert(args) -> int:
    src = Path(args.src)
    dst = Path(args.dst)
    src_fmt = _resolve_format(getattr(args, "from"), src)
    dst_fmt = _resolve_format(args.to, dst)
    graph = decode(src.read_bytes(), src_fmt)
    dst.write_bytes(encode(graph, dst_fmt))
    print(f"{src} ({src_fmt}) -> {dst} ({dst_fmt})")
    return 0


def _add_jobs(p: argparse.ArgumentParser) -> None:
    # accepted and ignored, so command lines that still pass --jobs keep
    # their exit codes; the solver runs in one process
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)


def _at_least_one(text: str) -> int:
    # a search stops only after a find: a limit below 1 would walk
    # nothing and print an all-zero funnel
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_format(p: argparse.ArgumentParser, flag: str = "--format") -> None:
    p.add_argument(
        flag,
        choices=sorted(FORMAT_NAMES),
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
    _add_jobs(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run the verification battery on a graph file")
    p.add_argument("graph", help="graph file (graph6, DIMACS, or JSON)")
    _add_format(p)
    p.add_argument("--json", help="also write the report as JSON to this path")
    _add_jobs(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lemmas", help="verify every seed and triple-gadget clause")
    p.add_argument("--json", help="also write the report as JSON to this path")
    _add_jobs(p)
    p.set_defaults(fn=cmd_lemmas)

    p = sub.add_parser(
        "search", help="run a constrained gadget search",
        usage="steinberg search (--stock | SPEC.json) [--limit LIMIT]"
        " [--out-dir OUT_DIR]",
    )
    p.add_argument("spec", nargs="?", help="SearchSpec JSON file")
    p.add_argument("--stock", action="store_true", help="use the built-in seed template")
    p.add_argument(
        "--limit", type=_at_least_one, default=1,
        help="stop after this many finds (default 1)",
    )
    p.add_argument("--out-dir", default=".", help="where frozen gadget files go")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("convert", help="convert between graph file formats")
    p.add_argument("src")
    p.add_argument("dst")
    _add_format(p, "--from")
    _add_format(p, "--to")
    p.set_defaults(fn=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, GraphConstructionError, OSError, SearchSpecError,
            SizeGuardError) as exc:
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
