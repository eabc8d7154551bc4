"""Machine verification of a small planar graph with no 4- or 5-cycles
that admits no proper 3-coloring.

The package builds the graph from a frozen seed gadget in two pasting
stages, and every claimed property (planarity, the cycle bans, terminal
distances, coloring infeasibilities) is checked by code rather than
assumed, with certificates validated independently of the routines that
produced them.
"""

__version__ = "0.1.0"

from .errors import (
    CertificateError,
    ContractError,
    FormatError,
    GraphConstructionError,
    ImproperFixingError,
    OracleMismatchError,
    PasteError,
    SearchSpecError,
    SizeGuardError,
    SteinbergError,
)
from .graphs import Graph, build_graph
from .formats import decode, encode, sniff_format
from .canon import CanonicalForm, canonical_digest, canonical_form
from .analysis import (
    CycleWitness,
    PlanarityCertificate,
    cycles_of_length,
    distance,
    forbidden_cycle_check,
    is_planar,
    triangle_edge_conflicts,
    triangles_sharing_edge,
    validate_planarity_certificate,
)
from .coloring import (
    TerminalBehavior,
    brute_force_3coloring,
    check_fixed,
    exhaustive_color_count,
    is_proper,
    revalidate_unsat,
    solve_3coloring,
    solve_3coloring_with_stats,
    terminal_behavior,
)
from .report import CheckResult, VerificationReport
from .gadgets import (
    CompositionalResult,
    InterfaceContract,
    PastePart,
    PasteRecipe,
    PasteResult,
    TerminalGadget,
    build_counterexample,
    build_triple_gadget,
    compositional_check,
    counterexample_recipe,
    first_failing_clause,
    load_gadget,
    paste,
    save_gadget,
    seed_contract,
    terminals_cofacial,
    triple_contract,
    triple_recipe,
    verify_contract,
)
from .search import (
    LayerSpec,
    SearchSpec,
    TemplateSpec,
    certify_and_freeze,
    search_gadget,
    seed_search_spec,
    shrink_counterexample,
)
from .stock import load_seed_gadget, seed_data_path
from .cli import counterexample_report

__all__ = [
    "__version__",
    "SteinbergError",
    "GraphConstructionError",
    "FormatError",
    "ImproperFixingError",
    "SizeGuardError",
    "ContractError",
    "PasteError",
    "CertificateError",
    "OracleMismatchError",
    "SearchSpecError",
    "Graph",
    "build_graph",
    "encode",
    "decode",
    "sniff_format",
    "CanonicalForm",
    "canonical_form",
    "canonical_digest",
    "CycleWitness",
    "PlanarityCertificate",
    "cycles_of_length",
    "distance",
    "forbidden_cycle_check",
    "is_planar",
    "validate_planarity_certificate",
    "triangles_sharing_edge",
    "triangle_edge_conflicts",
    "TerminalBehavior",
    "is_proper",
    "check_fixed",
    "solve_3coloring",
    "solve_3coloring_with_stats",
    "revalidate_unsat",
    "brute_force_3coloring",
    "exhaustive_color_count",
    "terminal_behavior",
    "CheckResult",
    "VerificationReport",
    "InterfaceContract",
    "TerminalGadget",
    "PastePart",
    "PasteRecipe",
    "PasteResult",
    "paste",
    "seed_contract",
    "triple_contract",
    "triple_recipe",
    "counterexample_recipe",
    "build_triple_gadget",
    "build_counterexample",
    "verify_contract",
    "first_failing_clause",
    "counterexample_report",
    "terminals_cofacial",
    "compositional_check",
    "CompositionalResult",
    "save_gadget",
    "load_gadget",
    "LayerSpec",
    "TemplateSpec",
    "SearchSpec",
    "search_gadget",
    "seed_search_spec",
    "certify_and_freeze",
    "shrink_counterexample",
    "load_seed_gadget",
    "seed_data_path",
]
