"""Machine verification of a small planar graph with no 4- or 5-cycles
that admits no proper 3-coloring.

The package builds the graph from a frozen seed gadget in two pasting
stages, and every claimed property (planarity, the cycle bans, terminal
distances, coloring infeasibilities) is checked by code rather than
assumed, with certificates validated independently of the routines that
produced them.
"""

__version__ = "0.1.0"

# the public names; importing them here also loads every module whose
# functions perfbench/tracing.py wraps, before its tracer is installed
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
    CycleCensus,
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
    InterfaceContract,
    PastePart,
    PasteRecipe,
    TerminalGadget,
    build_counterexample,
    build_triple_gadget,
    compositional_check,
    counterexample_recipe,
    counterexample_report,
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
)
from .stock import load_seed_gadget, seed_data_path
