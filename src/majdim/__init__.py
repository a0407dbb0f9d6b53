"""Majority dimension of directed graphs.

Tools for deciding how many voters are needed to realize a digraph as the
strict-majority relation of a preference profile, for enumerating small
tournaments, for sampling profiles from standard stochastic cultures, and
for compiling propositional formulas into hardness-gadget tournaments with
constant-size certifying profiles.
"""

from .bounds import (
    expressiveness_upper_bound,
    labeled_tournament_count,
    profile_count,
)
from .census import (
    CLASS_COUNTS,
    CensusRow,
    enumerate_tournaments,
    run_census,
)
from .cli import cli_dispatch
from .cnf import CnfFormula
from .cultures import MODELS, CultureSpec, qr_tournament, sample
from .digraph import (
    Digraph,
    UndirectedGraph,
    WeightedDigraph,
    decompose,
    canonical_form,
    incomparability_graph,
    transitive_orientation,
)
from .encoding import (
    VarMap,
    ParityError,
    encode_check_k,
    decode_model,
    majority_threshold,
)
from .dimension import (
    DimensionResult,
    SolverTimeout,
    check_k_majority,
    dimension,
    min_fas_size,
    two_partition_check_3,
)
from .gadgets import (
    GadgetOutput,
    banks_tournament,
    combine_blocks,
    kemeny_subdivide,
    rp_digraph,
    rp_tournament,
    slater_tournament,
    teq_tournament,
    two_voter_orders,
    two_voter_profile,
)
from .preflib import (
    PrefLibError,
    parse_preflib,
    parse_preflib_orders,
    parse_preflib_wmg,
    serialize_preflib_orders,
    serialize_preflib_wmg,
)
from .profiles import (
    LinearOrder,
    Profile,
    induces,
    majority_digraph,
    mcgarvey_profile,
    weighted_majority,
)
from .solver import SolveResult, SolverError, solve
from .transforms import (
    ThreeCnf,
    brute_force_sat,
    random_three_cnf,
    to_ordered3,
    to_reducedfew,
)

__all__ = [
    "CLASS_COUNTS",
    "CensusRow",
    "CnfFormula",
    "CultureSpec",
    "DimensionResult",
    "Digraph",
    "GadgetOutput",
    "LinearOrder",
    "MODELS",
    "ParityError",
    "PrefLibError",
    "Profile",
    "SolveResult",
    "SolverError",
    "SolverTimeout",
    "ThreeCnf",
    "UndirectedGraph",
    "VarMap",
    "WeightedDigraph",
    "banks_tournament",
    "brute_force_sat",
    "canonical_form",
    "check_k_majority",
    "cli_dispatch",
    "combine_blocks",
    "decode_model",
    "decompose",
    "dimension",
    "encode_check_k",
    "enumerate_tournaments",
    "expressiveness_upper_bound",
    "incomparability_graph",
    "induces",
    "kemeny_subdivide",
    "labeled_tournament_count",
    "majority_digraph",
    "majority_threshold",
    "mcgarvey_profile",
    "min_fas_size",
    "parse_preflib",
    "parse_preflib_orders",
    "parse_preflib_wmg",
    "profile_count",
    "qr_tournament",
    "random_three_cnf",
    "rp_digraph",
    "rp_tournament",
    "run_census",
    "sample",
    "serialize_preflib_orders",
    "serialize_preflib_wmg",
    "slater_tournament",
    "solve",
    "teq_tournament",
    "to_ordered3",
    "to_reducedfew",
    "transitive_orientation",
    "two_partition_check_3",
    "two_voter_orders",
    "two_voter_profile",
    "weighted_majority",
]

__version__ = "0.1.0"
