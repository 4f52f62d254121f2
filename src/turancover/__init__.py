"""Covers of blown-up hypergraphs: exact LPs, randomized rounding,
brute-force oracles, instance generators, and a composable CLI.

The central task: given a t-uniform hypergraph, choose the fewest
(t-1)-subsets of its vertices so that every edge contains a chosen
subset.  That is vertex cover on the (t-1)-blow-up, and the rounding
pipeline here achieves roughly half-of-t times the fractional optimum.
"""

from .errors import ParameterError, ParseError, ResourceLimitError, VerificationError
from .generators import (combinatorial_lines, complete, f_free_random,
                         greedy_hard_setsystem, random_hypergraph,
                         simplify_reduction, three_tent)
from .hypergraph import (BlowUp, Hypergraph, blow_up, dual, is_matching,
                         is_simple, is_vertex_cover)
from .lp import (LPSolution, SlacknessReport, check_complementary_slackness,
                 solve_matching_lp, solve_vc_lp)
from .oracles import (Embedding, brute_nu, brute_tau, contains_subhypergraph,
                      find_tents, max_independent_set, rho)
from .rounding import (CoverResult, RoundingParams, ThresholdResult,
                       ahtp_cover_blowup, child_seed, color_code_cover,
                       fallback_threshold_cover, recursive_threshold,
                       t2_cover_blowup)
from .setcover import (GreedyTrace, SetSystem, brute_set_cover, dual_system,
                       greedy_ratio_check, greedy_set_cover, is_simple_system)

__version__ = "0.1.0"

__all__ = [
    "ParameterError", "ParseError", "ResourceLimitError", "VerificationError",
    "Hypergraph", "BlowUp", "blow_up", "dual", "is_simple", "is_vertex_cover",
    "is_matching",
    "LPSolution", "SlacknessReport", "solve_vc_lp", "solve_matching_lp",
    "check_complementary_slackness",
    "Embedding", "brute_tau", "brute_nu", "max_independent_set", "find_tents",
    "contains_subhypergraph", "rho",
    "RoundingParams", "CoverResult", "ThresholdResult", "child_seed",
    "recursive_threshold", "ahtp_cover_blowup", "t2_cover_blowup",
    "color_code_cover", "fallback_threshold_cover",
    "SetSystem", "GreedyTrace", "greedy_set_cover", "brute_set_cover",
    "greedy_ratio_check", "is_simple_system", "dual_system",
    "complete", "random_hypergraph", "f_free_random", "combinatorial_lines",
    "greedy_hard_setsystem", "simplify_reduction", "three_tent",
    "__version__",
]
