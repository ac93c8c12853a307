"""Non-backtracking random walks on multigraphs.

Decides exactly whether a graph's universal-cover growth rate equals the
average growth rate predicted by the walk's stationary distribution, and
quantifies the walk's random-bit consumption (Monte Carlo, exact
distribution, and asymptotic variance).

The package loads lazily (PEP 562): ``import nbrw`` imports no submodule
and no numpy; a public name, or a submodule such as ``nbrw.graph``,
imports its module on first access.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "conditions": "ConditionVerdict ConsistencyError GrowthVerdict SuspendedPath average_growth_rate"
    " check_cycle_condition check_suspended_path_condition growth_verdict suspended_path_decomposition",
    "exact": "ExactValue",
    "families": "complete_bipartite_graph complete_graph equal_growth_wheel equal_growth_wheel_parameters"
    " k4_minus_edge subdivide wheel_graph",
    "graph": "Graph GraphError GraphParseError IrreducibilityVerdict build_graph format_graph_text"
    " is_nb_irreducible load_graph parse_graph_text save_graph",
    "operators": "CapabilityError FactoredNbOperator PerronResult PowerIterationError PreconditionError"
    " build_transition_matrix build_weighted_matrix cover_growth_rate factored_nb_operator"
    " interpolation_matrix nb_perron perron",
    "variance": "VarianceReport asymptotic_variance centered_bit_values truncated_variance variance_report",
    "walks": "BitStats ExactBitDistribution WalkBatch distribution_csv exact_bit_distribution histogram_csv"
    " run_walks tracked_degrees",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(["cli", "_kernels", *_EXPORTS])

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
