"""Non-backtracking random walks on multigraphs.

Decides exactly whether a graph's universal-cover growth rate equals the
average growth rate predicted by the walk's stationary distribution, and
quantifies the walk's random-bit consumption (Monte Carlo, exact
distribution, and asymptotic variance).
"""

from .conditions import (
    ConditionVerdict,
    ConsistencyError,
    GrowthVerdict,
    SuspendedPath,
    average_growth_rate,
    check_cycle_condition,
    check_suspended_path_condition,
    find_improving_cycle,
    growth_verdict,
    path_growth_function,
    suspended_path_decomposition,
)
from .exact import ExactValue, geometric_mean
from .families import (
    complete_bipartite_graph,
    complete_graph,
    equal_growth_wheel,
    equal_growth_wheel_parameters,
    k4_minus_edge,
    subdivide,
    wheel_graph,
)
from .graph import (
    Dart,
    Graph,
    GraphError,
    GraphParseError,
    IrreducibilityVerdict,
    build_graph,
    dart_transitions,
    format_graph_text,
    is_nb_irreducible,
    load_graph,
    parse_graph_text,
    save_graph,
)
from .operators import (
    FactoredNbOperator,
    NbOperator,
    PerronResult,
    PowerIterationError,
    PreconditionError,
    build_nb_matrix,
    build_transition_matrix,
    build_weighted_matrix,
    count_nb_walks,
    cover_growth_rate,
    enumerate_nb_walks,
    factored_nb_operator,
    interpolation_matrix,
    nb_perron,
    perron,
    perron_value,
    stationary_distribution,
)
from .variance import (
    VarianceReport,
    asymptotic_variance,
    centered_bit_values,
    chain_asymptotic_variance,
    truncated_variance,
    variance_report,
)
from .walks import (
    BitStats,
    CapabilityError,
    ExactBitDistribution,
    WalkBatch,
    WalkSample,
    distribution_csv,
    estimate_bit_stats,
    exact_bit_distribution,
    histogram_csv,
    run_walks,
    sample_walk,
    tracked_degrees,
)

__version__ = "0.1.0"
