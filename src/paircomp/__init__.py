"""Pairwise-comparison matrix estimation on fixed comparison topologies.

Implements noisy-sorting and strong-stochastic-transitivity estimation
from pairwise comparisons observed on a fixed graph: the ASP and BAP
estimators, worst-case inestimability diagnostics, the graph families and
degree functional governing the average-case rates, and a reproducible
Monte Carlo harness.
"""

from .diagnostics import (
    AdversarialPair,
    DiagnosticsReport,
    SearchBudgetError,
    adversarial_pair,
    max_biclique_complement,
    max_independent_set,
    minimax_lower_bound,
    report_to_json,
    report_to_text,
)
from .estimators import (
    AspResult,
    BisoProjection,
    BlockPartition,
    asp_estimate,
    asp_lambda_mle,
    asp_sort,
    bap_estimate,
    block_average,
    block_partition,
    inversion_set,
    pav_isotonic,
    project_biso,
    row_block_average,
)
from .graphs import (
    GRAPH_FAMILIES,
    Graph,
    InfeasibleDegreeSequenceError,
    adjacency_matrix,
    degree_functional,
    from_edge_list,
    havel_hakimi,
    make_graph,
    make_topology,
    to_edge_list,
)
from .harness import (
    CSV_HEADER,
    ExperimentSpec,
    SlopeFit,
    TrialRecord,
    derive_seed,
    fit_slope,
    mean_errors,
    parse_config,
    records_from_csv,
    records_to_csv,
    run_sweep,
    run_trial,
    summarize,
)
from .models import (
    BisoCheck,
    NoisySorting,
    check_comparison_matrix,
    check_permutation,
    frobenius_error,
    identity_permutation,
    inverse_permutation,
    inversion_table,
    is_biso,
    is_sst,
    kt_distance,
    make_noisy_sorting,
    matrix_from_csv,
    noisy_sorting_error,
    matrix_to_csv,
    permutation_from_line,
    permutation_to_line,
    permute_matrix,
    reverse_permutation,
    sample_sst_bands,
    scores,
    table_to_permutation,
)
from .observation import (
    ObservationSample,
    assign_random,
    empirical_scores,
    observe,
    sample_from_text,
    sample_matrix,
    sample_to_text,
)

__version__ = "0.1.0"
