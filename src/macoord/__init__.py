"""Decentralized online coordination of action-partitioned set objectives.

Agents each own a disjoint slice of a ground set and jointly maximize a
sequence of monotone set functions, one feasible action per agent per round,
seeing only marginal gains of their own actions.  The package provides the
policy-space relaxation with exact and sampled gradients, two decentralized
no-regret learners, moving-target benchmark worlds, a brute-force oracle
suite, and an experiment harness with a CLI.
"""

from .errors import (
    ConfigError,
    DataError,
    InvalidActionError,
    MacoordError,
    ScaleError,
    TopologyError,
)
from .extension import (
    PolicyProfile,
    SurrogateScheme,
    estimate_gradient,
    estimate_surrogate_gradient,
    exact_extension,
    exact_gradient,
    exact_surrogate_gradient,
    exact_surrogate_value,
    sample_choices,
    sample_z,
)
from .geometry import normalize_policy, project_capped_simplex
from .ground import (
    MarginalBudget,
    Partition,
    SetFunction,
    local_marginal_block,
    min_gain_vector,
)
from .harness import (
    RoundLog,
    RunConfig,
    compute_rho_regret,
    export_csv,
    export_json,
    run_bench,
    run_experiment,
)
from .learners import (
    GreedyLearner,
    MetaConditionalGradientLearner,
    PolicyConsensusLearner,
    RandomLearner,
    random_baseline_round,
    sequential_greedy_round,
)
from .network import (
    CommGraph,
    diameter,
    erdos_renyi,
    graph_from_spec,
    metropolis_weights,
    spectral_gap,
)
from .envs import (
    FacilityObjective,
    ModularFunction,
    SqrtModularFunction,
    TrackingGainObjective,
    WeightedCoverage,
    coverage_instance,
    make_environment,
    step_targets,
    synthetic_setfn,
)
from .oracle import (
    AuditReport,
    RatioReport,
    StationarityReport,
    approx_ratio_audit,
    brute_force_opt,
    check_stationarity,
    estimate_ratios,
    feasible_sets,
    projected_ascent,
    stationary_point_floor,
)

__version__ = "0.1.0"
