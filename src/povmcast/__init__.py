"""Faithful simulation of broadcast quantum measurements.

A server measures a POVM on many copies of a state and must deliver
coarse-grained outcomes to two receivers using limited classical
communication plus common randomness. The package provides the operator
primitives, conditional measurements, entropic rate region, typical
sets and projectors, randomized codebook construction, and a seeded
Monte Carlo harness for the faithfulness of the simulated measurement.
"""

from .config import (
    EquivalenceSettings,
    ScenarioConfig,
    SweepSettings,
    config_from_dict,
    evaluate_rate_expression,
    load_config,
    params_with_axis,
    resolve_size,
    scenario_rate_environment,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyBranch,
    EmptySupport,
    LabelMismatch,
    NegligibleProbability,
    NotADistribution,
    NotHermitian,
    NotNormalized,
    NotPsd,
    PovmcastError,
    SizeLimitExceeded,
    SizeMismatch,
)
from .linalg import (
    DensityOperator,
    dimension_cap,
    hermitian_part,
    kron_all,
    pinv_sqrt_on_support,
    spectral_decompose,
    sqrt_psd,
    support_projector,
    trace_distance,
)
from .measurement import (
    EquivalenceResult,
    OutcomeFunction,
    Povm,
    born_probabilities,
    coarse_grain,
    conditional_povm,
    measurements_equivalent,
    post_measurement_state,
    reference_blocks,
    sequential_composition,
)
from .presets import preset_document, preset_names
from .protocol import (
    BlockScenario,
    Codebook,
    FaithfulnessReport,
    ProtocolInstance,
    ProtocolParams,
    SimulationTranscript,
    TrialRecord,
    build_block_scenario,
    build_protocol_instance,
    empirical_e0_check,
    faithfulness_distance,
    generate_codebook,
    instance_report,
    prepare_scenario,
    run_protocol_trial,
    simulate_trials,
)
from .rates import (
    RateQuantities,
    evaluate_rate_region,
    shannon_entropy,
    von_neumann_entropy,
)
from .stats import TrendResult, jonckheere_terpstra
from .typicality import (
    PrunedDistribution,
    TypicalSet,
    build_typical_set,
    conditional_typical_set,
    prune,
    sample_sequences,
)

__version__ = "0.1.0"
