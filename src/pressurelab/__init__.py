"""pressurelab: pressure computations on subshifts of finite type.

Four notions of topological pressure on subsets of an SFT, computed at
finite depth and cross-validated against each other and against exact
transfer-operator values: the measure-theoretic (local) pressure, the
upper-capacity pressure from separated-set partition functions, the
Caratheodory pressure from optimal Bowen-ball covers, and its weighted
(fractional-cover) variant.
"""

from ._version import __version__
from .bowen import (
    Ball,
    CriticalExponent,
    bowen_pressure,
    check_chain,
    cover_value,
    min_cover_value,
    vitali_select,
    weighted_cover_value,
    weighted_pressure,
)
from .capacity import CapacityEstimate, capacity_pressure, partition_function
from .config import ExperimentConfig, parse_config
from .errors import (
    DepthTooShallow,
    EmptyTarget,
    EnumerationBudgetExceeded,
    InadmissibleWord,
    InsufficientDepth,
    NonInvariantMeasure,
    PressureLabError,
    ReducibleSystem,
    ScaleTooCoarse,
    SchemaError,
)
from .harness import (
    AgreementReport,
    GibbsReport,
    PropertyReport,
    UnionReport,
    VariationalReport,
    property_suite,
    random_invariant_agreement,
    verify_gibbs_bound,
    verify_unions,
    verify_variational,
)
from .measure import (
    LocalPressureTrace,
    MCPressureEstimate,
    OrbitSample,
    exact_invariant_pressure,
    local_pressure,
    measure_pressure_mc,
    sample_orbit,
)
from .subsets import (
    SubsetSpec,
    count_target_words,
    finite_union,
    frequency_level,
    iter_target_words,
    sub_sft,
    validate_spec,
    whole,
)
from .symbolic import (
    LocallyConstantPotential,
    Scale,
    Subshift,
    birkhoff_sum,
    bowen_ball_word_length,
    constant_potential,
    count_words,
    enumerate_words,
    full_shift,
    golden_mean_shift,
    inf_birkhoff_on_cylinder,
    potential_from_table,
    separated_word_length,
    subshift_from_pairs,
    sup_birkhoff_on_cylinder,
    zero_potential,
)
from .transfer import (
    MarkovMeasure,
    PressureValue,
    TransferMatrix,
    bernoulli_measure,
    build_transfer_matrix,
    equilibrium_measure,
    markov_measure,
    spectral_pressure,
    stationary_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
