"""Half-uniform density estimation at desk scale.

A library and CLI for the identification problem "which of k uniform-on-a-
random-support distributions produced these samples": seeded instance
generators (including the Poissonization reduction from correlated subset
search), the probe-subset index with an elimination baseline, an operation-
counted benchmark harness, and numerical machinery for the statistical-
computational trade-off curves.
"""

__version__ = "0.1.0"

from .distributions import (
    Dataset,
    HalfUniformDistribution,
    OpCounter,
    QueryMultiset,
    SupportSet,
    contains,
    l1_distance,
    load_dataset,
    save_dataset,
)
from .elimination import QueryResult, eliminate
from .instances import (
    GapssInstance,
    GenerationError,
    HudeInstance,
    UrdeInstance,
    gen_gapss,
    gen_hude,
    gen_urde,
    load_instance,
    poisson,
    poisson_plus,
    reduce_gapss_to_urde,
    required_w_q,
    save_instance,
)
from .subset_index import (
    IndexParams,
    SubsetIndex,
    TheoreticalChoice,
    dump_index,
    preprocess,
    query,
    theoretical_params,
)
from .tradeoff import (
    SearchOptions,
    TradeoffPoint,
    analytic_lower_bound,
    entropy_gap,
    gapss_explicit_bound,
    kl_binary,
    coupling_kl,
    minimize_objective,
    objective,
    query_exponent_lower_bound,
    tradeoff_rows,
    upper_exponent,
)
from .bench import (
    AdaptiveSearchError,
    ExperimentConfig,
    ResultRow,
    adaptive_L_search,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
