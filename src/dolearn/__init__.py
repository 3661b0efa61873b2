"""Identify and learn interventional distributions on causal graphs."""

from .admg import Admg, CycleDetected, GraphError
from .estimand import (
    BaseDist,
    ChainProduct,
    DistExpr,
    Marginal,
    Product,
    ZeroConditioningEvent,
    evaluate,
    full_table,
    render,
)
from .identify import (
    CausalQuery,
    Estimand,
    HedgeWitness,
    InvalidQuery,
    NotIdentifiable,
    identify,
    is_identifiable,
)
from .learn import (
    ConditionalTable,
    LearnConfig,
    LearnedInterventional,
    PositivityViolation,
    RelativePartition,
    assemble,
    evaluate_point,
    fit_from_table,
    learn_interventional,
    learn_q,
    learn_r,
    recommended_sample_size,
    relative_partition,
)
from .generate import sample, sample_marginal
from .scm import (
    CausalBayesNet,
    CbnNode,
    NonStandardForm,
    StateSpaceTooLarge,
    check_strong_positivity,
    exact_interventional,
    exact_observational,
    interventional_family,
    latent_project,
    random_admg,
    random_net_for,
    sample_observational,
)
from .tables import EmpiricalAccess, PmfTable, Samples, ScopeMismatch
from .verify import (
    GraphMismatch,
    InfiniteKL,
    ZeroEvaluatorMass,
    compare_to_oracle,
    estimate_tv,
    exact_kl,
    exact_tv,
)
from .witness import IndistinguishablePair, indistinguishable_pair

__version__ = "0.1.0"
