"""Never-worse-relation analysis for probability-free MDP skeletons.

Build target arenas, compute exact reachability values, derive a sound
under-approximation of the never-worse relation in polynomial time,
decide it exactly on small instances with checkable certificates, and
shrink arenas without changing any maximal reachability probability.
"""

from .arena import (
    ArenaFormatError,
    DistributionFamily,
    FamilyError,
    MarkovChain,
    Mdp,
    Strategy,
    StrategyError,
    TargetArena,
    ValidationReport,
    arena_to_dot,
    induce_chain,
    instantiate_mdp,
    make_arena,
    parse_arena,
    parse_family,
    random_arena,
    random_family,
    serialize_arena,
    serialize_family,
    successor_map,
    validate_arena,
    validate_family,
)
from .solve import (
    ValueVector,
    almost_sure_set,
    max_reach_values_exact,
    reach_prob_vector,
    value_iteration,
    vertex_values,
    zero_set,
)
from .relation import NwrRelation
from .analysis import (
    essential_order,
    mec_decomposition,
    seed_relation,
)
from .engine import (
    rule_bar_reach,
    rule_bar_win,
    rule_prot_dominance,
    saturate,
)
from .exact import (
    NwrCertificate,
    NwrDecision,
    SizeLimitError,
    decide_nwr,
    default_epsilon,
    epsilon_witness,
    verify_certificate,
    verify_drift_partition,
)
from .twodp import (
    Digraph,
    make_digraph,
    normalize_2dp,
    parse_digraph,
    reduce_2dp,
    serialize_digraph,
    solve_2dp_oracle,
)
from .reduce import (
    ReductionReport,
    lift_family,
    quotient,
    reduce_fixpoint,
    trim_edges,
)

__version__ = "0.1.0"
