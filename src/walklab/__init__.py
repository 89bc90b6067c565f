"""Weighted random walks: spectra, expansion robustness, biased cover strategies.

The package splits into a dependency-ordered stack:

    rng         counter-based deterministic random streams
    graphs      immutable graphs, generators, exact vertex expansion
    chains      reversible transition matrices, spectra, conductance
    weighting   Lipschitz edge weightings and their induced chains
    robustness  bucket/representative decomposition and its audited bounds
    walks       biased walk simulation and the phase cover strategy
    oracle      exact event-probability DP and the boost bounds
    cli         batch experiment front-end
"""

from .chains import (
    ReversibleChain,
    SpectralReport,
    cheeger_audit,
    edge_conductance_exact,
    ergodic_flow,
    mixing_time_tv,
    power_chain,
    spectral_gap,
)
from .graphs import (
    Graph,
    ball,
    ball_growth_audit,
    build_graph,
    diameter,
    generate,
    small_regular_catalog,
    vertex_expansion_exact,
)
from .oracle import (
    EventKind,
    EventSpec,
    boost_bound_audit,
    cover_lower_demo,
    majorizes,
    optimal_tbrw_event_prob,
    power_mean,
    schur_audit,
    srw_event_prob,
    srw_expected_cover_exact,
)
from .rng import SplitMix64
from .robustness import (
    bucket_partition,
    prop311_check,
    representative_indices,
    section3_lemma_audit,
    theorem31_check,
)
from .walks import (
    WalkSpec,
    WalkState,
    estimate_cover_time,
    extract_bias_matrix,
    stationary_boost_audit,
)
from .weighting import (
    EdgeWeighting,
    bottleneck_weighting,
    induced_chain,
    lipschitz_beta,
    random_lipschitz_weighting,
    stationary_ratio_audit,
    target_decay_weighting,
    uniform_weighting,
)

__version__ = "0.1.0"
