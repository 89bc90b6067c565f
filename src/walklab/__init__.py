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

Each public name is imported from the module that defines it.
"""

__version__ = "0.1.0"
