"""Reversible chains: validation, spectra, conductance, mixing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.chains import (
    ChainError,
    GuardError,
    ReversibleChain,
    cheeger_audit,
    edge_conductance_exact,
    power_chain,
    spectral_gap,
)
from walklab.graphs import generate, small_regular_catalog
from walklab.rng import SplitMix64
from walklab.weighting import induced_chain, random_lipschitz_weighting, uniform_weighting


def srw(g):
    return induced_chain(uniform_weighting(g))


def lazy(chain: ReversibleChain) -> ReversibleChain:
    """(P + I)/2: same stationary law, halved spectral gap."""
    return ReversibleChain((chain.matrix + np.eye(chain.n)) / 2.0, chain.pi)


def cut_ratio(chain: ReversibleChain, subset) -> float:
    """Q(S, S^c) / pi(S), sliced from the dense flow pi(x) P(x, y)."""
    inside = np.zeros(chain.n, dtype=bool)
    inside[list(subset)] = True
    flow = chain.pi[:, None] * chain.matrix
    return float(flow[np.ix_(inside, ~inside)].sum()) / float(chain.pi[inside].sum())


def random_reversible(rng: SplitMix64, n: int) -> ReversibleChain:
    """Random weighted complete-graph walk; reversible by construction."""
    g = generate("complete", n=n)
    w = random_lipschitz_weighting(g, 3.0, rng)
    return induced_chain(w)


# --- validation -----------------------------------------------------------


def test_rejects_non_stochastic_rows():
    m = np.array([[0.0, 0.5], [1.0, 0.0]])
    with pytest.raises(ChainError):
        ReversibleChain(m, np.array([0.5, 0.5]))
    # every check is a comparison, and NaN fails each one silently
    with pytest.raises(ChainError, match="finite"):
        ReversibleChain(np.full((2, 2), np.nan), np.array([0.5, 0.5]))


def test_rejects_detailed_balance_violation():
    # doubly stochastic but not reversible w.r.t. uniform pi
    m = np.array(
        [
            [0.0, 0.7, 0.3],
            [0.3, 0.0, 0.7],
            [0.7, 0.3, 0.0],
        ]
    )
    with pytest.raises(ChainError):
        ReversibleChain(m, np.ones(3) / 3)


def test_rejects_bad_pi():
    m = np.full((2, 2), 0.5)
    with pytest.raises(ChainError):
        ReversibleChain(m, np.array([0.9, 0.2]))
    with pytest.raises(ChainError):
        ReversibleChain(m, np.array([1.0, 0.0]))
    with pytest.raises(ChainError, match="finite"):
        ReversibleChain(m, np.array([np.nan, 0.5]))


def test_matrix_is_frozen():
    ch = srw(generate("complete", n=4))
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 1.0


# --- spectra --------------------------------------------------------------


def test_complete_graph_spectrum():
    rep = spectral_gap(srw(generate("complete", n=4)))
    assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-11)
    for lam in rep.eigenvalues[1:]:
        assert lam == pytest.approx(-1 / 3, abs=1e-11)
    assert rep.gap == pytest.approx(4 / 3, abs=1e-11)


def test_cycle_spectrum_and_lazy_halving():
    ch = srw(generate("cycle", n=6))
    rep = spectral_gap(ch)
    assert rep.eigenvalues[1] == pytest.approx(0.5, abs=1e-11)
    assert rep.gap == pytest.approx(0.5, abs=1e-11)
    lazy_rep = spectral_gap(lazy(ch))
    assert lazy_rep.gap == pytest.approx(0.25, abs=1e-11)
    assert rep.lazy_gap == pytest.approx(lazy_rep.gap, abs=1e-11)


def test_lazy_spectrum_is_affine_map():
    ch = srw(generate("cycle", n=5))
    vals = spectral_gap(ch).eigenvalues
    lazy_vals = spectral_gap(lazy(ch)).eigenvalues
    for a, b in zip(vals, lazy_vals):
        assert (a + 1) / 2 == pytest.approx(b, abs=1e-11)


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_cycle_spectrum_closed_form(n):
    rep = spectral_gap(srw(generate("cycle", n=n)))
    expected = sorted(np.cos(2 * np.pi * np.arange(n) / n), reverse=True)
    assert np.max(np.abs(np.array(rep.eigenvalues) - expected)) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 9])
def test_complete_spectrum_closed_form(n):
    rep = spectral_gap(srw(generate("complete", n=n)))
    expected = [1.0] + [-1.0 / (n - 1)] * (n - 1)
    assert np.max(np.abs(np.array(rep.eigenvalues) - expected)) < 1e-12
    assert rep.eigenvalues[-1] == pytest.approx(-1.0 / (n - 1), abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_lazy_spectrum_closed_form(seed):
    rng = SplitMix64(seed)
    ch = random_reversible(rng, 2 + rng.randrange(7))
    vals = np.array(spectral_gap(ch).eigenvalues)
    lazy_vals = np.array(spectral_gap(lazy(ch)).eigenvalues)
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(lazy_vals - (1.0 + vals) / 2.0)) < 1e-12


def test_spectral_guard():
    class Fake:
        n = 513

    with pytest.raises(GuardError):
        spectral_gap(Fake())


# --- conductance ----------------------------------------------------------


def test_conductance_complete_graph():
    phi, argmin = edge_conductance_exact(srw(generate("complete", n=4)))
    assert phi == pytest.approx(2 / 3, abs=1e-12)
    assert argmin == frozenset({0, 1})


def test_conductance_cycle():
    phi, argmin = edge_conductance_exact(srw(generate("cycle", n=6)))
    assert phi == pytest.approx(1 / 3, abs=1e-12)
    assert len(argmin) == 3


def test_conductance_regular_identity():
    # for the unweighted walk on a regular graph: phi(S) = e(S, S^c) / (d |S|)
    for name, g in small_regular_catalog().items():
        if g.n < 3:
            continue
        ch = srw(g)
        d = g.regular_degree
        best = min(
            sum(1 for u, v in g.edges if (u in s) != (v in s)) / (d * len(s))
            for size in range(1, g.n // 2 + 1)
            for s in map(set, itertools.combinations(range(g.n), size))
        )
        phi, _ = edge_conductance_exact(ch)
        assert phi == pytest.approx(best, abs=1e-12), name


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_conductance_matches_brute_force(seed):
    rng = SplitMix64(seed)
    n = 3 + rng.randrange(5)
    ch = random_reversible(rng, n)
    phi, argmin = edge_conductance_exact(ch)
    best = min(
        cut_ratio(ch, sub)
        for size in range(1, n)
        for sub in itertools.combinations(range(n), size)
        if float(ch.pi[list(sub)].sum()) <= 0.5 + 1e-12
    )
    assert phi == pytest.approx(best, abs=1e-12)
    assert cut_ratio(ch, argmin) == pytest.approx(phi, abs=1e-12)


def test_conductance_guard():
    with pytest.raises(GuardError):
        edge_conductance_exact(srw(generate("cycle", n=25)))


# --- powers ----------------------------------------------------------


def test_power_chain_squares_matrix():
    ch = srw(generate("cycle", n=5))
    p2 = power_chain(ch, 2)
    assert np.allclose(p2.matrix, ch.matrix @ ch.matrix, atol=1e-12)
    assert np.allclose(p2.pi, ch.pi)


def test_cheeger_audit_on_catalog():
    rng = SplitMix64(99)
    for name, g in small_regular_catalog().items():
        assert cheeger_audit(srw(g)), name
        if g.n >= 3:
            w = random_lipschitz_weighting(g, 2.0, rng)
            assert cheeger_audit(induced_chain(w)), name
