"""Reversible finite Markov chains: spectra, conductance and powers.

Everything here is dense linear algebra on small state spaces.  The
spectrum is LAPACK's symmetric eigensolver (`np.linalg.eigvalsh`) applied to
the similarity-symmetrized transition matrix D^{1/2} P D^{-1/2}; the full
spectrum feeds the spectral report and the gap/conductance audits.
Exhaustive conductance enumerates all 2^n subsets as bitmask arrays built by
doubling (O(2^n), in chunks of at most 2^20 masks; see `graphs.subset_fold`)
and is guarded at n <= graphs.SUBSET_GUARD; the spectral path at n <= 512.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import SUBSET_CHUNK_BITS, SUBSET_GUARD, GuardError, WalklabError, first_subset_minimum, subset_fold

SPECTRAL_GUARD = 512

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-12
# conductance ranges over sets with pi(S) <= 1/2, tested as pi(S) <= HALF_MASS
HALF_MASS = 0.5 + 1e-12

__all__ = [
    "ReversibleChain",
    "SpectralReport",
    "ChainError",
    "spectral_gap",
    "edge_conductance_exact",
    "power_chain",
    "cheeger_audit",
]


class ChainError(WalklabError):
    """Transition data that is not a reversible stochastic chain."""


@dataclass(frozen=True)
class ReversibleChain:
    """Row-stochastic matrix P with stationary law pi satisfying detailed
    balance pi(x) P(x,y) = pi(y) P(y,x).

    Validation happens at construction: entries finite, row sums and detailed
    balance to 1e-12, pi positive and summing to 1.
    """

    matrix: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ChainError("transition matrix must be square")
        n = p.shape[0]
        if pi.shape != (n,):
            raise ChainError("pi has wrong length")
        if not (np.isfinite(p).all() and np.isfinite(pi).all()):
            raise ChainError("transition matrix and pi must be finite")
        if np.any(p < -1e-15):
            raise ChainError("negative transition probability")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ChainError("rows must sum to 1 within 1e-12")
        if np.any(pi <= 0.0):
            raise ChainError("pi must be strictly positive")
        if abs(pi.sum() - 1.0) > ROW_SUM_TOL:
            raise ChainError("pi must sum to 1 within 1e-12")
        flow = pi[:, None] * p
        if np.max(np.abs(flow - flow.T)) > BALANCE_TOL:
            raise ChainError("detailed balance fails at 1e-12")
        p = p.copy()
        pi = pi.copy()
        p.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "matrix", p)
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# spectrum


@dataclass(frozen=True)
class SpectralReport:
    """Full spectrum of a reversible chain plus the derived gap figures."""

    eigenvalues: tuple[float, ...]
    gap: float
    lazy_gap: float

    def to_json_dict(self, phi: float | None, phi_argmin: frozenset[int] | None) -> dict:
        return {
            "eigenvalues": [round(x, 12) for x in self.eigenvalues],
            "gap": self.gap,
            "lazy_gap": self.lazy_gap,
            "phi": phi,
            "phi_argmin": sorted(phi_argmin) if phi_argmin is not None else None,
        }


def symmetrized(chain: ReversibleChain) -> np.ndarray:
    """Similarity transform D_pi^{1/2} P D_pi^{-1/2}, forced exactly symmetric."""
    root = np.sqrt(chain.pi)
    m = (root[:, None] / root[None, :]) * chain.matrix
    return (m + m.T) / 2.0


def spectral_gap(chain: ReversibleChain) -> SpectralReport:
    """Eigenvalues (descending), gap = 1 - lambda_2, and the lazy gap.

    The chain is symmetrized by the stationary similarity transform, so the
    spectrum is real; lambda_1 = 1 always.  Guarded at n <= 512.
    """
    if chain.n > SPECTRAL_GUARD:
        raise GuardError(f"spectral_gap is dense; n={chain.n} exceeds guard {SPECTRAL_GUARD}")
    vals_t = tuple(float(x) for x in np.linalg.eigvalsh(symmetrized(chain))[::-1])
    if chain.n == 1:
        return SpectralReport(vals_t, 0.0, 0.0)
    gap = 1.0 - vals_t[1]
    return SpectralReport(vals_t, gap, gap / 2.0)


# ---------------------------------------------------------------------------
# conductance


def edge_conductance_exact(chain: ReversibleChain) -> tuple[float, frozenset[int]]:
    """Exhaustive conductance Phi = min over 0 < pi(S) <= 1/2 of Q(S,S^c)/pi(S).

    The per-mask masses and cut flows are built by doubling, with additions
    of positive terms only.  Adding vertex k to the vertices 0..k-1, a mask m
    without k gains lin_k[m] = sum of Q(j, k) over j in m, and m + {k} gains
    lout_k[~m] = sum of Q(k, j) over j not in m; lin_k and lout_k are
    themselves built by doubling.  Cost is O(2^n), in chunks of at most 2^20
    masks, guarded at n <= SUBSET_GUARD.  pi(S) <= 1/2 is tested as
    pi(S) <= HALF_MASS = 1/2 + 1e-12.

    Tie rule: when both sides of a cut qualify (each has pi within 1e-12 of
    1/2), the side without vertex n - 1 is the candidate, so rounding of the
    two sides' flows cannot decide which one is reported.  Other ties
    resolve to the smallest subset bitmask.
    """
    n = chain.n
    if n > SUBSET_GUARD:
        raise GuardError(f"edge_conductance_exact is exhaustive; n={n} exceeds guard {SUBSET_GUARD}")
    if n < 2:
        raise ChainError("conductance needs n >= 2")
    pi = chain.pi
    f = np.where(chain.matrix > 0.0, pi[:, None] * chain.matrix, 0.0)
    np.fill_diagonal(f, 0.0)
    low = min(n, SUBSET_CHUNK_BITS)
    mass_low = subset_fold(np.add, pi[:low], float)
    flow_low = np.zeros(1 << low)
    for k in range(low):
        h = 1 << k
        np.add(flow_low[:h], subset_fold(np.add, f[k, :k], float)[::-1], out=flow_low[h : 2 * h])
        flow_low[:h] += subset_fold(np.add, f[:k, k], float)

    def add_high(base: np.ndarray, inside: list[bool], members: bool) -> np.ndarray:
        # base plus pi[k], in increasing k, for the high vertices k in (or out of) S
        for k, k_in in enumerate(inside, start=low):
            if k_in == members:
                base = base + pi[k]
        return base

    def cut_term(k: int, inside: list[bool]) -> np.ndarray:
        # lout_k[~m] when k is in S, lin_k[m] when it is not
        k_in = inside[k - low]
        row = f[k] if k_in else f[:, k]
        term = subset_fold(np.add, row[:low], float)
        for j, j_in in enumerate(inside[: k - low], start=low):
            if j_in != k_in:
                term += row[j]
        return term[::-1] if k_in else term

    def chunk_ratio(top: int) -> np.ndarray:
        inside = [bool(top >> (k - low) & 1) for k in range(low, n)]
        mass = add_high(mass_low, inside, True)
        valid = (mass > 0.0) & (mass <= HALF_MASS)
        # tie rule: masks from this row up hold n - 1, and yield to a complement that qualifies
        rows = slice(max(0, (1 << (n - 1)) - (top << low)), None)
        valid[rows] &= add_high(mass_low[::-1][rows], inside, False) > HALF_MASS
        flow = flow_low.copy()
        for k in range(low, n):
            flow += cut_term(k, inside)
        np.divide(flow, mass, out=flow, where=valid)
        flow[~valid] = np.inf
        return flow

    return first_subset_minimum(n, low, chunk_ratio)


# ---------------------------------------------------------------------------
# powers


def power_chain(chain: ReversibleChain, m: int) -> ReversibleChain:
    """m-step chain P^m with the same stationary law.

    Rows are renormalized after the matrix power to absorb float drift
    (a relative 1e-14 effect, never a semantic change).
    """
    if m < 1:
        raise ChainError("power_chain needs m >= 1")
    pm = np.linalg.matrix_power(chain.matrix, m)
    pm = np.maximum(pm, 0.0)
    pm /= pm.sum(axis=1, keepdims=True)
    return ReversibleChain(pm, chain.pi)


def cheeger_audit(chain: ReversibleChain) -> bool:
    """Checks Phi^2 / 2 <= gap <= 2 Phi within 1e-9."""
    phi, _ = edge_conductance_exact(chain)
    gap = spectral_gap(chain).gap
    return (phi * phi / 2.0 - 1e-9 <= gap) and (gap <= 2.0 * phi + 1e-9)
