"""Closed-form adjacency recovery from a log-form proximity matrix.

The pipeline inverts the chain proximity -> infinite-horizon limit ->
normalized Laplacian -> adjacency, then binarizes to the original edge
count. The input matrix follows the unclamped log convention of
``proximity.deepwalk_log_proximity`` (entries may be negative). Each step
is the exact algebraic inverse of the forward construction, so a connected
graph whose walk sum has fully decayed at the horizon is recovered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .linalg import _spd_inverse, pseudoinverse
from .proximity import _check_horizon


@dataclass(frozen=True, eq=False)
class AnalyticalInputs:
    """Inputs to the closed-form recovery.

    m_k is the finite-horizon log-form proximity; degrees/volume describe
    the original graph (only its topology is treated as unknown); m_edges
    sets the binarization budget.
    """

    m_k: np.ndarray
    degrees: np.ndarray
    volume: float
    alpha: float
    k_horizon: int
    m_edges: int

    def __post_init__(self) -> None:
        if bad := np.count_nonzero(~np.isfinite(self.m_k)):
            raise ValueError(f"proximity m_k has {bad} non-finite entries")
        deg = np.asarray(self.degrees)
        if np.any(deg < 1):
            raise ValueError("all degrees must be >= 1")
        if abs(float(deg.sum()) - self.volume) > 1e-9:
            raise ValueError("volume must equal the degree sum")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def estimate_m_infinity(m_k: np.ndarray, k_horizon: int) -> np.ndarray:
    """Infinite-horizon proximity limit from the finite-K matrix.

    Elementwise K * exp(M_K) - 1: the finite-K matrix satisfies
    M_K = log((J + M_inf)/K) once the dropped geometric tail has decayed,
    so exponentiating and rescaling recovers M_inf directly.
    """
    _check_horizon(k_horizon)
    return k_horizon * np.exp(np.asarray(m_k, dtype=np.float64)) - 1.0


def recover_laplacian(
    m_inf: np.ndarray, degrees: np.ndarray, volume: float, alpha: float
) -> np.ndarray:
    """Normalized Laplacian implied by the infinite-horizon proximity.

    Inverts m_inf = (alpha*vol/(1-alpha)) D^{-1/2} (Z - I) D^{-1/2} - J with
    Z = ((1-alpha) L + alpha I)^{-1}: rebuild Z, invert it, and peel off the
    alpha shift. For exact inputs Z is symmetric positive definite (its
    eigenvalues lie in [1/(2-alpha), 1/alpha]), so it is inverted by
    Cholesky; a Z that is not positive definite or is near singular, as a
    noisy low-rank target can give, is pseudoinverted instead. The result
    is symmetrized to absorb the floating-point asymmetry of the
    pseudoinverse.
    """
    m_inf = np.asarray(m_inf, dtype=np.float64)
    deg = np.asarray(degrees, dtype=np.float64)
    n = deg.size
    if m_inf.shape != (n, n):
        raise ValueError("proximity shape does not match degree vector")
    root = np.sqrt(deg)
    z = ((1.0 - alpha) / (alpha * volume)) * (
        root[:, None] * (m_inf + 1.0) * root[None, :]
    ) + np.eye(n)
    z = (z + z.T) / 2.0
    z_inv = _spd_inverse(z)
    if z_inv is None:
        z_inv = pseudoinverse(z)
    lap = z_inv / (1.0 - alpha) - (alpha / (1.0 - alpha)) * np.eye(n)
    return (lap + lap.T) / 2.0


def recover_adjacency(lap: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Soft adjacency scores A = D^{1/2} (I - L) D^{1/2}."""
    lap = np.asarray(lap, dtype=np.float64)
    deg = np.asarray(degrees, dtype=np.float64)
    root = np.sqrt(deg)
    return root[:, None] * (np.eye(deg.size) - lap) * root[None, :]


def binarize(soft_a: np.ndarray, m_edges: int) -> Graph:
    """Keep the m largest strictly-above-diagonal scores as edges.

    Ties break toward lexicographically smaller (row, col). The diagonal is
    ignored; the result has exactly m_edges undirected edges. A non-finite
    score above the diagonal is an error. The m-th largest score is found by
    partition, so only the pairs scoring at least that much are sorted:
    O(n^2) for any m.
    """
    soft_a = np.asarray(soft_a, dtype=np.float64)
    n = soft_a.shape[0]
    if soft_a.shape != (n, n):
        raise ValueError("soft adjacency must be square")
    max_edges = n * (n - 1) // 2
    if not 0 <= m_edges <= max_edges:
        raise ValueError(f"m_edges={m_edges} must lie in [0, {max_edges}]")
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    values = soft_a[upper]
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise ValueError(
            f"soft adjacency has {bad} non-finite score(s) above the diagonal"
        )
    if m_edges == 0:
        return Graph.from_edges(n, [])
    values.partition(max_edges - m_edges)
    rows, cols = np.nonzero(upper & (soft_a >= values[max_edges - m_edges]))
    order = np.lexsort((cols, rows, -soft_a[rows, cols]))[:m_edges]
    return Graph.from_edges(n, np.column_stack((rows[order], cols[order])))


def invert_analytical(inputs: AnalyticalInputs) -> Graph:
    """Full closed-form pipeline: estimate limit, recover Laplacian and
    adjacency, binarize to the original edge count."""
    m_inf = estimate_m_infinity(inputs.m_k, inputs.k_horizon)
    lap = recover_laplacian(m_inf, inputs.degrees, inputs.volume, inputs.alpha)
    soft = recover_adjacency(lap, inputs.degrees)
    return binarize(soft, inputs.m_edges)
