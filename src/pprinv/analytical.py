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
from .linalg import _spd_inverse, _strict_upper, _symmetrize, pseudoinverse
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
        if not np.all(np.isfinite(deg) & (deg >= 1)):
            raise ValueError("all degrees must be finite and >= 1")
        # Written so that a NaN volume fails the test too.
        if not abs(float(deg.sum()) - self.volume) <= 1e-9:
            raise ValueError("volume must be finite and equal the degree sum")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        _check_edge_budget(deg.size, self.m_edges)


def _check_edge_budget(n: int, m_edges: int) -> int:
    """The number of node pairs on n nodes, after checking that binarize can
    keep m_edges of them; callers check before they start any work."""
    max_edges = n * (n - 1) // 2
    if not 0 <= m_edges <= max_edges:
        raise ValueError(f"m_edges={m_edges} must lie in [0, {max_edges}]")
    return max_edges


def estimate_m_infinity(m_k: np.ndarray, k_horizon: int) -> np.ndarray:
    """Infinite-horizon proximity limit from the finite-K matrix.

    Elementwise K * exp(M_K) - 1: the finite-K matrix satisfies
    M_K = log((J + M_inf)/K) once the dropped geometric tail has decayed,
    so exponentiating and rescaling recovers M_inf directly. Formed in the
    one new buffer exp makes; m_k is not modified.
    """
    _check_horizon(k_horizon)
    m_inf = np.exp(np.asarray(m_k, dtype=np.float64))
    m_inf *= k_horizon
    m_inf -= 1.0
    return m_inf


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
    is exactly symmetric on both routes: the Cholesky inverse is (see
    _spd_inverse), and the pseudoinverse's is symmetrized to absorb its
    floating-point asymmetry. m_inf is not modified.
    """
    return _laplacian_in_place(
        np.array(m_inf, dtype=np.float64),
        np.asarray(degrees, dtype=np.float64),
        volume,
        alpha,
    )


def _laplacian_in_place(
    m_inf: np.ndarray, deg: np.ndarray, volume: float, alpha: float
) -> np.ndarray:
    """recover_laplacian on a float64 m_inf that it overwrites with Z.

    Each in-place step rounds as the out-of-place expression it replaces,
    so the bits are those of (scale * (root * (m_inf + 1) * root) + I),
    symmetrized, inverted, divided by 1-alpha, shifted by alpha/(1-alpha) on
    the diagonal and, on the pseudoinverse route, symmetrized again. The
    Cholesky inverse is exactly symmetric, and dividing every entry and
    shifting the diagonal keep it so, so there (a + a^T) / 2 would be a
    itself. Z stays intact for the pseudoinverse fallback; the Laplacian is
    written over the inverse.
    """
    n = deg.size
    if m_inf.shape != (n, n):
        raise ValueError("proximity shape does not match degree vector")
    root = np.sqrt(deg)
    z = m_inf
    z += 1.0
    z *= root[:, None]
    z *= root[None, :]
    z *= (1.0 - alpha) / (alpha * volume)
    z.flat[:: n + 1] += 1.0
    _symmetrize(z)
    lap = _spd_inverse(z)
    exact = lap is not None
    if not exact:
        lap = pseudoinverse(z)
    lap /= 1.0 - alpha
    lap.flat[:: n + 1] -= alpha / (1.0 - alpha)
    if not exact:
        _symmetrize(lap)
    return lap


def recover_adjacency(lap: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Soft adjacency scores A = D^{1/2} (I - L) D^{1/2}. lap is not
    modified."""
    return _adjacency_in_place(
        np.array(lap, dtype=np.float64), np.asarray(degrees, dtype=np.float64)
    )


def _adjacency_in_place(lap: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """recover_adjacency on a float64 lap that it overwrites and returns.

    I - L is 0 - L off the diagonal (not -L, which turns +0.0 into -0.0)
    and (0 - L) + 1 = 1 - L on it, so the bits match the out-of-place form.
    """
    root = np.sqrt(deg)
    np.subtract(0.0, lap, out=lap)
    lap.flat[:: deg.size + 1] += 1.0
    lap *= root[:, None]
    lap *= root[None, :]
    return lap


def binarize(soft_a: np.ndarray, m_edges: int) -> Graph:
    """Keep the m largest strictly-above-diagonal scores as edges.

    Ties break toward lexicographically smaller (row, col). The diagonal is
    ignored; the result has exactly m_edges undirected edges. A non-finite
    score above the diagonal is an error. The m-th largest score is found by
    partition, so only the pairs scoring at least that much are sorted:
    O(n^2) for any m. Those candidates are picked from the row-major
    above-diagonal scores, so they come in (row, col) order, as the sort
    key's last two fields do.
    """
    soft_a = np.asarray(soft_a, dtype=np.float64)
    n = soft_a.shape[0]
    if soft_a.shape != (n, n):
        raise ValueError("soft adjacency must be square")
    max_edges = _check_edge_budget(n, m_edges)
    values = _strict_upper(soft_a)
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise ValueError(
            f"soft adjacency has {bad} non-finite score(s) above the diagonal"
        )
    if m_edges == 0:
        return Graph.from_edges(n, [])
    kth = max_edges - m_edges
    picks = np.flatnonzero(values >= np.partition(values, kth)[kth])
    # Row i's pairs (i, i+1..n-1) start at position starts[i] of values.
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 1, -1))))
    rows = np.searchsorted(starts, picks, side="right") - 1
    cols = picks - starts[rows] + rows + 1
    order = np.lexsort((cols, rows, -values[picks]))[:m_edges]
    return Graph.from_edges(n, np.column_stack((rows[order], cols[order])))


def invert_analytical(inputs: AnalyticalInputs) -> Graph:
    """Full closed-form pipeline: estimate limit, recover Laplacian and
    adjacency, binarize to the original edge count. The steps after the
    limit run in place on the limit's buffer and the inverse's, so the
    Cholesky route peaks at 3 n x n arrays above the inputs, which are left
    untouched."""
    deg = np.asarray(inputs.degrees, dtype=np.float64)
    lap = _laplacian_in_place(
        estimate_m_infinity(inputs.m_k, inputs.k_horizon),
        deg,
        inputs.volume,
        inputs.alpha,
    )
    return binarize(_adjacency_in_place(lap, deg), inputs.m_edges)
