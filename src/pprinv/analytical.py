"""Closed-form adjacency recovery from a log-form proximity matrix.

The input follows the unclamped log convention of
``proximity.deepwalk_log_proximity`` (entries may be negative): the DEEPWALK
closed form before its zero clamp, given as an n x n matrix or as the
embedding pair whose product X @ Y.T approximates it. invert_analytical
inverts it directly, reading the closed form's scale from the DEEPWALK
ProximityConfig, and binarizes to the original edge count. It reads a
matrix whole and a pair one block of rows at a time (product_blocks), so a
pair's n x n product is never formed, and inverts Z in the buffer it fills:
an analytical sweep cell peaks at about 2 n x n arrays above its pair, and
a sweep whose pairs fit in the proximity's room has let the proximity go
by then. The public chain
proximity -> infinite-horizon limit -> normalized Laplacian -> adjacency
(estimate_m_infinity, recover_laplacian, recover_adjacency) is the same
inverse step by step, kept as its reference. Each step is the exact
algebraic inverse of the forward construction, so a connected graph whose
walk sum has fully decayed at the horizon is recovered exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingPair, product_blocks
from .graph import Graph
from .linalg import _spd_inverse, _strict_upper, _symmetrize, pseudoinverse
from .proximity import Preset, _check_alpha, _check_horizon, preset_config


@dataclass(frozen=True, eq=False)
class AnalyticalInputs:
    """Inputs to the closed-form recovery.

    m_k is the finite-horizon log-form proximity, an n x n matrix or the
    EmbeddingPair whose product X @ Y.T stands for it; degrees/volume
    describe the original graph (only its topology is treated as unknown);
    m_edges sets the binarization budget. Construction checks the shapes,
    degrees, volume, alpha and budget but reads no entry of m_k: the
    target's entries are checked by invert_analytical (_scaled_exp).
    """

    m_k: np.ndarray | EmbeddingPair
    degrees: np.ndarray
    volume: float
    alpha: float
    k_horizon: int
    m_edges: int

    def __post_init__(self) -> None:
        m_k = self.m_k
        shape = (len(m_k.x), len(m_k.y)) if isinstance(m_k, EmbeddingPair) else np.shape(m_k)
        n = _check_graph(self.degrees, self.volume, self.alpha).size
        if shape != (n, n):
            raise ValueError("proximity shape does not match degree vector")
        _check_edge_budget(n, self.m_edges)


def _check_graph(degrees, volume: float, alpha: float) -> np.ndarray:
    """degrees as float64, after the rules on the known graph that both
    closed-form entries check before any work: at least one degree, each
    finite and >= 1, volume their sum, and alpha in (0, 1)."""
    deg = np.asarray(degrees, dtype=np.float64)
    if deg.size == 0:
        raise ValueError("degrees must be nonempty")
    if not np.all(np.isfinite(deg) & (deg >= 1)):
        raise ValueError("all degrees must be finite and >= 1")
    # Written so that a NaN volume fails the test too.
    if not abs(float(deg.sum()) - volume) <= 1e-9:
        raise ValueError("volume must be finite and equal the degree sum")
    _check_alpha(alpha)
    return deg


def _log_rows(m_k: np.ndarray | EmbeddingPair):
    """AnalyticalInputs.m_k as (rows, block) pairs: a pair's product_blocks,
    or a matrix as one block of all its rows (every step of the fill is
    elementwise, so a block's bits do not depend on where it was cut)."""
    if isinstance(m_k, EmbeddingPair):
        return product_blocks(m_k)
    return [(slice(None), np.asarray(m_k, dtype=np.float64))]


def _scaled_exp(m_k: np.ndarray | EmbeddingPair, root: np.ndarray, scale: float,
                z: np.ndarray) -> None:
    """Fill z with D^{1/2} (exp(M_K)/s) D^{1/2} for root = sqrt(deg), from
    _log_rows one block at a time by the whole-matrix steps in their order,
    so no block outlives the fill. The target is checked here, in one pass
    for either kind: its non-finite entries, counted over every block, are
    an error, and so is a finite entry whose scaled exponential overflows:
    the fill stops at the first overflow, and only then are such entries
    counted, by the same steps."""
    bad = 0
    try:
        for rows, block in _log_rows(m_k):
            bad += np.count_nonzero(~np.isfinite(block))
            with np.errstate(over="raise"):
                z_rows = np.exp(block, out=z[rows])
                z_rows *= root[rows, None]
                z_rows *= root[None, :]
                z_rows /= scale
    except FloatingPointError:
        with np.errstate(over="ignore"):
            over = sum(np.count_nonzero(np.isinf(np.exp(b) * root[r, None] * root / scale)
                                        & np.isfinite(b)) for r, b in _log_rows(m_k))
        raise ValueError(
            f"proximity m_k has {over} finite entries whose exponential overflows"
        ) from None
    if bad:
        raise ValueError(f"proximity m_k has {bad} non-finite entries")


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
    Z = ((1-alpha) L + alpha I)^{-1}: rebuild Z, invert it in its own buffer
    (_inverse), and peel off the alpha shift. The result is exactly
    symmetric: dividing and shifting the diagonal keep the in-place inverse
    so, and the pseudoinverse route symmetrizes it. The peak is Z and the
    inverse's scratch (about n^2/2 doubles at large n); m_inf is not
    modified. The degrees, volume and alpha are checked first, as
    AnalyticalInputs checks them.
    """
    root = np.sqrt(_check_graph(degrees, volume, alpha))
    n = root.size
    if np.shape(m_inf) != (n, n):
        raise ValueError("proximity shape does not match degree vector")

    def fill(z):
        np.copyto(z, m_inf)
        z += 1.0
        z *= root[:, None]
        z *= root[None, :]
        z *= (1.0 - alpha) / (alpha * volume)
        z.flat[:: n + 1] += 1.0

    lap = np.empty((n, n))
    fill(lap)
    exact = _inverse(lap, fill)
    lap /= 1.0 - alpha
    lap.flat[:: n + 1] -= alpha / (1.0 - alpha)
    if not exact:
        _symmetrize(lap)
    return lap


def _inverse(z: np.ndarray, fill: Callable[[np.ndarray], None]) -> bool:
    """Symmetrize z in place and write its inverse over it (_spd_inverse,
    exactly symmetric), else the pseudoinverse: a noisy low-rank target can
    make z indefinite or near singular. The in-place attempt leaves z spent,
    so fill(z) writes the same Z into it again first. Returns whether the
    in-place inverse held."""
    _symmetrize(z)
    if _spd_inverse(z):
        return True
    fill(z)
    _symmetrize(z)
    z[...] = pseudoinverse(z)
    return False


def recover_adjacency(lap: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Soft adjacency scores A = D^{1/2} (I - L) D^{1/2}. lap is not
    modified. I - L is 0 - L off the diagonal (not -L, which turns +0.0
    into -0.0) and (0 - L) + 1 = 1 - L on it."""
    root = np.sqrt(np.asarray(degrees, dtype=np.float64))
    if np.shape(lap) != (root.size, root.size):
        raise ValueError("laplacian shape does not match degree vector")
    a = np.subtract(0.0, np.asarray(lap, dtype=np.float64))
    a.flat[:: root.size + 1] += 1.0
    a *= root[:, None]
    a *= root[None, :]
    return a


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
    """The closed form's direct inverse: with s = b/(epsilon*K) from the
    DEEPWALK config, invert Z = D^{1/2} (exp(M_K)/s) D^{1/2} + alpha I
    (_inverse) and binarize the scores -D^{1/2} Z^{-1} D^{1/2}. Z is alpha
    times the chain's, so both take the same route, and off the diagonal the
    scores are the chain's soft adjacency times (1-alpha)/alpha, up to
    round-off. Z is filled one block of M_K's rows at a time (_scaled_exp),
    so a pair's Z is bit for bit the one its reconstruct_proximity gives,
    and its product is never held. Z is inverted and scaled in its own
    buffer, so the peak is about 2 n x n arrays above the inputs (Z, then
    binarize's gather beside the scores), which are left untouched."""
    root = np.sqrt(np.asarray(inputs.degrees, dtype=np.float64))
    n = root.size
    scale = preset_config(Preset.DEEPWALK, alpha=inputs.alpha,
                          k_horizon=inputs.k_horizon, volume=inputs.volume).scale

    def fill(z):
        _scaled_exp(inputs.m_k, root, scale, z)
        z.flat[:: n + 1] += inputs.alpha

    scores = np.empty((n, n))
    fill(scores)
    if not _inverse(scores, fill):
        _symmetrize(scores)
    scores *= root[:, None]
    scores *= -root[None, :]
    return binarize(scores, inputs.m_edges)
