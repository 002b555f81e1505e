"""Gradient-based adjacency recovery.

Treats a symmetric logit matrix as the trainable soft adjacency, matches the
graph volume each epoch with a scalar Newton-solved logistic shift, rebuilds
the log-form walk proximity from the soft adjacency, and descends the
squared Frobenius gap to the target proximity.

Per epoch the shift solve reads only the strict upper triangle of the logits
and warm-starts from the previous epoch's shift. The forward pass evaluates
the walk sum by Horner's scheme, K matmuls, keeping only the last partial.
The backward pass is hand-written reverse mode through the log clamp, the
walk sum (its spectral adjoint: one symmetric eigendecomposition and four
matmuls), row normalization and the logistic. Memory per epoch is O(n^2)
whatever the horizon K.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

import numpy as np

from .analytical import binarize
from .graph import Graph
from .proximity import (
    ProximityConfig,
    _normal_prefix,
    _similar_eigh,
    _walk_partials,
    hop_coefficients,
)

_ROW_SUM_FLOOR = 1e-12


@dataclass
class OptConfig:
    """Optimization-method settings.

    target_volume is the off-diagonal mass the soft adjacency is held to
    (vol(G) = 2m of the graph being recovered). The step is Adam-style with
    per-parameter moments. No randomness is drawn: the logits start at zero,
    so seed does not change the result.
    """

    target_volume: float
    alpha: float
    epochs: int = 40
    newton_iters: int = 10
    epsilon: float = 1e-7
    k_horizon: int = 10
    step_size: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.newton_iters < 1:
            raise ValueError("newton_iters must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.k_horizon < 0:
            raise ValueError("k_horizon must be >= 0")


@dataclass
class OptState:
    """Mutable per-run state: shared symmetric logits and the derived
    soft adjacency B = sigmoid(logits + shift) with zero diagonal."""

    logits: np.ndarray
    shift: float = 0.0
    b_soft: np.ndarray | None = None


@dataclass(frozen=True)
class OptimizeResult:
    graph: Graph
    losses: tuple[float, ...] = field(repr=False)
    soft_adjacency: np.ndarray = field(repr=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows, and both branches of the logistic share it:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _soft_adjacency(logits: np.ndarray, shift: float) -> np.ndarray:
    b = _sigmoid(logits + shift)
    np.fill_diagonal(b, 0.0)
    return b


def volume_shift(logits: np.ndarray, target_volume: float, newton_iters: int) -> float:
    """Scalar shift s with sum(sigmoid(logits + s)) = target over off-diagonal
    entries, found by Newton iteration from s = 0.

    The logits must be symmetric: only the strict upper triangle is read, and
    each of its entries stands for both (u, v) and (v, u).

    The map s -> sum(B) is strictly increasing with derivative
    sum(B * (1 - B)). When the logits saturate the derivative collapses and a
    raw Newton step can overshoot by orders of magnitude, so steps that leave
    the bracketing interval fall back to bisection. Logits so saturated that
    no |s| <= 1e9 brackets the target raise ValueError, and so does a shift
    that after newton_iters iterations still misses the target by more than
    1e-8 relative (as when the logits are so large that float spacing in
    logits + s is coarser than the target needs).
    """
    upper = logits[np.triu_indices(logits.shape[0], 1)]
    return _solve_shift(upper, target_volume, newton_iters, 0.0)


def _solve_shift(
    upper: np.ndarray, target_volume: float, newton_iters: int, start: float
) -> float:
    """volume_shift over the strict upper triangle of the logits, with the
    bracket search and Newton started at `start` instead of 0.

    Each upper entry counts twice in the volume, so every total and slope is
    taken on the half problem against target_volume / 2.
    """
    capacity = 2 * upper.size
    if not 0.0 < target_volume < capacity:
        raise ValueError(
            f"target volume {target_volume} infeasible for {capacity} "
            "off-diagonal entries"
        )
    half = target_volume / 2.0
    tolerance = 0.5e-12 * max(1.0, target_volume)

    def total(s: float) -> float:
        return float(_sigmoid(upper + s).sum())

    b = _sigmoid(upper + start)
    t0 = float(b.sum())
    step = 1.0
    if t0 < half:
        lo, hi = start, start + step
        while total(hi) < half:
            if hi > 1e9:
                raise ValueError(f"target volume {target_volume} infeasible for s <= 1e9")
            step *= 2.0
            lo, hi = hi, start + step
    elif t0 > half:
        lo, hi = start - step, start
        while total(lo) > half:
            if lo < -1e9:
                raise ValueError(f"target volume {target_volume} infeasible for s >= -1e9")
            step *= 2.0
            lo, hi = start - step, lo
    else:
        return start

    s = start
    for _ in range(newton_iters):
        current = b.sum()
        residual = half - current
        if abs(residual) <= tolerance:
            break
        if current < half:
            lo = max(lo, s)
        else:
            hi = min(hi, s)
        slope = (b * (1.0 - b)).sum()
        if slope > 0.0:
            candidate = s + residual / slope
        else:
            candidate = lo - 1.0  # force bisection
        s = candidate if lo < candidate < hi else (lo + hi) / 2.0
        b = _sigmoid(upper + s)
    else:
        missed = abs(half - b.sum()) / half
        if missed > 1e-8:
            raise ValueError(
                f"volume shift misses target volume {target_volume} by "
                f"{missed:.3g} (relative) after {newton_iters} Newton iterations"
            )
    return s


@dataclass(frozen=True)
class _ForwardTrace:
    t: np.ndarray
    row_sums: np.ndarray
    coeffs: np.ndarray
    s_mat: np.ndarray
    m_hat: np.ndarray
    unclamped: np.ndarray


def _forward(b_soft: np.ndarray, alpha: float, epsilon: float, k_horizon: int) -> _ForwardTrace:
    row_sums = b_soft.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise ValueError("soft adjacency has an all-zero row")
    row_sums = np.maximum(row_sums, _ROW_SUM_FLOOR)
    t = b_soft / row_sums[:, None]
    coeffs = _normal_prefix(hop_coefficients(
        ProximityConfig.constant_alpha(
            alpha, b=1.0, k_horizon=k_horizon, epsilon=epsilon
        )
    ))
    s_mat = collections.deque(_walk_partials(t, coeffs), maxlen=1).pop() / epsilon
    unclamped = s_mat > 1.0
    m_hat = np.zeros_like(s_mat)
    m_hat[unclamped] = np.log(s_mat[unclamped])
    return _ForwardTrace(
        t=t, row_sums=row_sums, coeffs=coeffs, s_mat=s_mat, m_hat=m_hat,
        unclamped=unclamped,
    )


def forward_proximity(
    b_soft: np.ndarray, alpha: float, epsilon: float, k_horizon: int
) -> np.ndarray:
    """Log-form walk proximity of a soft adjacency.

    Row-normalizes B by its own row sums, evaluates
    (1/epsilon) * sum_i alpha (1-alpha)^i T^i by Horner's scheme, and
    returns max{0, log(.)} elementwise.
    """
    return _forward(np.asarray(b_soft, dtype=np.float64), alpha, epsilon, k_horizon).m_hat


def loss(m_hat: np.ndarray, m_target: np.ndarray) -> float:
    """Squared Frobenius distance between proximity matrices."""
    if m_hat.shape != m_target.shape:
        raise ValueError(f"shape mismatch: {m_hat.shape} vs {m_target.shape}")
    diff = m_hat - m_target
    return float(np.sum(diff * diff))


def _divided_differences(lam: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Gamma_ij = (f(lam_i) - f(lam_j)) / (lam_i - lam_j) for the polynomial
    f(x) = sum_k c_k x^k, which is f'(lam_i) where lam_i = lam_j.

    Horner's scheme h_k(x) = c_k + x h_{k+1}(x) carries the divided
    difference along as [h_k](a, b) = h_{k+1}(a) + b [h_{k+1}](a, b). No
    nearby values are subtracted, so clustered and repeated eigenvalues are
    as accurate as separated ones.
    """
    h = np.full_like(lam, coeffs[-1])
    gamma = np.zeros((lam.size, lam.size))
    for c in coeffs[-2::-1]:
        gamma *= lam[None, :]
        gamma += h[:, None]
        h = c + lam * h
    return gamma


def _walk_sum_adjoint(
    b_soft: np.ndarray, row_sums: np.ndarray, coeffs: np.ndarray, g_h: np.ndarray
) -> np.ndarray:
    """Adjoint of T -> f(T) = sum_i c_i T^i at T = D^-1 B, applied to g_h.

    With R = D^(1/2), S = R^-1 B R^-1 is symmetric and T = R^-1 S R. For
    S = V diag(lam) V^T the Daleckii-Krein formula gives the adjoint
    R V (Gamma o (V^T E V)) V^T R^-1 with E = R^-1 g_h R: one eigh and four
    matmuls for any horizon K.
    """
    lam, v, ratio = _similar_eigh(b_soft, row_sums)
    inner = v.T @ (g_h * ratio) @ v
    inner *= _divided_differences(lam, coeffs)
    return (v @ inner @ v.T) / ratio


def _backward(
    trace: _ForwardTrace,
    b_soft: np.ndarray,
    m_target: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Reverse mode from the loss to the shared logits: through the log
    clamp, the walk sum (_walk_sum_adjoint: one eigh and four matmuls in
    place of 2K matmuls over stored Horner partials), row normalization and
    the logistic. Every intermediate is n x n, so memory is O(n^2)."""
    g_m = 2.0 * (trace.m_hat - m_target)
    g_m[~trace.unclamped] = 0.0
    g_s = np.zeros_like(g_m)
    g_s[trace.unclamped] = g_m[trace.unclamped] / trace.s_mat[trace.unclamped]
    g_h = g_s / epsilon
    g_t = _walk_sum_adjoint(b_soft, trace.row_sums, trace.coeffs, g_h)
    weighted = (g_t * trace.t).sum(axis=1, keepdims=True)
    g_b = (g_t - weighted) / trace.row_sums[:, None]
    g_logit = b_soft * (1.0 - b_soft) * g_b
    grad = g_logit + g_logit.T
    np.fill_diagonal(grad, 0.0)
    return grad


def gradient(state: OptState, m_target: np.ndarray, cfg: OptConfig) -> np.ndarray:
    """Gradient of the loss w.r.t. the shared symmetric logits.

    The epoch's shift is held fixed (no gradient flows through the Newton
    solve); clamped proximity entries contribute zero subgradient; the
    (u,v)/(v,u) logit pair shares one parameter, so their adjoints sum.
    """
    b_soft = state.b_soft
    if b_soft is None:
        b_soft = _soft_adjacency(state.logits, state.shift)
    trace = _forward(b_soft, cfg.alpha, cfg.epsilon, cfg.k_horizon)
    return _backward(trace, b_soft, m_target, cfg.epsilon)


def invert_optimize(
    m_target: np.ndarray, cfg: OptConfig, m_edges: int
) -> OptimizeResult:
    """Recover a graph whose walk proximity matches m_target.

    Per epoch: rebuild B from the logits and the current volume shift,
    evaluate forward loss and reverse-mode gradient, step the logits, and
    re-solve the shift starting from its last value. After the final epoch
    the soft adjacency binarizes to exactly m_edges edges.
    """
    m_target = np.asarray(m_target, dtype=np.float64)
    n = m_target.shape[0]
    if m_target.shape != (n, n):
        raise ValueError("target proximity must be square")
    state = OptState(logits=np.zeros((n, n)))
    upper = np.triu_indices(n, 1)
    adam_m = np.zeros((n, n))
    adam_v = np.zeros((n, n))
    scratch = np.empty((n, n))
    beta1, beta2, tiny = 0.9, 0.999, 1e-8
    losses = []
    # Each later solve warm-starts from the previous epoch's shift, which the
    # step moves little.
    state.shift = volume_shift(state.logits, cfg.target_volume, cfg.newton_iters)
    for epoch in range(1, cfg.epochs + 1):
        state.b_soft = _soft_adjacency(state.logits, state.shift)
        trace = _forward(state.b_soft, cfg.alpha, cfg.epsilon, cfg.k_horizon)
        losses.append(loss(trace.m_hat, m_target))
        grad = _backward(trace, state.b_soft, m_target, cfg.epsilon)
        # Adam, in place, in the operation order of
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        #   logits -= step (m / c1) / (sqrt(v / c2) + tiny).
        adam_m *= beta1
        adam_m += np.multiply(1.0 - beta1, grad, out=scratch)
        np.multiply(1.0 - beta2, grad, out=scratch)
        scratch *= grad
        adam_v *= beta2
        adam_v += scratch
        np.divide(adam_m, 1.0 - beta1**epoch, out=scratch)
        scratch *= cfg.step_size
        np.divide(adam_v, 1.0 - beta2**epoch, out=grad)
        np.sqrt(grad, out=grad)
        grad += tiny
        scratch /= grad
        state.logits -= scratch
        np.fill_diagonal(state.logits, 0.0)
        state.shift = _solve_shift(
            state.logits[upper], cfg.target_volume, cfg.newton_iters, state.shift
        )
    state.b_soft = _soft_adjacency(state.logits, state.shift)
    recovered = binarize(state.b_soft, m_edges)
    return OptimizeResult(
        graph=recovered, losses=tuple(losses), soft_adjacency=state.b_soft
    )
