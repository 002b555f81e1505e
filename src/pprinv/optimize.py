"""Gradient-based adjacency recovery.

Treats a symmetric logit matrix as the trainable soft adjacency, matches the
graph volume each epoch with a scalar Newton-solved logistic shift, rebuilds
the log-form walk proximity from the soft adjacency, and descends the
squared Frobenius gap to the target proximity. The backward pass is
hand-written reverse mode through the Horner recurrence, row normalization,
and the logistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytical import binarize
from .graph import Graph
from .proximity import ProximityConfig, _walk_partials, hop_coefficients

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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _soft_adjacency(logits: np.ndarray, shift: float) -> np.ndarray:
    b = _sigmoid(logits + shift)
    np.fill_diagonal(b, 0.0)
    return b


def volume_shift(logits: np.ndarray, target_volume: float, newton_iters: int) -> float:
    """Scalar shift s with sum(sigmoid(logits + s)) = target over off-diagonal
    entries, found by Newton iteration from s = 0.

    The map s -> sum(B) is strictly increasing with derivative
    sum(B * (1 - B)). When the logits saturate the derivative collapses and a
    raw Newton step can overshoot by orders of magnitude, so steps that leave
    the bracketing interval fall back to bisection. Logits so saturated that
    no |s| <= 1e9 brackets the target raise ValueError.
    """
    n = logits.shape[0]
    capacity = n * (n - 1)
    if not 0.0 < target_volume < capacity:
        raise ValueError(
            f"target volume {target_volume} infeasible for {capacity} "
            "off-diagonal entries"
        )

    def total(s: float) -> float:
        return float(_soft_adjacency(logits, s).sum())

    lo, hi = 0.0, 0.0
    t0 = total(0.0)
    if t0 < target_volume:
        hi = 1.0
        while total(hi) < target_volume:
            if hi > 1e9:
                raise ValueError(f"target volume {target_volume} infeasible for s <= 1e9")
            lo, hi = hi, hi * 2.0
    elif t0 > target_volume:
        lo = -1.0
        while total(lo) > target_volume:
            if lo < -1e9:
                raise ValueError(f"target volume {target_volume} infeasible for s >= -1e9")
            lo, hi = lo * 2.0, lo
    else:
        return 0.0

    s = 0.0
    for _ in range(newton_iters):
        b = _soft_adjacency(logits, s)
        current = b.sum()
        residual = target_volume - current
        if abs(residual) <= 1e-12 * max(1.0, target_volume):
            break
        if current < target_volume:
            lo = max(lo, s)
        else:
            hi = min(hi, s)
        slope = (b * (1.0 - b)).sum()
        if slope > 0.0:
            candidate = s + residual / slope
        else:
            candidate = lo - 1.0  # force bisection
        s = candidate if lo < candidate < hi else (lo + hi) / 2.0
    return s


@dataclass(frozen=True)
class _ForwardTrace:
    t: np.ndarray
    row_sums: np.ndarray
    horner: list[np.ndarray]
    s_mat: np.ndarray
    m_hat: np.ndarray
    unclamped: np.ndarray


def _forward(b_soft: np.ndarray, alpha: float, epsilon: float, k_horizon: int) -> _ForwardTrace:
    row_sums = b_soft.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise ValueError("soft adjacency has an all-zero row")
    row_sums = np.maximum(row_sums, _ROW_SUM_FLOOR)
    t = b_soft / row_sums[:, None]
    coeffs = hop_coefficients(
        ProximityConfig.constant_alpha(
            alpha, b=1.0, k_horizon=k_horizon, epsilon=epsilon
        )
    )
    horner = list(_walk_partials(t, coeffs))[::-1]
    s_mat = horner[0] / epsilon
    unclamped = s_mat > 1.0
    m_hat = np.zeros_like(s_mat)
    m_hat[unclamped] = np.log(s_mat[unclamped])
    return _ForwardTrace(
        t=t, row_sums=row_sums, horner=horner, s_mat=s_mat, m_hat=m_hat,
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


def _backward(
    trace: _ForwardTrace,
    b_soft: np.ndarray,
    m_target: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    g_m = 2.0 * (trace.m_hat - m_target)
    g_m[~trace.unclamped] = 0.0
    g_s = np.zeros_like(g_m)
    g_s[trace.unclamped] = g_m[trace.unclamped] / trace.s_mat[trace.unclamped]
    g_h = g_s / epsilon
    t_transpose = trace.t.T
    g_t = np.zeros_like(trace.t)
    for i in range(len(trace.horner) - 1):
        g_t += g_h @ trace.horner[i + 1].T
        g_h = t_transpose @ g_h
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

    Per epoch: re-solve the volume shift, rebuild B, evaluate forward loss
    and reverse-mode gradient, and step the logits. After the final epoch
    the soft adjacency binarizes to exactly m_edges edges.
    """
    m_target = np.asarray(m_target, dtype=np.float64)
    n = m_target.shape[0]
    if m_target.shape != (n, n):
        raise ValueError("target proximity must be square")
    state = OptState(logits=np.zeros((n, n)))
    adam_m = np.zeros((n, n))
    adam_v = np.zeros((n, n))
    beta1, beta2, tiny = 0.9, 0.999, 1e-8
    losses = []
    for epoch in range(1, cfg.epochs + 1):
        state.shift = volume_shift(state.logits, cfg.target_volume, cfg.newton_iters)
        state.b_soft = _soft_adjacency(state.logits, state.shift)
        trace = _forward(state.b_soft, cfg.alpha, cfg.epsilon, cfg.k_horizon)
        losses.append(loss(trace.m_hat, m_target))
        grad = _backward(trace, state.b_soft, m_target, cfg.epsilon)
        adam_m = beta1 * adam_m + (1.0 - beta1) * grad
        adam_v = beta2 * adam_v + (1.0 - beta2) * grad * grad
        m_corr = adam_m / (1.0 - beta1**epoch)
        v_corr = adam_v / (1.0 - beta2**epoch)
        state.logits -= cfg.step_size * m_corr / (np.sqrt(v_corr) + tiny)
        np.fill_diagonal(state.logits, 0.0)
    state.shift = volume_shift(state.logits, cfg.target_volume, cfg.newton_iters)
    state.b_soft = _soft_adjacency(state.logits, state.shift)
    recovered = binarize(state.b_soft, m_edges)
    return OptimizeResult(
        graph=recovered, losses=tuple(losses), soft_adjacency=state.b_soft
    )
