"""Gradient-based adjacency recovery.

Treats a symmetric logit matrix as the trainable soft adjacency B, matches
the graph volume each epoch with a scalar Newton-solved logistic shift, and
descends the squared Frobenius gap to the target proximity from the forward
model (OptConfig.model): the STRAP preset at twice the optimizer's epsilon,
evaluated on T = D^-1 B (D the soft row sums) by the kernel build_proximity
uses. So a STRAP embedding built at epsilon is inverted at epsilon / 2.

Per epoch the shift solve reads only the strict upper triangle of the logits
and warm-starts from the previous epoch's shift. One symmetric
eigendecomposition of the soft transition matrix serves both passes: the
forward evaluates the walk sum on its spectrum (one matmul), and the
backward chains the adjoints that sit beside each forward step in
proximity (activation, closed form, walk sum: four matmuls) and then this
module's own: row normalization and the logistic. An epoch runs in place on
the buffers it already holds, whatever the horizon K: by tracemalloc an
invert_optimize call peaks at 8.0 n^2 doubles above its target (pinned at
<= 8.25 n^2 at n = 300), at a later epoch's loss: the logits, both Adam
moments, B, the eigenvectors, the forward's output, its activation and the
loss's squares. LAPACK's eigh workspace (about 3 n^2 more, with its copy of
the input) is malloc'd outside tracemalloc's view and shows in RSS only.
forward_proximity and gradient keep Horner's scheme (K matmuls) instead, as
the loop's finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .analytical import _check_edge_budget, binarize
from .graph import Graph
from .linalg import _similar_eigh, _strict_upper
from .proximity import (
    ProximityConfig,
    _activation_adjoint,
    _apply_activation,
    _check_alpha,
    _closed_form,
    _degree_adjoint,
    _horner,
    _spectral_walk_sum,
    _spectral_walk_sum_adjoint,
    hop_coefficients,
    preset_config,
)


# Entries of the logistic's chunk: its two temporaries take 512 KiB each.
_SIGMOID_CHUNK = 1 << 16


@dataclass(frozen=True)
class OptConfig:
    """Optimization-method settings, frozen: dataclasses.replace checks anew.

    target_volume is the off-diagonal mass the soft adjacency is held to
    (vol(G) = 2m of the graph being recovered). epsilon is half a STRAP
    embedding's: model, built once here, is STRAP at 2 * epsilon (5e-8 fits
    the CLI's default 1e-7). The CLI's optimizer flags default to these
    fields. The step is Adam-style with per-parameter moments. No randomness
    is drawn: the logits start at zero, so seed does not change the result.
    """

    target_volume: float
    alpha: float
    epochs: int = 40
    newton_iters: ClassVar[int] = 10
    epsilon: float = 5e-8
    k_horizon: int = 10
    step_size: float = 0.3
    seed: int = 0
    model: ProximityConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(
                f"step_size must be positive and finite, got {self.step_size}")
        _check_alpha(self.alpha)
        model = _forward_model(self.alpha, self.epsilon, self.k_horizon)  # checks epsilon, K
        object.__setattr__(self, "model", model)


@dataclass
class OptState:
    """A point at which to take the gradient: shared symmetric logits, their
    volume shift and the derived soft adjacency B = sigmoid(logits + shift)
    with zero diagonal."""

    logits: np.ndarray
    shift: float
    b_soft: np.ndarray


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    graph: Graph
    losses: tuple[float, ...] = field(repr=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic of x, written over x (a contiguous array the caller owns)
    one chunk of _SIGMOID_CHUNK entries at a time, and returned."""
    # exp(-|x|) never overflows, and both branches of the logistic share it:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below.
    flat = x.reshape(-1)
    for start in range(0, flat.size, _SIGMOID_CHUNK):
        part = flat[start:start + _SIGMOID_CHUNK]
        e = np.abs(part)
        np.negative(e, out=e)
        np.exp(e, out=e)
        numerator = np.where(part >= 0, 1.0, e)
        e += 1.0
        np.divide(numerator, e, out=part)
    return x


def _soft_adjacency(
    logits: np.ndarray, shift: float, out: np.ndarray | None = None
) -> np.ndarray:
    """B = sigmoid(logits + shift) with zero diagonal, into out when given
    (an n x n buffer whose contents are spent), else into a new array."""
    b = _sigmoid(np.add(logits, shift, out=out))
    np.fill_diagonal(b, 0.0)
    return b


def volume_shift(
    logits: np.ndarray, target_volume: float, newton_iters: int, start: float = 0.0
) -> float:
    """Scalar shift s with sum(sigmoid(logits + s)) = target over off-diagonal
    entries, found by Newton iteration from s = start.

    The logits must be symmetric: only the strict upper triangle is read, and
    each of its entries stands for both (u, v) and (v, u), so every total and
    slope is taken on the half problem against target_volume / 2.

    The map s -> sum(B) is strictly increasing with derivative
    sum(B * (1 - B)). When the logits saturate the derivative collapses and a
    raw Newton step can overshoot by orders of magnitude, so steps that leave
    the bracketing interval fall back to bisection. Logits so saturated that
    no |s| <= 1e9 brackets the target raise ValueError, and so does a shift
    that after newton_iters iterations still misses the target by more than
    1e-8 relative (as when the logits are so large that float spacing in
    logits + s is coarser than the target needs).
    """
    upper = _strict_upper(logits)
    capacity = 2 * upper.size
    if not 0.0 < target_volume < capacity:
        raise ValueError(
            f"target volume {target_volume} infeasible for {capacity} "
            "off-diagonal entries"
        )
    half = target_volume / 2.0
    tolerance = 0.5e-12 * max(1.0, target_volume)

    b = _sigmoid(upper + start)
    # Step away from start toward the target, doubling the step, until the
    # far end passes the target; the last two ends bracket it.
    sign = 1.0 if b.sum() < half else -1.0
    step, near, far = 1.0, start, start + sign
    while sign * (half - float(_sigmoid(upper + far).sum())) > 0.0:
        if sign * far > 1e9:
            bound = "s <= 1e9" if sign > 0 else "s >= -1e9"
            raise ValueError(f"target volume {target_volume} infeasible for {bound}")
        step *= 2.0
        near, far = far, start + sign * step
    lo, hi = min(near, far), max(near, far)

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
        # A zero or underflowing slope makes the step infinite: bisection.
        with np.errstate(over="ignore", divide="ignore"):
            candidate = s + residual / (b * (1.0 - b)).sum()
        s = candidate if lo < candidate < hi else (lo + hi) / 2.0
        b = _sigmoid(upper + s)
    else:
        missed = abs(half - b.sum()) / half
        if not missed <= 1e-8:  # a NaN logit leaves missed NaN
            raise ValueError(
                f"volume shift misses target volume {target_volume} by "
                f"{missed:.3g} (relative) after {newton_iters} Newton iterations"
            )
    return s


def _row_sums(b_soft: np.ndarray) -> np.ndarray:
    row_sums = b_soft.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise ValueError("soft adjacency has an all-zero row")
    return row_sums


def _forward_model(alpha: float, epsilon: float, k_horizon: int) -> ProximityConfig:
    """The closed form the optimizer fits: STRAP at 2 * epsilon, of scale 1/epsilon."""
    return preset_config("strap", alpha=alpha, epsilon=2.0 * epsilon, k_horizon=k_horizon)


def _forward(b_soft: np.ndarray, row_sums: np.ndarray, model: ProximityConfig) -> np.ndarray:
    """The model's closed form on T = D^-1 B, D = diag(row_sums), before
    activation; its walk sum by Horner's scheme is the loop's oracle."""
    walk = _horner(b_soft / row_sums[:, None], hop_coefficients(model))
    return _closed_form(walk, row_sums, model)


def forward_proximity(
    b_soft: np.ndarray, alpha: float, epsilon: float, k_horizon: int
) -> np.ndarray:
    """Log-form walk proximity of a soft adjacency.

    Row-normalizes B by its own row sums and evaluates the optimizer's
    forward model, max{0, log((1/epsilon) sum_i alpha (1-alpha)^i T^i)},
    by Horner's scheme. This is the finite-difference oracle for the
    optimizer, whose loop takes the same sum from T's spectrum.
    """
    b_soft = np.asarray(b_soft, dtype=np.float64)
    model = _forward_model(alpha, epsilon, k_horizon)
    return _apply_activation(_forward(b_soft, _row_sums(b_soft), model), model.activation)


def _check_shapes(m_hat: np.ndarray, m_target: np.ndarray) -> None:
    if m_hat.shape != m_target.shape:
        raise ValueError(f"shape mismatch: {m_hat.shape} vs {m_target.shape}")


def _sum_of_squares(diff: np.ndarray) -> float:
    return float(np.sum(diff * diff))


def loss(m_hat: np.ndarray, m_target: np.ndarray) -> float:
    """Squared Frobenius distance between proximity matrices."""
    _check_shapes(m_hat, m_target)
    return _sum_of_squares(m_hat - m_target)


def _loss_and_gradient(
    b_soft: np.ndarray, m_target: np.ndarray, model: ProximityConfig,
    *, horner: bool = False,
) -> tuple[float, np.ndarray]:
    """Loss of m_hat = act(s), s = _forward(B), for a LOG or IDENTITY model,
    and its gradient w.r.t. the shared logits from one eig = _similar_eigh(B):
    the spectral forward (Horner when horner), then the chain of proximity's
    adjoints, row normalization with the D term, and the logistic. A target
    of another shape fails before the eig. Past the eig, the backward runs in
    place on two n x n buffers, the forward's output and its activation, and
    returns the gradient in the second: with the eigenvectors and the loss's
    squares the call holds four n x n arrays beside B, for any K."""
    _check_shapes(b_soft, m_target)
    row_sums = _row_sums(b_soft)
    s_mat = np.empty_like(b_soft)  # the eig's S, then the forward's output
    eig = _similar_eigh(b_soft, row_sums, out=s_mat)
    coeffs = hop_coefficients(model)
    s_mat = (_forward(b_soft, row_sums, model) if horner else _closed_form(
        _spectral_walk_sum(eig, coeffs, out=s_mat), row_sums, model))
    g_s = _apply_activation(s_mat, model.activation)  # m_hat, then its adjoint
    g_s -= m_target
    value = _sum_of_squares(g_s)
    g_s *= 2.0
    _activation_adjoint(g_s, s_mat, model.activation)
    degree_term = _degree_adjoint(g_s, s_mat, model)
    # s_mat is spent: the scratch of every step from here on.
    g_t, round_off = _spectral_walk_sum_adjoint(
        eig, coeffs, _closed_form(g_s, row_sums, model), s_mat)
    # g_b divides V X V^T's round-off by r_i r_j >= min D; the logistic's slope
    # is <= 1/4 and grad sums two terms. A gradient within that is round-off
    # of an exact zero, returned as 0.
    noise = round_off / row_sums.min()
    # T = D^-1 B gives (G_T - rowsum(G_T o T)) / D; D^beta, D^gamma join the row term.
    weighted = np.multiply(g_t, b_soft, out=s_mat).sum(axis=1) / row_sums - degree_term
    g_b = g_t
    g_b -= weighted[:, None]
    g_b /= row_sums[:, None]
    g_logit = np.subtract(1.0, b_soft, out=s_mat)  # B (1 - B) G_B
    g_logit *= b_soft
    g_logit *= g_b
    grad = np.add(g_logit, g_logit.T, out=g_b)
    np.fill_diagonal(grad, 0.0)
    if max(grad.max(), -grad.min()) <= 0.5 * noise:
        grad[:] = 0.0
    return value, grad


def gradient(state: OptState, m_target: np.ndarray, cfg: OptConfig) -> np.ndarray:
    """Gradient of the loss w.r.t. the shared symmetric logits.

    The epoch's shift is held fixed (no gradient flows through the Newton
    solve); clamped proximity entries contribute zero subgradient; the
    (u,v)/(v,u) logit pair shares one parameter, so their adjoints sum.
    The loss is that of forward_proximity (Horner), so finite differences
    of it check this gradient; the backward is the optimizer loop's own.
    """
    return _loss_and_gradient(state.b_soft, m_target, cfg.model, horner=True)[1]


def _adam_step(
    logits: np.ndarray, grad: np.ndarray, adam_m: np.ndarray, adam_v: np.ndarray,
    epoch: int, step_size: float, scratch: np.ndarray,
) -> None:
    """One bias-corrected Adam step (0.9, 0.999, 1e-8) at epoch t, written
    over logits and the moments m, v with the bits of the textbook
    m = 0.9 m + (1 - 0.9) g, v = 0.999 v + (1 - 0.999) g g,
    logits -= step_size (m / (1 - 0.9^t)) / (sqrt(v / (1 - 0.999^t)) + 1e-8),
    each product and quotient in that order; grad g and scratch (n x n,
    contents spent) hold the temporaries, so the step allocates nothing."""
    beta1, beta2, tiny = 0.9, 0.999, 1e-8
    adam_m *= beta1
    adam_m += np.multiply(1.0 - beta1, grad, out=scratch)
    adam_v *= beta2
    step = np.multiply(1.0 - beta2, grad, out=scratch)
    step *= grad
    adam_v += step
    step = np.divide(adam_m, 1.0 - beta1**epoch, out=scratch)
    step *= step_size
    denominator = np.divide(adam_v, 1.0 - beta2**epoch, out=grad)
    np.sqrt(denominator, out=denominator)
    denominator += tiny
    step /= denominator
    logits -= step


def invert_optimize(
    m_target: np.ndarray, cfg: OptConfig, m_edges: int
) -> OptimizeResult:
    """Recover a graph whose walk proximity matches m_target.

    From zero logits, per epoch: rebuild B from the logits and the current
    volume shift, evaluate the loss and its reverse-mode gradient from one
    eigendecomposition, take a bias-corrected Adam step (0.9, 0.999, 1e-8)
    on the logits, whose diagonal stays 0 as the gradient's is 0, and
    re-solve the shift from its last value; a gradient at round-off level
    takes no step and leaves the moments alone. Each epoch's loss agrees with
    loss(forward_proximity(B, ...), m_target) to round-off. After the final
    epoch the soft adjacency binarizes to exactly m_edges edges. A budget
    of every pair forces the answer: it is returned with no epoch run.
    """
    m_target = np.asarray(m_target, dtype=np.float64)
    n = m_target.shape[0]
    if m_target.shape != (n, n):
        raise ValueError("target proximity must be square")
    max_edges = _check_edge_budget(n, m_edges)
    if bad := np.count_nonzero(~np.isfinite(m_target)):
        raise ValueError(f"target proximity has {bad} non-finite entries")
    logits = np.zeros((n, n))
    if 0 < m_edges == max_edges:
        return OptimizeResult(graph=binarize(logits, m_edges), losses=())
    adam_m = adam_v = grad = None
    losses = []
    # Each later solve warm-starts from the previous epoch's shift, which the
    # step moves little.
    shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters)
    for epoch in range(1, cfg.epochs + 1):
        # The last epoch's gradient is spent: B is built in its buffer.
        b_soft = _soft_adjacency(logits, shift, out=grad)
        epoch_loss, grad = _loss_and_gradient(b_soft, m_target, cfg.model)
        losses.append(epoch_loss)
        if grad.any():  # round-off comes back as 0: no step, so none later either
            if adam_m is None:  # zero arrays step as the scalar 0.0 would, bit for bit
                adam_m, adam_v = np.zeros((n, n)), np.zeros((n, n))
            _adam_step(logits, grad, adam_m, adam_v, epoch, cfg.step_size, b_soft)
            shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters, shift)
    recovered = binarize(_soft_adjacency(logits, shift, out=grad), m_edges)
    return OptimizeResult(graph=recovered, losses=tuple(losses))
