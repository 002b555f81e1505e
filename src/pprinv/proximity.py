"""Unified PPR-based proximity construction.

One configuration type covers the whole family: a truncated random-walk sum
with per-hop stopping probabilities, degree scaling on both sides, a scalar
weight, and an elementwise activation, clamped at zero. Named presets
reproduce the proximity matrices of the published factorization methods.

The walk sum sum_i c_i P^i over a graph is evaluated one of two ways, chosen
by the size of the input. Horner's scheme over the CSR walk operator costs
about L sparse-times-dense products (L normal coefficients, nnz stored
entries each); the spectral form R^-1 V f(Lambda) V^T R (the NetMF closed
form, with S = D^-1/2 A D^-1/2 = V Lambda V^T and R = D^1/2) costs one
matmul, O(n^3) whatever the horizon, on a spectrum the graph computes once,
when a spectral walk sum first runs, and keeps (one n x n array) for every
alpha and every preset after. The spectral form is taken when L * nnz >= n^2,
and kept only when every entry clears a floor set by its round-off;
otherwise Horner runs, so exact zeros (pairs more than K hops apart, parity
on bipartite graphs) stay exact.
Horner runs the whole recurrence on one block of _ROW_BLOCK columns at a
time, for a CSR or a dense operator, so its two iterates stay in cache; on
the CSR operator the blocks give the bits of the whole-matrix recurrence.

One kernel, _closed_form, scales a walk sum f(T) over T = D^-1 B to
(b/(epsilon*K)) D^beta f(T) D^gamma, D the row sums of B: a graph's for
build_proximity; a soft adjacency's for the optimizer's ProximityConfig.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _numbers, _walk_operator
from .linalg import _ROW_BLOCK, _row_blocks

IDENTITY = "identity"
LOG = "log"
ROW_L2 = "row_l2"
_ACTIVATIONS = (IDENTITY, LOG, ROW_L2)


def _check_horizon(k_horizon: int, minimum: int = 1) -> None:
    """K is an integer (a numpy one too, not a bool) of at least minimum: 1
    wherever the scalar b/(epsilon*K) is taken, 0 for a bare walk sum."""
    if isinstance(k_horizon, bool) or not isinstance(k_horizon, (int, np.integer)):
        raise ValueError(f"k_horizon must be an integer, got {k_horizon!r}")
    if k_horizon < minimum:
        raise ValueError(f"k_horizon must be >= {minimum}, got {k_horizon}")


def _check_alpha(alpha: float) -> None:
    """A constant stopping probability in (0, 1); NaN fails too."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


class Preset(enum.Enum):
    STRAP = "strap"
    APPROX_PPR = "approxppr"
    NRP = "nrp"
    LEMANE = "lemane"
    SENSEI = "sensei"
    DEEPWALK = "deepwalk"


@dataclass(frozen=True)
class ProximityConfig:
    """Parameters of the truncated proximity matrix.

    b: scalar weight; beta/gamma: degree exponents applied on the left/right;
    k_start: first hop included in the sum; k_horizon: truncation horizon K;
    alphas: per-hop stopping probabilities, length K+1; epsilon: threshold;
    activation: elementwise transform applied before the zero clamp.
    """

    b: float
    beta: float
    gamma: float
    k_start: int
    k_horizon: int
    alphas: tuple[float, ...]
    epsilon: float
    activation: str

    def __post_init__(self) -> None:
        if not 0.0 < self.b < np.inf:
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        _check_horizon(self.k_horizon, minimum=0)
        if not 0 <= self.k_start <= self.k_horizon:
            raise ValueError("need 0 <= k_start <= k_horizon")
        if len(self.alphas) != self.k_horizon + 1:
            raise ValueError("alphas must have length k_horizon + 1")
        # The last hop may stop with probability exactly 1 (Lemane-style
        # schedules terminate the walk at the horizon).
        if any(not 0.0 < a <= 1.0 for a in self.alphas):
            raise ValueError("stopping probabilities must lie in (0, 1]")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def scale(self) -> float:
        """The scalar b/(epsilon*K) in front of the walk sum; finite, positive."""
        _check_horizon(self.k_horizon)
        scale = self.b / (self.epsilon * self.k_horizon)
        if not 0.0 < scale < np.inf:
            raise ValueError(f"scale b/(epsilon*K) = {scale} not finite and positive")
        return scale


def hop_coefficients(cfg: ProximityConfig) -> np.ndarray:
    """Walk-stop weights c_l = alpha_l * prod_{j<l}(1 - alpha_j), for
    l = 0..L, where L is the last hop whose weight is a normal float (L = 0
    when none is).

    Hops below k_start get coefficient 0. For a constant schedule this is
    the geometric alpha * (1-alpha)^l. The subnormal tail is dropped: such a
    c_l adds less than 2^-1022 to an entry of a stochastic walk sum, far
    below the 1 under which the log activation clamps to 0, and a Horner
    scheme started there would push subnormals through every product,
    which is several times slower.
    """
    coeffs = np.zeros(cfg.k_horizon + 1)
    survive = 1.0
    for l, alpha in enumerate(cfg.alphas):
        if l >= cfg.k_start:
            coeffs[l] = alpha * survive
        survive *= 1.0 - alpha
    normal = np.flatnonzero(coeffs >= np.finfo(np.float64).tiny)
    return coeffs[: (normal[-1] if normal.size else 0) + 1]


def _horner(p, coeffs: np.ndarray) -> np.ndarray:
    """The walk sum sum_i c_i p^i by Horner's scheme, H <- c_i I + p @ H,
    over a square walk operator p, scipy CSR or dense, and hop_coefficients
    (so no subnormal tail is pushed). Each step p @ H is dense either way.

    Column j of the sum depends only on column j of I, so the recurrence
    runs on one block of _ROW_BLOCK columns at a time, whose two iterates
    (1.6 MB each at n=1600) stay in L2: the n=1600 CSR walk sum fell from 81
    to 71 ms (2-core x86_64 VM). csr @ dense sums each entry over its row's
    stored entries in order, whatever the block width, so on a CSR p the
    blocks give the bits of the whole-matrix recurrence; GEMM on a dense p
    promises only round-off agreement.
    """
    n = p.shape[0]
    walk = np.empty((n, n))
    for start in range(0, n, _ROW_BLOCK):
        cols = np.arange(start, min(start + _ROW_BLOCK, n))
        diag = cols, cols - start
        h = np.zeros((n, cols.size))
        h[diag] = coeffs[-1]
        for c in coeffs[-2::-1]:
            h = p @ h
            h[diag] += c
        walk[:, start:start + cols.size] = h
    return walk


# Round-off in V f(lam) V^T is absolute: every entry, whatever its size,
# carries an error of up to a few eps * max|f(lam)| (at most 8.3 measured on
# ER graphs, n = 50..800, alpha = 0.01..0.9, K = 10..1000). A walk-sum entry
# that is exactly zero comes back as that noise, of either sign, and a small
# positive one keeps only noise / entry relative accuracy. An entry at least
# _SPECTRAL_FLOOR times that scale is good to ~1e-9 relative or better, which
# the log activations need; the smallest entry of the n=400, K=2000
# exact-recovery graphs sits ~9e10 times above the scale.
_SPECTRAL_FLOOR = 1e10


def _by_ratio(op, x: np.ndarray, r: np.ndarray) -> None:
    """x = op(x, ratio) in place, ratio[i, j] = r_j / r_i: np.multiply gives
    R^-1 X R = X o ratio, np.divide R X R^-1. One block of _ROW_BLOCK rows
    of the ratio at a time, each entry's bits those of the whole n x n one."""
    for rows in _row_blocks(len(x)):
        op(x[rows], r[None, :] / r[rows, None], out=x[rows])


def _spectral_walk_sum(eig, coeffs: np.ndarray, *, guard: bool = False,
                       out: np.ndarray | None = None):
    """f(T) = (V f(lam) V^T) o ratio (see _by_ratio) for eig = (lam, V, r) of
    linalg._similar_eigh(B, D), with f(x) = sum_i c_i x^i by Horner's scheme
    on the eigenvalues, into out when given (an n x n buffer whose contents
    are spent), else a new array; with guard, None when some entry does not
    clear the round-off floor."""
    lam, v, r = eig
    f = np.full_like(lam, coeffs[-1])
    for c in coeffs[-2::-1]:
        f *= lam
        f += c
    x = np.matmul(v * f, v.T, out=out)
    if guard and x.min() < _SPECTRAL_FLOOR * np.finfo(np.float64).eps * np.abs(f).max():
        return None
    _by_ratio(np.multiply, x, r)
    return x


def _divided_differences(lam_rows: np.ndarray, lam: np.ndarray, coeffs: np.ndarray):
    """Gamma_ij = (f(lam_i) - f(lam_j)) / (lam_i - lam_j), f'(lam_i) where
    lam_i = lam_j, for f(x) = sum_k c_k x^k, lam_i in lam_rows and lam_j in
    lam: the rows of Gamma for lam_rows, each row's bits the same whichever
    rows are asked for. Horner's h_k = c_k + x h_{k+1} carries it as
    [h_k](a, b) = h_{k+1}(a) + b [h_{k+1}](a, b), subtracting no nearby
    values: clustered eigenvalues are as accurate as separated."""
    h = np.full_like(lam_rows, coeffs[-1])
    gamma = np.zeros((lam_rows.size, lam.size))
    for c in coeffs[-2::-1]:
        gamma *= lam[None, :]
        gamma += h[:, None]
        h = c + lam_rows * h
    return gamma


def _spectral_walk_sum_adjoint(eig, coeffs: np.ndarray, grad: np.ndarray,
                               scratch: np.ndarray):
    """dL/dT for grad = dL/df(T), written over grad: by Daleckii-Krein,
    R V (Gamma o (V^T (R^-1 grad R) V)) V^T R^-1 (four matmuls for any K),
    and the absolute round-off n eps max|X| of V X V^T, X the middle factor.
    Each product is taken left to right, out of place between grad and
    scratch (an n x n buffer whose contents are spent); Gamma and the ratio
    are applied one block of _ROW_BLOCK rows at a time. So the adjoint adds
    no n x n array to the two it is given."""
    lam, v, r = eig
    _by_ratio(np.multiply, grad, r)
    inner = np.matmul(np.matmul(v.T, grad, out=scratch), v, out=grad)
    peaks = []
    for rows in _row_blocks(lam.size):
        block = inner[rows]
        block *= _divided_differences(lam[rows], lam, coeffs)
        peaks.append(np.abs(block).max())
    round_off = lam.size * np.finfo(np.float64).eps * np.max(peaks)
    g_t = np.matmul(np.matmul(v, inner, out=scratch), v.T, out=grad)
    _by_ratio(np.divide, g_t, r)
    return g_t, round_off


def truncated_ppr(g: Graph, cfg: ProximityConfig) -> np.ndarray:
    """Sum of c_i * P^i for i in [k_start, K].

    Spectral (_spectral_walk_sum) when L * nnz >= n^2, with L the number of
    hop coefficients (see hop_coefficients) and nnz = g.volume the walk
    operator's stored entries; Horner over the CSR walk operator otherwise,
    and also when the spectral result has an entry below its round-off
    floor, so pairs that no walk of the allowed lengths connects stay
    exactly 0. The spectral form reads the graph's spectrum, computed on
    its first use and kept on the graph (Graph._spectrum, one n x n array),
    so every alpha and every preset on one graph shares one eigh; a rejected
    spectral sum drops it again. Only the Horner route builds the CSR
    operator. Horner runs on blocks of
    _ROW_BLOCK columns (see _horner), bit for bit the whole-matrix
    recurrence. An isolated node raises before either route's work.
    """
    coeffs = hop_coefficients(cfg)
    if coeffs.size * g.volume >= g.n * g.n:
        walk_sum = _spectral_walk_sum(g._spectrum, coeffs, guard=True)
        if walk_sum is not None:
            return walk_sum
        # Rejected: the graph keeps no spectrum it did not use, and a later
        # call computes it again.
        vars(g).pop("_spectrum", None)
    return _horner(_walk_operator(g), coeffs)


def _log_clamp(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max{0, log x} elementwise: +0.0 for every entry at or below 1, zeros
    and negatives included; a NaN stays NaN. out may be x itself."""
    clamped = np.maximum(x, 1.0, out=out)
    return np.log(clamped, out=clamped)


def _apply_activation(
    scaled: np.ndarray, activation: str, out: np.ndarray | None = None
) -> np.ndarray:
    """The activation and the zero clamp, into out when given (which may be
    scaled itself, for a caller that owns it), else into a new array; the
    bits are the same either way."""
    if activation == IDENTITY:
        return np.maximum(scaled, 0.0, out=out)
    if activation == LOG:
        return _log_clamp(scaled, out=out)
    norms = np.linalg.norm(scaled, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    normed = np.divide(scaled, norms, out=out)
    return np.maximum(normed, 0.0, out=normed)


def _activation_adjoint(grad: np.ndarray, scaled: np.ndarray, activation: str) -> np.ndarray:
    """The adjoint of _apply_activation at scaled, written over grad and
    returned: grad / s where the log is unclamped (s > 1), grad where the
    identity is (s > 0), 0 elsewhere."""
    if activation == LOG:
        live = scaled > 1.0
        np.divide(grad, scaled, out=grad, where=live)
    elif activation == IDENTITY:
        live = scaled > 0.0
    else:
        raise ValueError(f"no gradient through the {activation} activation (preset sensei)")
    np.copyto(grad, 0.0, where=~live)
    return grad


def _closed_form(walk: np.ndarray, row_sums, cfg: ProximityConfig) -> np.ndarray:
    """(b/(epsilon*K)) * D^beta walk D^gamma with D = diag(row_sums), before
    activation. Scales walk in place and returns it."""
    d = np.asarray(row_sums, dtype=np.float64)
    if cfg.beta != 0.0:
        walk *= d[:, None] ** cfg.beta
    if cfg.gamma != 0.0:
        walk *= d[None, :] ** cfg.gamma
    walk *= cfg.scale
    return walk


def _degree_adjoint(grad: np.ndarray, scaled: np.ndarray, cfg: ProximityConfig):
    """D dL/dD through _closed_form's D^beta, D^gamma for grad = dL/d(scaled):
    beta rowsum(grad o s) + gamma colsum(grad o s), 0 when beta = gamma = 0;
    in walk, _closed_form is elementwise linear and so its own adjoint."""
    if cfg.beta == 0.0 and cfg.gamma == 0.0:
        return 0.0
    weighted = grad * scaled
    return cfg.beta * weighted.sum(axis=1) + cfg.gamma * weighted.sum(axis=0)


def build_proximity(g: Graph, cfg: ProximityConfig) -> np.ndarray:
    """act((b/(epsilon*K)) D^beta (sum_i c_i P^i) D^gamma) for one
    configuration: _closed_form on truncated_ppr and the degrees, then the
    activation and the zero clamp (row-L2 normalization for ROW_L2). Entries
    exactly zero before a log map to 0, never to -inf. Every step after
    the walk sum runs in place on its buffer."""
    walk = _closed_form(truncated_ppr(g, cfg), g.degrees, cfg)
    return _apply_activation(walk, cfg.activation, out=walk)


def deepwalk_log_proximity(g: Graph, alpha: float, k_horizon: int) -> np.ndarray:
    """Unclamped log-form proximity used by the analytical inversion.

    log((vol/K) * sum_{i=1..K} alpha (1-alpha)^i P^i D^{-1}) - log(1-alpha),
    i.e. the DEEPWALK preset before the zero clamp. Requires every entry of
    the walk sum to be positive (every pair reachable within K hops).
    """
    _check_alpha(alpha)
    cfg = preset_config(Preset.DEEPWALK, alpha=alpha, k_horizon=k_horizon,
                        volume=g.volume)
    inner = _closed_form(truncated_ppr(g, cfg), g.degrees, cfg)
    if np.any(inner <= 0.0):
        raise ValueError(
            "walk sum has non-positive entries; graph must connect every "
            f"pair within {k_horizon} hops"
        )
    return np.log(inner, out=inner)


# The closed form act((b/(epsilon*K)) * D^beta sum_i c_i P^i D^gamma) of each
# published method: (b as a function of epsilon and K, beta, gamma, k_start,
# activation).
_PRESETS = {
    Preset.STRAP: (lambda eps, k: 2.0 * k, 0.0, 0.0, 0, LOG),
    Preset.APPROX_PPR: (lambda eps, k: eps * k, 0.0, 0.0, 1, IDENTITY),
    Preset.NRP: (lambda eps, k: eps * k, 1.0, 1.0, 1, IDENTITY),
    Preset.LEMANE: (lambda eps, k: 2.0 * k, 0.0, 0.0, 0, LOG),
    Preset.SENSEI: (lambda eps, k: eps * k, 0.0, 0.0, 0, ROW_L2),
    Preset.DEEPWALK: (lambda eps, k: 1.0, 0.0, -1.0, 1, LOG),
}


def preset_config(
    preset: Preset | str,
    *,
    alpha: float | None = None,
    epsilon: float | None = None,
    k_horizon: int,
    volume: float | None = None,
    alpha_schedule: tuple[float, ...] | None = None,
) -> ProximityConfig:
    """Instantiate the configuration reproducing a published method.

    DEEPWALK derives its threshold from the graph volume, epsilon =
    (1-alpha)/vol; the closed form's additive -log(1-alpha) constant is
    carried by that epsilon, inside the log activation. LEMANE takes a
    per-hop stopping-probability schedule instead of a constant alpha.
    """
    preset = Preset(preset)
    _check_horizon(k_horizon)
    if preset is Preset.LEMANE and alpha_schedule is None:
        raise ValueError("lemane preset requires an alpha schedule")
    if preset is Preset.DEEPWALK:
        if alpha is None:
            raise ValueError("deepwalk preset requires alpha")
        if volume is None or volume <= 0:
            raise ValueError(
                f"deepwalk preset needs a positive graph volume, got {volume}"
            )
        epsilon = (1.0 - alpha) / volume
    elif epsilon is None:
        raise ValueError(f"{preset.value} preset requires epsilon")
    if preset is Preset.LEMANE:
        alphas = tuple(alpha_schedule)
    elif alpha is None:
        raise ValueError(f"{preset.value} preset requires alpha")
    else:
        alphas = (alpha,) * (k_horizon + 1)
    b, beta, gamma, k_start, activation = _PRESETS[preset]
    cfg = ProximityConfig(
        b=b(epsilon, k_horizon),
        beta=beta,
        gamma=gamma,
        k_start=k_start,
        k_horizon=k_horizon,
        alphas=alphas,
        epsilon=epsilon,
        activation=activation,
    )
    cfg.scale  # checked here, before any walk sum is built
    return cfg


def parse_alpha_schedule(text, k_horizon: int) -> tuple[float, ...]:
    """Read one stopping probability per line; must supply K+1 values."""
    values = _numbers(text, "one stopping probability")
    if len(values) != k_horizon + 1:
        raise ValueError(
            f"alpha schedule has {len(values)} entries, need {k_horizon + 1}"
        )
    return tuple(values)
