import collections
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pprinv
from conftest import random_connected_graph
from test_proximity import constant_cfg, tree_plus_edges
from pprinv.analytical import binarize
from pprinv.optimize import (
    OptConfig,
    OptState,
    _forward,
    _forward_model,
    _loss_and_gradient,
    _soft_adjacency,
    forward_proximity,
    gradient,
    invert_optimize,
    loss,
    volume_shift,
)
from pprinv.proximity import (
    IDENTITY,
    LOG,
    ProximityConfig,
    _apply_activation,
    _closed_form,
    _horner,
    build_proximity,
    hop_coefficients,
    preset_config,
    truncated_ppr,
)


def symmetric_logits(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, scale, (n, n))
    logits = (logits + logits.T) / 2.0
    np.fill_diagonal(logits, 0.0)
    return logits


def offdiag_sum(logits, s):
    return _soft_adjacency(logits, s).sum()


class TestVolumeShift:
    def test_uniform_logits_target_half(self):
        s = volume_shift(np.zeros((3, 3)), 3.0, 10)
        assert abs(s) < 1e-12

    def test_uniform_logits_closed_form(self):
        sigma1 = 1.0 / (1.0 + np.exp(-1.0))
        s = volume_shift(np.zeros((3, 3)), 6.0 * sigma1, 10)
        assert s == pytest.approx(1.0, abs=1e-10)

    def test_matches_bisection_oracle(self):
        for seed in range(5):
            logits = symmetric_logits(10, seed)
            target = 0.3 * 90
            s = volume_shift(logits, target, 10)
            lo, hi = -100.0, 100.0
            for _ in range(200):
                mid = (lo + hi) / 2.0
                if offdiag_sum(logits, mid) < target:
                    lo = mid
                else:
                    hi = mid
            assert s == pytest.approx((lo + hi) / 2.0, abs=1e-9)
            assert abs(offdiag_sum(logits, s) - target) / target < 1e-8

    def test_residual_under_1e8_for_100_trials(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            logits = symmetric_logits(10, seed)
            target = rng.uniform(0.1, 0.9) * 90
            s = volume_shift(logits, target, 10)
            assert abs(offdiag_sum(logits, s) - target) / target < 1e-8

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            volume_shift(np.zeros((3, 3)), 6.0, 10)
        with pytest.raises(ValueError, match="infeasible"):
            volume_shift(np.zeros((3, 3)), 0.0, 10)
        # Saturated logits pin the soft volume at 0 or at capacity for every
        # shift the bracket search tries.
        for sign in (-1.0, 1.0):
            logits = np.full((6, 6), sign * 1e10)
            np.fill_diagonal(logits, 0.0)
            with pytest.raises(ValueError, match="infeasible"):
                volume_shift(logits, 15.0, 10)

    def test_missed_target_after_newton_iters_raises(self):
        # One Newton step from zero logits cannot land on 30% volume.
        with pytest.raises(ValueError, match="misses target volume 27.0 by .* after 1 Newton"):
            volume_shift(np.zeros((10, 10)), 27.0, 1)

    def test_nan_logits_raise(self):
        # A NaN misses the target by NaN, which must not pass the 1e-8 check.
        logits = np.zeros((5, 5))
        logits[1, 3] = logits[3, 1] = np.nan
        with pytest.raises(ValueError, match="misses target volume 6.0 by nan"):
            volume_shift(logits, 6.0, 10)

    def test_saturated_logits_do_not_overshoot(self):
        # Deep saturation collapses the Newton slope; the guarded iteration
        # must stay bracketed instead of jumping by orders of magnitude.
        logits = symmetric_logits(8, 0, scale=30.0)
        target = 10.0
        s = volume_shift(logits, target, 10)
        assert abs(s) < 1e3
        b = _soft_adjacency(logits, s)
        assert np.all(b.sum(axis=1) > 0)

    def test_underflowing_slope_does_not_warn(self):
        # The Newton slope underflows, so the step overflows to inf; at 1e8
        # the logistic is exactly 1 and the slope exactly 0, so the step
        # divides by zero. Either way the solve falls back to bisection
        # without a numpy warning.
        for x, want in ((42924314.25636482, -42924313.35), (1e8, -1e8 + 0.9)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s = volume_shift(np.array([[0.0, x], [x, 0.0]]), 1.4239714920160107, 100)
            assert s == pytest.approx(want, abs=0.01)

    @settings(max_examples=200)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 0.1, 1.0, 5.0, 30.0, 1e10]),
        fraction=st.floats(0.01, 0.99),
        start=st.floats(-50.0, 50.0),
    )
    def test_warm_start_reaches_target_or_raises(self, n, seed, scale, fraction, start):
        logits = symmetric_logits(n, seed, scale=scale)
        target = fraction * n * (n - 1)
        shifts = []
        for begin in (0.0, start):
            try:
                s = volume_shift(logits, target, 100, begin)
            except ValueError:
                continue
            assert abs(offdiag_sum(logits, s) - target) <= 1e-8 * target
            shifts.append(s)
        if len(shifts) == 2:
            gap = offdiag_sum(logits, shifts[0]) - offdiag_sum(logits, shifts[1])
            assert abs(gap) <= 1e-9 * target


class TestForwardProximity:
    ALPHA, EPS, K = 0.5, 1e-7, 10

    @given(
        n=st.integers(3, 30),
        extra=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.05, 0.95),
        shape=st.sampled_from(["strap", "approxppr", "nrp", "deepwalk", "generic"]),
        beta=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        gamma=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        k_start=st.integers(0, 1),
        data=st.data(),
    )
    def test_true_adjacency_matches_unified_build(
        self, n, extra, seed, alpha, shape, beta, gamma, k_start, data
    ):
        # One closed form on both operands: the kernel on the dense 0/1
        # adjacency with its float row sums (the optimizer's walk over
        # T = D^-1 B) equals the graph path of build_proximity before
        # activation. Horizons stay on truncated_ppr's Horner branch
        # ((K + 1) * nnz < n^2), so both walk sums are Horner's.
        g = tree_plus_edges(n, extra, False, seed)
        k_max = min(12, (n * n - 1) // g.volume - 1)
        assume(k_max >= 1)
        k_horizon = data.draw(st.integers(1, k_max), label="k_horizon")
        if shape == "generic":
            cfg = constant_cfg(
                alpha, k_horizon, b=3.0, beta=beta, gamma=gamma, k_start=k_start,
                epsilon=self.EPS,
            )
        else:
            cfg = preset_config(shape, alpha=alpha, epsilon=self.EPS,
                                k_horizon=k_horizon, volume=g.volume)
        a = g.adjacency()
        d = a.sum(axis=1)
        got = _forward(a, d, cfg)
        want = _closed_form(truncated_ppr(g, cfg), g.degrees, cfg)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        t = a / d[:, None]
        naive = sum(c * np.linalg.matrix_power(t, i)
                    for i, c in enumerate(hop_coefficients(cfg)))
        naive = d[:, None] ** cfg.beta * naive * d[None, :] ** cfg.gamma
        naive *= cfg.b / (cfg.epsilon * k_horizon)
        assert np.all(np.abs(want - naive) <= 1e-10 * naive)
        # The optimizer's forward model is that closed form for STRAP at
        # twice the optimizer's epsilon.
        model = preset_config("strap", alpha=alpha, epsilon=2 * self.EPS,
                              k_horizon=k_horizon)
        via_forward = forward_proximity(a, alpha, self.EPS, k_horizon)
        assert np.abs(build_proximity(g, model) - via_forward).max() < 1e-12

    def test_uniform_soft_matrix_equals_triangle(self, k3):
        b = 0.5 * (np.ones((3, 3)) - np.eye(3))
        got = forward_proximity(b, self.ALPHA, self.EPS, self.K)
        want = forward_proximity(k3.adjacency(), self.ALPHA, self.EPS, self.K)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("k_horizon", [4, 6])
    def test_matches_naive_power_sum(self, k_horizon):
        rng = np.random.default_rng(2)
        b = rng.uniform(0.05, 0.95, (7, 7))
        b = (b + b.T) / 2.0
        np.fill_diagonal(b, 0.0)
        t = b / b.sum(axis=1, keepdims=True)
        naive = sum(
            self.ALPHA * (1 - self.ALPHA) ** i * np.linalg.matrix_power(t, i)
            for i in range(k_horizon + 1)
        ) / self.EPS
        want = np.maximum(np.log(naive), 0.0)
        got = forward_proximity(b, self.ALPHA, self.EPS, k_horizon)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-14])
    def test_invariant_to_scaling_the_soft_adjacency(self, c):
        # T = D^-1 B does not change when B is scaled, however small the
        # row sums become.
        b = _soft_adjacency(symmetric_logits(8, 3), 0.0)
        want = forward_proximity(b, self.ALPHA, self.EPS, self.K)
        got = forward_proximity(c * b, self.ALPHA, self.EPS, self.K)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_all_zero_row_rejected(self):
        b = np.zeros((3, 3))
        b[0, 1] = b[1, 0] = 1.0
        with pytest.raises(ValueError, match="all-zero row"):
            forward_proximity(b, self.ALPHA, self.EPS, self.K)


@given(
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    log_eps=st.floats(-300.0, 300.0),
    k_horizon=st.integers(1, 5000),
)
def test_forward_model_is_strap_at_twice_epsilon(alpha, log_eps, k_horizon):
    # Reference: the closed form at b = K and epsilon with a constant alpha
    # and the log activation, of scale 1/epsilon. STRAP at 2 * epsilon must
    # match it in every field the kernel reads, the scale bit for bit.
    epsilon = 10.0**log_eps
    want = constant_cfg(
        alpha, k_horizon, b=float(k_horizon), epsilon=epsilon, activation="log")
    got = _forward_model(alpha, epsilon, k_horizon)
    assert got.scale == want.scale
    assert np.array_equal(hop_coefficients(got), hop_coefficients(want))
    assert (got.beta, got.gamma, got.k_start, got.activation) == (
        want.beta, want.gamma, want.k_start, want.activation)


class TestLoss:
    def test_zero_at_equality(self):
        m = np.ones((3, 3))
        assert loss(m, m) == 0.0

    def test_single_entry(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[0, 1] = 2.0
        assert loss(a, b) == 4.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        oracle = sum((a[i, j] - b[i, j]) ** 2 for i in range(5) for j in range(5))
        assert loss(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            loss(np.zeros((2, 2)), np.zeros((3, 3)))


def finite_difference(logits, shift, m_target, cfg, h=1e-6):
    n = logits.shape[0]
    fd = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lp = logits.copy()
            lp[i, j] += h
            lp[j, i] += h
            lm = logits.copy()
            lm[i, j] -= h
            lm[j, i] -= h
            fp = loss(
                forward_proximity(_soft_adjacency(lp, shift), cfg.alpha,
                                  cfg.epsilon, cfg.k_horizon), m_target)
            fm = loss(
                forward_proximity(_soft_adjacency(lm, shift), cfg.alpha,
                                  cfg.epsilon, cfg.k_horizon), m_target)
            fd[i, j] = fd[j, i] = (fp - fm) / (2 * h)
    return fd


def horner_reference_gradient(b_soft, m_target, cfg):
    """Reverse mode through every stored Horner partial: 2K matmuls and
    (K+1) n^2 of storage. The reference for the spectral backward."""
    row_sums = b_soft.sum(axis=1)
    t = b_soft / row_sums[:, None]
    coeffs = hop_coefficients(constant_cfg(cfg.alpha, cfg.k_horizon, epsilon=cfg.epsilon))
    # horner[i] = H_i = sum_{j>=i} c_j t^{j-i}, built from H_L = c_L I down.
    horner = [coeffs[-1] * np.eye(len(t))]
    for c in coeffs[-2::-1]:
        horner.append(t @ horner[-1] + c * np.eye(len(t)))
    horner.reverse()
    s_mat = horner[0] / cfg.epsilon
    unclamped = s_mat > 1.0
    m_hat = np.zeros_like(s_mat)
    m_hat[unclamped] = np.log(s_mat[unclamped])
    g_m = 2.0 * (m_hat - m_target)
    g_m[~unclamped] = 0.0
    g_s = np.zeros_like(g_m)
    g_s[unclamped] = g_m[unclamped] / s_mat[unclamped]
    g_h = g_s / cfg.epsilon
    g_t = np.zeros_like(t)
    for i in range(len(horner) - 1):
        g_t += g_h @ horner[i + 1].T
        g_h = t.T @ g_h
    weighted = (g_t * t).sum(axis=1, keepdims=True)
    g_b = (g_t - weighted) / row_sums[:, None]
    g_logit = b_soft * (1.0 - b_soft) * g_b
    grad = g_logit + g_logit.T
    np.fill_diagonal(grad, 0.0)
    return grad


def richardson_gradient(f, logits, h=1e-3):
    """(4 fd(h) - fd(2h)) / 3 of f over each shared symmetric logit pair,
    fd the central difference at step h."""
    n = logits.shape[0]
    grad = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            step = np.zeros((n, n))
            step[i, j] = step[j, i] = 1.0
            fd = [(f(logits + t * step) - f(logits - t * step)) / (2 * t) for t in (h, 2 * h)]
            grad[i, j] = grad[j, i] = (4.0 * fd[0] - fd[1]) / 3.0
    return grad


class TestGradient:
    def make_state(self, seed, n=8, k=4, noise=0.5):
        cfg = OptConfig(target_volume=20.0, alpha=0.5, epsilon=1e-7, k_horizon=k)
        logits = symmetric_logits(n, seed)
        shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters)
        b = _soft_adjacency(logits, shift)
        rng = np.random.default_rng(seed + 500)
        m_target = forward_proximity(b, cfg.alpha, cfg.epsilon, k)
        if noise:
            m_target = m_target + rng.normal(0.0, noise, (n, n))
        return OptState(logits=logits, shift=shift, b_soft=b), m_target, cfg

    def test_zero_when_target_matches(self):
        state, _, cfg = self.make_state(0, noise=0.0)
        m_target = forward_proximity(state.b_soft, cfg.alpha, cfg.epsilon, cfg.k_horizon)
        assert np.abs(gradient(state, m_target, cfg)).max() == 0.0

    def test_matches_finite_differences(self):
        for seed in range(3):
            state, m_target, cfg = self.make_state(seed)
            analytic = gradient(state, m_target, cfg)
            fd = finite_difference(state.logits, state.shift, m_target, cfg)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-10)
            off = ~np.eye(8, dtype=bool)
            assert (np.abs(analytic - fd) / denom)[off].max() < 1e-5

    @given(
        n=st.integers(3, 12),
        k_horizon=st.integers(1, 10),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        scale=st.sampled_from([0.0, 0.3, 1.0, 2.0]),
        fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_finite_differences_property(
        self, n, k_horizon, alpha, scale, fraction, seed
    ):
        cfg = OptConfig(target_volume=fraction * n * (n - 1), alpha=alpha,
                        epsilon=1e-7, k_horizon=k_horizon)
        logits = symmetric_logits(n, seed, scale=scale)
        shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters)
        b = _soft_adjacency(logits, shift)
        # Differences taken across the log clamp's kink (s = 1) do not
        # approximate its subgradient; the steps below move log s by < 3e-3.
        coeffs = hop_coefficients(constant_cfg(alpha, k_horizon, epsilon=cfg.epsilon))
        walk = _horner(b / b.sum(axis=1, keepdims=True), coeffs)
        with np.errstate(divide="ignore"):
            assume(np.abs(np.log(walk / cfg.epsilon)).min() > 1e-2)
        rng = np.random.default_rng(seed)
        m_target = forward_proximity(b, alpha, cfg.epsilon, k_horizon)
        m_target += rng.normal(0.0, 0.5, (n, n))
        analytic = gradient(OptState(logits=logits, shift=shift, b_soft=b), m_target, cfg)
        # A central difference at step h carries round-off ~1e-15 / h and a
        # truncation error ~h^2; Richardson's (4 fd(h) - fd(2h)) / 3 cancels
        # the h^2 term, so a step of 1e-3 keeps both near 1e-11, below 1e-5
        # of all but the rarest near-zero gradient entries.
        fd = (4.0 * finite_difference(logits, shift, m_target, cfg, h=1e-3)
              - finite_difference(logits, shift, m_target, cfg, h=2e-3)) / 3.0
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-10)
        off = ~np.eye(n, dtype=bool)
        assert (np.abs(analytic - fd) / denom)[off].max() < 1e-5

    @pytest.mark.parametrize("spectrum", ["generic", "degenerate", "near_degenerate"])
    @pytest.mark.parametrize("k_horizon", [1, 4, 10])
    @pytest.mark.parametrize("n", [5, 30])
    def test_matches_horner_reference(self, n, k_horizon, spectrum):
        # Uniform logits make the eigenvalue -1/(n-1) of S = R^-1 B R^-1
        # (n-1)-fold; logit noise this small splits it by gaps near 1e-8.
        scale = {"generic": 1.0, "degenerate": 0.0,
                 "near_degenerate": {5: 1e-7, 30: 1e-5}[n]}[spectrum]
        cfg = OptConfig(target_volume=0.4 * n * (n - 1), alpha=0.5,
                        epsilon=1e-7, k_horizon=k_horizon)
        logits = symmetric_logits(n, 3, scale=scale)
        shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters)
        b = _soft_adjacency(logits, shift)
        if spectrum == "near_degenerate":
            r = np.sqrt(b.sum(axis=1))
            gaps = np.diff(np.linalg.eigvalsh(b / np.outer(r, r)))
            assert 1e-9 < gaps.min() < 1e-7
        rng = np.random.default_rng(n + k_horizon)
        m_target = forward_proximity(b, cfg.alpha, cfg.epsilon, k_horizon)
        m_target += rng.normal(0.0, 0.5, (n, n))
        got = gradient(OptState(logits=logits, shift=shift, b_soft=b), m_target, cfg)
        want = horner_reference_gradient(b, m_target, cfg)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_fully_clamped_output_gives_zero_gradient(self):
        # A huge epsilon drives every pre-log entry below 1: the clamp takes
        # the whole matrix and the subgradient is zero everywhere.
        cfg = OptConfig(target_volume=20.0, alpha=0.5, epsilon=1e9, k_horizon=4)
        logits = symmetric_logits(8, 4)
        shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters)
        b = _soft_adjacency(logits, shift)
        state = OptState(logits=logits, shift=shift, b_soft=b)
        m_hat = forward_proximity(b, cfg.alpha, cfg.epsilon, cfg.k_horizon)
        assert np.abs(m_hat).max() == 0.0
        m_target = np.full((8, 8), 3.0)
        assert np.abs(gradient(state, m_target, cfg)).max() == 0.0

    def test_clamp_threshold_is_one(self):
        # With epsilon the median off-diagonal walk sum, s = f(T) / epsilon
        # puts half of the off-diagonal entries in (0.5, 1) and half above 1:
        # the clamp zeroes the adjoint exactly where s <= 1, as the Horner
        # reference does.
        cfg = OptConfig(target_volume=20.0, alpha=0.5, k_horizon=4)
        logits = symmetric_logits(8, 6)
        shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters)
        b = _soft_adjacency(logits, shift)
        coeffs = hop_coefficients(constant_cfg(cfg.alpha, cfg.k_horizon))
        walk = _horner(b / b.sum(axis=1, keepdims=True), coeffs)
        off = ~np.eye(8, dtype=bool)
        cfg = dataclasses.replace(cfg, epsilon=float(np.median(walk[off])))
        s_mat = walk / cfg.epsilon
        assert ((s_mat > 0.5) & (s_mat < 1.0)).sum() >= 20
        assert (s_mat > 1.0).sum() >= 20
        m_target = np.full((8, 8), 0.5)
        got = gradient(OptState(logits=logits, shift=shift, b_soft=b), m_target, cfg)
        want = horner_reference_gradient(b, m_target, cfg)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_gradient_symmetric_zero_diagonal(self):
        state, m_target, cfg = self.make_state(5)
        g = gradient(state, m_target, cfg)
        assert np.array_equal(g, g.T)
        assert np.abs(np.diag(g)).max() == 0.0

    @given(
        activation=st.sampled_from([LOG, IDENTITY]),
        beta=st.sampled_from([-1.0, 0.0, 1.0]),
        gamma=st.sampled_from([-1.0, 0.0, 1.0]),
        k_start=st.integers(0, 1),
        n=st.integers(3, 12),
        k_horizon=st.integers(1, 10),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        scale=st.sampled_from([0.0, 0.3, 1.0, 2.0]),
        fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectral_backward_matches_finite_differences_over_models(
        self, activation, beta, gamma, k_start, n, k_horizon, alpha, scale, fraction, seed
    ):
        # The loop's own path: spectral forward, the chain of adjoints.
        model = ProximityConfig(
            b=2.0 * k_horizon, beta=beta, gamma=gamma, k_start=k_start,
            k_horizon=k_horizon, alphas=(alpha,) * (k_horizon + 1),
            epsilon=1e-7 if activation == LOG else 1.0, activation=activation)
        logits = symmetric_logits(n, seed, scale=scale)
        shift = volume_shift(logits, fraction * n * (n - 1), OptConfig.newton_iters)

        def model_output(lg):
            b = _soft_adjacency(lg, shift)
            return _forward(b, b.sum(axis=1), model)

        s_mat = model_output(logits)
        if activation == LOG:  # away from the clamp's kink, as above
            with np.errstate(divide="ignore"):
                assume(np.abs(np.log(s_mat)).min() > 1e-2)
        # IDENTITY's kink, s = 0, is never crossed: s >= 0, and an exact zero
        # (a diagonal entry of T) stays zero under every step.

        # Noise at the output's own scale: an IDENTITY output near 1e-8 (a
        # tiny alpha) under O(1) noise gives a loss whose round-off / h
        # swamps its gradient in the differences below.
        m_hat = _apply_activation(s_mat, activation)
        rng = np.random.default_rng(seed)
        m_target = m_hat + rng.normal(0.0, 0.5, (n, n)) * np.abs(m_hat).max()
        value, analytic = _loss_and_gradient(_soft_adjacency(logits, shift), m_target, model)
        fd = richardson_gradient(
            lambda lg: loss(_apply_activation(model_output(lg), activation), m_target), logits)
        # Each difference of the loss carries round-off ~eps * loss / h, so an
        # entry is held to 1e-5 relative or to 10 times that, the larger.
        floor = max(1e-10, 1e6 * np.finfo(np.float64).eps * value / 1e-3)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), floor)
        off = ~np.eye(n, dtype=bool)
        assert (np.abs(analytic - fd) / denom)[off].max() < 1e-5


def traced_invert(monkeypatch, m_target, cfg, m_edges):
    """invert_optimize with each volume_shift call recorded as
    (logits at the call, start, returned shift)."""
    solve, calls = pprinv.optimize.volume_shift, []

    def record(logits, target_volume, newton_iters, start=0.0):
        shift = solve(logits, target_volume, newton_iters, start)
        calls.append((logits.copy(), start, shift))
        return shift

    monkeypatch.setattr(pprinv.optimize, "volume_shift", record)
    return invert_optimize(m_target, cfg, m_edges), calls


class TestInvertOptimize:
    def self_consistent_setup(self, seed, n=10):
        g = random_connected_graph(n, 0.35, seed)
        target = forward_proximity(g.adjacency(), 0.5, 1e-7, 10)
        cfg = OptConfig(
            target_volume=float(g.volume), alpha=0.5, epochs=200,
            epsilon=1e-7, k_horizon=10, step_size=0.3, seed=seed,
        )
        return g, target, cfg

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            OptConfig(target_volume=4.0, alpha=0.5, epochs=0)

    def test_config_is_frozen_and_owns_its_model(self):
        # An assignment after construction would skip the checks (epochs = 0
        # returned no losses); dataclasses.replace runs them again.
        cfg = OptConfig(target_volume=4.0, alpha=0.3, epsilon=5e-8, k_horizon=7)
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            dataclasses.replace(cfg, epochs=0)
        with pytest.raises(ValueError, match="step_size must be positive"):
            dataclasses.replace(cfg, step_size=-0.1)
        want = _forward_model(cfg.alpha, cfg.epsilon, cfg.k_horizon)
        for f in dataclasses.fields(want):
            assert getattr(cfg.model, f.name) == getattr(want, f.name), f.name
        # The model is derived, so equality, hashing and repr leave it out.
        other = dataclasses.replace(cfg)
        object.__setattr__(other, "model", _forward_model(0.9, 1.0, 1))
        assert other == cfg and hash(other) == hash(cfg)
        assert "model" not in repr(cfg)
        assert dataclasses.replace(cfg, k_horizon=8).model.k_horizon == 8

    def test_model_built_once_and_hop_weights_once_per_epoch(self, monkeypatch):
        g, target, cfg = self.self_consistent_setup(0)
        cfg = dataclasses.replace(cfg, epochs=3)
        calls = collections.Counter()
        for name in ("_forward_model", "hop_coefficients"):
            def counted(*args, _name=name, _real=getattr(pprinv.optimize, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(pprinv.optimize, name, counted)
        assert len(invert_optimize(target, cfg, g.num_edges).losses) == 3
        assert calls == {"hop_coefficients": 3}

    def test_round_off_gradient_takes_no_step(self):
        # DEEPWALK clamps this target to all zeros, so the exact gradient at
        # the uniform start is 0 (T = D^-1 B is unchanged when B is scaled)
        # and the backward returns only round-off (max 1.5e-13). An Adam step
        # would blow each round-off entry up to a full +-step_size.
        g = random_connected_graph(40, 0.15, 5)
        target = build_proximity(g, preset_config(
            "deepwalk", alpha=0.3, k_horizon=10, volume=g.volume))
        assert not target.any()
        cfg = OptConfig(target_volume=float(g.volume), alpha=0.3, epochs=40,
                        epsilon=5e-8, k_horizon=10, step_size=0.3)
        result = invert_optimize(target, cfg, g.num_edges)
        assert result.losses == (result.losses[0],) * cfg.epochs
        logits = np.zeros((g.n, g.n))
        shift = volume_shift(logits, cfg.target_volume, cfg.newton_iters)
        start = binarize(_soft_adjacency(logits, shift), g.num_edges)
        assert result.graph.edge_set() == start.edge_set()

    def test_impossible_edge_budget_rejected_before_any_work(self, monkeypatch):
        g, target, cfg = self.self_consistent_setup(0)
        monkeypatch.setattr(pprinv.optimize, "volume_shift", None)
        for m_edges in (-1, 46, 10**6):
            with pytest.raises(ValueError, match=rf"m_edges={m_edges} must lie in \[0, 45\]"):
                invert_optimize(target, cfg, m_edges)

    @pytest.mark.parametrize("field, value, message", [
        ("step_size", 0.0, "step_size must be positive"),
        ("step_size", np.inf, "step_size must be positive and finite, got inf"),
        ("step_size", np.nan, "step_size must be positive and finite, got nan"),
        ("epsilon", np.inf, "epsilon must be positive and finite, got inf"),
        ("alpha", 1.0, r"alpha must lie in \(0, 1\)"),
    ])
    def test_bad_step_size_or_alpha_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            OptConfig(**{"target_volume": 4.0, "alpha": 0.5, field: value})

    def test_non_finite_target_rejected(self, monkeypatch):
        # Counted up front, before the first eigendecomposition.
        g, target, cfg = self.self_consistent_setup(0)
        target[0, 1] = target[1, 0] = np.nan
        target[2, 2] = np.inf
        monkeypatch.setattr(pprinv.optimize, "volume_shift", None)
        with pytest.raises(ValueError, match="target proximity has 3 non-finite entries"):
            invert_optimize(target, cfg, g.num_edges)

    def test_horizon_below_one_rejected(self):
        for k, message in ((0, "k_horizon must be >= 1, got 0"),
                           (10.0, "k_horizon must be an integer, got 10.0"),
                           (True, "k_horizon must be an integer, got True")):
            with pytest.raises(ValueError, match=message):
                OptConfig(target_volume=4.0, alpha=0.5, k_horizon=k)
            with pytest.raises(ValueError, match=message):
                forward_proximity(np.ones((3, 3)) - np.eye(3), 0.5, 1e-7, k)

    def test_every_pair_is_forced_with_no_epoch(self, k3, monkeypatch):
        # The triangle's volume 6 fills all 6 off-diagonal entries, so no
        # shift reaches it; its one answer comes back before the first solve.
        target = forward_proximity(k3.adjacency(), 0.5, 1e-7, 10)
        cfg = OptConfig(target_volume=float(k3.volume), alpha=0.5)
        monkeypatch.setattr(pprinv.optimize, "volume_shift", None)
        result = invert_optimize(target, cfg, k3.num_edges)
        assert result.losses == ()
        assert result.graph.edge_set() == k3.edge_set()

    def test_single_epoch_single_update(self):
        g, target, cfg = self.self_consistent_setup(0)
        cfg = dataclasses.replace(cfg, epochs=1)
        result = invert_optimize(target, cfg, g.num_edges)
        assert len(result.losses) == 1
        assert result.graph.num_edges == g.num_edges

    def test_self_consistency_recovers_graph(self):
        g, target, cfg = self.self_consistent_setup(1)
        result = invert_optimize(target, cfg, g.num_edges)
        assert result.losses[-1] <= 0.01 * result.losses[0]
        assert result.graph.edge_set() == g.edge_set()

    def test_every_shift_solve_is_volume_shift(self, monkeypatch):
        # One cold solve, then one per epoch warm-started from the last.
        g, target, cfg = self.self_consistent_setup(5)
        cfg = dataclasses.replace(cfg, epochs=6)
        _, calls = traced_invert(monkeypatch, target, cfg, g.num_edges)
        assert len(calls) == cfg.epochs + 1
        shifts = [shift for _, _, shift in calls]
        assert [start for _, start, _ in calls] == [0.0, *shifts[:-1]]

    def test_soft_adjacency_symmetric_zero_diagonal_in_range(self, monkeypatch):
        g, target, cfg = self.self_consistent_setup(2)
        cfg = dataclasses.replace(cfg, epochs=15)
        _, calls = traced_invert(monkeypatch, target, cfg, g.num_edges)
        logits, _, shift = calls[-1]
        b = _soft_adjacency(logits, shift)
        assert np.array_equal(b, b.T)
        assert np.abs(np.diag(b)).max() == 0.0
        off = ~np.eye(b.shape[0], dtype=bool)
        assert np.all((b[off] > 0) & (b[off] < 1))

    def test_logits_follow_textbook_adam(self, monkeypatch):
        # Each solve's logits are the last solve's after one bias-corrected
        # Adam step (beta1 = 0.9, beta2 = 0.999, 1e-8) on the gradient at the
        # last solve's logits and shift, bit for bit; the diagonal stays 0.
        g, target, cfg = self.self_consistent_setup(5)
        cfg = dataclasses.replace(cfg, epochs=6)
        _, calls = traced_invert(monkeypatch, target, cfg, g.num_edges)
        model = _forward_model(cfg.alpha, cfg.epsilon, cfg.k_horizon)
        m = v = np.zeros_like(target)
        for t in range(1, cfg.epochs + 1):
            logits, _, shift = calls[t - 1]
            _, grad = _loss_and_gradient(_soft_adjacency(logits, shift), target, model)
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            m_hat, v_hat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
            want = logits - cfg.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(calls[t][0], want)
            assert not np.diag(calls[t][0]).any()

    def test_volume_constraint_after_shift(self, monkeypatch):
        g, target, cfg = self.self_consistent_setup(3)
        cfg = dataclasses.replace(cfg, epochs=25)
        _, calls = traced_invert(monkeypatch, target, cfg, g.num_edges)
        logits, _, shift = calls[-1]
        total = _soft_adjacency(logits, shift).sum()
        assert abs(total - g.volume) / g.volume < 1e-8

    def test_loss_trace_reproducible(self):
        g, target, cfg = self.self_consistent_setup(4)
        cfg = dataclasses.replace(cfg, epochs=30)
        first = invert_optimize(target, cfg, g.num_edges).losses
        second = invert_optimize(target, cfg, g.num_edges).losses
        assert np.abs(np.subtract(first, second)).max() < 1e-9

    def test_rejects_non_square_target(self):
        cfg = OptConfig(target_volume=4.0, alpha=0.5)
        with pytest.raises(ValueError, match="square"):
            invert_optimize(np.zeros((3, 4)), cfg, 2)

    def embedding_setup(self):
        from pprinv.embedding import factorize, reconstruct_proximity
        from pprinv.proximity import preset_config

        g = random_connected_graph(34, 0.15, 8)
        m = build_proximity(
            g, preset_config("strap", alpha=0.1, epsilon=1e-7, k_horizon=10)
        )
        target = reconstruct_proximity(factorize(m, 8, seed=0))
        cfg = OptConfig(
            target_volume=float(g.volume), alpha=0.1, epochs=40,
            epsilon=5e-8, k_horizon=10, step_size=0.3, seed=0,
        )
        return g, target, cfg

    def test_embedding_target_loss_halves_in_40_epochs(self):
        g, target, cfg = self.embedding_setup()
        result = invert_optimize(target, cfg, g.num_edges)
        assert result.losses[-1] <= 0.5 * result.losses[0]

    @pytest.mark.parametrize("target", ["self_consistent", "embedding"])
    def test_epoch_loss_matches_horner_oracle(self, target, monkeypatch):
        # The loop evaluates its forward on the spectrum of T; each epoch's
        # loss must still be the Horner forward_proximity loss of the soft
        # adjacency the previous epochs left behind: the logits and shift of
        # the solve after them.
        if target == "self_consistent":
            g, m_target, cfg = self.self_consistent_setup(1)
        else:
            g, m_target, cfg = self.embedding_setup()
        result, calls = traced_invert(
            monkeypatch, m_target, dataclasses.replace(cfg, epochs=21), g.num_edges)
        for e in (1, 5, 20):
            logits, _, shift = calls[e]
            want = loss(forward_proximity(_soft_adjacency(logits, shift), cfg.alpha,
                                          cfg.epsilon, cfg.k_horizon), m_target)
            assert abs(result.losses[e] - want) <= 1e-12 * want


def run_fresh_import(code):
    """Run code in a new interpreter that imports pprinv from this tree."""
    src = str(Path(pprinv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_binds_only_the_modules():
    # The API is imported from the modules; the package root binds the
    # seven library modules and __version__, and loads no others of its own.
    done = run_fresh_import(
        "import sys, types, pprinv; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pprinv')); "
        "print(sorted(k for k, v in vars(pprinv).items() if not k.startswith('__') "
        "and not isinstance(v, types.ModuleType)))")
    assert done.returncode == 0, done.stderr
    modules = ["analytical", "embedding", "graph", "linalg", "metrics", "optimize",
               "proximity"]
    assert done.stdout.splitlines() == [
        str(["pprinv"] + [f"pprinv.{m}" for m in modules]), "[]"]


def test_import_does_not_load_scipy_special():
    # The logistic is written out rather than taken from scipy.special.expit,
    # whose import adds ~0.06 s and ~4 MiB to every run.
    done = run_fresh_import("import sys, pprinv; sys.exit('scipy.special' in sys.modules)")
    assert done.returncode == 0, done.stderr or "pprinv imports scipy.special"


def test_import_does_not_load_scipy_sparse():
    # Graph._csr imports scipy.sparse when a walk operator or Dijkstra's
    # input is first built; loading it at import took ~0.09 s of every run.
    done = run_fresh_import("import sys, pprinv; sys.exit('scipy.sparse' in sys.modules)")
    assert done.returncode == 0, done.stderr or "pprinv imports scipy.sparse"


def test_import_does_not_load_csgraph():
    # Only all_pairs_distances needs scipy.sparse.csgraph (Dijkstra on deep
    # graphs), so it imports it when called; at import it cost ~0.09 s and
    # ~90 modules.
    done = run_fresh_import(
        "import sys, pprinv; sys.exit('scipy.sparse.csgraph' in sys.modules)")
    assert done.returncode == 0, done.stderr or "pprinv imports scipy.sparse.csgraph"
