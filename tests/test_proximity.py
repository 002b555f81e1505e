import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_connected_graph, transition_matrix
from pprinv.graph import EdgeListError, Graph, _walk_operator
from pprinv.linalg import _ROW_BLOCK, _similar_eigh
from pprinv.proximity import (
    IDENTITY,
    LOG,
    ROW_L2,
    Preset,
    ProximityConfig,
    _activation_adjoint,
    _apply_activation,
    _closed_form,
    _horner,
    _log_clamp,
    _spectral_walk_sum,
    build_proximity,
    deepwalk_log_proximity,
    hop_coefficients,
    parse_alpha_schedule,
    preset_config,
    truncated_ppr,
)


def constant_cfg(alpha, k_horizon, *, b=1.0, beta=0.0, gamma=0.0, k_start=0,
                 epsilon=1.0, activation=IDENTITY):
    """A config whose every hop stops with probability alpha."""
    return ProximityConfig(
        b=b, beta=beta, gamma=gamma, k_start=k_start, k_horizon=k_horizon,
        alphas=(alpha,) * (k_horizon + 1), epsilon=epsilon, activation=activation,
    )


def geometric_weights(alpha, k_horizon, k_start=0):
    w = alpha * (1.0 - alpha) ** np.arange(k_horizon + 1)
    w[:k_start] = 0.0
    return w


class TestConfigValidation:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError, match="b must"):
            constant_cfg(0.5, 2, b=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            constant_cfg(0.5, 2, epsilon=0.0)
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="b must be positive and finite"):
                constant_cfg(0.5, 2, b=value)
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                constant_cfg(0.5, 2, epsilon=value)
        # A subnormal epsilon overflows b/(epsilon*K), which preset_config reads.
        with pytest.raises(ValueError, match=r"scale b/\(epsilon\*K\) = inf"):
            constant_cfg(0.5, 2, b=2.0, epsilon=1e-320).scale
        with pytest.raises(ValueError, match=r"scale b/\(epsilon\*K\) = inf"):
            preset_config(Preset.STRAP, alpha=0.5, epsilon=1e-320, k_horizon=10)

    def test_scale_needs_a_hop(self, k3):
        assert constant_cfg(0.5, 2, b=4.0, epsilon=0.5).scale == 4.0
        # K = 0 is a valid walk sum (c_0 I) but has no scale b/(epsilon*K).
        with pytest.raises(ValueError, match="k_horizon must be >= 1"):
            constant_cfg(0.5, 0).scale
        # K is an integer, a numpy one too, but not a float or a bool; each
        # entry says so before it builds anything.
        assert preset_config(Preset.STRAP, alpha=0.5, epsilon=1e-7,
                             k_horizon=np.int64(10)).k_horizon == 10
        for k in (50.0, True):
            message = f"k_horizon must be an integer, got {k}"
            with pytest.raises(ValueError, match=message):
                preset_config(Preset.STRAP, alpha=0.5, epsilon=1e-7, k_horizon=k)
            with pytest.raises(ValueError, match=message):
                deepwalk_log_proximity(k3, 0.5, k)
            with pytest.raises(ValueError, match=message):
                ProximityConfig(b=1, beta=0, gamma=0, k_start=0, k_horizon=k,
                                alphas=(0.5,) * 51, epsilon=1.0, activation=IDENTITY)

    def test_rejects_bad_hop_window(self):
        with pytest.raises(ValueError, match="k_start"):
            constant_cfg(0.5, 2, k_start=3)

    def test_rejects_bad_alphas(self):
        with pytest.raises(ValueError, match="probabilities"):
            ProximityConfig(
                b=1, beta=0, gamma=0, k_start=0, k_horizon=1,
                alphas=(0.5, 1.5), epsilon=1.0, activation="identity",
            )
        with pytest.raises(ValueError, match="length"):
            ProximityConfig(
                b=1, beta=0, gamma=0, k_start=0, k_horizon=2,
                alphas=(0.5, 0.5), epsilon=1.0, activation="identity",
            )

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            constant_cfg(0.5, 2, activation="tanh")


class TestHopCoefficients:
    def test_constant_geometric(self):
        c = hop_coefficients(constant_cfg(0.5, 2))
        assert np.allclose(c, [0.5, 0.25, 0.125])

    def test_geometric_series_sum(self):
        c = hop_coefficients(constant_cfg(0.1, 60))
        assert c.sum() == pytest.approx(1 - 0.9**61, abs=1e-15)

    def test_schedule_with_terminal_stop(self):
        cfg = ProximityConfig(
            b=1, beta=0, gamma=0, k_start=0, k_horizon=2,
            alphas=(0.2, 0.5, 1.0), epsilon=1.0, activation="identity",
        )
        c = hop_coefficients(cfg)
        assert np.allclose(c, [0.2, 0.4, 0.4])
        assert c.sum() == pytest.approx(1.0)

    def test_k_start_zeroes_prefix(self):
        c = hop_coefficients(constant_cfg(0.5, 3, k_start=2))
        assert np.allclose(c, [0, 0, 0.125, 0.0625])

    def test_subnormal_tail_dropped(self):
        tiny = np.finfo(np.float64).tiny
        c = hop_coefficients(constant_cfg(0.7, 700))
        assert c[-1] >= tiny > 0.7 * 0.3 ** c.size
        assert np.allclose(c, geometric_weights(0.7, c.size - 1), rtol=1e-12, atol=0.0)
        # No normal coefficient at all leaves c_0 alone.
        assert hop_coefficients(constant_cfg(0.7, 700, k_start=650)).tolist() == [0.0]


class TestTruncatedPpr:
    def test_zero_horizon_is_scaled_identity(self, k3):
        cfg = constant_cfg(0.5, 0)
        assert np.allclose(truncated_ppr(k3, cfg), 0.5 * np.eye(3))

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.7])
    @pytest.mark.parametrize("k_horizon", [1, 10, 50])
    def test_row_sums(self, alpha, k_horizon):
        g = random_connected_graph(20, 0.25, 1)
        m = truncated_ppr(g, constant_cfg(alpha, k_horizon))
        expected = 1 - (1 - alpha) ** (k_horizon + 1)
        assert np.abs(m.sum(axis=1) - expected).max() < 1e-12

    def test_single_edge_two_hops(self):
        g = Graph.from_edges(2, [(0, 1)])
        m = truncated_ppr(g, constant_cfg(0.5, 2))
        assert np.allclose(np.diag(m), 0.625)  # P^2 = I for one edge
        assert m[0, 1] == pytest.approx(0.25)

    def test_walk_reversibility(self):
        # D @ Pi == Pi.T @ D for the undirected walk sum.
        g = random_connected_graph(18, 0.25, 4)
        m = truncated_ppr(g, constant_cfg(0.3, 8))
        d = np.diag(g.degrees.astype(float))
        assert np.abs(d @ m - m.T @ d).max() < 1e-10

    def test_matches_matrix_power_oracle(self):
        g = random_connected_graph(12, 0.3, 5)
        cfg = constant_cfg(0.4, 5, k_start=1)
        p = transition_matrix(g)
        weights = geometric_weights(0.4, 5, k_start=1)
        oracle = sum(
            w * np.linalg.matrix_power(p, i) for i, w in enumerate(weights)
        )
        # The CSR walk operator, then the same kernel on the dense matrix.
        dense = _horner(p, hop_coefficients(cfg))
        for out in (truncated_ppr(g, cfg), dense):
            assert np.abs(out - oracle).max() < 1e-12


def horner_walk_sum(g, cfg):
    """Reference walk sum: Horner's scheme over the CSR walk operator."""
    return _horner(_walk_operator(g), hop_coefficients(cfg))


def spectral_selected(g, cfg):
    """Whether truncated_ppr tries the spectral form: L * nnz >= n^2."""
    return hop_coefficients(cfg).size * g.volume >= g.n * g.n


def spectral_form(g, cfg):
    """truncated_ppr's guarded spectral walk sum, or None when rejected."""
    eig = _similar_eigh(g.adjacency(), g.degrees)
    return _spectral_walk_sum(eig, hop_coefficients(cfg), guard=True)


def long_barbell(clique, path):
    """Two `clique`-cliques joined through `path` extra nodes (path + 1 edges)."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    off = clique + path
    edges += [(off + i, off + j) for i in range(clique) for j in range(i + 1, clique)]
    chain = [clique - 1, *range(clique, off), off]
    edges += list(zip(chain, chain[1:]))
    return Graph.from_edges(2 * clique + path, edges)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def tree_plus_edges(n, extra, bipartite, seed):
    """Random spanning tree plus each further pair with probability `extra`;
    with `bipartite`, only pairs across the tree's 2-colouring are added."""
    rng = np.random.default_rng(seed)
    edges, side = [], [0]
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.append((u, v))
        side.append(1 - side[u])
    for u in range(n):
        for v in range(u + 1, n):
            if (not bipartite or side[u] != side[v]) and rng.random() < extra:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


class TestSpectralWalkSum:
    """truncated_ppr's spectral form and its round-off guard."""

    def test_long_horizon_takes_spectral_form(self):
        g = random_connected_graph(15, 0.3, 9)
        cfg = constant_cfg(0.7, 700, k_start=1)
        assert spectral_selected(g, cfg)
        out, ref = truncated_ppr(g, cfg), horner_walk_sum(g, cfg)
        assert not np.array_equal(out, ref)
        assert np.abs(np.log(out) - np.log(ref)).max() < 1e-12

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_barbell_keeps_exact_zeros(self, alpha):
        # Pairs more than K hops apart: the bare spectral form returns them
        # as round-off of either sign.
        g = long_barbell(40, 15)
        cfg = constant_cfg(alpha, 10)
        assert spectral_selected(g, cfg)
        ref = horner_walk_sum(g, cfg)
        assert np.count_nonzero(ref == 0.0) == 4176
        assert spectral_form(g, cfg) is None
        assert np.array_equal(truncated_ppr(g, cfg), ref)
        with pytest.raises(ValueError, match="within 10 hops"):
            deepwalk_log_proximity(g, alpha, 10)

    def test_even_cycle_keeps_parity_zeros(self):
        # With k_start = K only walks of length K count, so on a bipartite
        # graph every odd-distance pair is exactly 0.
        g = cycle(20)
        cfg = constant_cfg(0.3, 10, k_start=10)
        assert spectral_selected(g, cfg)
        ref = horner_walk_sum(g, cfg)
        assert np.count_nonzero(ref == 0.0) == 200
        assert np.array_equal(truncated_ppr(g, cfg), ref)
        # DeepWalk at K = 1 is one hop: the diagonal and distance 2 are 0.
        assert spectral_selected(cycle(4), constant_cfg(0.5, 1, k_start=1))
        with pytest.raises(ValueError, match="within 1 hops"):
            deepwalk_log_proximity(cycle(4), 0.5, 1)

    @settings(max_examples=150)
    @given(
        n=st.integers(2, 24),
        extra=st.floats(0.0, 0.6),
        bipartite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        k_horizon=st.integers(0, 300),
        data=st.data(),
    )
    # With data=None the schedule is a constant alpha = 0.9. One example per
    # branch: Horner by size, spectral kept, and spectral rejected (entries
    # down to 6e-12, below the round-off floor).
    @example(n=24, extra=0.0, bipartite=False, seed=1, k_horizon=3, data=None)
    @example(n=12, extra=0.5, bipartite=False, seed=2, k_horizon=200, data=None)
    @example(n=24, extra=0.0, bipartite=True, seed=0, k_horizon=12, data=None)
    def test_matches_horner_reference(self, n, extra, bipartite, seed, k_horizon, data):
        g = tree_plus_edges(n, extra, bipartite, seed)
        if data is None:
            cfg = constant_cfg(0.9, k_horizon)
        else:
            k_start = data.draw(st.integers(0, k_horizon), label="k_start")
            if data.draw(st.booleans(), label="lemane"):
                # Per-hop stops in (0, 1), the walk terminating at K.
                inner = data.draw(st.lists(
                    st.floats(0.01, 0.99), min_size=k_horizon, max_size=k_horizon
                ), label="alphas")
                cfg = ProximityConfig(
                    b=1.0, beta=0.0, gamma=0.0, k_start=k_start,
                    k_horizon=k_horizon, alphas=(*inner, 1.0), epsilon=1.0,
                    activation="identity",
                )
            else:
                alpha = data.draw(st.floats(0.01, 0.99), label="alpha")
                cfg = constant_cfg(alpha, k_horizon, k_start=k_start)
        ref = horner_walk_sum(g, cfg)
        zero = ref == 0.0
        for out in (truncated_ppr(g, cfg), spectral_form(g, cfg)):
            if out is None:
                continue
            assert np.all(out[zero] == 0.0)
            assert np.all(out[~zero] > 0.0)
            assert np.abs(np.log(out[~zero]) - np.log(ref[~zero])).max(initial=0.0) <= 1e-9
        event("spectral form tried" if spectral_selected(g, cfg) else "Horner by size")


def counting_eigh(monkeypatch):
    """Patch np.linalg.eigh, which linalg._similar_eigh calls, with a
    wrapper that records each call; returns the list of recorded shapes."""
    calls, eigh = [], np.linalg.eigh

    def wrapper(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", wrapper)
    return calls


def retained_bytes(g):
    """Bytes of every array memoized on g, its CSR fields aside, counting
    the whole buffer each one views."""
    buffers = {}
    for value in vars(g).values():
        for a in value if isinstance(value, tuple) else (value,):
            if not isinstance(a, np.ndarray) or a is g.indptr or a is g.indices:
                continue
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a.nbytes
    return sum(buffers.values())


class TestGraphSpectrum:
    """The spectral walk sum reads Graph._spectrum: one eigh per graph,
    shared by every alpha and preset, with the bits of a fresh graph's."""

    def test_one_eigh_per_graph(self, monkeypatch):
        n, edges = 40, sorted(random_connected_graph(40, 0.3, 6).edge_set())
        strap = preset_config(Preset.STRAP, alpha=0.1, epsilon=1e-7, k_horizon=2000)
        calls = [
            *((deepwalk_log_proximity, alpha, 2000) for alpha in (0.1, 0.7, 0.1)),
            (build_proximity, strap),
        ]
        g = Graph.from_edges(n, edges)
        # alpha = 0.7 has the fewest hop coefficients of the four.
        shortest = preset_config(Preset.DEEPWALK, alpha=0.7, k_horizon=2000,
                                 volume=g.volume)
        assert spectral_selected(g, shortest) and spectral_selected(g, strap)
        eighs = counting_eigh(monkeypatch)
        outs = [fn(g, *args) for fn, *args in calls]
        assert eighs == [(n, n)]
        for out, (fn, *args) in zip(outs, calls):
            assert np.array_equal(out, fn(Graph.from_edges(n, edges), *args))

    def test_horner_route_leaves_spectrum_uncomputed(self, monkeypatch):
        g = random_connected_graph(40, 0.1, 3)
        cfg = constant_cfg(0.5, 2)
        assert not spectral_selected(g, cfg)
        eighs = counting_eigh(monkeypatch)
        truncated_ppr(g, cfg)
        assert eighs == [] and "_spectrum" not in vars(g)

    def test_spectrum_read_only_and_one_square_array(self):
        n = 30
        g = random_connected_graph(n, 0.3, 4)
        truncated_ppr(g, constant_cfg(0.1, 2000))
        lam, v, r = g._spectrum
        for part in (lam, v, r):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 1.0
        assert retained_bytes(g) <= 8 * (n * n + 2 * n)

    def test_rejected_spectrum_is_not_kept(self, monkeypatch):
        # At K = 2000 the barbell's far pairs fall below the round-off
        # floor: each call computes the spectrum, rejects it and drops it.
        g = long_barbell(40, 15)
        cfg = constant_cfg(0.9, 2000)
        assert spectral_selected(g, cfg)
        eighs = counting_eigh(monkeypatch)
        for calls in (1, 2):
            assert np.array_equal(truncated_ppr(g, cfg), horner_walk_sum(g, cfg))
            assert eighs == [(g.n, g.n)] * calls and "_spectrum" not in vars(g)

    def test_isolated_node_raises_before_eigh(self, monkeypatch):
        g = Graph.from_edges(3, [(0, 1)])
        cfg = constant_cfg(0.1, 2000)
        assert spectral_selected(g, cfg)
        eighs = counting_eigh(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="node 2"):
                truncated_ppr(g, cfg)
        assert eighs == [] and "_spectrum" not in vars(g)


def whole_matrix_horner(p, coeffs):
    """Horner's scheme on all n columns at once, H <- c_i I + p @ H: the
    recurrence _horner runs on one block of columns at a time."""
    n = p.shape[0]
    h = np.zeros((n, n))
    h[np.diag_indices(n)] = coeffs[-1]
    for c in coeffs[-2::-1]:
        h = p @ h
        h[np.diag_indices(n)] += c
    return h


class TestColumnBlockedHorner:
    """The CSR walk sum, run on blocks of _ROW_BLOCK columns, has the bits
    of the whole-matrix recurrence; the same blocks on the dense operator
    agree with it to round-off."""

    @settings(max_examples=40)
    @given(
        n=st.integers(2, 300).filter(lambda n: n % _ROW_BLOCK),
        extra=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**32 - 1),
        k_horizon=st.integers(1, 12),
        k_start=st.integers(0, 1),
        alpha=st.floats(0.01, 0.99),
    )
    # A last block of one column, and three blocks with a partial last one.
    @example(n=_ROW_BLOCK + 1, extra=0.01, seed=3, k_horizon=10, k_start=1, alpha=0.1)
    @example(n=2 * _ROW_BLOCK + 44, extra=0.0, seed=4, k_horizon=12, k_start=0, alpha=0.5)
    def test_blocks_give_whole_matrix_bits(self, n, extra, seed, k_horizon, k_start, alpha):
        g = tree_plus_edges(n, extra, False, seed)
        cfg = constant_cfg(alpha, k_horizon, k_start=k_start)
        coeffs = hop_coefficients(cfg)
        want = whole_matrix_horner(_walk_operator(g), coeffs)
        assert np.array_equal(_horner(_walk_operator(g), coeffs), want)
        assert np.abs(_horner(_walk_operator(g).toarray(), coeffs) - want).max() <= 1e-12
        if not spectral_selected(g, cfg):
            assert np.array_equal(truncated_ppr(g, cfg), want)
        event("several blocks" if n > _ROW_BLOCK else "one block")


def strap_direct(g, alpha, epsilon, k_horizon):
    """Independent coding of the STRAP form: max{0, log((2/eps) sum c_i P^i)}."""
    p = transition_matrix(g)
    acc = sum(
        alpha * (1 - alpha) ** i * np.linalg.matrix_power(p, i)
        for i in range(k_horizon + 1)
    )
    scaled = (2.0 / epsilon) * acc
    out = np.where(scaled > 0, np.log(np.where(scaled > 0, scaled, 1.0)), 0.0)
    return np.maximum(out, 0.0)


def approxppr_direct(g, alpha, k_horizon):
    p = transition_matrix(g)
    return sum(
        alpha * (1 - alpha) ** i * np.linalg.matrix_power(p, i)
        for i in range(1, k_horizon + 1)
    )


def nrp_direct(g, alpha, k_horizon):
    d = np.diag(g.degrees.astype(float))
    return d @ approxppr_direct(g, alpha, k_horizon) @ d


def lemane_direct(g, schedule, epsilon):
    p = transition_matrix(g)
    k_horizon = len(schedule) - 1
    acc = schedule[0] * np.eye(g.n)
    survive = 1.0 - schedule[0]
    for l in range(1, k_horizon + 1):
        acc += schedule[l] * survive * np.linalg.matrix_power(p, l)
        survive *= 1.0 - schedule[l]
    scaled = (2.0 / epsilon) * acc
    out = np.where(scaled > 0, np.log(np.where(scaled > 0, scaled, 1.0)), 0.0)
    return np.maximum(out, 0.0)


def sensei_direct(g, alpha, k_horizon):
    p = transition_matrix(g)
    acc = sum(
        alpha * (1 - alpha) ** i * np.linalg.matrix_power(p, i)
        for i in range(k_horizon + 1)
    )
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return acc / norms


def deepwalk_direct(g, alpha, k_horizon):
    p = transition_matrix(g)
    acc = sum(
        alpha * (1 - alpha) ** i * np.linalg.matrix_power(p, i)
        for i in range(1, k_horizon + 1)
    )
    inner = (g.volume / k_horizon) * acc @ np.diag(1.0 / g.degrees)
    return np.log(inner) - np.log(1.0 - alpha)


class TestPresetEquivalence:
    ALPHA, EPS, K = 0.3, 1e-6, 8

    def graphs(self):
        return [random_connected_graph(30, 0.2, seed) for seed in range(3)]

    def test_strap(self):
        for g in self.graphs():
            cfg = preset_config(Preset.STRAP, alpha=self.ALPHA, epsilon=self.EPS, k_horizon=self.K)
            direct = strap_direct(g, self.ALPHA, self.EPS, self.K)
            assert np.abs(build_proximity(g, cfg) - direct).max() < 1e-12

    def test_approxppr_equals_truncated_walk(self, k3):
        cfg = preset_config("approxppr", alpha=0.4, epsilon=1e-5, k_horizon=6)
        assert np.abs(
            build_proximity(k3, cfg) - approxppr_direct(k3, 0.4, 6)
        ).max() < 1e-12
        tail = truncated_ppr(k3, constant_cfg(0.4, 6, k_start=1))
        assert np.abs(build_proximity(k3, cfg) - tail).max() < 1e-12

    def test_nrp(self):
        for g in self.graphs():
            cfg = preset_config("nrp", alpha=self.ALPHA, epsilon=self.EPS, k_horizon=self.K)
            direct = nrp_direct(g, self.ALPHA, self.K)
            assert np.abs(build_proximity(g, cfg) - direct).max() < 1e-12

    def test_lemane(self):
        schedule = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
        for g in self.graphs():
            cfg = preset_config(
                "lemane", epsilon=self.EPS, k_horizon=self.K, alpha_schedule=schedule
            )
            direct = lemane_direct(g, schedule, self.EPS)
            assert np.abs(build_proximity(g, cfg) - direct).max() < 1e-12

    def test_sensei_rows_unit_norm(self):
        for g in self.graphs():
            cfg = preset_config("sensei", alpha=self.ALPHA, epsilon=self.EPS, k_horizon=self.K)
            m = build_proximity(g, cfg)
            direct = sensei_direct(g, self.ALPHA, self.K)
            assert np.abs(m - direct).max() < 1e-12
            norms = np.linalg.norm(m, axis=1)
            assert np.abs(norms[norms > 0] - 1.0).max() < 1e-12

    def test_deepwalk(self):
        for g in self.graphs():
            cfg = preset_config(
                "deepwalk", alpha=self.ALPHA, k_horizon=self.K, volume=g.volume
            )
            direct = np.maximum(deepwalk_direct(g, self.ALPHA, self.K), 0.0)
            assert np.abs(build_proximity(g, cfg) - direct).max() < 1e-12

    def test_nonnegative_output(self):
        for g in self.graphs():
            for preset in ("strap", "approxppr", "nrp", "deepwalk"):
                cfg = preset_config(
                    preset, alpha=self.ALPHA, epsilon=self.EPS,
                    k_horizon=self.K, volume=g.volume,
                )
                assert build_proximity(g, cfg).min() >= 0.0


SCHEDULE = tuple(0.1 + 0.05 * i for i in range(11))
HALF = (0.5,) * 11
# Every field of each preset's config at alpha=0.5, epsilon=1e-7, K=10,
# volume=100 and the schedule above: (b, beta, gamma, k_start, alphas,
# epsilon, activation).
PRESET_FIELDS = {
    Preset.STRAP: (20.0, 0.0, 0.0, 0, HALF, 1e-7, LOG),
    Preset.APPROX_PPR: (1e-6, 0.0, 0.0, 1, HALF, 1e-7, IDENTITY),
    Preset.NRP: (1e-6, 1.0, 1.0, 1, HALF, 1e-7, IDENTITY),
    Preset.LEMANE: (20.0, 0.0, 0.0, 0, SCHEDULE, 1e-7, LOG),
    Preset.SENSEI: (1e-6, 0.0, 0.0, 0, HALF, 1e-7, ROW_L2),
    Preset.DEEPWALK: (1.0, 0.0, -1.0, 1, HALF, 0.5 / 100, LOG),
}


class TestInPlaceActivation:
    """build_proximity applies its activation in place on the walk sum it
    owns; the bits are those of the out-of-place call."""

    @pytest.mark.parametrize("preset", list(Preset))
    def test_build_proximity_bits_of_the_out_of_place_form(self, preset):
        g = random_connected_graph(2 * _ROW_BLOCK + 9, 0.03, 5)
        cfg = preset_config(
            preset, alpha=0.3, epsilon=1e-3, k_horizon=6, volume=g.volume,
            alpha_schedule=(0.3,) * 6 + (1.0,) if preset is Preset.LEMANE else None,
        )
        walk = _closed_form(truncated_ppr(g, cfg), g.degrees, cfg)
        want = _apply_activation(walk, cfg.activation)
        assert want is not walk
        assert build_proximity(g, cfg).tobytes() == want.tobytes()

    @pytest.mark.parametrize("activation", [IDENTITY, LOG, ROW_L2])
    def test_out_may_be_the_input(self, activation):
        x = np.random.default_rng(1).normal(scale=3.0, size=(9, 9))
        x[2] = 0.0  # ROW_L2 divides a zero row by 1, not 0
        want = _apply_activation(x, activation)
        got = _apply_activation(x, activation, out=x)
        assert got is x
        assert got.tobytes() == want.tobytes()

    def test_deepwalk_log_bits_of_the_out_of_place_form(self):
        g = random_connected_graph(40, 0.2, 8)
        cfg = preset_config(Preset.DEEPWALK, alpha=0.2, k_horizon=10, volume=g.volume)
        inner = _closed_form(truncated_ppr(g, cfg), g.degrees, cfg)
        got = deepwalk_log_proximity(g, 0.2, 10)
        assert got.tobytes() == np.log(inner).tobytes()


def test_activation_adjoint_rejects_row_l2():
    x = np.ones((3, 3))
    with pytest.raises(ValueError, match="sensei"):
        _activation_adjoint(x, x, ROW_L2)


class TestPresetConfig:
    @pytest.mark.parametrize("preset", list(Preset), ids=lambda p: p.value)
    def test_every_field(self, preset):
        cfg = preset_config(
            preset.value, alpha=0.5, epsilon=1e-7, k_horizon=10, volume=100,
            alpha_schedule=SCHEDULE,
        )
        b, beta, gamma, k_start, alphas, epsilon, activation = PRESET_FIELDS[preset]
        assert cfg == ProximityConfig(
            b=b, beta=beta, gamma=gamma, k_start=k_start, k_horizon=10,
            alphas=alphas, epsilon=epsilon, activation=activation,
        )

    def test_strap_parameters(self):
        cfg = preset_config("strap", alpha=0.5, epsilon=1e-7, k_horizon=10)
        assert (cfg.b, cfg.beta, cfg.gamma, cfg.k_start) == (20.0, 0.0, 0.0, 0)
        assert cfg.activation == LOG

    def test_nrp_parameters(self):
        cfg = preset_config("nrp", alpha=0.5, epsilon=1e-7, k_horizon=10)
        assert (cfg.b, cfg.beta, cfg.gamma, cfg.k_start) == (1e-6, 1.0, 1.0, 1)
        assert cfg.activation == "identity"

    def test_deepwalk_parameters(self):
        cfg = preset_config("deepwalk", alpha=0.7, k_horizon=10, volume=100)
        assert cfg.b == 1.0
        assert cfg.epsilon == pytest.approx(0.3 / 100)
        assert (cfg.beta, cfg.gamma, cfg.k_start) == (0.0, -1.0, 1)
        assert cfg.activation == LOG

    def test_sensei_activation(self):
        cfg = preset_config("sensei", alpha=0.5, epsilon=1e-7, k_horizon=10)
        assert cfg.activation == ROW_L2

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("node2vec", alpha=0.5, epsilon=1e-7, k_horizon=10)

    def test_deepwalk_zero_volume_rejected(self):
        with pytest.raises(ValueError, match="positive graph volume, got 0"):
            preset_config("deepwalk", alpha=0.5, k_horizon=3, volume=0)

    def test_missing_requirements(self):
        with pytest.raises(ValueError, match="alpha"):
            preset_config("strap", epsilon=1e-7, k_horizon=10)
        with pytest.raises(ValueError, match="volume"):
            preset_config("deepwalk", alpha=0.5, k_horizon=10)
        with pytest.raises(ValueError, match="deepwalk preset requires alpha"):
            preset_config("deepwalk", k_horizon=10, volume=4)
        with pytest.raises(ValueError, match="schedule"):
            preset_config("lemane", epsilon=1e-7, k_horizon=10)
        # With two inputs missing, the error names the one checked first.
        with pytest.raises(ValueError, match="strap preset requires epsilon"):
            preset_config("strap", k_horizon=10)
        with pytest.raises(ValueError, match="lemane preset requires an alpha schedule"):
            preset_config("lemane", k_horizon=10)


def masked_log_activation(x):
    """max{0, log x} in the masked form the LOG activation once used: the log
    is taken only above 1e-300, and 0 stands elsewhere."""
    out = np.zeros_like(x)
    mask = x > 1e-300
    out[mask] = np.log(x[mask])
    return np.maximum(out, 0.0)


TINY = np.finfo(np.float64).tiny
CLAMP_EDGES = [
    0.0, -0.0, -1.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
    5e-324, -5e-324, TINY / 2, TINY, 1e-300, np.nextafter(1e-300, 0.0),
    np.nextafter(1e-300, 1.0), np.inf, -np.inf,
]


class TestLogOfZero:
    @settings(max_examples=300)
    @given(x=hnp.arrays(np.float64, st.integers(1, 64), elements=st.one_of(
        st.sampled_from(CLAMP_EDGES), st.floats(allow_nan=False))))
    def test_clamp_matches_masked_form_bitwise(self, x):
        # Compared as bit patterns, so +0.0 and -0.0 differ.
        got, want = _log_clamp(x), masked_log_activation(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_clamp_propagates_nan(self):
        assert np.isnan(_log_clamp(np.array([np.nan]))).all()

    def test_unreachable_pairs_emit_zero_not_nan(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        cfg = preset_config("strap", alpha=0.5, epsilon=1e-7, k_horizon=5)
        m = build_proximity(g, cfg)
        assert np.all(np.isfinite(m))
        assert m[0, 2] == 0.0 and m[1, 3] == 0.0
        assert m[0, 1] > 0.0


class TestDeepwalkLogProximity:
    def test_matches_direct_form(self):
        g = random_connected_graph(15, 0.3, 9)
        # (0.7, 700) runs past the hop where the coefficients underflow.
        for alpha, k_horizon in [(0.3, 8), (0.7, 700)]:
            out = deepwalk_log_proximity(g, alpha, k_horizon)
            assert np.abs(out - deepwalk_direct(g, alpha, k_horizon)).max() < 1e-12

    def test_rejects_unreachable_pairs(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="hops"):
            deepwalk_log_proximity(g, 0.5, 4)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_rejects_alpha_outside_open_interval(self, k3, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            deepwalk_log_proximity(k3, alpha, 4)


class TestAlphaSchedule:
    def test_parse(self):
        assert parse_alpha_schedule("0.1\n0.2\n0.3\n", 2) == (0.1, 0.2, 0.3)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="need 4"):
            parse_alpha_schedule("0.1\n0.2\n", 3)

    def test_comments_and_blank_lines_skipped(self):
        assert parse_alpha_schedule("# stops\n0.5\n\n0.5\n", 1) == (0.5, 0.5)
        assert parse_alpha_schedule(b"\xef\xbb\xbf0.5\n0.5\n", 1) == (0.5, 0.5)

    def test_two_values_on_one_line_rejected(self):
        with pytest.raises(ValueError, match="line 2: expected one stopping probability"):
            parse_alpha_schedule("0.5\n0.5 0.5\n", 2)

    def test_non_numeric_token_rejected_with_its_line(self):
        with pytest.raises(EdgeListError, match="line 3: 'abc' is not a number"):
            parse_alpha_schedule("# stops\n0.5\nabc\n", 1)
