import argparse
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from pprinv import analytical as analytical_module
from pprinv import cli
from pprinv.analytical import (
    AnalyticalInputs,
    binarize,
    estimate_m_infinity,
    invert_analytical,
    recover_adjacency,
    recover_laplacian,
)
from pprinv.embedding import EmbeddingPair, factorize, reconstruct_proximity
from pprinv.graph import Graph
from pprinv.linalg import _ROW_BLOCK, _TRI_INV_LEAF, pseudoinverse
from pprinv.proximity import (
    Preset,
    build_proximity,
    deepwalk_log_proximity,
    preset_config,
)


def normalized_laplacian(g):
    root = np.sqrt(g.degrees.astype(float))
    return np.eye(g.n) - g.adjacency() / np.outer(root, root)


def closed_form_m_infinity(g, alpha):
    """Spectral closed form: (a*vol/(1-a)) D^-1/2 (Z - I) D^-1/2 - J with
    Z the (pseudo)inverse of (1-a)L + aI."""
    root = np.sqrt(g.degrees.astype(float))
    z = pseudoinverse((1 - alpha) * normalized_laplacian(g) + alpha * np.eye(g.n))
    return (alpha * g.volume / (1 - alpha)) * (z - np.eye(g.n)) / np.outer(
        root, root
    ) - 1.0


def pinv_laplacian(m_inf, degrees, volume, alpha):
    """recover_laplacian with Z pseudoinverted: the reference for its
    Cholesky route and the exact expected output of its fallback."""
    n = degrees.size
    root = np.sqrt(degrees)
    z = ((1.0 - alpha) / (alpha * volume)) * (
        root[:, None] * (m_inf + 1.0) * root[None, :]
    ) + np.eye(n)
    lap = pseudoinverse((z + z.T) / 2.0) / (1.0 - alpha) - (
        alpha / (1.0 - alpha)
    ) * np.eye(n)
    return (lap + lap.T) / 2.0


def m_inf_for_z(z, degrees, volume, alpha):
    """The m_inf from which recover_laplacian rebuilds z (up to round-off)."""
    root = np.sqrt(degrees)
    scale = (1.0 - alpha) / (alpha * volume)
    return (z - np.eye(z.shape[0])) / (scale * np.outer(root, root)) - 1.0


def z_off_the_cholesky_route(kind, n, seed):
    """A Z that is indefinite or singular, yet with Z - I > 0 entrywise, so
    that a log-form m_k rebuilds it."""
    rng = np.random.default_rng(seed)
    if kind == "indefinite":
        u, v = rng.uniform(0.5, 1.5, size=(2, n))
        # u v^T + v u^T has the eigenvalue u.v - |u||v| < 0; Z gets 1 - 2.
        gap = np.linalg.norm(u) * np.linalg.norm(v) - u @ v
        return np.eye(n) + (2.0 / gap) * (np.outer(u, v) + np.outer(v, u))
    b = rng.uniform(1.1, 2.0, size=(n, n - 1))
    return b @ b.T


def peak_bytes(fn, *args):
    """tracemalloc peak of the allocations fn(*args) makes, result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEstimateMInfinity:
    def test_zero_matrix(self):
        # K * exp(0) - 1 leaves the constant (K - 1) plane.
        out = estimate_m_infinity(np.zeros((3, 3)), 10)
        assert np.allclose(out, 9.0)

    def test_constant_log_plane(self):
        out = estimate_m_infinity(np.log(2.0) * np.ones((2, 2)), 10)
        assert np.allclose(out, 19.0)

    def test_matches_closed_form_on_k3(self, k3):
        alpha, k = 0.7, 500
        m_k = deepwalk_log_proximity(k3, alpha, k)
        est = estimate_m_infinity(m_k, k)
        assert np.abs(est - closed_form_m_infinity(k3, alpha)).max() < 1e-4

    def test_matches_closed_form_on_random_graph(self):
        g = random_connected_graph(14, 0.35, 2)
        m_k = deepwalk_log_proximity(g, 0.7, 2000)
        est = estimate_m_infinity(m_k, 2000)
        assert np.abs(est - closed_form_m_infinity(g, 0.7)).max() < 1e-6

    def test_elementwise_monotone(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        b = a + rng.uniform(0.0, 1.0, size=(6, 6))
        assert np.all(estimate_m_infinity(b, 7) >= estimate_m_infinity(a, 7))

    def test_rejects_bad_horizon(self):
        for k, message in ((0, "k_horizon must be >= 1, got 0"),
                           (50.0, "k_horizon must be an integer, got 50.0"),
                           (True, "k_horizon must be an integer, got True")):
            with pytest.raises(ValueError, match=message):
                estimate_m_infinity(np.zeros((2, 2)), k)

    @pytest.mark.parametrize("k", [1, 10, 2000])
    def test_bits_of_the_out_of_place_form(self, k):
        m = np.random.default_rng(k).normal(size=(7, 7))
        m_bits = m.tobytes()
        assert estimate_m_infinity(m, k).tobytes() == (k * np.exp(m) - 1.0).tobytes()
        assert m.tobytes() == m_bits


class TestRecoverLaplacian:
    def test_k3_exact(self, k3):
        m_inf = closed_form_m_infinity(k3, 0.7)
        lap = recover_laplacian(m_inf, k3.degrees.astype(float), 6.0, 0.7)
        assert np.abs(lap - normalized_laplacian(k3)).max() < 1e-6

    def test_single_edge_exact(self):
        g = Graph.from_edges(2, [(0, 1)])
        m_inf = closed_form_m_infinity(g, 0.7)
        lap = recover_laplacian(m_inf, g.degrees.astype(float), 2.0, 0.7)
        assert np.abs(lap - np.array([[1.0, -1.0], [-1.0, 1.0]])).max() < 1e-6

    def test_row_sums_vanish_on_regular_graph(self, k3):
        m_inf = closed_form_m_infinity(k3, 0.7)
        lap = recover_laplacian(m_inf, k3.degrees.astype(float), 6.0, 0.7)
        assert np.abs(lap.sum(axis=1)).max() < 1e-4

    def test_annihilates_sqrt_degree_vector(self):
        g = random_connected_graph(12, 0.3, 4)
        m_inf = closed_form_m_infinity(g, 0.7)
        lap = recover_laplacian(m_inf, g.degrees.astype(float), float(g.volume), 0.7)
        root = np.sqrt(g.degrees.astype(float))
        assert np.abs(lap @ root).max() < 1e-6

    def test_output_symmetric(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6))
        lap = recover_laplacian(m + m.T, np.full(6, 3.0), 18.0, 0.5)
        assert np.array_equal(lap, lap.T)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            recover_laplacian(np.zeros((3, 3)), np.ones(4), 4.0, 0.5)

    @staticmethod
    def count_pseudoinverse(monkeypatch):
        calls = []
        monkeypatch.setattr(
            analytical_module,
            "pseudoinverse",
            lambda m: calls.append(m) or pseudoinverse(m),
        )
        return calls

    @settings(max_examples=40)
    @given(
        n=st.integers(2, 40),
        p=st.floats(0.1, 0.8),
        alpha=st.floats(0.05, 0.95),
        seed=st.integers(0, 10_000),
    )
    # Above the leaf the inverse runs the recursive triangular inverse; it
    # comes out exactly symmetric with no symmetrize pass after it.
    @example(n=_TRI_INV_LEAF + 22, p=0.05, alpha=0.4, seed=3)
    def test_cholesky_matches_pseudoinverse(self, n, p, alpha, seed):
        g = random_connected_graph(n, p, seed)
        deg, vol = g.degrees.astype(float), float(g.volume)
        m_inf = closed_form_m_infinity(g, alpha)
        with pytest.MonkeyPatch.context() as mp:
            calls = self.count_pseudoinverse(mp)
            lap = recover_laplacian(m_inf, deg, vol, alpha)
        assert not calls
        want = pinv_laplacian(m_inf, deg, vol, alpha)
        assert np.abs(lap - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(lap, lap.T)

    # n=300 symmetrizes Z and the Laplacian over three row blocks.
    @pytest.mark.parametrize(
        "kind, n",
        [
            ("indefinite", 12),
            ("singular", 12),
            ("indefinite", 2 * _ROW_BLOCK + 44),
            ("singular", 2 * _ROW_BLOCK + 44),
        ],
        ids=["indefinite", "singular", "indefinite-n300", "singular-n300"],
    )
    def test_fallback_is_the_pseudoinverse_route(self, kind, n, monkeypatch):
        rng = np.random.default_rng(8)
        alpha = 0.6
        deg = rng.integers(1, 6, size=n).astype(float)
        vol = float(deg.sum())
        if kind == "indefinite":
            m = rng.normal(size=(n, n))
            z = (m + m.T) / 2
        else:
            b = rng.normal(size=(n, n - 1))
            z = b @ b.T
        assert np.linalg.eigvalsh(z).min() < 1e-10
        m_inf = m_inf_for_z(z, deg, vol, alpha)
        calls = self.count_pseudoinverse(monkeypatch)
        lap = recover_laplacian(m_inf, deg, vol, alpha)
        assert len(calls) == 1
        want = pinv_laplacian(m_inf, deg, vol, alpha)
        assert lap.tobytes() == want.tobytes()


class TestRecoverAdjacency:
    def test_k3_from_true_laplacian(self, k3):
        lap = normalized_laplacian(k3)
        a = recover_adjacency(lap, k3.degrees.astype(float))
        assert np.abs(a - (np.ones((3, 3)) - np.eye(3))).max() < 1e-8

    def test_bits_of_the_out_of_place_form(self):
        # A true Laplacian holds +0.0 off the diagonal at every non-edge;
        # I - L must keep it +0.0, as 0.0 - L does and -L would not.
        g = random_connected_graph(12, 0.3, 9)
        deg = g.degrees.astype(float)
        lap = normalized_laplacian(g)
        root = np.sqrt(deg)
        want = root[:, None] * (np.eye(g.n) - lap) * root[None, :]
        assert recover_adjacency(lap, deg).tobytes() == want.tobytes()

    def test_identity_laplacian_gives_zero(self):
        a = recover_adjacency(np.eye(4), np.array([2.0, 3.0, 1.0, 5.0]))
        assert np.abs(a).max() == 0.0

    def test_rejects_degrees_of_another_size(self):
        # One degree for a 3-node Laplacian used to broadcast, its diagonal
        # stride of 2 adding 1 off the diagonal.
        with pytest.raises(ValueError, match="does not match degree vector"):
            recover_adjacency(0.5 * np.eye(3), [4.0])

    def test_end_to_end_soft_scores(self):
        g = random_connected_graph(12, 0.4, 6, full_rank=True)
        m_k = deepwalk_log_proximity(g, 0.7, 2000)
        m_inf = estimate_m_infinity(m_k, 2000)
        lap = recover_laplacian(m_inf, g.degrees.astype(float), float(g.volume), 0.7)
        soft = recover_adjacency(lap, g.degrees.astype(float))
        assert np.abs(soft - g.adjacency()).max() < 1e-2


def lexsort_binarize(soft_a, m_edges):
    """The full-sort top-m that binarize replaced, kept as its reference:
    (indptr, indices) of the m best upper-triangle pairs by (-value, row,
    col)."""
    n = soft_a.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    order = np.lexsort((cols, rows, -soft_a[rows, cols]))[:m_edges]
    g = Graph.from_edges(n, list(zip(rows[order], cols[order])))
    return g.indptr, g.indices


@st.composite
def tied_scores(draw):
    """(soft, m): a score matrix and an edge budget from 0 to every pair.
    Most draws take scores from a few integer levels, so most scores tie,
    also across the m-th largest; levels=None draws continuous scores."""
    n = draw(st.integers(1, 40))
    levels = draw(st.sampled_from([2, 5, None]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    soft = rng.normal(size=(n, n)) if levels is None else (
        rng.integers(-2, levels - 2, size=(n, n)).astype(np.float64))
    m = draw(st.integers(0, n * (n - 1) // 2))
    return soft, m


class TestBinarize:
    @settings(max_examples=300)
    @given(case=tied_scores())
    def test_matches_full_lexsort(self, case):
        soft, m = case
        indptr, indices = lexsort_binarize(soft, m)
        g = binarize(soft, m)
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)

    def test_non_finite_scores_rejected(self):
        soft = np.zeros((4, 4))
        soft[0, 2] = np.nan
        soft[1, 3] = np.inf
        with pytest.raises(ValueError, match="2 non-finite"):
            binarize(soft, 1)

    def test_top_m_selection(self):
        soft = np.zeros((3, 3))
        soft[0, 1] = 0.9
        soft[0, 2] = 0.5
        soft[1, 2] = 0.1
        g = binarize(soft, 2)
        assert g.edge_set() == {(0, 1), (0, 2)}

    def test_tie_break_lexicographic(self):
        g = binarize(np.ones((3, 3)), 1)
        assert g.edge_set() == {(0, 1)}

    def test_complete_graph(self):
        g = binarize(np.ones((4, 4)), 6)
        assert g.num_edges == 6

    def test_exact_edge_count(self):
        rng = np.random.default_rng(7)
        soft = rng.normal(size=(10, 10))
        for m in (0, 5, 20, 45):
            assert binarize(soft, m).num_edges == m

    def test_diagonal_and_lower_triangle_ignored(self):
        soft = np.diag([10.0, 10.0, 10.0])
        soft[2, 0] = 5.0  # below diagonal; must not win on its own
        g = binarize(soft, 1)
        assert g.edge_set() == {(0, 1)}

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError, match=r"m_edges=4 must lie in \[0, 3\]"):
            binarize(np.zeros((3, 3)), 4)

    def test_negative_edge_count_rejected(self):
        with pytest.raises(ValueError, match=r"m_edges=-1 must lie in \[0, 3\]"):
            binarize(np.zeros((3, 3)), -1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="soft adjacency must be square"):
            binarize(np.zeros((3, 4)), 1)


class TestInvertAnalytical:
    def inputs_for(self, g, alpha=0.7, k=2000):
        return AnalyticalInputs(
            m_k=deepwalk_log_proximity(g, alpha, k),
            degrees=g.degrees.astype(float),
            volume=float(g.volume),
            alpha=alpha,
            k_horizon=k,
            m_edges=g.num_edges,
        )

    def test_k3_exact_recovery(self, k3):
        rec = invert_analytical(self.inputs_for(k3))
        assert rec.edge_set() == k3.edge_set()

    def test_full_rank_random_graphs_exact(self):
        for seed in range(5):
            g = random_connected_graph(16, 0.4, seed, full_rank=True)
            rec = invert_analytical(self.inputs_for(g))
            assert rec.edge_set() == g.edge_set()

    def test_truncated_embedding_is_lossy_but_finite(self):
        g = random_connected_graph(16, 0.4, 11, full_rank=True)
        m_k = deepwalk_log_proximity(g, 0.7, 2000)
        pair = factorize(m_k, 4, seed=0)
        inputs = AnalyticalInputs(
            m_k=reconstruct_proximity(pair),
            degrees=g.degrees.astype(float),
            volume=float(g.volume),
            alpha=0.7,
            k_horizon=2000,
            m_edges=g.num_edges,
        )
        rec = invert_analytical(inputs)
        diff = rec.edge_set().symmetric_difference(g.edge_set())
        assert len(diff) > 0
        assert rec.num_edges == g.num_edges

    @settings(max_examples=60)
    @given(
        route=st.sampled_from(["graph", "indefinite", "singular"]),
        n=st.integers(2, 40),
        p=st.floats(0.1, 0.8),
        alpha=st.floats(0.05, 0.95),
        rank=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    # Rank 1 ties the 5th and 6th best pairs; the two paths keep different ones.
    @example(route="graph", n=6, p=0.1, alpha=0.058363629236507536,
             rank=0.058363629236507536, seed=6)
    def test_matches_the_public_chain(self, route, n, p, alpha, rank, seed):
        # invert_analytical inverts alpha times the chain's Z: off the
        # diagonal its scores are the chain's soft adjacency times
        # (1-alpha)/alpha up to round-off, on every route, the edges are the
        # same up to ties, and no input is written.
        k = 40  # no shorter than the diameter of a connected graph, n <= 40
        if route == "graph":
            g = random_connected_graph(n, p, seed)
            deg, vol, m_edges = g.degrees.astype(float), float(g.volume), g.num_edges
            d = 1 + int(rank * (n - 1))
            pair = factorize(deepwalk_log_proximity(g, alpha, k), d, seed)
            m_k = reconstruct_proximity(pair)
        else:
            deg = np.random.default_rng(seed).integers(1, 6, size=n).astype(float)
            vol, m_edges = float(deg.sum()), n - 1
            z = z_off_the_cholesky_route(route, n, seed)
            m_k = np.log((m_inf_for_z(z, deg, vol, alpha) + 1.0) / k)
        inputs = AnalyticalInputs(
            m_k=m_k, degrees=deg, volume=vol, alpha=alpha, k_horizon=k,
            m_edges=m_edges,
        )
        m_k_bits, deg_bits = m_k.tobytes(), deg.tobytes()

        m_inf = estimate_m_infinity(m_k, k)
        m_inf_bits = m_inf.tobytes()
        lap = recover_laplacian(m_inf, deg, vol, alpha)
        lap_bits = lap.tobytes()
        soft = recover_adjacency(lap, deg)
        assert m_inf.tobytes() == m_inf_bits and lap.tobytes() == lap_bits

        scores = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                analytical_module,
                "binarize",
                lambda s, m: scores.append(s) or binarize(s, m),
            )
            calls = TestRecoverLaplacian.count_pseudoinverse(mp)
            rec = invert_analytical(inputs)
        if route != "graph":
            assert len(calls) == 1
        off = ~np.eye(n, dtype=bool)
        tol = 1e-7 * np.abs(soft[off]).max()
        gap = scores[0][off] * (alpha / (1.0 - alpha)) - soft[off]
        assert np.abs(gap).max() <= tol
        # Pairs that tie at the m-th best score in exact arithmetic (a
        # symmetric graph at low rank) may swap: round-off picks among them.
        cut = np.sort(soft[np.triu_indices(n, 1)])[-m_edges]
        swapped = rec.edge_set() ^ binarize(soft, m_edges).edge_set()
        assert all(abs(soft[u, v] - cut) <= tol for u, v in swapped)
        assert m_k.tobytes() == m_k_bits and deg.tobytes() == deg_bits

    def test_peak_memory_above_inputs(self):
        # In n x n float64 arrays at n=200: 3.04 for both, where the
        # out-of-place steps peaked at 6.02 (invert_analytical) and 5.02.
        g = random_connected_graph(200, 0.05, 3)
        inputs = self.inputs_for(g, k=10)
        m_inf = estimate_m_infinity(inputs.m_k, 10)
        n2 = 8.0 * g.n**2
        assert peak_bytes(invert_analytical, inputs) <= 3.25 * n2
        assert peak_bytes(
            recover_laplacian, m_inf, inputs.degrees, inputs.volume, 0.7
        ) <= 3.25 * n2

    def test_sweep_cell_peak_memory_above_its_proximity(self):
        # In n x n float64 arrays at n=300, d=16: 3.12, the inverse's Z and
        # the Cholesky route's two; 4.12 when the cell formed X @ Y.T.
        g = random_connected_graph(300, 0.05, 3)
        cfg = preset_config(Preset.DEEPWALK, alpha=0.1, k_horizon=10, volume=g.volume)
        m = build_proximity(g, cfg)
        args = argparse.Namespace(seed=0)
        peak = peak_bytes(cli._sweep_cell, g, None, m, args, 16, (0.1, 10))
        assert peak <= 3.25 * 8.0 * g.n**2

    def test_non_finite_proximity_rejected(self, k3):
        m_k = deepwalk_log_proximity(k3, 0.7, 2000)
        m_k[0, 2] = np.nan
        m_k[1, 1] = -np.inf
        with pytest.raises(ValueError, match="proximity m_k has 2 non-finite entries"):
            AnalyticalInputs(
                m_k=m_k, degrees=k3.degrees.astype(float), volume=float(k3.volume),
                alpha=0.7, k_horizon=2000, m_edges=k3.num_edges,
            )

    def test_overflowing_exponential_rejected_before_the_inverse(self, barbell,
                                                                 monkeypatch):
        # exp overflows above ~709.78; the count runs only once the fill
        # has overflowed, and no RuntimeWarning is issued on the way.
        m_k = deepwalk_log_proximity(barbell, 0.5, 10)
        m_k[1, 4], m_k[5, 0] = 800.0, 1e6
        inputs = AnalyticalInputs(
            m_k=m_k, degrees=barbell.degrees.astype(float), volume=float(barbell.volume),
            alpha=0.5, k_horizon=10, m_edges=barbell.num_edges,
        )
        monkeypatch.setattr(analytical_module, "_inverse", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="proximity m_k has 2 finite entries "
                                                 "whose exponential overflows"):
                invert_analytical(inputs)

    def test_impossible_edge_budget_rejected_before_any_work(self, k3, monkeypatch):
        # Checked at construction, with binarize's message, not after the
        # whole inversion.
        m_k = deepwalk_log_proximity(k3, 0.7, 50)
        monkeypatch.setattr(analytical_module, "estimate_m_infinity", None)
        for m_edges in (-1, 4):
            with pytest.raises(ValueError, match=rf"m_edges={m_edges} must lie in \[0, 3\]"):
                AnalyticalInputs(m_k=m_k, degrees=k3.degrees.astype(float),
                                 volume=6.0, alpha=0.7, k_horizon=50, m_edges=m_edges)

    def test_input_validation(self, k3):
        with pytest.raises(ValueError, match="degrees"):
            AnalyticalInputs(
                m_k=np.zeros((2, 2)), degrees=np.array([0.0, 1.0]), volume=1.0,
                alpha=0.5, k_horizon=10, m_edges=1,
            )
        with pytest.raises(ValueError, match="volume"):
            AnalyticalInputs(
                m_k=np.zeros((2, 2)), degrees=np.array([1.0, 1.0]), volume=3.0,
                alpha=0.5, k_horizon=10, m_edges=1,
            )
        for m_k in (np.zeros((2, 2)), EmbeddingPair(np.ones((2, 1)), np.ones((2, 1)))):
            with pytest.raises(ValueError, match="proximity shape does not match"):
                AnalyticalInputs(
                    m_k=m_k, degrees=np.ones(3), volume=3.0,
                    alpha=0.5, k_horizon=10, m_edges=1,
                )
        with pytest.raises(ValueError, match="alpha"):
            AnalyticalInputs(
                m_k=np.zeros((2, 2)), degrees=np.array([1.0, 1.0]), volume=2.0,
                alpha=1.0, k_horizon=10, m_edges=1,
            )
        # NaN fails every comparison, so range checks alone let it through.
        m_k = deepwalk_log_proximity(k3, 0.7, 50)
        for degrees, volume, field in (
            ([2, np.nan, 2], 6.0, "degrees"),
            ([2, np.inf, 2], np.inf, "degrees"),
            ([2, 2, 2], np.nan, "volume"),
            ([2, 2, 2], np.inf, "volume"),
        ):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                AnalyticalInputs(
                    m_k=m_k, degrees=degrees, volume=volume, alpha=0.7,
                    k_horizon=50, m_edges=3,
                )


def inverted(inputs):
    """invert_analytical's recovered graph and the scores it binarized."""
    scores = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytical_module, "binarize",
                   lambda s, m: scores.append(s) or binarize(s, m))
        rec = invert_analytical(inputs)
    return rec, scores[0]


# At least two row blocks, the last one partial.
spanning_blocks = st.integers(_ROW_BLOCK + 1, 3 * _ROW_BLOCK - 1).filter(
    lambda n: n % _ROW_BLOCK)


class TestFactorRoute:
    """AnalyticalInputs(m_k=pair) reads the pair's product one row block at a
    time: the bits of AnalyticalInputs(m_k=reconstruct_proximity(pair))."""

    @settings(max_examples=8)
    @given(n=spanning_blocks, p=st.floats(0.05, 0.2), alpha=st.floats(0.05, 0.95),
           rank=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    # A last block of one row, at d = 1 and d = n; the CI smoke's n at 16
    # and 64 (OpenBLAS sums a block's product unlike the whole one's there).
    @example(n=_ROW_BLOCK + 1, p=0.06, alpha=0.1, rank=0.0, seed=1)
    @example(n=_ROW_BLOCK + 1, p=0.06, alpha=0.1, rank=1.0, seed=1)
    @example(n=300, p=0.05, alpha=0.1, rank=15 / 299, seed=2)
    @example(n=300, p=0.05, alpha=0.1, rank=63 / 299, seed=2)
    def test_factors_give_the_bits_of_their_product(self, n, p, alpha, rank, seed):
        g = random_connected_graph(n, p, seed)
        d = 1 + int(rank * (n - 1))
        pair = factorize(deepwalk_log_proximity(g, alpha, 40), d, seed)
        x_bits, y_bits = pair.x.tobytes(), pair.y.tobytes()
        common = dict(degrees=g.degrees.astype(float), volume=float(g.volume),
                      alpha=alpha, k_horizon=40, m_edges=g.num_edges)
        rec, scores = inverted(AnalyticalInputs(m_k=pair, **common))
        want_rec, want = inverted(
            AnalyticalInputs(m_k=reconstruct_proximity(pair), **common))
        assert np.array_equal(scores, want)
        assert rec.edge_set() == want_rec.edge_set()
        assert pair.x.tobytes() == x_bits and pair.y.tobytes() == y_bits

    @settings(max_examples=20)
    @given(n=spanning_blocks, d=st.integers(1, 8), seed=st.integers(0, 10_000),
           poison=st.lists(st.tuples(st.booleans(), st.integers(0, 2**20),
                                     st.integers(0, 7)), min_size=1, max_size=4))
    def test_non_finite_product_rejected_before_the_inverse(self, n, d, seed, poison):
        # A NaN factor entry poisons a row (in X) or a column (in Y) of the
        # product; the count is over the whole product, as for a matrix.
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, n, d))
        for in_x, row, col in poison:
            (x if in_x else y)[row % n, col % d] = np.nan
        pair = EmbeddingPair(x, y)
        bad = np.count_nonzero(~np.isfinite(reconstruct_proximity(pair)))
        deg = rng.integers(1, 6, size=n).astype(float)
        inputs = AnalyticalInputs(m_k=pair, degrees=deg, volume=float(deg.sum()),
                                  alpha=0.5, k_horizon=10, m_edges=n - 1)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytical_module, "_inverse", lambda z: calls.append(z))
            with pytest.raises(ValueError,
                               match=f"proximity m_k has {bad} non-finite entries"):
                invert_analytical(inputs)
        assert calls == []
