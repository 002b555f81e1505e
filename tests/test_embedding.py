import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_connected_graph
from pprinv.embedding import (
    EmbeddingPair,
    factorize,
    load_embedding,
    reconstruct_proximity,
    save_embedding,
)
from pprinv.proximity import build_proximity, preset_config


def strap_matrix(n=30, seed=0):
    g = random_connected_graph(n, 0.2, seed)
    cfg = preset_config("strap", alpha=0.3, epsilon=1e-6, k_horizon=8)
    return build_proximity(g, cfg)


class TestFactorize:
    def test_identity_full_rank(self):
        pair = factorize(np.eye(4), 4, seed=0)
        assert np.abs(reconstruct_proximity(pair) - np.eye(4)).max() < 1e-8

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(9, 1))
        v = rng.normal(size=(9, 1))
        m = u @ v.T
        pair = factorize(m, 1, seed=0)
        assert np.abs(reconstruct_proximity(pair) - m).max() < 1e-8

    def test_full_dimension_reproduces_strap_input(self):
        m = strap_matrix()
        pair = factorize(m, m.shape[0], seed=3)
        rel = np.linalg.norm(reconstruct_proximity(pair) - m) / np.linalg.norm(m)
        assert rel < 1e-6

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            factorize(np.eye(4), 5, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            factorize(np.eye(4), 0, seed=0)

    def test_deterministic(self):
        m = strap_matrix(seed=4)
        a = factorize(m, 6, seed=9)
        b = factorize(m, 6, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestReconstruct:
    def test_zero_matrix(self):
        pair = factorize(np.zeros((5, 5)), 2, seed=0)
        assert np.abs(reconstruct_proximity(pair)).max() == 0.0

    def test_truncation_error_equals_tail_energy(self):
        m = strap_matrix(seed=5)
        sigma = np.linalg.svd(m, compute_uv=False)
        for d in (4, 8):
            pair = factorize(m, d, seed=0)
            err = np.linalg.norm(reconstruct_proximity(pair) - m)
            optimal = np.sqrt((sigma[d:] ** 2).sum())
            assert err <= 1.05 * optimal

    def test_error_non_increasing_in_dimension(self):
        m = strap_matrix(n=40, seed=6)
        errs = [
            np.linalg.norm(reconstruct_proximity(factorize(m, d, seed=2)) - m)
            for d in (4, 8, 16, 32)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


class TestPersistence:
    def test_round_trip_with_meta(self, tmp_path):
        m = strap_matrix(seed=7)
        pair = factorize(m, 5, seed=1)
        pair = EmbeddingPair(pair.x, pair.y, {
            "preset": "strap", "dim": 5, "seed": 1, "alpha": 0.3, "epsilon": 1e-6,
            "k_horizon": 8, "graph_n": 30, "graph_volume": 100,
        })
        save_embedding(tmp_path / "emb", pair)
        loaded = load_embedding(tmp_path / "emb")
        assert np.array_equal(loaded.x, pair.x)
        assert np.array_equal(loaded.y, pair.y)
        assert loaded.meta["preset"] == "strap"
        assert loaded.meta["dim"] == 5
        assert loaded.meta["seed"] == 1

    @settings(max_examples=50)
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 4)),
        meta=st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                st.none(), st.booleans(), st.integers(),
                st.floats(allow_nan=False, allow_infinity=False), st.text(),
            ),
            max_size=10,
        ),
    )
    def test_round_trip_property(self, data, shape, meta):
        floats = st.floats(allow_nan=False, allow_infinity=False)
        x, y = (data.draw(hnp.arrays(np.float64, shape, elements=floats)) for _ in "xy")
        pair = EmbeddingPair(x=x, y=y, meta=meta)
        with tempfile.TemporaryDirectory() as tmp:
            save_embedding(Path(tmp, "emb"), pair)
            loaded = load_embedding(Path(tmp, "emb"))
        assert loaded.x.tobytes() == x.tobytes() and loaded.x.shape == shape
        assert loaded.y.tobytes() == y.tobytes() and loaded.y.shape == shape
        assert loaded.meta == meta

    def test_shape_mismatch_rejected(self, tmp_path):
        from pprinv.linalg import save_matrix

        pair = EmbeddingPair(x=np.zeros((4, 2)), y=np.zeros((4, 2)))
        save_embedding(tmp_path / "emb", pair)
        save_matrix(tmp_path / "emb" / "Y.mat", np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shapes differ"):
            load_embedding(tmp_path / "emb")

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("3", "int")])
    def test_meta_not_an_object_rejected(self, tmp_path, text, kind):
        save_embedding(tmp_path / "emb", EmbeddingPair(np.zeros((2, 1)), np.zeros((2, 1))))
        (tmp_path / "emb" / "meta.json").write_text(text)
        with pytest.raises(ValueError, match=f"meta.json: expected a JSON object, got {kind}"):
            load_embedding(tmp_path / "emb")
