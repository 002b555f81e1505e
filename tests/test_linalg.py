import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pprinv.linalg import (
    _ROW_BLOCK,
    _TRI_INV_LEAF,
    _spd_inverse,
    _strict_upper,
    _symmetrize,
    load_matrix,
    pseudoinverse,
    randomized_svd,
    save_matrix,
)


class TestRandomizedSvd:
    def test_exact_rank_two(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(15, 2))
        v = rng.normal(size=(15, 2))
        m = u @ v.T
        u_r, sigma, v_r = randomized_svd(m, 2, seed=0)
        rec = u_r @ np.diag(sigma) @ v_r.T
        assert np.linalg.norm(m - rec) < 1e-8

    def test_identity_singular_values(self):
        _, sigma, _ = randomized_svd(np.eye(5), 5, seed=0)
        assert np.allclose(sigma, np.ones(5))

    def test_within_five_percent_of_eigh_oracle(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(40, 40))
        w = np.linalg.eigvalsh(m.T @ m)[::-1]
        sigma = np.sqrt(np.maximum(w, 0.0))
        optimal = np.sqrt((sigma[10:] ** 2).sum())
        u, s, v = randomized_svd(m, 10, seed=0)
        err = np.linalg.norm(m - u @ np.diag(s) @ v.T)
        assert err <= 1.05 * optimal

    def test_singular_values_never_exceed_exact(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(25, 25))
        exact = np.linalg.svd(m, compute_uv=False)
        _, sigma, _ = randomized_svd(m, 8, seed=1)
        assert np.all(sigma <= exact[:8] + 1e-8)

    def test_sigma_sorted_and_factor_columns_unit_norm(self):
        rng = np.random.default_rng(6)
        u, sigma, v = randomized_svd(rng.normal(size=(20, 20)), 6, seed=2)
        assert np.all(np.diff(sigma) <= 0)
        assert np.all(sigma >= 0)
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-8)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-8)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(18, 18))
        for a, b in zip(randomized_svd(m, 5, seed=11), randomized_svd(m, 5, seed=11)):
            assert np.array_equal(a, b)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            randomized_svd(np.eye(4), 5, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            randomized_svd(np.eye(4), 0, seed=0)


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4))

    def test_rank_deficient_diagonal(self):
        out = pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_penrose_identity_on_psd(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=(10, 4))
        m = b @ b.T  # PSD, rank 4
        pinv = pseudoinverse(m)
        assert np.abs(m @ pinv @ m - m).max() < 1e-8

    def test_full_rank_gives_inverse(self):
        rng = np.random.default_rng(9)
        b = rng.normal(size=(8, 8))
        m = b @ b.T + 0.5 * np.eye(8)
        assert np.abs(m @ pseudoinverse(m) - np.eye(8)).max() < 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            pseudoinverse(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            pseudoinverse(m)


class TestInPlaceKernels:
    @pytest.mark.parametrize("n", [1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 7])
    def test_symmetrize_bits_of_the_whole_matrix_form(self, n):
        m = np.random.default_rng(n).normal(size=(n, n))
        want = (m + m.T) / 2.0
        _symmetrize(m)
        assert m.tobytes() == want.tobytes()


class TestStrictUpper:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 400])
    def test_values_and_order_of_triu_indices(self, n):
        m = np.random.default_rng(n).normal(size=(n, n))
        want = m[np.triu_indices(n, 1)]
        got = _strict_upper(m)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def random_spd(n, seed):
    b = np.random.default_rng(seed).normal(size=(n, n)) / np.sqrt(n)
    return b @ b.T + 0.5 * np.eye(n)


class TestSpdInverse:
    @staticmethod
    def check_inverse(m):
        want = pseudoinverse(m)
        inv = m.copy()
        assert _spd_inverse(inv)
        assert np.array_equal(inv, inv.T)
        assert np.abs(inv - want).max() <= 1e-12 * np.abs(want).max()

    # Sizes on each side of the leaf, one that splits unevenly, and one that
    # splits twice and spans three row blocks of the 1-norm.
    @pytest.mark.parametrize("n", [1, 7, _TRI_INV_LEAF, _TRI_INV_LEAF + 1, 300])
    def test_matches_pseudoinverse(self, n):
        self.check_inverse(random_spd(n, n))

    # Every n from 1 to 300 splits into leaves of at most _TRI_INV_LEAF
    # rows within two levels of halves; odd n split unevenly.
    @settings(max_examples=100)
    @given(n=st.integers(1, 300), seed=st.integers(0, 10_000))
    @example(n=_TRI_INV_LEAF, seed=0)
    @example(n=_TRI_INV_LEAF + 1, seed=0)
    @example(n=2 * _TRI_INV_LEAF + 3, seed=0)
    def test_matches_pseudoinverse_property(self, n, seed):
        self.check_inverse(random_spd(n, seed))

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1.0, -1.0, 2.0]),
            np.diag([1.0, 0.0, 2.0]),
            np.diag([1.0, 1e-12, 2.0]),
            # n=300; the 1e-12 lies in the last row block of the 1-norm.
            np.diag(np.r_[np.ones(2 * _ROW_BLOCK + 43), 1e-12]),
            np.full((2, 2), np.nan),
        ],
        ids=["indefinite", "singular", "near-singular", "near-singular-n300", "nan"],
    )
    def test_rejects_what_pseudoinverse_must_handle(self, m):
        assert not _spd_inverse(m.copy())


class TestMatrixFiles:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(7, 3))
        path = tmp_path / "m.mat"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)

    @settings(max_examples=100)
    @given(m=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    def test_binary_round_trip_property(self, m):
        # Bit for bit, so -0.0 and subnormals survive too.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.mat")
            save_matrix(path, m)
            loaded = load_matrix(path)
        assert loaded.dtype == np.float64 and loaded.shape == m.shape
        assert loaded.tobytes() == m.tobytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.mat"
        save_matrix(path, np.eye(2))
        assert path.read_bytes()[:8] == b"PPREIM1\x00"

    def test_non_2d_rejected(self, tmp_path):
        path = tmp_path / "m.mat"
        with pytest.raises(ValueError, match="save_matrix expects a 2-D matrix"):
            save_matrix(path, np.zeros(3))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mat"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.mat"
        save_matrix(path, np.eye(3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_matrix(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.mat"
        path.write_bytes(b"PPREIM1\x00abcd")
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 24 header bytes, got 12")):
            load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.mat"
        save_matrix(path, np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            load_matrix(path)

    def test_payload_is_not_copied(self, tmp_path):
        # tracemalloc peaks in n x n float64 arrays at n=500: the loaded
        # array and its finiteness mask (1.13), where holding the bytes read,
        # their slice and a cast copy made 3.13; save writes from the
        # array's buffer, where tobytes copied it (1.00).
        n = 500
        m = np.random.default_rng(0).normal(size=(n, n))
        path = tmp_path / "m.mat"
        peaks = []
        for call in (lambda: save_matrix(path, m), lambda: load_matrix(path)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / (8.0 * n * n))
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.25 and peaks[1] <= 1.25, peaks
        assert load_matrix(path).tobytes() == m.tobytes()
