import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import barbell_graph, random_connected_graph, random_graph, sbm_graph
from pprinv import graph as graph_module
from pprinv.graph import Graph, all_pairs_distances, parse_labels
from pprinv.metrics import (
    average_path_length,
    recovery_report,
    relative_frobenius_error,
)
from pprinv.optimize import OptConfig, forward_proximity, invert_optimize


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def labels_for(g, label_of):
    text = "\n".join(f"{i} {label_of(i)}" for i in range(g.n))
    return parse_labels(text, g)


def path_length_error(g, g_hat):
    return recovery_report(g, g_hat, None).err_l


def conductance_entry(g, g_hat, label_of, label):
    """The per_community entry of recovery_report for one community."""
    report = recovery_report(g, g_hat, labels_for(g, label_of))
    return next(c for c in report.per_community if c.label == label)


def barbell_sides(i):
    return "left" if i < 3 else "right"


def triu_average_path_length(g):
    """The upper-triangle reduction that average_path_length replaced, kept
    as its reference."""
    dist = all_pairs_distances(g)
    iu = np.triu_indices(g.n, k=1)
    finite = np.isfinite(dist[iu])
    count = int(finite.sum())
    if count == 0:
        return math.nan, 0
    return float(dist[iu][finite].mean()), count


class TestFrobeniusError:
    @settings(max_examples=100)
    @given(n=st.integers(2, 30), p=st.floats(0.05, 0.9), seeds=st.tuples(
        st.integers(0, 10_000), st.integers(0, 10_000)))
    def test_matches_dense_symmetric_difference(self, n, p, seeds):
        g, g_hat = (random_graph(n, p, seed) for seed in seeds)
        if g.num_edges == 0:
            return
        sym_diff = np.count_nonzero(np.triu(g.adjacency() != g_hat.adjacency(), 1))
        assert relative_frobenius_error(g, g_hat) == math.sqrt(sym_diff / g.num_edges)

    def test_identical_graphs(self, k3):
        assert relative_frobenius_error(k3, k3) == 0.0

    def test_empty_recovery(self, k3):
        empty = Graph.from_edges(3, [])
        assert relative_frobenius_error(k3, empty) == 1.0

    def test_one_edge_swapped(self):
        # Triangle {0,1,2} with edge (1,2) replaced by the non-edge (1,3):
        # |E symdiff E_hat| = 2, m = 3.
        a = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        a_hat = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
        err = relative_frobenius_error(a, a_hat)
        assert err == pytest.approx(np.sqrt(2 / 3), abs=1e-12)

    def test_matches_dense_frobenius(self):
        g = random_connected_graph(15, 0.3, 0)
        g_hat = random_connected_graph(15, 0.3, 1)
        want = np.linalg.norm(g.adjacency() - g_hat.adjacency()) / np.linalg.norm(
            g.adjacency()
        )
        assert relative_frobenius_error(g, g_hat) == pytest.approx(want, rel=1e-12)

    def test_symmetry_up_to_denominator(self):
        g = random_connected_graph(12, 0.3, 2)
        g_hat = random_connected_graph(12, 0.3, 3)
        forward = relative_frobenius_error(g, g_hat)
        backward = relative_frobenius_error(g_hat, g)
        scale = np.sqrt(g_hat.num_edges / g.num_edges)
        assert backward * scale == pytest.approx(forward, rel=1e-12)

    def test_size_mismatch(self, k3):
        with pytest.raises(ValueError, match="node counts"):
            relative_frobenius_error(k3, Graph.from_edges(4, [(0, 1)]))

    def test_empty_original_rejected(self):
        empty = Graph.from_edges(3, [])
        with pytest.raises(ValueError, match="no edges"):
            relative_frobenius_error(empty, empty)


class TestPathLengthError:
    def test_identical(self, p3):
        assert path_length_error(p3, p3) == 0.0

    def test_p3_average_is_four_thirds(self, p3):
        l, pairs = average_path_length(p3)
        assert l == pytest.approx(4 / 3)
        assert pairs == 3

    @settings(max_examples=100)
    @given(n=st.integers(1, 60), p=st.floats(0.0, 0.5), seed=st.integers(0, 10_000))
    def test_bitwise_equal_to_triu_form(self, n, p, seed):
        # Sparse draws are often disconnected; p = 0 gives an edgeless graph.
        want_mean, want_count = triu_average_path_length(random_graph(n, p, seed))
        mean, count = average_path_length(random_graph(n, p, seed))
        assert count == want_count
        assert np.array(mean).tobytes() == np.array(want_mean).tobytes()

    def test_edgeless_graph(self):
        mean, count = average_path_length(Graph.from_edges(4, []))
        assert math.isnan(mean) and count == 0

    def test_original_graph_path_length_runs_once(self, monkeypatch):
        calls = []
        kernel = graph_module._bfs_distance_sums

        def counting(h):
            calls.append(h)
            return kernel(h)

        monkeypatch.setattr(graph_module, "_bfs_distance_sums", counting)
        g = random_connected_graph(20, 0.2, 4)
        g_hat = random_connected_graph(20, 0.2, 5)
        first = recovery_report(g, g_hat, None)
        second = recovery_report(g, g, None)
        assert sum(h is g for h in calls) == 1
        assert sum(h is g_hat for h in calls) == 1
        assert first.connected_pairs_orig == second.connected_pairs_orig == 190

    def test_p3_vs_k3(self, p3, k3):
        assert path_length_error(p3, k3) == pytest.approx(0.25)

    def test_k4_vs_k4_minus_edge(self):
        k4 = complete_graph(4)
        minus = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert path_length_error(k4, minus) == pytest.approx(1 / 6)

    def test_each_graph_averages_its_own_connected_pairs(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # path, l = 10/6
        g_hat = Graph.from_edges(4, [(0, 1), (2, 3)])  # two pairs at distance 1
        want = abs(10 / 6 - 1.0) / (10 / 6)
        assert path_length_error(g, g_hat) == pytest.approx(want)

    def test_no_connected_pair_rejected(self):
        # An original graph without a connected pair has no edges, which the
        # edge error already rejects.
        empty = Graph.from_edges(3, [])
        with pytest.raises(ValueError, match="no edges"):
            path_length_error(empty, empty)


class TestConductanceError:
    def test_identical(self, barbell):
        entry = conductance_entry(barbell, barbell, barbell_sides, "left")
        assert entry.rel_err == 0.0

    def test_doubled_bridge(self, barbell):
        # Extra bridge (1,3): cut 2, vol(S) = 8 -> phi_hat = 1/4 vs 1/7.
        edited = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (1, 3)]
        )
        entry = conductance_entry(barbell, edited, barbell_sides, "left")
        assert (entry.phi_orig, entry.phi_rec) == (pytest.approx(1 / 7), 0.25)
        assert entry.rel_err == pytest.approx(0.75)

    def test_fully_disconnected_community(self, barbell):
        split = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        )
        entry = conductance_entry(barbell, split, barbell_sides, "left")
        assert entry.rel_err == pytest.approx(1.0)


class TestRecoveryReport:
    def test_identical_graphs_all_zero(self, barbell):
        labels = labels_for(barbell, barbell_sides)
        report = recovery_report(barbell, barbell, labels)
        assert report.err_a == 0.0
        assert report.err_l == 0.0
        assert report.err_phi_avg == 0.0
        assert len(report.per_community) == 2

    def test_two_community_average(self, barbell):
        edited = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 3)]
        )
        labels = labels_for(barbell, barbell_sides)
        report = recovery_report(barbell, edited, labels)
        errs = [c.rel_err for c in report.per_community]
        assert report.err_phi_avg == pytest.approx(np.mean(errs))
        assert len(errs) == 2

    def test_top_four_of_many_communities(self):
        g, block_labels = sbm_graph(5, 8, 0.6, 0.05, 0)
        labels = labels_for(g, lambda i: f"c{block_labels[i]}")
        report = recovery_report(g, g, labels)
        assert len(report.per_community) == 4
        sizes = [c.size for c in report.per_community]
        assert sizes == sorted(sizes, reverse=True)

    def test_zero_conductance_community_excluded(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        labels = labels_for(g, lambda i: "tri" if i < 3 else "pair")
        report = recovery_report(g, g, labels)
        flags = {c.label: c.excluded for c in report.per_community}
        assert flags == {"tri": True, "pair": True}
        assert [c.phi_orig for c in report.per_community] == [0.0, 0.0]
        assert report.err_phi_avg is None

    def test_isolated_recovered_community_excluded(self):
        # Three triangles in a row; the recovered graph drops every edge at
        # the first, so that community has zero volume there.
        tri = [(0, 1), (0, 2), (1, 2)]
        rest = [(u + k, v + k) for k in (3, 6) for u, v in tri] + [(5, 6)]
        g = Graph.from_edges(9, tri + rest + [(2, 3)])
        g_hat = Graph.from_edges(9, rest)
        labels = labels_for(g, lambda i: "abc"[i // 3])
        report = recovery_report(g, g_hat, labels)
        entries = {c.label: c for c in report.per_community}
        assert entries["a"].phi_orig == pytest.approx(1 / 7)
        assert (entries["a"].phi_rec, entries["a"].rel_err) == (None, None)
        assert [c.excluded for c in report.per_community] == [True, False, False]
        want = np.mean([entries["b"].rel_err, entries["c"].rel_err])
        assert report.err_phi_avg == pytest.approx(want)
        assert np.isfinite(report.err_l)

    def test_labels_none_skips_conductance(self, barbell):
        report = recovery_report(barbell, barbell, None)
        assert report.per_community == ()
        assert report.err_phi_avg is None
        assert report.err_a == 0.0

    def test_end_to_end_on_sbm_recovery(self):
        g, block_labels = sbm_graph(4, 15, 0.5, 0.04, 1)
        labels = labels_for(g, lambda i: f"c{block_labels[i]}")
        target = forward_proximity(g.adjacency(), 0.1, 1e-7, 10)
        cfg = OptConfig(
            target_volume=float(g.volume), alpha=0.1, epochs=40,
            epsilon=1e-7, k_horizon=10, step_size=0.3, seed=0,
        )
        result = invert_optimize(target, cfg, g.num_edges)
        report = recovery_report(g, result.graph, labels)
        assert np.isfinite(report.err_a)
        assert np.isfinite(report.err_l)
        assert report.err_phi_avg is not None and np.isfinite(report.err_phi_avg)
        assert len(report.per_community) == 4
        payload = report.to_dict()
        assert set(payload) == {
            "err_A", "err_l", "err_phi_avg", "per_community",
            "connected_pairs_orig", "connected_pairs_rec",
        }
