import dataclasses
import io
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, random_graph, sbm_graph, transition_matrix
from pprinv import graph as graph_module
from pprinv.graph import (
    EdgeListError,
    Graph,
    _walk_operator,
    all_pairs_distances,
    conductance,
    parse_edge_list,
    parse_labels,
    parse_recovered,
    serialize_edge_list,
)

# A node name as the edge-list format allows: no whitespace, line breaks or
# control characters, and no '#', which would start a comment.
NODE_NAME = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
    min_size=1, max_size=6,
)


class TestParseEdgeList:
    def test_path_graph(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert g.num_edges == 2
        assert g.volume == 4
        assert list(g.degrees) == [1, 2, 1]

    def test_duplicates_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1\n")
        assert g.num_edges == 1

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\n\n0 1\n  \n# trailing\n1 2\n")
        assert g.num_edges == 2

    def test_arbitrary_string_ids_sorted_order(self):
        # First seen are carol, alice, bob; the ids follow the sorted names.
        g = parse_edge_list("carol alice\nalice bob\n")
        assert g.node_names == ("alice", "bob", "carol")
        assert g.edge_set() == {(0, 1), (0, 2)}

    def test_integer_names_by_value_then_other_names(self):
        g = parse_edge_list("b 10\n10 2\n2 01\n1 a\n01 1\n")
        assert g.node_names == ("01", "1", "2", "10", "a", "b")

    @settings(max_examples=50)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 10_000),
        names=st.lists(NODE_NAME, min_size=12, max_size=12, unique=True),
        rnd=st.randoms(use_true_random=False),
    )
    def test_ids_do_not_depend_on_line_order(self, n, seed, names, rnd):
        g = dataclasses.replace(
            random_connected_graph(n, 0.4, seed), node_names=tuple(names[:n])
        )
        text = serialize_edge_list(g)
        lines = text.splitlines()
        rnd.shuffle(lines)
        lines = [" ".join(line.split()[::rnd.choice((1, -1))]) for line in lines]
        again, shuffled = parse_edge_list(text), parse_edge_list("\n".join(lines))
        assert shuffled.node_names == again.node_names
        assert np.array_equal(shuffled.indptr, again.indptr)
        assert np.array_equal(shuffled.indices, again.indices)

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("0 1\n0 1 2\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListError, match="empty"):
            parse_edge_list("\n# only comments\n")

    def test_self_loops_dropped_with_count(self, caplog):
        with caplog.at_level(logging.WARNING, logger="pprinv.graph"):
            g = parse_edge_list("0 0\n0 1\n1 1\n")
        assert g.num_edges == 1
        assert "2 self-loop" in caplog.text

    def test_loop_only_node_rejected_with_pruning_hint(self):
        with pytest.raises(EdgeListError, match="prune"):
            parse_edge_list("0 1\n2 2\n")

    def test_bytes_input(self):
        g = parse_edge_list(b"0 1\n1 2\n")
        assert g.num_edges == 2

    @pytest.mark.parametrize("wrap", [
        lambda text: text,
        str.encode,
        lambda text: io.BytesIO(text.encode()),
        io.StringIO,
    ], ids=["str", "bytes", "binary-file", "text-file"])
    def test_byte_order_mark_dropped(self, wrap):
        plain = parse_edge_list(wrap("0 1\n0 2\n"))
        marked = parse_edge_list(wrap("\ufeff0 1\n0 2\n"))
        assert marked.n == plain.n == 3
        assert marked.edge_set() == plain.edge_set()
        assert marked.node_names == plain.node_names == ("0", "1", "2")

    def test_euro_scale_file(self):
        # Synthetic file matching the Euro dataset's published size
        # (n=399, m=5995, volume 11990).
        rng = np.random.default_rng(42)
        n, target_m = 399, 5995
        pairs = set()
        while len(pairs) < target_m:
            u, v = rng.integers(0, n, size=2)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        covered = {u for e in pairs for u in e}
        assert len(covered) == n  # dense enough to touch every node
        text = "".join(f"{u} {v}\n" for u, v in sorted(pairs))
        g = parse_edge_list(text)
        assert (g.n, g.num_edges, g.volume) == (399, 5995, 11990)

    def test_round_trip_identity_on_canonical_edges(self):
        def named_edges(g):
            names = g.node_names or tuple(str(i) for i in range(g.n))
            return {
                tuple(sorted((names[u], names[v]))) for u, v in g.edge_set()
            }

        for seed in range(5):
            g = random_connected_graph(15, 0.3, seed)
            again = parse_edge_list(serialize_edge_list(g))
            assert named_edges(again) == named_edges(g)

    @settings(max_examples=50)
    @given(n=st.integers(2, 15), seed=st.integers(0, 10_000))
    def test_round_trip_keeps_csr_arrays(self, n, seed):
        # Names 0..n-1 sort by value, so a synthetic graph comes back with
        # the same ids, not relabelled by the line order of its file.
        g = random_connected_graph(n, 0.4, seed)
        again = parse_edge_list(serialize_edge_list(g))
        assert again.node_names == tuple(str(i) for i in range(n))
        assert np.array_equal(again.indptr, g.indptr)
        assert np.array_equal(again.indices, g.indices)

    @settings(max_examples=100)
    @given(
        n=st.integers(2, 15),
        seed=st.integers(0, 10_000),
        names=st.lists(NODE_NAME, min_size=15, max_size=15, unique=True),
    )
    def test_named_round_trip(self, n, seed, names):
        g = dataclasses.replace(
            random_connected_graph(n, 0.4, seed), node_names=tuple(names[:n])
        )
        again = parse_edge_list(serialize_edge_list(g))
        assert sorted(again.node_names) == sorted(g.node_names)

        def named_edges(h):
            return {frozenset((h.node_names[u], h.node_names[v])) for u, v in h.edge_set()}

        assert named_edges(again) == named_edges(g)

    def test_degree_sum_equals_volume_equals_2m(self):
        for seed in range(5):
            g = random_graph(20, 0.2, seed)
            assert g.degrees.sum() == g.volume == 2 * g.num_edges


def loop_from_edges(n, edges):
    """The per-pair loop builder that Graph.from_edges replaced, kept as its
    reference: (indptr, indices), raising on the first bad pair."""
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop ({u},{u}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside node range 0..{n - 1}")
        canon.add((min(u, v), max(u, v)))
    counts = np.zeros(n, dtype=np.int64)
    for u, v in canon:
        counts[u] += 1
        counts[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.zeros(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for u, v in sorted(canon):
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    return indptr, indices


@st.composite
def pair_lists(draw, bad=False):
    """(n, pairs): pairs over 0..n-1 with repeats and both orientations;
    with bad=True, ids may also be self-loops or fall outside the range."""
    n = draw(st.integers(1, 12))
    ids = st.integers(-2, n + 1) if bad else st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=40))
    if not bad:
        pairs = [(u, v) for u, v in pairs if u != v]
    flipped = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return n, pairs + [(v, u) for u, v in flipped] + flipped


class TestFromEdges:
    @settings(max_examples=300)
    @given(case=pair_lists())
    def test_matches_loop_builder(self, case):
        n, pairs = case
        indptr, indices = loop_from_edges(n, pairs)
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        for edges in (pairs, iter(pairs), set(pairs), array):
            g = Graph.from_edges(n, edges)
            assert g.indptr.dtype == g.indices.dtype == np.int64
            assert np.array_equal(g.indptr, indptr)
            assert np.array_equal(g.indices, indices)

    @settings(max_examples=100)
    @given(case=pair_lists())
    def test_adjacency_bits_of_the_csr_form(self, case):
        # Isolated nodes included; every edge stored once per orientation.
        n, pairs = case
        g = Graph.from_edges(n, pairs)
        want = g._csr(np.ones(g.volume)).toarray()
        assert g.adjacency().tobytes() == want.tobytes()

    @settings(max_examples=300)
    @given(case=pair_lists(bad=True))
    def test_errors_match_loop_builder(self, case):
        n, pairs = case
        try:
            want = loop_from_edges(n, pairs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Graph.from_edges(n, pairs)
            assert str(got.value) == str(exc)
        else:
            g = Graph.from_edges(n, pairs)
            assert np.array_equal(g.indptr, want[0])
            assert np.array_equal(g.indices, want[1])

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^self-loop \(1,1\) not allowed$"):
            Graph.from_edges(3, [(0, 1), (1, 1), (0, 5)])
        with pytest.raises(ValueError, match=r"^edge \(0,5\) outside node range 0..2$"):
            Graph.from_edges(3, [(0, 1), (0, 5), (1, 1)])
        with pytest.raises(ValueError, match=r"^edges must be \(u, v\) pairs, got shape"):
            Graph.from_edges(3, [(0, 1, 2)])

    def test_non_whole_ids_rejected(self):
        # Floats are rejected by dtype, whole-valued or not; empty input of
        # any dtype (np.asarray([]) is float64) is the edgeless graph.
        for edges in ([(0, 1.9)], np.array([[0.5, 2.0]]), [(0, 1), (2, 0.5)],
                      [(1, float("nan"))], np.array([[0.0, 1.0], [2.0, 1.0]])):
            with pytest.raises(ValueError, match=r"^node ids must be integers, got dtype float64$"):
                Graph.from_edges(3, edges)
        for edges in ([], np.array([]), np.empty((0, 2))):
            assert Graph.from_edges(3, edges).num_edges == 0

    def test_node_names_must_name_every_node(self):
        # One name short was accepted, and serialize_edge_list then failed
        # with an IndexError.
        with pytest.raises(ValueError, match="1 node names for 3 nodes"):
            Graph.from_edges(3, [(0, 1), (1, 2)], node_names=("a",))
        g = Graph.from_edges(3, [(0, 1), (1, 2)], node_names=("a", "b", "c"))
        assert serialize_edge_list(g) == "a b\nb c\n"
        with pytest.raises(ValueError, match="4 node names for 3 nodes"):
            dataclasses.replace(g, node_names=("a", "b", "c", "d"))

    def test_non_numeric_and_out_of_range_ids_rejected(self):
        # An id is range-checked before the int64 cast, so no cast wraps
        # it and the error names the id as given.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"^edge \(0,9223372036854775808\) outside node range 0..2$"
            with pytest.raises(ValueError, match=message):
                Graph.from_edges(3, np.array([[0, 2**63]], dtype=np.uint64))
            for edges, dtype in (([("0", "2")], "<U1"),
                                 (np.array([[True, False]]), "bool"),
                                 ([(b"0", b"2")], "|S1"),
                                 (np.array([[0, 1]], dtype=object), "object"),
                                 ([(0, True)], "bool"),
                                 ([(0, np.True_)], "bool"),
                                 ([(np.False_, 2)], "bool")):
                message = f"^node ids must be integers, got dtype {re.escape(dtype)}$"
                with pytest.raises(ValueError, match=message):
                    Graph.from_edges(3, edges)

    def test_inconsistent_csr_arrays_rejected(self):
        indices = np.array([1, 0])
        with pytest.raises(ValueError, match="indptr must have length n\\+1"):
            Graph(n=3, indptr=np.array([0, 1, 2]), indices=indices)
        with pytest.raises(ValueError, match="indices inconsistent with indptr"):
            Graph(n=2, indptr=np.array([0, 1, 3]), indices=indices)

    def test_csr_arrays_read_only(self, k3):
        with pytest.raises(ValueError, match="read-only"):
            k3.indices[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            k3.indptr[1] = 0

    def test_identity_equality_and_hash(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        twin = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert (g == twin) is False
        assert (g == g) is True
        assert {g, twin, g} == {g, twin}
        assert {g: 1, twin: 2}[g] == 1


class TestParseLabels:
    def test_two_communities_sorted_by_size(self, p3):
        g = parse_edge_list("0 1\n1 2\n")
        communities = parse_labels("0 A\n1 A\n2 B\n", g)
        assert [(label, set(members)) for label, members in communities] == [
            ("A", {0, 1}),
            ("B", {2}),
        ]

    def test_single_community(self):
        g = parse_edge_list("0 1\n1 2\n")
        communities = parse_labels("0 x\n1 x\n2 x\n", g)
        assert communities == (("x", frozenset({0, 1, 2})),)

    def test_tie_break_smaller_label_first(self):
        g = parse_edge_list("0 1\n2 3\n")
        communities = parse_labels("0 7\n1 7\n2 3\n3 3\n", g)
        assert [label for label, _ in communities] == ["3", "7"]

    def test_unknown_node(self):
        g = parse_edge_list("0 1\n")
        with pytest.raises(EdgeListError, match="unknown node"):
            parse_labels("0 A\n1 A\n9 B\n", g)

    def test_missing_nodes_listed(self):
        g = parse_edge_list("0 1\n1 2\n")
        with pytest.raises(EdgeListError, match="missing a label: 2"):
            parse_labels("0 A\n1 A\n", g)

    def test_comments_allowed_in_label_file(self):
        g = parse_edge_list("0 1\n")
        communities = parse_labels("# communities\n0 A\n\n1 B\n", g)
        assert len(communities) == 2

    def test_byte_order_mark_dropped(self):
        g = parse_edge_list("0 1\n1 2\n")
        communities = parse_labels("\ufeff0 A\n1 A\n2 B\n".encode(), g)
        assert communities == parse_labels("0 A\n1 A\n2 B\n", g)

    def test_conflicting_labels_rejected(self, p3):
        with pytest.raises(EdgeListError, match=(
            r"line 4: node '0' labelled 'b', but line 1 labelled it 'a'"
        )):
            parse_labels("0 a\n1 a\n2 b\n0 b\n", p3)

    def test_repeated_line_accepted(self, p3):
        communities = parse_labels("0 a\n1 a\n2 b\n0 a\n", p3)
        assert communities == (("a", frozenset({0, 1})), ("b", frozenset({2})))

    def test_four_synthetic_communities(self):
        # Label-count parity with the Euro dataset (4 communities).
        edges = "\n".join(f"{i} {(i + 1) % 8}" for i in range(8))
        g = parse_edge_list(edges)
        labels = "\n".join(f"{i} c{i % 4}" for i in range(8))
        communities = parse_labels(labels, g)
        assert len(communities) == 4


class TestParseRecovered:
    def test_byte_order_mark_dropped(self):
        g = parse_edge_list("a b\nb c\n")
        h = parse_recovered("\ufeffa c\n".encode(), g)
        assert h.edge_set() == {(0, 2)}
        assert h.node_names == g.node_names

    def test_self_loop_rejected(self, p3):
        with pytest.raises(EdgeListError, match="^line 2: self-loop on node '1'$"):
            parse_recovered("0 1\n1 1\n", p3)


class TestTransitionMatrix:
    def test_triangle(self, k3):
        p = transition_matrix(k3)
        assert np.allclose(p, 0.5 * (np.ones((3, 3)) - np.eye(3)))

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert np.array_equal(transition_matrix(g), [[0, 1], [1, 0]])

    def test_path_middle_row(self, p3):
        assert np.array_equal(transition_matrix(p3)[1], [0.5, 0, 0.5])

    def test_isolated_node_named_in_error(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="node 2"):
            _walk_operator(g)

    def test_rows_sum_to_one(self):
        for seed in range(3):
            g = random_connected_graph(25, 0.2, seed)
            sums = transition_matrix(g).sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-12


class TestAllPairsDistances:
    def test_path(self, p3):
        d = all_pairs_distances(p3)
        assert d[0, 1] == 1 and d[1, 2] == 1 and d[0, 2] == 2
        assert np.array_equal(np.diag(d), np.zeros(3))

    def test_disjoint_edges_unreachable(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        d = all_pairs_distances(g)
        assert np.isinf(d[0, 2]) and np.isinf(d[1, 3])
        assert d[0, 1] == 1

    def test_matches_floyd_warshall(self):
        for seed in range(3):
            g = random_connected_graph(40, 0.12, seed)
            oracle = np.full((g.n, g.n), np.inf)
            np.fill_diagonal(oracle, 0.0)
            for u, v in g.edge_set():
                oracle[u, v] = oracle[v, u] = 1.0
            for k in range(g.n):
                oracle = np.minimum(oracle, oracle[:, k, None] + oracle[None, k, :])
            assert np.array_equal(all_pairs_distances(g), oracle)

    def test_triangle_inequality(self):
        g = random_connected_graph(20, 0.2, 7)
        d = all_pairs_distances(g)
        for v in range(g.n):
            assert np.all(d <= d[:, v, None] + d[None, v, :] + 1e-9)

    def test_symmetric(self):
        g = random_connected_graph(20, 0.2, 3)
        d = all_pairs_distances(g)
        assert np.array_equal(d, d.T)


def apsp_path_length(g):
    """(mean, count) over connected unordered pairs from the dense distance
    matrix: the oracle for Graph._path_length."""
    dist = all_pairs_distances(g)
    finite = np.isfinite(dist)
    count = (int(np.count_nonzero(finite)) - g.n) // 2
    if count == 0:
        return math.nan, 0
    return float(np.sum(dist, where=finite) / 2 / count), count


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestPathLength:
    @staticmethod
    def assert_matches_oracle(g):
        mean, count = g._path_length
        want_mean, want_count = apsp_path_length(g)
        assert count == want_count
        assert np.array(mean).tobytes() == np.array(want_mean).tobytes()

    @staticmethod
    def route(monkeypatch, g):
        """Which side of the cost rule g's path length took."""
        dijkstra = []
        monkeypatch.setattr(
            graph_module,
            "all_pairs_distances",
            lambda h: dijkstra.append(h) or all_pairs_distances(h),
        )
        g._path_length
        return "dijkstra" if dijkstra else "bfs"

    # Mean degrees below ~1 give disconnected graphs with isolated nodes;
    # n = 63, 64, 65 put the sources in one word, one full word, and two.
    @settings(max_examples=100)
    @given(
        n=st.integers(1, 200),
        mean_degree=st.floats(0.0, 12.0),
        seed=st.integers(0, 10_000),
    )
    @example(n=1, mean_degree=0.0, seed=0)
    @example(n=63, mean_degree=1.0, seed=1)
    @example(n=64, mean_degree=3.0, seed=2)
    @example(n=65, mean_degree=0.5, seed=3)
    def test_equals_apsp_oracle(self, n, mean_degree, seed):
        self.assert_matches_oracle(random_graph(n, min(1.0, mean_degree / n), seed))

    def test_shallow_sbm_takes_bit_bfs(self, monkeypatch):
        g, _ = sbm_graph(4, 100, 0.25, 0.018, 1)
        assert self.route(monkeypatch, g) == "bfs"
        self.assert_matches_oracle(g)

    def test_long_path_hands_over_to_dijkstra(self, monkeypatch):
        g = path_graph(1600)
        assert self.route(monkeypatch, g) == "dijkstra"
        self.assert_matches_oracle(g)

    def test_dense_graph_runs_sources_in_blocks(self, monkeypatch):
        # One word of every edge end's frontier overflows the byte limit, so
        # the 150 sources run in three blocks of one word each.
        monkeypatch.setattr(graph_module, "_BFS_GATHER_BYTES", 8 * 400)
        g = random_graph(150, 0.05, 4)
        assert g.volume > 400
        assert self.route(monkeypatch, g) == "bfs"
        self.assert_matches_oracle(g)


class TestConductance:
    def test_barbell_community(self, barbell):
        assert conductance(barbell, {0, 1, 2}) == pytest.approx(1 / 7)

    def test_k4_half(self):
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert conductance(g, {0, 1}) == pytest.approx(4 / 6)

    def test_disconnected_component_zero(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert conductance(g, {3, 4}) == 0.0

    def test_empty_and_full_sets_rejected(self, k3):
        with pytest.raises(ValueError):
            conductance(k3, set())
        with pytest.raises(ValueError):
            conductance(k3, {0, 1, 2})

    def test_zero_volume_side_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="zero volume"):
            conductance(g, {2})

    @settings(max_examples=100)
    @given(
        n=st.integers(2, 30),
        p=st.floats(0.0, 0.9),
        seed=st.integers(0, 10_000),
        rnd=st.randoms(use_true_random=False),
    )
    def test_matches_dense_cut(self, n, p, seed, rnd):
        g = random_graph(n, p, seed)
        mask = np.zeros(n, dtype=bool)
        mask[rnd.sample(range(n), rnd.randint(1, n - 1))] = True
        a = g.adjacency()
        vol_s = a[mask].sum()
        denom = min(vol_s, g.volume - vol_s)
        if denom == 0:
            with pytest.raises(ValueError, match="zero volume"):
                conductance(g, np.flatnonzero(mask))
        else:
            cut = a[np.ix_(mask, ~mask)].sum()
            assert conductance(g, np.flatnonzero(mask)) == cut / denom

    def test_complement_symmetry(self):
        for seed in range(3):
            g = random_connected_graph(12, 0.3, seed)
            rng = np.random.default_rng(seed)
            s = set(rng.choice(g.n, size=5, replace=False).tolist())
            comp = set(range(g.n)) - s
            assert conductance(g, s) == pytest.approx(conductance(g, comp))
