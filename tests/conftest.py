import numpy as np
import pytest
from hypothesis import settings

from pprinv.graph import Graph, _walk_operator, all_pairs_distances

# Every property runs without an example database, so no run replays another
# run's failures, and without a per-example deadline; a failure prints the
# blob that reproduces it with @reproduce_failure.
settings.register_profile("pprinv", deadline=None, database=None, print_blob=True)
settings.load_profile("pprinv")


def transition_matrix(g):
    """Dense row-stochastic random-walk matrix, the oracle for the CSR walk
    operator; raises for an isolated node."""
    return _walk_operator(g).toarray()


def random_graph(n, p, seed):
    """Erdos-Renyi draw as a Graph; may be disconnected or have isolates."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    edges = [(int(i), int(j)) for i, j in np.argwhere(upper)]
    return Graph.from_edges(n, edges)


def random_connected_graph(n, p, seed, full_rank=False):
    """Seeded connected graph; optionally retries until the adjacency is
    numerically full rank."""
    attempt = 0
    while True:
        g = random_graph(n, p, seed * 1000 + attempt)
        attempt += 1
        if np.any(g.degrees == 0):
            continue
        if not np.isfinite(all_pairs_distances(g)).all():
            continue
        if full_rank:
            w = np.linalg.eigvalsh(g.adjacency())
            if np.abs(w).min() <= 1e-6 * np.abs(w).max():
                continue
        return g


def sbm_graph(n_blocks, block_size, p_in, p_out, seed):
    """Connected planted-partition graph; returns (graph, labels array)."""
    n = n_blocks * block_size
    labels = np.repeat(np.arange(n_blocks), block_size)
    attempt = 0
    while True:
        rng = np.random.default_rng(seed * 1000 + attempt)
        attempt += 1
        prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
        upper = np.triu(rng.random((n, n)) < prob, 1)
        edges = [(int(i), int(j)) for i, j in np.argwhere(upper)]
        g = Graph.from_edges(n, edges)
        if np.any(g.degrees == 0):
            continue
        if np.isfinite(all_pairs_distances(g)).all():
            return g, labels


def barbell_graph():
    """Two triangles {0,1,2} and {3,4,5} joined by the single edge (2,3)."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    return Graph.from_edges(6, edges)


@pytest.fixture
def k3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def p3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def barbell():
    return barbell_graph()
