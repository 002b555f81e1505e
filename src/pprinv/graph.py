"""Undirected graph core: ingestion, the CSR walk operator, path lengths,
conductance.

Graphs are simple (no self-loops, 0/1 adjacency) and stored in CSR form with
both edge orientations, so ``degrees`` and ``volume`` fall out of the index
structure directly. An edge list's nodes are numbered in sorted-name order
(integer names by value first), never by line order, so every command that
reads the same graph agrees on which row is which node. The average path
length needs only the sum of hop distances and the number of connected
pairs: a bit-parallel BFS from every source at once counts both, and hands
over to Dijkstra from every source (``all_pairs_distances``, the dense
oracle) when the graph's depth would make the BFS the slower of the two.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .linalg import _similar_eigh

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

log = logging.getLogger(__name__)


class EdgeListError(ValueError):
    """Malformed text input: edge list, labels, alpha schedule or degrees."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph in CSR form.

    ``indptr``/``indices`` hold both orientations of every edge, so row ``u``
    of the CSR structure lists the neighbors of ``u``. ``node_names`` keeps
    the original ids from the input file (internal ids are dense 0..n-1 in
    sorted-name order, see parse_edge_list); it is None for synthetic
    graphs. Both arrays are made read-only on construction, so values
    memoized on the instance cannot go stale: the path length, and the
    spectrum of D^-1/2 A D^-1/2 (one n x n array), computed only when a
    spectral walk sum first runs and shared by every configuration after.
    Equality and hashing are by identity; compare ``edge_set()`` for
    structure.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    node_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have length n+1")
        if self.indices.size != self.indptr[-1]:
            raise ValueError("indices inconsistent with indptr")
        if self.node_names is not None and len(self.node_names) != self.n:
            raise ValueError(
                f"{len(self.node_names)} node names for {self.n} nodes")
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def volume(self) -> int:
        """Sum of all adjacency entries (= 2m for a simple undirected graph)."""
        return int(self.indices.size)

    @property
    def num_edges(self) -> int:
        return self.volume // 2

    def _upper_keys(self) -> np.ndarray:
        """Sorted int64 keys u*n + v of the edges with u < v."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        upper = rows < self.indices
        return rows[upper] * self.n + self.indices[upper]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Canonical undirected edge set as (min, max) pairs."""
        lo, hi = np.divmod(self._upper_keys(), self.n)
        return frozenset(zip(lo.tolist(), hi.tolist()))

    @cached_property
    def _path_length(self) -> tuple[float, int]:
        """(mean BFS distance, count) over connected unordered pairs, computed
        once per graph; metrics.average_path_length is the public entry.

        The distance sum and pair count over ordered pairs come from
        _bfs_distance_sums, or from the dense distance matrix when its cost
        rule hands over; halving both gives the unordered ones. Distances are
        integers and every partial sum stays below 2**53, so the sum is exact
        either way and the mean does not depend on which route ran.
        """
        sums = _bfs_distance_sums(self)
        if sums is None:
            dist = all_pairs_distances(self)
            finite = np.isfinite(dist)
            total = int(np.sum(dist, where=finite))
            sums = total, int(np.count_nonzero(finite)) - self.n
        total, ordered = sums
        count = ordered // 2
        if count == 0:
            return math.nan, 0
        return float(total) / 2 / count, count

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lam, V, r) of S = D^-1/2 A D^-1/2 = V diag(lam) V^T, r = sqrt(deg),
        by linalg._similar_eigh, computed once per graph; the spectral walk
        sum in proximity is its only reader, so a graph that never takes
        that route never pays the eigh. The arrays are read-only and V is the
        one n x n array kept. An isolated node raises before the eigh."""
        _check_isolated(self)
        spectrum = _similar_eigh(self.adjacency(), self.degrees)
        for part in spectrum:
            part.flags.writeable = False
        return spectrum

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (float64)."""
        a = np.zeros((self.n, self.n))
        a[np.repeat(np.arange(self.n), self.degrees), self.indices] = 1.0
        return a

    def _csr(self, data: np.ndarray) -> csr_matrix:
        """Sparse n x n matrix on the edge pattern; data[k] is the value of
        the entry at indices[k]."""
        # Imported here: only walk operators and Dijkstra need scipy.sparse,
        # and it would slow `import pprinv`.
        from scipy.sparse import csr_matrix

        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        node_names: tuple[str, ...] | None = None,
    ) -> "Graph":
        """Build a graph from undirected (u, v) pairs: any iterable of pairs,
        or an (m, 2) array.

        Ids are integers; any other dtype (floats, strings, bytes, bools,
        objects) is rejected, except that empty input of any dtype is the
        edgeless graph. Duplicate pairs and both-orientation listings
        collapse; self-loops and ids outside 0..n-1 are rejected, the error
        naming the first bad pair as given. Nodes without incident edges are
        allowed (degree 0). Each CSR row lists its neighbors in ascending
        order.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges)
        if pairs.size == 0:  # np.asarray([]) is float64
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.dtype.kind not in "iu":
            raise ValueError(f"node ids must be integers, got dtype {pairs.dtype}")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        # np.asarray reads a bool among numbers as the id 0 or 1.
        if isinstance(edges, list) and any(
                isinstance(x, (bool, np.bool_)) for uv in edges for x in uv):
            raise ValueError("node ids must be integers, got dtype bool")
        # Checked before the int64 cast, which would wrap an id beyond its range.
        u, v = pairs.T
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            a, b = pairs[np.argmax(bad)].tolist()
            if a == b:
                raise ValueError(f"self-loop ({a},{a}) not allowed")
            raise ValueError(f"edge ({a},{b}) outside node range 0..{n - 1}")
        u, v = pairs.astype(np.int64).T
        lo, hi = np.divmod(np.unique(np.minimum(u, v) * n + np.maximum(u, v)), n)
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=cols[order], node_names=node_names)


def _name_key(name: str):
    """Sort key of node names and labels: integer names by value, then the
    other names; the name itself breaks ties, so '1' and '01' stay apart."""
    try:
        return (0, int(name), name)
    except ValueError:
        return (1, 0, name)


def _fields(text, width: int, expected: str):
    """Yield (line number, tokens) for each data line of a text input.

    text is str, bytes, or a file opened in either mode; bytes are decoded
    as UTF-8 and a leading byte-order mark is dropped. Blank lines and '#'
    comments are skipped; every other line must hold exactly width
    whitespace-separated tokens.
    """
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != width:
            raise EdgeListError(
                f"line {lineno}: expected {expected}, got {len(tokens)} tokens"
            )
        yield lineno, tokens


def _numbers(text, expected: str) -> list[float]:
    """The one number on each data line of a text input (see _fields); a
    token that is not a number is an error naming its line."""
    values = []
    for lineno, (token,) in _fields(text, 1, expected):
        try:
            values.append(float(token))
        except ValueError:
            raise EdgeListError(f"line {lineno}: {token!r} is not a number") from None
    return values


def parse_edge_list(text) -> Graph:
    """Parse whitespace-separated edge pairs into a Graph.

    Accepts str, bytes, or a file-like object; bytes are UTF-8 and a leading
    byte-order mark is dropped. Lines starting with '#' and blank lines are
    ignored. Node ids (arbitrary tokens) are numbered 0..n-1 in sorted-name
    order (see _name_key), so the numbering does not depend on the line
    order, and names 0..n-1 keep their value. Duplicate edges collapse
    silently; self-loops are dropped with a logged count. A node appearing
    only in dropped self-loops would be isolated and is rejected.
    """
    tokens = [name for _, pair in _fields(text, 2, "two node ids") for name in pair]
    if not tokens:
        raise EdgeListError("empty edge list")
    names = sorted(set(tokens), key=_name_key)
    ids = {name: i for i, name in enumerate(names)}
    edges = np.array([ids[name] for name in tokens], dtype=np.int64).reshape(-1, 2)
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        log.warning("dropped %d self-loop(s)", np.count_nonzero(loops))
    g = Graph.from_edges(len(names), edges[~loops], node_names=tuple(names))
    isolated = np.flatnonzero(g.degrees == 0)
    if isolated.size:
        shown = ", ".join(names[i] for i in isolated[:5])
        raise EdgeListError(
            f"isolated node(s) after ingestion ({shown}); prune them from the input"
        )
    return g


def _names(g: Graph) -> tuple[str, ...]:
    """Original node names, or the stringified internal indices."""
    return g.node_names or tuple(str(i) for i in range(g.n))


def _name_table(g: Graph) -> dict[str, int]:
    return {name: i for i, name in enumerate(_names(g))}


def _node_index(ids: dict[str, int], name: str, lineno: int) -> int:
    if name not in ids:
        raise EdgeListError(f"line {lineno}: unknown node id {name!r}")
    return ids[name]


def serialize_edge_list(g: Graph) -> str:
    """Write the canonical edge set, one 'u v' line per edge, sorted.

    Uses original node names when the graph carries them. Isolated nodes do
    not appear (an edge list cannot represent them).
    """
    names = _names(g)
    lines = [f"{names[u]} {names[v]}" for u, v in sorted(g.edge_set())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_recovered(text, g: Graph) -> Graph:
    """Parse an edge list over g's nodes, such as a recovered graph.

    Node ids are matched against g's original names when present, else
    against the stringified internal index; unknown ids and self-loops are
    errors. The result has g's nodes and names, so nodes the list omits are
    isolated.
    """
    ids = _name_table(g)
    edges = []
    for lineno, (a, b) in _fields(text, 2, "two node ids"):
        u, v = _node_index(ids, a, lineno), _node_index(ids, b, lineno)
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop on node {a!r}")
        edges.append((u, v))
    return Graph.from_edges(g.n, np.array(edges, dtype=np.int64), node_names=g.node_names)


def parse_labels(text, g: Graph) -> tuple[tuple[str, frozenset[int]], ...]:
    """Parse 'node label' lines into g's communities: (label, nodes) pairs,
    largest first, ties toward the smaller label (compared numerically when
    both parse as integers).

    Every node of g must receive exactly one label; unknown node ids and a
    node given two different labels are errors (an exact repeat of a line
    is accepted). Node ids are matched against g's original names when
    present, else against the stringified internal index.
    """
    ids = _name_table(g)
    labels: dict[int, tuple[str, int]] = {}  # node -> (label, first line)
    for lineno, (node, label) in _fields(text, 2, "'node label'"):
        previous, first = labels.setdefault(
            _node_index(ids, node, lineno), (label, lineno)
        )
        if previous != label:
            raise EdgeListError(
                f"line {lineno}: node {node!r} labelled {label!r}, but line "
                f"{first} labelled it {previous!r}"
            )
    missing = [i for i in range(g.n) if i not in labels]
    if missing:
        names = _names(g)
        shown = ", ".join(names[i] for i in missing[:10])
        raise EdgeListError(f"{len(missing)} node(s) missing a label: {shown}")
    members: dict[str, set[int]] = {}
    for node, (label, _) in labels.items():
        members.setdefault(label, set()).add(node)
    ordered = sorted(
        members.items(), key=lambda kv: (-len(kv[1]), _name_key(kv[0]))
    )
    return tuple((label, frozenset(nodes)) for label, nodes in ordered)


def _check_isolated(g: Graph) -> None:
    """A random walk needs every degree positive: raise naming the first
    isolated node."""
    if np.any(g.degrees == 0):
        u = int(np.flatnonzero(g.degrees == 0)[0])
        raise ValueError(f"node {u} is isolated; transition matrix undefined")


def _walk_operator(g: Graph) -> csr_matrix:
    """Row-stochastic random-walk matrix in CSR form: uniform 1/deg(u) over
    u's neighbors."""
    _check_isolated(g)
    deg = g.degrees
    return g._csr(np.repeat(1.0 / deg, deg))


def all_pairs_distances(g: Graph) -> np.ndarray:
    """BFS hop distances for all ordered pairs; inf marks unreachable pairs."""
    # Imported here: only deep graphs need it, and it would slow `import pprinv`.
    from scipy.sparse.csgraph import shortest_path

    adj = g._csr(np.ones(g.volume))
    return shortest_path(adj, method="D", directed=False, unweighted=True)


# Gather at most this many bytes of neighbour frontiers per BFS level, so a
# dense graph runs its sources in blocks instead of one (nnz x n/64) array.
_BFS_GATHER_BYTES = 1 << 25


def _bfs_distance_sums(g: Graph) -> tuple[int, int] | None:
    """(sum of hop distances, count) over ordered pairs of distinct connected
    nodes, by a BFS from every source at once (the multi-source BFS of Then
    et al., "The More the Merrier", PVLDB 2014); None when the cost rule
    hands over to Dijkstra.

    Row v of ``seen`` has a bit set for each source whose BFS has reached v,
    64 sources per uint64 word, and ``frontier`` the bits that arrived at the
    last level. A level ORs the frontier rows of each node's neighbours (one
    reduceat over the CSR rows; rows of degree-0 nodes are left out, since
    reduceat would copy a neighbour's row into them), clears the bits already
    seen and counts the rest, each a pair at distance ``level``.

    Cost rule: a level costs (nnz + n) word operations per 64 sources, and
    Dijkstra from every source about n (nnz + n log2 n) heap steps. A word
    operation timed at 1 to 2.4 heap steps (a 400-clique plus 400-path
    lollipop, a 1600-node path; 2-core x86_64 VM), so the BFS gives up once
    its running total passes a third of Dijkstra's. A deep graph then costs
    at most about twice what Dijkstra alone would (1.8-2.0x on that path,
    1.3-1.5x on the lollipop), and a shallow one never reaches the limit.
    """
    n, nnz = g.n, g.volume
    budget = n * (nnz + n * math.log2(max(n, 2))) / 3
    has_edges = g.degrees > 0
    starts = g.indptr[:-1][has_edges]
    block = 64 * max(1, _BFS_GATHER_BYTES // (8 * max(nnz, 1)))
    work = total = count = 0
    for first in range(0, n, block):
        sources = np.arange(first, min(first + block, n))
        column = sources - first
        seen = np.zeros((n, -(-sources.size // 64)), dtype=np.uint64)
        seen[sources, column // 64] = np.uint64(1) << (column % 64).astype(np.uint64)
        frontier = seen.copy()
        level = 0
        while True:
            work += (nnz + n) * seen.shape[1]
            if work > budget:
                return None
            level += 1
            reached = np.zeros_like(seen)
            reached[has_edges] = np.bitwise_or.reduceat(
                frontier[g.indices], starts, axis=0
            )
            reached &= ~seen
            found = int(np.bitwise_count(reached).sum())
            if not found:
                break
            seen |= reached
            total += level * found
            count += found
            frontier = reached
    return total, count


def conductance(g: Graph, s) -> float:
    """Cut edges between s and its complement over the smaller side's volume."""
    mask = np.zeros(g.n, dtype=bool)
    s = list(s)
    mask[s] = True
    size = int(mask.sum())
    if size == 0 or size == g.n:
        raise ValueError("community must be a nonempty proper subset of the nodes")
    # Stored entries (u, v) of the CSR structure with u in s and v outside it.
    cut = int(np.count_nonzero(np.repeat(mask, g.degrees) & ~mask[g.indices]))
    vol_s = int(g.degrees[mask].sum())
    denom = min(vol_s, g.volume - vol_s)
    if denom == 0:
        raise ValueError("smaller side of the cut has zero volume")
    return cut / denom
