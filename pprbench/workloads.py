"""Seeded inputs and the three benchmark workloads.

Every input is generated here from the workload seed; pprinv receives only
the generated edge-list/label files (sweeps) or arrays (exact recovery).
One *operation* is the unit the benchmark times:

- a sweep workload's operation is one in-process ``pprinv sweep`` call;
- ``exact_analytical_k2000``'s operation is one graph taken through
  ``deepwalk_log_proximity`` -> ``invert_analytical`` -> ``recovery_report``
  at both stopping probabilities.

Each operation returns an ``Outcome`` whose ``problems`` list is empty when
every correctness check held.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components


# --------------------------------------------------------------------------
# Input generators (the benchmark's own; tests/conftest.py is not used).


def _upper_edges(rng: np.random.Generator, prob: np.ndarray) -> np.ndarray:
    """Bernoulli draw of the strict upper triangle; returns (m, 2) pairs u < v."""
    return np.argwhere(np.triu(rng.random(prob.shape) < prob, 1))


def _adjacency(n: int, edges: np.ndarray) -> csr_matrix:
    return csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))


def _connected(n: int, edges: np.ndarray) -> bool:
    return connected_components(_adjacency(n, edges), directed=False)[0] == 1


def bfs_relabel(n: int, edges: np.ndarray) -> np.ndarray:
    """Permutation new_id[old] that numbers a connected graph in BFS order.

    Afterwards every node v >= 1 has a neighbour u < v, so writing the edges
    sorted by (v, u) introduces the ids in the order 0, 1, 2, ...: pprinv's
    first-seen id remapping is then the identity and recovered graphs can be
    compared with the generated one id for id.
    """
    order = breadth_first_order(_adjacency(n, edges), 0, directed=False,
                                return_predecessors=False)
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n)
    return new_id


def sbm(seed: int, n_blocks: int, block_size: int, p_in: float, p_out: float):
    """Connected planted-partition graph in BFS order: (n, edges, labels)."""
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size
    blocks = np.repeat(np.arange(n_blocks), block_size)
    prob = np.where(blocks[:, None] == blocks[None, :], p_in, p_out)
    while True:
        edges = _upper_edges(rng, prob)
        if _connected(n, edges):
            break
    new_id = bfs_relabel(n, edges)
    labels = np.empty(n, dtype=np.int64)
    labels[new_id] = blocks
    return n, _canonical(new_id[edges]), labels


def full_rank_er(seed: int, n: int, p: float):
    """Connected Erdos-Renyi graph whose adjacency is numerically full rank."""
    rng = np.random.default_rng(seed)
    prob = np.full((n, n), p)
    while True:
        edges = _upper_edges(rng, prob)
        if not _connected(n, edges):
            continue
        a = np.zeros((n, n))
        a[edges[:, 0], edges[:, 1]] = 1.0
        a += a.T
        w = np.abs(np.linalg.eigvalsh(a))
        if w.min() > 1e-6 * w.max():
            return n, _canonical(edges)


def _canonical(edges: np.ndarray) -> np.ndarray:
    """Pairs as (min, max), sorted by (max, min)."""
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    order = np.lexsort((lo, hi))
    return np.stack([lo[order], hi[order]], axis=1)


def edge_keys(n: int, edges: np.ndarray) -> np.ndarray:
    """Sorted scalar keys u*n + v for canonical pairs u < v."""
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(lo * n + hi)


def graph_keys(g) -> np.ndarray:
    """Edge keys of a pprinv Graph, read straight from its CSR arrays."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    cols = np.asarray(g.indices)
    upper = rows < cols
    return np.unique(rows[upper] * g.n + cols[upper])


def frobenius_error(keys: np.ndarray, keys_hat: np.ndarray) -> float:
    """||A - A_hat||_F / ||A||_F for 0/1 symmetric adjacencies."""
    sym = np.setxor1d(keys, keys_hat, assume_unique=True).size
    return math.sqrt(sym / keys.size)


# --------------------------------------------------------------------------
# Operation outcome.


@dataclass
class Outcome:
    """Recovery numbers of one operation and the checks it broke."""

    err_a: list[float] = field(default_factory=list)
    err_l: list[float] = field(default_factory=list)
    err_phi: list[float] = field(default_factory=list)
    final_loss: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def values(self) -> dict[str, float | None]:
        def mean(xs):
            return float(np.mean(xs)) if xs else None

        return {
            "err_A": mean(self.err_a),
            "err_l": mean(self.err_l),
            "err_phi_avg": mean(self.err_phi),
            "final_loss": mean(self.final_loss),
        }


def _check_recovered(out: Outcome, where: str, keys: np.ndarray, g_hat) -> float:
    """Edge-count check; returns the benchmark's own err_A for g_hat."""
    if g_hat.num_edges != keys.size:
        out.problems.append(
            f"{where}: recovered {g_hat.num_edges} edges, original has {keys.size}"
        )
    return frobenius_error(keys, graph_keys(g_hat))


# --------------------------------------------------------------------------
# Workloads.


class SweepWorkload:
    """``pprinv sweep`` in-process on a seeded SBM written to files."""

    def __init__(self, name, blocks, block_size, p_in, p_out, sweep_args):
        self.name = name
        self.blocks, self.block_size, self.p_in, self.p_out = blocks, block_size, p_in, p_out
        self.sweep_args = sweep_args
        self.method = sweep_args[sweep_args.index("--method") + 1]

    def generate(self, seed: int, workdir: Path) -> dict:
        n, edges, labels = sbm(seed, self.blocks, self.block_size, self.p_in, self.p_out)
        graph_path, labels_path = workdir / "graph.edges", workdir / "labels.txt"
        graph_path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        labels_path.write_text("".join(f"{i} {lab}\n" for i, lab in enumerate(labels)))
        return {
            "keys": edge_keys(n, edges),
            "argv": ["sweep", "--graph", str(graph_path), "--labels", str(labels_path),
                     *self.sweep_args, "--out", str(workdir / "sweep.csv")],
            "csv": workdir / "sweep.csv",
            "graphs": 1,
        }

    def run(self, inputs: dict, index: int) -> Outcome:
        from pprinv import cli

        out = Outcome()
        # The sweep CSV carries only errors; capture each cell's recovered
        # graph at the point of call so its edge count and err_A can be
        # checked independently. Cells run serially, in --dims order.
        inverter = "invert_optimize" if self.method == "optimize" else "invert_analytical"
        original = getattr(cli, inverter)
        results = []

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        setattr(cli, inverter, capture)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(inputs["argv"])
        finally:
            setattr(cli, inverter, original)
        if rc != 0:
            out.problems.append(f"pprinv sweep exited with {rc}")
            return out
        with open(inputs["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows or len(rows) != len(results):
            out.problems.append(f"{len(rows)} sweep rows for {len(results)} inversions")
            return out
        for row, result in zip(rows, results):
            cell = f"dim={row['dim']}"
            if row["status"] != "ok":
                out.problems.append(f"{cell}: status {row['status']!r}")
                continue
            errs = [float(row[k]) for k in ("err_A", "err_l", "err_phi_avg")]
            if not all(math.isfinite(e) for e in errs):
                out.problems.append(f"{cell}: non-finite error in {errs}")
                continue
            g_hat = result.graph if self.method == "optimize" else result
            own = _check_recovered(out, cell, inputs["keys"], g_hat)
            if not math.isclose(own, errs[0], rel_tol=1e-8, abs_tol=1e-12):
                out.problems.append(f"{cell}: err_A {errs[0]} but recomputed {own}")
            out.err_a.append(errs[0])
            out.err_l.append(errs[1])
            out.err_phi.append(errs[2])
            if self.method == "optimize":
                out.final_loss.append(float(result.losses[-1]))
        return out


class ExactAnalyticalWorkload:
    """Closed-form recovery at K=2000 on full-rank connected ER graphs."""

    name = "exact_analytical_k2000"
    n, p, k_horizon, alphas, graphs = 400, 0.05, 2000, (0.1, 0.7), 3

    def generate(self, seed: int, workdir: Path) -> dict:
        from pprinv.graph import Graph

        cases = []
        for i in range(self.graphs):
            n, edges = full_rank_er(seed * 1000 + i, self.n, self.p)
            cases.append((Graph.from_edges(n, edges), edge_keys(n, edges)))
        return {"cases": cases, "graphs": self.graphs}

    def run(self, inputs: dict, index: int) -> Outcome:
        from pprinv.analytical import AnalyticalInputs, invert_analytical
        from pprinv.metrics import recovery_report
        from pprinv.proximity import deepwalk_log_proximity

        out = Outcome()
        g, keys = inputs["cases"][index % len(inputs["cases"])]
        degrees = g.degrees.astype(np.float64)
        for alpha in self.alphas:
            where = f"graph {index % len(inputs['cases'])}, alpha={alpha}"
            m_k = deepwalk_log_proximity(g, alpha, self.k_horizon)
            recovered = invert_analytical(AnalyticalInputs(
                m_k=m_k, degrees=degrees, volume=float(g.volume), alpha=alpha,
                k_horizon=self.k_horizon, m_edges=g.num_edges,
            ))
            report = recovery_report(g, recovered, None)
            own = _check_recovered(out, where, keys, recovered)
            if own != 0.0 or report.err_a != 0.0:
                out.problems.append(
                    f"{where}: not exact (err_A {report.err_a}, recomputed {own})"
                )
            if not (math.isfinite(report.err_a) and math.isfinite(report.err_l)):
                out.problems.append(f"{where}: non-finite error")
            out.err_a.append(report.err_a)
            out.err_l.append(report.err_l)
        return out


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep_optimize_n400",
            blocks=4, block_size=100, p_in=0.25, p_out=0.018,
            sweep_args=["--presets", "strap", "--dims", "16,64,256",
                        "--method", "optimize", "--alpha", "0.1",
                        "--epsilon", "1e-7", "--opt-epsilon", "5e-8",
                        "--k-horizon", "10", "--epochs", "40",
                        "--step-size", "0.3"],
        ),
        ExactAnalyticalWorkload(),
        SweepWorkload(
            "sweep_analytical_n1600",
            blocks=8, block_size=200, p_in=0.05, p_out=0.001,
            sweep_args=["--presets", "deepwalk", "--dims", "32,128",
                        "--method", "analytical", "--alpha", "0.1",
                        "--k-horizon", "10"],
        ),
    )
}
