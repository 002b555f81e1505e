"""Topology-recovery metrics: edge error, path-length error and conductance
error over the largest communities.

relative_frobenius_error and average_path_length are the building blocks;
recovery_report assembles all three measures into a RecoveryReport, and is
the only place the path-length and conductance errors are computed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import Graph, conductance

TOP_COMMUNITIES = 4


@dataclass(frozen=True)
class CommunityError:
    label: str
    size: int
    phi_orig: float | None
    phi_rec: float | None
    rel_err: float | None
    excluded: bool = False


@dataclass(frozen=True)
class RecoveryReport:
    err_a: float
    err_l: float
    err_phi_avg: float | None
    per_community: tuple[CommunityError, ...]
    connected_pairs_orig: int
    connected_pairs_rec: int

    def to_dict(self) -> dict:
        return {
            "err_A": self.err_a,
            "err_l": self.err_l,
            "err_phi_avg": self.err_phi_avg,
            "per_community": [asdict(c) for c in self.per_community],
            "connected_pairs_orig": self.connected_pairs_orig,
            "connected_pairs_rec": self.connected_pairs_rec,
        }


def relative_frobenius_error(g: Graph, g_hat: Graph) -> float:
    """||A - A_hat||_F / ||A||_F.

    For binary symmetric adjacencies this reduces to
    sqrt(|E symdiff E_hat| / m).
    """
    if g.n != g_hat.n:
        raise ValueError(f"node counts differ: {g.n} vs {g_hat.n}")
    if g.num_edges == 0:
        raise ValueError("original graph has no edges (zero denominator)")
    sym_diff = np.setxor1d(g._upper_keys(), g_hat._upper_keys(), assume_unique=True)
    return math.sqrt(sym_diff.size / g.num_edges)


def average_path_length(g: Graph) -> tuple[float, int]:
    """Mean BFS distance over connected unordered pairs, with the pair count;
    (nan, 0) when no pair is connected.

    Computed once per Graph and memoized on it (the CSR arrays are
    read-only), so a graph scored against many recoveries runs one
    all-sources BFS.
    """
    return g._path_length


def _conductance_or_none(g: Graph, s) -> float | None:
    """conductance(g, s), or None where it is undefined: s holds every node,
    or the smaller side of the cut has zero volume."""
    try:
        return conductance(g, s)
    except ValueError:
        return None


def recovery_report(
    g: Graph,
    g_hat: Graph,
    labels: tuple[tuple[str, frozenset[int]], ...] | None,
) -> RecoveryReport:
    """All three metrics over parse_labels' top communities (largest first).

    err_l = |l(G) - l(G_hat)| / l(G), each graph averaged over its own
    connected pairs; it is 1 when G_hat has no connected pair. A community's
    rel_err is |phi_G(S) - phi_Ghat(S)| / phi_G(S). Communities whose
    original conductance is zero, or whose conductance in either graph is
    undefined (None), are flagged and excluded from the average rather than
    silently biasing it. labels=None skips the conductance section entirely.
    """
    err_a = relative_frobenius_error(g, g_hat)
    l_orig, pairs_orig = average_path_length(g)
    l_rec, pairs_rec = average_path_length(g_hat)
    err_l = abs(l_orig - l_rec) / l_orig if pairs_rec else 1.0
    per_community: list[CommunityError] = []
    if labels is not None:
        for label, members in labels[:TOP_COMMUNITIES]:
            phi_orig = _conductance_or_none(g, members)
            phi_rec = _conductance_or_none(g_hat, members)
            defined = phi_orig and phi_rec is not None  # phi_orig not None or 0
            rel = abs(phi_orig - phi_rec) / phi_orig if defined else None
            per_community.append(
                CommunityError(label, len(members), phi_orig, phi_rec, rel, rel is None)
            )
    included = [c.rel_err for c in per_community if not c.excluded]
    err_phi_avg = float(np.mean(included)) if included else None
    return RecoveryReport(
        err_a=err_a,
        err_l=err_l,
        err_phi_avg=err_phi_avg,
        per_community=tuple(per_community),
        connected_pairs_orig=pairs_orig,
        connected_pairs_rec=pairs_rec,
    )
