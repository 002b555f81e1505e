"""Factorize proximity matrices into embedding pairs and back.

An embedding pair (X, Y) satisfies X @ Y.T ~ M for the proximity matrix M it
was built from. Embeddings persist as a directory holding X.mat / Y.mat in
the PPREIM1 binary format plus a meta.json holding the pair's meta as given.
`pprinv embed` (cli.cmd_embed) fills meta with the preset_config arguments.
`pprinv invert` rebuilds that config (cli._config_from_meta) and takes alpha
(when every hop's is one value) and the horizon K from it unless a flag gives
them; the optimizer's epsilon comes from --opt-epsilon, never from meta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import load_matrix, randomized_svd, save_matrix


@dataclass(frozen=True, eq=False)
class EmbeddingPair:
    x: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)


def factorize(m: np.ndarray, d: int, seed: int) -> EmbeddingPair:
    """Split m into X = U sqrt(S), Y = V sqrt(S) from a rank-d randomized SVD."""
    u, sigma, v = randomized_svd(m, d, seed)
    root = np.sqrt(sigma)
    return EmbeddingPair(x=u * root, y=v * root)


def reconstruct_proximity(pair: EmbeddingPair) -> np.ndarray:
    """Truncated proximity matrix X @ Y.T implied by the embeddings."""
    return pair.x @ pair.y.T


def save_embedding(directory, pair: EmbeddingPair) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix(directory / "X.mat", pair.x)
    save_matrix(directory / "Y.mat", pair.y)
    with open(directory / "meta.json", "w") as fh:
        json.dump(pair.meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_embedding(directory) -> EmbeddingPair:
    directory = Path(directory)
    x = load_matrix(directory / "X.mat")
    y = load_matrix(directory / "Y.mat")
    if x.shape != y.shape:
        raise ValueError(f"X {x.shape} and Y {y.shape} shapes differ")
    with open(directory / "meta.json") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(
            f"{directory / 'meta.json'}: expected a JSON object, "
            f"got {type(meta).__name__}"
        )
    return EmbeddingPair(x=x, y=y, meta=meta)
