"""Factorize proximity matrices into embedding pairs and back.

An embedding pair (X, Y) satisfies X @ Y.T ~ M for the proximity matrix M it
was built from. Embeddings persist as a directory holding X.mat / Y.mat in
the PPREIM1 binary format plus a meta.json holding the pair's meta as given.
`pprinv embed` (cli.cmd_embed) fills meta with the preset_config arguments.
`pprinv invert` rebuilds that config (cli._config_from_meta) and takes alpha
(when every hop's is one value) and the horizon K from it unless a flag gives
them; the optimizer's epsilon comes from --opt-epsilon, never from meta.

The product X @ Y.T is formed one way, _ROW_BLOCK rows at a time
(product_blocks): whole for the optimizer (reconstruct_proximity, one n x n
array), or streamed by the analytical inverse, which fills its own n x n
array from the blocks and never holds the product, so an analytical cell
peaks at about 3 n x n arrays above its pair (its Z and the Cholesky
inverse's two). Both routes see the same bits.
A pair is 2 n d doubles, so `pprinv sweep` factorizes every dimension
before its first cell, and lets the proximity go, when the pairs together
fit in the proximity's n x n (cli._embeddings).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import _ROW_BLOCK, load_matrix, randomized_svd, save_matrix


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


def product_blocks(pair: EmbeddingPair) -> Iterator[tuple[slice, np.ndarray]]:
    """X @ Y.T as (rows, X[rows] @ Y.T) for each block of _ROW_BLOCK rows.
    GEMM need not sum a block's entries in the order it sums the whole
    product's (OpenBLAS differs at n = 129 and 300, not at 400 or 1600), so
    every reader of the product takes these blocks."""
    for start in range(0, len(pair.x), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        yield rows, pair.x[rows] @ pair.y.T


def reconstruct_proximity(pair: EmbeddingPair) -> np.ndarray:
    """Truncated proximity matrix X @ Y.T implied by the embeddings, filled
    from product_blocks."""
    m = np.empty((len(pair.x), len(pair.y)))
    for rows, block in product_blocks(pair):
        m[rows] = block
    return m


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
