"""Dense-matrix kernels: randomized truncated SVD, symmetric pseudoinverse,
the spectrum of a transition matrix D^-1 B through its symmetric similar,
the in-place inverse of a symmetric positive definite matrix by halves, and
the binary matrix file format.

Everything works on float64 numpy arrays. The randomized SVD follows the
standard Gaussian range-finder recipe (oversampling 10, two QR-stabilized
power iterations) and is deterministic for a fixed seed.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MATRIX_MAGIC = b"PPREIM1\x00"

_DEFAULT_OVERSAMPLE = 10
_DEFAULT_POWER_ITERS = 2
_PINV_RTOL = 1e-10
_TRI_INV_LEAF = 128
_ROW_BLOCK = 128


def randomized_svd(
    m: np.ndarray, d: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-d approximation via a Gaussian range finder: the factors
    (u, sigma, v) with m ~ u @ diag(sigma) @ v.T, sigma descending.

    Oversamples the sketch by ``_DEFAULT_OVERSAMPLE`` columns and applies
    ``_DEFAULT_POWER_ITERS`` QR-stabilized passes of m @ m.T to sharpen the
    spectrum before projecting.
    """
    m = np.asarray(m, dtype=np.float64)
    rows, cols = m.shape
    if not 1 <= d <= min(rows, cols):
        raise ValueError(f"rank d={d} out of range for a {rows}x{cols} matrix")
    rng = np.random.default_rng(seed)
    k = min(d + _DEFAULT_OVERSAMPLE, min(rows, cols))
    y = m @ rng.standard_normal((cols, k))
    for _ in range(_DEFAULT_POWER_ITERS):
        q, _ = np.linalg.qr(y)
        y = m @ (m.T @ q)
    q, _ = np.linalg.qr(y)
    u_small, sigma, vt = np.linalg.svd(q.T @ m, full_matrices=False)
    u = q @ u_small
    return u[:, :d], sigma[:d], vt[:d].T


def pseudoinverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via eigendecomposition.

    Eigenvalues with |lambda| <= _PINV_RTOL * |lambda|_max are treated as zero.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("pseudoinverse expects a square matrix")
    if m.size and np.max(np.abs(m - m.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    w, vecs = np.linalg.eigh((m + m.T) / 2.0)
    cutoff = _PINV_RTOL * np.max(np.abs(w), initial=0.0)
    keep = np.abs(w) > cutoff
    inv_w = np.zeros_like(w)
    inv_w[keep] = 1.0 / w[keep]
    return (vecs * inv_w) @ vecs.T


def _similar_eigh(b: np.ndarray, row_sums: np.ndarray, out: np.ndarray | None = None):
    """Eigendecomposition of T = D^-1 B (B symmetric, D = diag(row_sums))
    through its symmetric similar S = R^-1 B R^-1, R = D^(1/2).

    Returns (lam, V, r) with S = V diag(lam) V^T and r = sqrt(row_sums), so
    that f(T) = R^-1 V f(lam) V^T R for any polynomial f. S is divided out
    one block of _ROW_BLOCK rows at a time, with the bits of B / outer(r, r)
    and no n x n outer product, into out when given (an n x n buffer whose
    contents are spent, free again once this returns), else a new array.
    """
    r = np.sqrt(row_sums)
    s = np.empty_like(b) if out is None else out
    for rows in _row_blocks(len(b)):
        np.divide(b[rows], np.outer(r[rows], r), out=s[rows])
    lam, v = np.linalg.eigh(s)
    return lam, v, r


def _row_blocks(n: int) -> list[slice]:
    """The slices of _ROW_BLOCK rows that cover n rows, in order."""
    return [slice(start, start + _ROW_BLOCK) for start in range(0, n, _ROW_BLOCK)]


def _norm1(m: np.ndarray) -> float:
    """The 1-norm (largest absolute column sum), summed over blocks of
    _ROW_BLOCK rows so that no n x n copy of |m| is made."""
    sums = np.zeros(m.shape[1])
    for rows in _row_blocks(len(m)):
        sums += np.abs(m[rows]).sum(axis=0)
    return sums.max()


def _symmetrize(m: np.ndarray) -> None:
    """m = (m + m.T) / 2 in place, one strip of _ROW_BLOCK rows at a time:
    each strip's upper part and its mirror get the same averages, which are
    bit for bit those of the whole-matrix expression."""
    for start in range(0, len(m), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        avg = m[rows, start:] + m[start:, rows].T
        avg /= 2.0
        m[rows, start:] = avg
        m[start:, rows] = avg.T


def _strict_upper(m: np.ndarray) -> np.ndarray:
    """The entries of a square array above its diagonal, row by row: the
    values and order of m[np.triu_indices(n, 1)], gathered one row slice at
    a time instead of through two index arrays of n(n-1)/2 entries each."""
    rows = [row[i + 1 :] for i, row in enumerate(m)]
    return np.concatenate(rows) if rows else np.empty(0, dtype=m.dtype)


def _invert_by_halves(m: np.ndarray) -> None:
    """Write the inverse of a symmetric positive definite m over m, reading
    only its lower triangle. With A, B, C = m[:h, :h], m[h:, :h], m[h:, h:]
    and T = B A^-1, the Schur complement S = C - T B^T gives
    m^-1 = [[A^-1 + T^T S^-1 T, .], [-S^-1 T, S^-1]]:
    A and then S are inverted where they lie, B becomes -S^-1 T, and A takes
    A^-1 - T^T B. The scratch is T and one product of its size. Every Schur
    complement of an SPD matrix is SPD, with a condition number no larger
    than m's. Blocks of up to _TRI_INV_LEAF rows go to inv(cholesky(.)) and
    L^-T L^-1, which numpy forms by BLAS syrk (one triangle, mirrored); a
    block that is not positive definite raises LinAlgError there. So a leaf
    comes out exactly symmetric, and a split keeps it so by averaging A with
    its transpose and mirroring B into the upper block.
    """
    n = len(m)
    if n <= _TRI_INV_LEAF:
        factor_inv = np.linalg.inv(np.linalg.cholesky(m))
        np.matmul(factor_inv.T, factor_inv, out=m)
        return
    h = n // 2
    a, b, c = m[:h, :h], m[h:, :h], m[h:, h:]
    _invert_by_halves(a)
    t = b @ a
    c -= t @ b.T
    _invert_by_halves(c)
    np.matmul(c, t, out=b)
    np.negative(b, out=b)
    a -= t.T @ b
    _symmetrize(a)
    m[:h, h:] = b.T


def _spd_inverse(m: np.ndarray) -> bool:
    """Write the inverse of a symmetric positive definite m over m
    (_invert_by_halves) and say whether it holds: False when m is not
    positive definite, or when its 1-norm condition number reaches
    1/_PINV_RTOL, where pseudoinverse would start dropping eigenvalues. m's
    1-norm is taken before m is overwritten; after a False m holds no
    matrix of use.

    About 4n^3/3 flops, all but the leaves' in matmuls. The peak above m is
    T and one product of its size at the top split, n^2/2 doubles, or a
    leaf's factor and its inverse where those are more (0.91 n^2 at n=200).
    Both 1-norms are column sums over row blocks, not sums of n x n copies
    of |m|.

    It stays on numpy's BLAS on purpose. scipy's LAPACK (potrf, potri) links
    a second OpenBLAS whose threads keep spinning after a call; on a 2-core
    machine that doubled the time of the next numpy eigh.
    """
    norm = _norm1(m)
    try:
        _invert_by_halves(m)
    except np.linalg.LinAlgError:
        return False
    return norm * _norm1(m) * _PINV_RTOL < 1.0


def save_matrix(path, m: np.ndarray) -> None:
    """Write a matrix in the PPREIM1 binary format (little-endian float64),
    the payload straight from the array's own buffer."""
    m = np.ascontiguousarray(np.asarray(m, dtype="<f8"))
    if m.ndim != 2:
        raise ValueError("save_matrix expects a 2-D matrix")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.data)


def load_matrix(path) -> np.ndarray:
    """Read a PPREIM1 matrix, the payload straight into the result array
    once the header's shape matches the file's size."""
    path = Path(path)
    with open(path, "rb") as fh:
        header_size = len(MATRIX_MAGIC) + 16
        header = fh.read(header_size)
        if header[: len(MATRIX_MAGIC)] != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic, not a PPREIM1 matrix file")
        if len(header) < header_size:
            raise ValueError(f"{path}: expected {header_size} header bytes, got {len(header)}")
        rows, cols = struct.unpack_from("<QQ", header, len(MATRIX_MAGIC))
        expected = rows * cols * 8
        size = os.fstat(fh.fileno()).st_size - header_size
        if size == expected:
            m = np.empty((rows, cols), dtype="<f8")
            size = fh.readinto(m)
        if size != expected:
            raise ValueError(f"{path}: expected {expected} payload bytes, got {size}")
    m = m.astype(np.float64, copy=False)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite values")
    return m
