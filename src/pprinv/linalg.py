"""Dense-matrix kernels: randomized truncated SVD, symmetric pseudoinverse,
the spectrum of a transition matrix D^-1 B through its symmetric similar,
the Cholesky inverse of a symmetric positive definite matrix, and the binary
matrix file format.

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


def _similar_eigh(b: np.ndarray, row_sums: np.ndarray):
    """Eigendecomposition of T = D^-1 B (B symmetric, D = diag(row_sums))
    through its symmetric similar S = R^-1 B R^-1, R = D^(1/2).

    Returns (lam, V, r) with S = V diag(lam) V^T and r = sqrt(row_sums), so
    that f(T) = R^-1 V f(lam) V^T R for any polynomial f.
    """
    r = np.sqrt(row_sums)
    lam, v = np.linalg.eigh(b / np.outer(r, r))
    return lam, v, r


def _lower_inverse(l: np.ndarray) -> None:
    """Invert a lower-triangular matrix in place, by halves:
    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]].

    A and B are inverted where they lie, then C is overwritten with
    -B^-1 (C A^-1); the only scratch is the (n/2) x (n/2) product C A^-1.
    Blocks of up to _TRI_INV_LEAF rows go to np.linalg.inv. Above
    that most of the n^3/3 flops are matmuls: at n=1600 this took 0.04 s
    against 0.23 s for np.linalg.inv of the whole matrix, an LU solve blind
    to the zeros (2-core x86_64 VM, OpenBLAS 0.3.31).
    """
    n = len(l)
    if n <= _TRI_INV_LEAF:
        l[...] = np.linalg.inv(l)
        return
    h = n // 2
    a, b, c = l[:h, :h], l[h:, h:], l[h:, :h]
    _lower_inverse(a)
    _lower_inverse(b)
    np.matmul(b, c @ a, out=c)
    np.negative(c, out=c)


def _norm1(m: np.ndarray) -> float:
    """The 1-norm (largest absolute column sum), summed over blocks of
    _ROW_BLOCK rows so that no n x n copy of |m| is made."""
    sums = np.zeros(m.shape[1])
    for start in range(0, len(m), _ROW_BLOCK):
        sums += np.abs(m[start : start + _ROW_BLOCK]).sum(axis=0)
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


def _spd_inverse(m: np.ndarray) -> np.ndarray | None:
    """Inverse of a symmetric positive definite matrix by Cholesky,
    m^-1 = L^-T L^-1 with m = L L^T; None when m is not positive definite, or
    when its 1-norm condition number reaches 1/_PINV_RTOL, where
    pseudoinverse would start dropping eigenvalues.

    m is left untouched, so a None still leaves it for pseudoinverse. L is
    inverted in place and dropped once the inverse exists, and both 1-norms
    are column sums over row blocks, not sums of n x n copies of |m|: the
    peak above m is two n x n arrays, L^-1 and the inverse.

    The inverse is exactly symmetric: numpy computes L^-T L^-1, a product
    of an array with its own transpose, by BLAS syrk, which forms one
    triangle and mirrors it.

    It stays on numpy's BLAS on purpose. scipy's LAPACK (potrf, potri) links
    a second OpenBLAS whose threads keep spinning after a call; on a 2-core
    machine that doubled the time of the next numpy eigh.
    """
    try:
        factor_inv = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    _lower_inverse(factor_inv)
    inv = factor_inv.T @ factor_inv
    del factor_inv
    cond = _norm1(m) * _norm1(inv)
    return inv if cond * _PINV_RTOL < 1.0 else None


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
        header = fh.read(len(MATRIX_MAGIC) + 16)
        if header[: len(MATRIX_MAGIC)] != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic, not a PPREIM1 matrix file")
        rows, cols = struct.unpack_from("<QQ", header, len(MATRIX_MAGIC))
        expected = rows * cols * 8
        size = os.fstat(fh.fileno()).st_size - len(header)
        if size == expected:
            m = np.empty((rows, cols), dtype="<f8")
            size = fh.readinto(m)
        if size != expected:
            raise ValueError(f"{path}: expected {expected} payload bytes, got {size}")
    m = m.astype(np.float64, copy=False)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite values")
    return m
