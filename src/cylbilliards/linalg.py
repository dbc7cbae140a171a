"""Small dense linear algebra: the SVD split of a float span and exact
rational ranks.

A float span is split by one SVD with a relative singular-value threshold;
routines on integer input are exact, so that rank decisions never depend on
conditioning: they run fraction-free on Python integers.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Singular values up to SPAN_RTOL * s_max count as zero in float span decisions.
SPAN_RTOL = 1e-10


def as_matrix(vectors, dim: int | None = None) -> np.ndarray:
    """Stack vectors into a float (k, d) matrix; empty input gives (0, dim)."""
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if not rows:
        if dim is None:
            raise ValueError("empty input needs an explicit ambient dimension")
        return np.zeros((0, dim))
    mat = np.vstack(rows)
    if dim is not None and mat.shape[1] != dim:
        raise ValueError(f"vectors live in R^{mat.shape[1]}, expected R^{dim}")
    return mat


def span_split(mat: np.ndarray, rank: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the row space of the (k, d) matrix ``mat``
    and orthonormal rows spanning its orthocomplement in R^d, from one SVD.

    The rank is ``rank`` when the caller knows it exactly (e.g. from a
    rational computation), else the number of singular values above
    SPAN_RTOL * s_max. An empty matrix splits as (no rows, I_d).
    """
    if mat.size == 0:
        return np.zeros((0, mat.shape[1])), np.eye(mat.shape[1])
    _, s, vt = np.linalg.svd(mat)
    if rank is None:
        rank = int(np.count_nonzero(s > SPAN_RTOL * s[0]))
    return vt[:rank], vt[rank:]


# ---------------------------------------------------------------------------
# Exact integer elimination
# ---------------------------------------------------------------------------


def integer_rref(mat) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of an integer matrix: its
    nonzero rows and their pivot columns.

    Bareiss elimination (Math. Comp. 22, 1968) run Gauss-Jordan style: at
    each pivot p every other row becomes (p * row - f * pivot row) / previous
    pivot, a division that is always exact because every entry stays a minor
    of the input. All pivot entries end equal to one integer D, so the
    rational RREF is these rows divided by D.
    """
    m = [[operator.index(x) for x in row] for row in mat]
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(len(m)):
            f = m[i][c]
            if i == r or not f and p == prev:
                continue  # a row with f = 0 is only rescaled by p / prev
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m[:len(pivots)], pivots


def rational_rank(mat) -> int:
    """Exact rank of an integer matrix."""
    return len(integer_rref(mat)[1])


def integer_nullspace(mat) -> list[list[int]]:
    """Basis of the right null space of a nonempty integer matrix, one row
    per free column c: the rational null vector with a 1 at c (as the
    rational RREF gives it) scaled to a primitive integer vector. Its other
    nonzero entries sit in pivot columns left of c, so c is each row's last
    nonzero entry."""
    rows, pivots = integer_rref(mat)
    cols = len(mat[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = rows[0][pivots[0]] if rows else 1
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        g = math.gcd(*vec) * (1 if vec[fc] > 0 else -1)
        basis.append([x // g for x in vec])
    return basis
