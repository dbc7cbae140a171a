"""Small dense linear algebra: SVD-based spans/kernels and exact rational ranks.

Float routines use a relative singular-value threshold; routines on integer
input go through ``fractions.Fraction`` so that rank decisions are exact and
never depend on conditioning.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Singular values below RANK_RTOL * s_max count as zero (float paths).
RANK_RTOL = 1e-8
# Looser threshold used for span/orthogonality decisions on integer-derived data.
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


def float_rank(mat: np.ndarray, rtol: float = RANK_RTOL) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def orthonormal_basis(mat: np.ndarray, rtol: float = RANK_RTOL, rank: int | None = None) -> np.ndarray:
    """Orthonormal rows spanning the row space of ``mat``.

    ``rank`` overrides the SVD threshold when the caller knows the exact rank
    (e.g. from a rational computation).
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros((0, mat.shape[1]))
    _, s, vt = np.linalg.svd(mat)
    r = rank if rank is not None else int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0
    return vt[:r]


def nullspace(mat: np.ndarray, rtol: float = RANK_RTOL, rank: int | None = None) -> np.ndarray:
    """Orthonormal rows spanning the right null space of ``mat``."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    d = mat.shape[1]
    if mat.size == 0:
        return np.eye(d)
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    if rank is not None:
        r = rank
    else:
        r = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return vt[r:]


def subspace_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle between equal-dimension row-orthonormal bases.

    Sine-based (residual after projecting one basis onto the other), so tiny
    angles are resolved to machine precision instead of the sqrt(eps) floor
    of the arccos formulation.
    """
    if basis_a.shape[0] != basis_b.shape[0]:
        return float(np.pi / 2)
    if basis_a.shape[0] == 0:
        return 0.0
    res_b = basis_b - (basis_b @ basis_a.T) @ basis_a
    res_a = basis_a - (basis_a @ basis_b.T) @ basis_b
    gap = max(
        float(np.linalg.svd(res_b, compute_uv=False).max()),
        float(np.linalg.svd(res_a, compute_uv=False).max()),
    )
    return float(np.arcsin(min(1.0, gap)))


# ---------------------------------------------------------------------------
# Exact rational elimination
# ---------------------------------------------------------------------------


def to_fractions(mat) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in mat]


def rational_rref(mat: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rref rows, pivot columns)."""
    m = [row[:] for row in mat]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rational_rank(mat) -> int:
    _, pivots = rational_rref(to_fractions(mat))
    return len(pivots)


def rational_nullspace(mat, dim: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space over Q (one vector per free column)."""
    frac = to_fractions(mat)
    if not frac:
        if dim is None:
            raise ValueError("empty input needs an explicit ambient dimension")
        return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    cols = len(frac[0])
    rref, pivots = rational_rref(frac)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def rational_intersection_dim(basis_a, basis_b) -> int:
    """dim(span A ∩ span B) = dim A + dim B - rank [A; B], exactly over Q."""
    a = to_fractions(basis_a)
    b = to_fractions(basis_b)
    ra = len(rational_rref(a)[1]) if a else 0
    rb = len(rational_rref(b)[1]) if b else 0
    stacked = a + b
    rs = len(rational_rref(stacked)[1]) if stacked else 0
    return ra + rb - rs


def fractions_to_float(mat: list[list[Fraction]]) -> np.ndarray:
    if not mat:
        return np.zeros((0, 0))
    return np.array([[float(x) for x in row] for row in mat], dtype=float)
