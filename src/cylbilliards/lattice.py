"""Projected-lattice machinery: P_L(Z^d) as a discrete lattice inside a subspace.

Construction is exact: the orthogonal projection along an integer-spanned
generator subspace is a rational matrix, so the projected lattice has rational
generators, kept as integer rows over one common scale. Fraction-free integer
elimination gives the subspace and the projected unit vectors, a
Hermite-style row reduction extracts a rank-m generating set, and integral
LLL reduction shortens it. Floating point enters only in the Babai rounding
and in the Fincke-Pohst enumeration (depth-first for small searches,
breadth-first for large ones, bit for bit the same rows), which lists ball
points for the flight loop and the candidates of the shortest-vector search;
that search takes its exact minimum over the candidates from the integer
Gram matrix."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded
from .linalg import integer_nullspace, integer_rref, span_split

# A Fincke-Pohst search of rank m walks depth-first when its node bound is
# at most DEPTH_FIRST_NODES * 2^m; larger ones take the breadth-first pass.
# Timed on random projected lattices, the two paths cost the same at node
# bounds of about 130 (m = 2), 230 (m = 3), 580 (m = 4) and 1 500 (m = 5).
DEPTH_FIRST_NODES = 32


def hermite_generating_rows(mat: list[list[int]]) -> list[list[int]]:
    """Unimodular row reduction of an integer matrix to its nonzero rows.

    The returned rows generate the same Z-row-lattice as the input and are
    linearly independent.
    """
    m = [[int(x) for x in row] for row in mat]
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        if r == rows:
            break
        while True:
            nonzero = [i for i in range(r, rows) if m[i][c] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(m[i][c]))
            m[r], m[i_min] = m[i_min], m[r]
            done = True
            for i in range(r + 1, rows):
                if m[i][c] != 0:
                    q = round(m[i][c] / m[r][c])
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[r][c] != 0:
            r += 1
    return [row for row in m if any(x != 0 for x in row)]


def babai_round(y: np.ndarray, basis: np.ndarray,
                basis_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Babai rounding of coordinates ``y`` against the lattice spanned by the
    rows of ``basis``: the lattice point and the residual ``y - point``. A
    block-diagonal basis rounds several lattices in one product."""
    point = np.rint(y @ basis_inv) @ basis
    return point, y - point


def _rounding_radius(basis: np.ndarray) -> float:
    """Largest Babai rounding residual for the basis rows b_i.

    The residual ranges over the parallelepiped sum t_i b_i, |t_i| <= 1/2,
    and a convex function on a box peaks at a vertex, so the radius is the
    largest |1/2 sum +-b_i|. A sign flip of all terms gives the same norm,
    so 2^(m-1) vertices are checked.
    """
    m = basis.shape[0]
    signs = np.array([(1.0, *rest) for rest in itertools.product((1.0, -1.0), repeat=m - 1)])
    return 0.5 * float(np.max(np.linalg.norm(signs @ basis, axis=1)))


def lll_reduce(rows: list[list[int]]) -> list[list[int]]:
    """Exact LLL reduction of independent integer basis rows (of a rational
    basis times a common scale, which changes no decision).

    Runs on the integral Gram-Schmidt data of Cohen (A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7): d[i] is the Gram
    determinant of the first i rows and lam[k][j] = d[j+1] * mu[k][j], both
    integers. Each row is size reduced against every earlier row (mu rounded
    half to even) before the Lovasz test with delta = 3/4.
    """
    b = [list(row) for row in rows]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _round_half_even(lam[k][j], d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        lk = lam[k][k - 1]
        if 4 * (d[k + 1] * d[k - 1] + lk * lk) >= 3 * d[k] * d[k]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        new_d = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new_d * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)
    return b


def _round_half_even(a: int, b: int) -> int:
    """round(a / b) for integers with b > 0, ties to even, as round(Fraction(a, b))."""
    q, r = divmod(2 * a + b, 2 * b)
    return q - 1 if r == 0 and q % 2 else q


def _float_gram_schmidt(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt vectors, coefficients mu and squared lengths of float
    basis rows."""
    n = rows.shape[0]
    ortho = rows.astype(float).copy()
    mu = np.zeros((n, n))
    norms_sq = np.zeros(n)
    for i in range(n):
        for j in range(i):
            mu[i, j] = (rows[i] @ ortho[j]) / norms_sq[j]
            ortho[i] = ortho[i] - mu[i, j] * ortho[j]
        norms_sq[i] = ortho[i] @ ortho[i]
    return ortho, mu, norms_sq


def _fincke_pohst(y_gs: np.ndarray, mu: np.ndarray, norms_sq: np.ndarray, radius: float,
                  max_points: int | None = None) -> np.ndarray:
    """Coefficient rows c (as floats) of every lattice point within ``radius``
    of the target (Fincke & Pohst, Math. Comp. 44, 1985), sorted by
    (c[n-1], ..., c[0]).

    ``y_gs`` is the target in Gram-Schmidt coordinates, ``mu`` and
    ``norms_sq`` the Gram-Schmidt data of the basis. A search whose node
    bound (the product over levels of the widest coefficient range,
    2 radius / |b*_i| + 1) is at most DEPTH_FIRST_NODES * 2^n walks
    depth-first in Python; a larger one takes the breadth-first numpy
    pass. Both run the same float operations in the same order, so they
    return the same rows bit for bit. Raises BudgetExceeded when the ball
    holds more than ``max_points`` points.
    """
    r_sq = radius * radius * (1.0 + 1e-12) + 1e-300
    node_bound = math.prod(2.0 * radius / math.sqrt(x) + 1.0 for x in norms_sq.tolist())
    if node_bound <= DEPTH_FIRST_NODES * 2 ** norms_sq.size:
        coeffs = _depth_first(y_gs.tolist(), mu.tolist(), norms_sq.tolist(), r_sq, max_points)
    else:
        coeffs = _breadth_first(y_gs, mu, norms_sq, r_sq)
    if max_points is not None and coeffs.shape[0] > max_points:
        raise BudgetExceeded(f"ball enumeration exceeded {max_points} points")
    return coeffs


def _depth_first(y_gs: list[float], mu: list[list[float]], norms_sq: list[float], r_sq: float,
                 max_points: int | None) -> np.ndarray:
    """Depth-first walk, coefficients ascending at each level; it stops at
    the point past ``max_points``."""
    n = len(norms_sq)
    mu = [row[:level] for level, row in enumerate(mu)]
    rows: list[list[int]] = []
    coeffs = [0] * n
    cap = math.inf if max_points is None else max_points

    def descend(level: int, partial: float, shifts: list[float]) -> None:
        center = y_gs[level] - shifts[level]
        half_width = math.sqrt((r_sq - partial) / norms_sq[level])
        for c in range(math.ceil(center - half_width - 1e-12), math.floor(center + half_width + 1e-12) + 1):
            diff = c - center
            new_partial = partial + diff * diff * norms_sq[level]
            if new_partial > r_sq:
                continue
            coeffs[level] = c
            if level:
                descend(level - 1, new_partial, [s + c * m for s, m in zip(shifts, mu[level])])
            else:
                rows.append(coeffs.copy())
            if len(rows) > cap:
                return

    descend(n - 1, 0.0, [0.0] * n)
    return np.array(rows, dtype=float).reshape(-1, n)


def _breadth_first(y_gs: np.ndarray, mu: np.ndarray, norms_sq: np.ndarray, r_sq: float) -> np.ndarray:
    """Breadth-first pass: each level, from the last Gram-Schmidt direction
    down, expands every partial node at once into the integers its remaining
    budget allows. Nodes stay in order parent first, coefficient ascending."""
    n = norms_sq.size
    coeffs = np.zeros((1, n))
    partial = np.zeros(1)
    shifts = np.zeros((1, n))
    for level in range(n - 1, -1, -1):
        center = y_gs[level] - shifts[:, level]
        half_width = np.sqrt((r_sq - partial) / norms_sq[level])
        lo = np.ceil(center - half_width - 1e-12)
        count = np.maximum(np.floor(center + half_width + 1e-12) - lo + 1.0, 0.0).astype(np.intp)
        parent = np.repeat(np.arange(count.size), count)
        first = np.repeat(np.cumsum(count) - count, count)
        c = lo[parent] + (np.arange(parent.size) - first)
        diff = c - center[parent]
        new_partial = partial[parent] + diff * diff * norms_sq[level]
        keep = (new_partial <= r_sq).nonzero()[0]
        parent, c, partial = parent[keep], c[keep], new_partial[keep]
        coeffs = coeffs[parent]
        coeffs[:, level] = c
        shifts = shifts[parent] + c[:, None] * mu[level]
    return coeffs


def projected_basis(sub: list[list[int]], dim: int) -> tuple[list[list[int]], int]:
    """LLL-reduced basis of P_L(Z^d), where L has the integer basis rows
    ``sub`` (the ``integer_nullspace`` of a generator): integer rows and the
    positive scale that divides them, in lowest terms. I_d when L = R^d."""
    if len(sub) == dim:
        return [[int(i == j) for j in range(dim)] for i in range(dim)], 1
    m = len(sub)
    # Coordinates of every projected unit vector P_L e_j in the integer
    # subspace basis S: since S P_L = S, they are the columns of
    # (S S^T)^-1 S, here times the common pivot D = det(S S^T) > 0 of the
    # elimination.
    gram = [[sum(x * y for x, y in zip(a, b)) for b in sub] for a in sub]
    solved, _ = integer_rref([g + s for g, s in zip(gram, sub)])
    scale = solved[0][0]
    coords = [[row[m + j] for row in solved] for j in range(dim)]
    rows = [[sum(c * s[j] for c, s in zip(row, sub)) for j in range(dim)]
            for row in hermite_generating_rows(coords)]
    g = math.gcd(scale, *(x for row in rows for x in row))
    return lll_reduce([[x // g for x in row] for row in rows]), scale // g


def null_frame(sub: list[list[int]]) -> np.ndarray:
    """Orthonormal rows spanning the rows ``sub`` of an ``integer_nullspace``:
    the span split of S with a 1 in each row's free column, its last nonzero
    entry; I_d when they span R^d."""
    if len(sub) == len(sub[0]):
        return np.eye(len(sub))
    unit = [[x / next(y for y in reversed(row) if y) for x in row] for row in sub]
    return span_split(np.array(unit), len(sub))[0]


class ProjectedLattice:
    """P_L(Z^d) with a reduced basis, exact shortest vector (computed on first
    use), Babai rounding and enumeration. The basis rows are the independent
    integer rows ``integer_basis`` divided by ``scale``."""

    def __init__(self, integer_basis: list[list[int]], scale: int, subspace_onb: np.ndarray):
        self.rank = len(integer_basis)
        self.ambient_dim = subspace_onb.shape[1]
        self.integer_basis = tuple(tuple(row) for row in integer_basis)
        self.scale = scale
        # x / scale is the correctly rounded value of each rational entry.
        self.basis = np.array([[x / scale for x in row] for row in integer_basis], dtype=float)
        self.subspace_onb = np.asarray(subspace_onb, dtype=float)
        if self.subspace_onb.shape[0] != self.rank:
            raise ValueError("subspace basis rank does not match lattice rank")
        # Lattice basis expressed in subspace coordinates (rows) and its
        # inverse for Babai rounding, plus GS data for Fincke-Pohst enumeration.
        self.coord_basis = self.basis @ self.subspace_onb.T
        self.coord_inv = np.linalg.inv(self.coord_basis)
        self._gs_ortho, self._gs_mu, self._gs_norms_sq = _float_gram_schmidt(self.coord_basis)
        self._gs_min = float(np.sqrt(self._gs_norms_sq.min()))

    @cached_property
    def babai_bound(self) -> float:
        """The largest distance from any point to its Babai lattice point,
        computed on first use (pair lattices never need it)."""
        return _rounding_radius(self.basis)

    @cached_property
    def basis_rational(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basis rows as fractions."""
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.integer_basis)

    @cached_property
    def shortest_sq(self) -> Fraction:
        """Exact squared length of the shortest nonzero lattice vector,
        computed on first use.

        The shortest vector is no longer than the shortest basis row, so an
        enumeration within that length (times 1 + 1e-9, far above rounding
        error) holds it. The exact minimum over those candidates comes from
        the integer Gram matrix. On a reduced basis the candidates are few.
        """
        rows = self.integer_basis
        gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
        reach = float(np.sqrt(np.einsum("ij,ij->i", self.basis, self.basis).min())) * (1.0 + 1e-9)
        coeffs = _fincke_pohst(np.zeros(self.rank), self._gs_mu, self._gs_norms_sq, reach)
        best = min(sum(ci * cj * g for ci, row in zip(c, gram) for cj, g in zip(c, row))
                   for c in coeffs.astype(int).tolist() if any(c))
        return Fraction(best, self.scale * self.scale)

    @cached_property
    def shortest_norm(self) -> float:
        return float(self.shortest_sq) ** 0.5

    @classmethod
    def from_generator(cls, generator_rows: list[list[int]], dim: int,
                       subspace_onb: np.ndarray | None = None) -> "ProjectedLattice":
        """Lattice P_L(Z^d) for L = (span of integer generator rows)^perp."""
        sub = integer_nullspace([[int(x) for x in row] for row in generator_rows] or [[0] * dim])
        return cls(*projected_basis(sub, dim), null_frame(sub) if subspace_onb is None else subspace_onb)

    def to_coords(self, vec: np.ndarray) -> np.ndarray:
        return self.subspace_onb @ np.asarray(vec, dtype=float)

    def reduce(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Babai rounding of subspace coordinates ``y``: the lattice point (in
        subspace coordinates) and the residual ``y - point``."""
        return babai_round(y, self.coord_basis, self.coord_inv)

    def points_in_ball(self, center: np.ndarray, radius: float,
                       max_points: int | None = None) -> np.ndarray:
        """All lattice vectors within ``radius`` of ``center`` (ambient rows)."""
        coeffs = self._enumerate(self.to_coords(center), radius, max_points)
        if coeffs.size == 0:
            return np.zeros((0, self.ambient_dim))
        return coeffs @ self.basis

    def nearest(self, target: np.ndarray,
                max_points: int | None = None) -> tuple[np.ndarray, float]:
        """Closest lattice vector to the subspace component of ``target`` and
        its distance: the Babai point bounds the search ball. Raises
        BudgetExceeded when that ball holds more than ``max_points`` points."""
        y = self.to_coords(target)
        _, resid = self.reduce(y)
        gap = float(np.linalg.norm(resid))
        # Any other lattice point lies at least lambda_1 - gap away, and no
        # Gram-Schmidt length exceeds lambda_1: below half the smallest one
        # the Babai point is the only point of the search ball.
        if 2.0 * gap + 1e-9 < self._gs_min and (max_points is None or max_points >= 1):
            coeffs = np.rint(y @ self.coord_inv)[None, :]
        else:
            coeffs = self._enumerate(y, gap + 1e-12, max_points)
        dists = np.linalg.norm(coeffs @ self.coord_basis - y, axis=1)
        k = int(np.argmin(dists))
        return coeffs[k] @ self.basis, float(dists[k])

    def _enumerate(self, y: np.ndarray, radius: float,
                   max_points: int | None = None) -> np.ndarray:
        """Fincke-Pohst enumeration of ``{c in Z^m : |c @ B - y| <= radius}``."""
        norms = self._gs_norms_sq
        y_gs = np.array([(y @ self._gs_ortho[j]) / norms[j] for j in range(self.rank)])
        return _fincke_pohst(y_gs, self._gs_mu, norms, radius, max_points)
