"""Projected-lattice machinery: P_L(Z^d) as a discrete lattice inside a subspace.

Construction is exact: the orthogonal projection along an integer-spanned
generator subspace is a rational matrix, so the projected lattice has rational
generators. A Hermite-style row reduction extracts a rank-m generating set,
LLL reduction shortens it, and the shortest nonzero vector is found by exact
enumeration over the rational Gram data. Only after that does anything get
converted to floating point (Babai rounding and ball enumeration for the
flight loop).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded
from .linalg import rational_nullspace, rational_rref


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


def integer_rows(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """Rational rows scaled to integers by the lcm of all their denominators;
    returns the integer rows and that common scale."""
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * denom) for x in row] for row in rows], denom


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


def _gram_schmidt(basis: list[list[Fraction]]):
    """Exact Gram-Schmidt: orthogonal vectors, coefficients mu, squared norms."""
    n = len(basis)
    ortho = [row[:] for row in basis]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms_sq = [Fraction(0)] * n
    for i in range(n):
        vec = basis[i][:]
        for j in range(i):
            if norms_sq[j] == 0:
                continue
            mu[i][j] = _dot(basis[i], ortho[j]) / norms_sq[j]
            vec = [a - mu[i][j] * b for a, b in zip(vec, ortho[j])]
        ortho[i] = vec
        norms_sq[i] = _dot(vec, vec)
    return ortho, mu, norms_sq


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def lll_reduce(basis: list[list[Fraction]], delta: Fraction = Fraction(3, 4)) -> list[list[Fraction]]:
    """Exact LLL reduction of independent rational basis rows."""
    b = [row[:] for row in basis]
    n = len(b)
    if n <= 1:
        return b
    ortho, mu, norms = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                ortho, mu, norms = _gram_schmidt(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            ortho, mu, norms = _gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def shortest_vector_sq(basis: list[list[Fraction]]) -> tuple[list[Fraction], Fraction]:
    """Shortest nonzero lattice vector by exact enumeration on a reduced basis."""
    reduced = lll_reduce(basis)
    _, mu, norms = _gram_schmidt(reduced)
    n = len(reduced)
    best_sq = min(_dot(row, row) for row in reduced)
    best_coeff = None

    def recurse(level: int, coeffs: list[int], partial: Fraction, centers: list[Fraction]):
        nonlocal best_sq, best_coeff
        if level < 0:
            if any(coeffs) and partial < best_sq:
                best_sq = partial
                best_coeff = coeffs[:]
            return
        if norms[level] == 0:
            return
        center = -centers[level]
        # |c - center|^2 * norms[level] <= best_sq - partial
        bound = (best_sq - partial) / norms[level]
        half_width = _isqrt_upper(bound)
        c = _ceil_frac(center - half_width)
        while Fraction(c) <= center + half_width:
            diff = Fraction(c) - center
            new_partial = partial + diff * diff * norms[level]
            if new_partial <= best_sq:
                coeffs[level] = c
                new_centers = centers[:]
                for j in range(level):
                    new_centers[j] = centers[j] + Fraction(c) * mu[level][j]
                recurse(level - 1, coeffs, new_partial, new_centers)
                coeffs[level] = 0
            c += 1

    recurse(n - 1, [0] * n, Fraction(0), [Fraction(0)] * n)
    if best_coeff is None:
        idx = min(range(n), key=lambda i: _dot(reduced[i], reduced[i]))
        best_coeff = [int(i == idx) for i in range(n)]
        best_sq = _dot(reduced[idx], reduced[idx])
    vec = [Fraction(0)] * len(reduced[0])
    for c, row in zip(best_coeff, reduced):
        vec = [a + c * x for a, x in zip(vec, row)]
    return vec, best_sq


def _isqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x) for x >= 0."""
    if x <= 0:
        return Fraction(0)
    approx = float(x) ** 0.5
    bound = Fraction(approx).limit_denominator(1 << 30) + Fraction(1, 1 << 20)
    while bound * bound < x:
        bound *= 2
    return bound


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


class ProjectedLattice:
    """P_L(Z^d) with a reduced basis, exact shortest vector, and enumeration."""

    def __init__(self, basis_rational: list[list[Fraction]], subspace_onb: np.ndarray):
        self.rank = len(basis_rational)
        self.ambient_dim = subspace_onb.shape[1]
        self.basis_rational = tuple(tuple(row) for row in basis_rational)
        self.basis = np.array([[float(x) for x in row] for row in basis_rational], dtype=float)
        self.subspace_onb = np.asarray(subspace_onb, dtype=float)
        if self.subspace_onb.shape[0] != self.rank:
            raise ValueError("subspace basis rank does not match lattice rank")
        _, self.shortest_sq = shortest_vector_sq([list(r) for r in basis_rational])
        self.shortest_norm = float(self.shortest_sq) ** 0.5
        # Lattice basis expressed in subspace coordinates (rows) and its
        # inverse for Babai rounding, plus GS data for Fincke-Pohst enumeration.
        self.coord_basis = self.basis @ self.subspace_onb.T
        self.coord_inv = np.linalg.inv(self.coord_basis)
        self._gs_ortho, self._gs_mu = self._float_gram_schmidt(self.coord_basis)
        self._gs_norms_sq = np.array([float(v @ v) for v in self._gs_ortho])
        # The largest distance from any point to its Babai lattice point.
        self.babai_bound = _rounding_radius(self.basis)

    @staticmethod
    def _float_gram_schmidt(rows: np.ndarray):
        n = rows.shape[0]
        ortho = rows.astype(float).copy()
        mu = np.zeros((n, n))
        for i in range(n):
            for j in range(i):
                denom = ortho[j] @ ortho[j]
                mu[i, j] = (rows[i] @ ortho[j]) / denom
                ortho[i] = ortho[i] - mu[i, j] * ortho[j]
        return ortho, mu

    @classmethod
    def from_generator(cls, generator_rows: list[list[int]], dim: int,
                       subspace_onb: np.ndarray | None = None) -> "ProjectedLattice":
        """Lattice P_L(Z^d) for L = (span of integer generator rows)^perp."""
        from .linalg import fractions_to_float, orthonormal_basis

        gens = hermite_generating_rows([[int(x) for x in row] for row in generator_rows])
        if not gens:
            basis = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
            onb = np.eye(dim) if subspace_onb is None else subspace_onb
            return cls(basis, onb)
        sub_basis = rational_nullspace(gens)
        m = len(sub_basis)
        # Coordinates of every projected unit vector P_L e_j in the rational
        # subspace basis S: since S P_L = S, they are the columns of (S S^T)^-1 S.
        sub_gram = [[_dot(sub_basis[i], sub_basis[j]) for j in range(m)] for i in range(m)]
        solved, _ = rational_rref([g + s for g, s in zip(sub_gram, sub_basis)])
        coords = [[solved[i][m + j] for i in range(m)] for j in range(dim)]
        int_rows, denom = integer_rows(coords)
        reduced_rows = hermite_generating_rows(int_rows)
        ambient = []
        for row in reduced_rows:
            vec = [Fraction(0)] * dim
            for c, sub in zip(row, sub_basis):
                if c:
                    vec = [a + Fraction(c, denom) * s for a, s in zip(vec, sub)]
            ambient.append(vec)
        ambient = lll_reduce(ambient)
        if subspace_onb is None:
            subspace_onb = orthonormal_basis(fractions_to_float(sub_basis), rank=m)
        return cls(ambient, subspace_onb)

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
        coeffs = self._enumerate(y, float(np.linalg.norm(resid)) + 1e-12, max_points)
        dists = np.linalg.norm(coeffs @ self.coord_basis - y, axis=1)
        k = int(np.argmin(dists))
        return coeffs[k] @ self.basis, float(dists[k])

    def _enumerate(self, y: np.ndarray, radius: float,
                   max_points: int | None = None) -> np.ndarray:
        """Fincke-Pohst enumeration of ``{c in Z^m : |c @ B - y| <= radius}``."""
        n = self.rank
        r_sq = radius * radius * (1.0 + 1e-12) + 1e-300
        norms = self._gs_norms_sq
        mu = self._gs_mu
        # Target coordinates in the Gram-Schmidt frame.
        y_gs = np.array([(y @ self._gs_ortho[j]) / norms[j] for j in range(n)])
        out: list[list[int]] = []

        def recurse(level: int, coeffs: list[int], partial: float, shifts: np.ndarray):
            if level < 0:
                out.append(coeffs[:])
                if max_points is not None and len(out) > max_points:
                    raise BudgetExceeded(f"ball enumeration exceeded {max_points} points")
                return
            center = y_gs[level] - shifts[level]
            budget = r_sq - partial
            if budget < 0:
                return
            half_width = (budget / norms[level]) ** 0.5
            lo = int(np.ceil(center - half_width - 1e-12))
            hi = int(np.floor(center + half_width + 1e-12))
            for c in range(lo, hi + 1):
                diff = c - center
                new_partial = partial + diff * diff * norms[level]
                if new_partial > r_sq:
                    continue
                coeffs[level] = c
                recurse(level - 1, coeffs, new_partial, shifts + c * mu[level])
            coeffs[level] = 0

        recurse(n - 1, [0] * n, 0.0, np.zeros(n))
        return np.array(out, dtype=float) if out else np.zeros((0, n))

