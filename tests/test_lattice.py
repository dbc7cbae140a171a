"""Projected-lattice machinery against brute-force enumeration oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cylbilliards.errors import BudgetExceeded
from cylbilliards.lattice import (
    ProjectedLattice,
    hermite_generating_rows,
    lll_reduce,
    shortest_vector_sq,
)


def brute_projected_points(generator_rows, d, reach=4):
    """All projections of integer vectors with sup-norm <= reach."""
    gen = np.asarray(generator_rows, dtype=float).reshape(-1, d)
    if gen.shape[0]:
        proj = np.eye(d) - gen.T @ np.linalg.inv(gen @ gen.T) @ gen
    else:
        proj = np.eye(d)
    pts = []
    for z in itertools.product(range(-reach, reach + 1), repeat=d):
        pts.append(proj @ np.array(z, dtype=float))
    return np.array(pts)


CASES = [
    ([], 2),
    ([[0, 0, 1]], 3),
    ([[1, 1, 0]], 3),
    ([[1, 2, 0]], 3),
    ([[1, 1, 1]], 3),
    ([[1, 0, 1, 0]], 4),
    ([[1, 1, 0, 0], [0, 0, 1, 1]], 4),
    ([[1, 1, 1, 1, 1]], 5),
    ([[2, 1, -2, 1, 0]], 5),
]


@pytest.mark.parametrize("gen,d", CASES)
def test_shortest_vector_matches_projection_enumeration(gen, d):
    lat = ProjectedLattice.from_generator(gen, d)
    pts = brute_projected_points(gen, d, reach=4)
    norms = np.linalg.norm(pts, axis=1)
    oracle = norms[norms > 1e-12].min()
    assert lat.shortest_norm == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("gen,d", CASES)
def test_basis_generates_the_projected_lattice(gen, d):
    lat = ProjectedLattice.from_generator(gen, d)
    gen_rank = np.linalg.matrix_rank(np.asarray(gen, dtype=float).reshape(-1, d),
                                     tol=1e-10) if gen else 0
    assert lat.rank == d - gen_rank
    pts = brute_projected_points(gen, d, reach=2)
    # Every projected integer point must have integer coordinates in the basis.
    coords = np.linalg.lstsq(lat.basis.T, pts.T, rcond=None)[0].T
    assert np.max(np.abs(coords - np.rint(coords))) < 1e-9
    recon = np.rint(coords) @ lat.basis
    assert np.max(np.abs(recon - pts)) < 1e-9


@pytest.mark.parametrize("gen,d", CASES)
def test_points_in_ball_against_brute_force(gen, d):
    lat = ProjectedLattice.from_generator(gen, d)
    rng = np.random.default_rng(hash((tuple(map(tuple, gen)), d)) % 2**32)
    for _ in range(3):
        center = rng.random(d)
        center_proj = lat.subspace_onb.T @ (lat.subspace_onb @ center)
        radius = 0.4 + rng.random()
        got = lat.points_in_ball(center, radius)
        pts = brute_projected_points(gen, d, reach=5)
        want = np.unique(np.round(
            pts[np.linalg.norm(pts - center_proj, axis=1) <= radius + 1e-12], 9), axis=0)
        got_sorted = np.unique(np.round(got, 9), axis=0)
        assert got_sorted.shape == want.shape
        assert np.allclose(got_sorted, want, atol=1e-9)


# Single generators, and the combined generators of cylinder pairs whose axis
# distance validate_table and axis_distance compute (ortho3, skew3, wide5).
NEAREST_CASES = [
    ([[1, 1, 0]], 3, 6),
    ([[1, 0, 0], [0, 1, 0]], 3, 6),
    ([[1, 1, 0], [0, 0, 1]], 3, 6),
    ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 5, 3),
    ([[0, 0, 1, 0, 0], [0, 0, 0, 1, 1]], 5, 3),
    ([[0, 0, 0, 1, 1]], 5, 2),
]


def test_nearest_matches_brute_force():
    rng = np.random.default_rng(0)
    for gen, d, reach in NEAREST_CASES:
        lat = ProjectedLattice.from_generator(gen, d)
        pts = brute_projected_points(gen, d, reach=reach)
        for _ in range(20):
            target = rng.random(d) * 2 - 1
            target_proj = lat.subspace_onb.T @ (lat.subspace_onb @ target)
            point, dist = lat.nearest(target)
            oracle = np.linalg.norm(pts - target_proj, axis=1).min()
            assert dist == pytest.approx(oracle, abs=1e-12)
            assert np.linalg.norm(point - target_proj) == pytest.approx(oracle, abs=1e-12)
            # The search ball always holds the Babai point, so a zero budget
            # is exceeded.
            with pytest.raises(BudgetExceeded):
                lat.nearest(target, max_points=0)


def test_hermite_rows_preserve_lattice():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    rows = hermite_generating_rows(mat)
    # Every original row is an integer combination of the reduced rows and
    # vice versa (same Z-span).
    reduced = np.array(rows, dtype=float)
    for row in mat:
        coeff = np.linalg.lstsq(reduced.T, np.array(row, dtype=float), rcond=None)[0]
        assert np.max(np.abs(coeff - np.rint(coeff))) < 1e-9
    original = np.array(mat, dtype=float)
    for row in rows:
        coeff, *_ = np.linalg.lstsq(original.T, np.array(row, dtype=float), rcond=None)
        # Coefficients need not be integral here (original may be redundant),
        # but the row must lie in the rational row span.
        assert np.linalg.norm(original.T @ coeff - row) < 1e-9


def test_lll_preserves_lattice_and_shortens():
    basis = [[Fraction(1), Fraction(0)], [Fraction(7, 2), Fraction(1, 2)]]
    reduced = lll_reduce(basis)
    orig = np.array([[float(x) for x in row] for row in basis])
    red = np.array([[float(x) for x in row] for row in reduced])
    coeff = np.linalg.solve(orig.T, red.T)
    assert np.max(np.abs(coeff - np.rint(coeff))) < 1e-9
    assert abs(np.linalg.det(coeff) ** 2 - 1.0) < 1e-9
    assert np.linalg.norm(red, axis=1).max() <= np.linalg.norm(orig, axis=1).max() + 1e-12


def test_shortest_vector_exact_small_case():
    basis = [[Fraction(1), Fraction(0)], [Fraction(7, 2), Fraction(1, 2)]]
    vec, norm_sq = shortest_vector_sq(basis)
    # Brute force over integer combinations.
    best = None
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == b == 0:
                continue
            v = [a * basis[0][0] + b * basis[1][0], a * basis[0][1] + b * basis[1][1]]
            n = v[0] * v[0] + v[1] * v[1]
            best = n if best is None else min(best, n)
    assert norm_sq == best


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_babai_bound_on_integer_lattice(m):
    assert ProjectedLattice.from_generator([], m).babai_bound == pytest.approx(m**0.5 / 2, rel=1e-15)


@pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4"])
def test_babai_bound_is_the_largest_rounding_residual(name, request):
    for i, cyl in enumerate(request.getfixturevalue(name).cylinders):
        lat = cyl.lattice
        # Never above the triangle bound half the sum of basis lengths.
        assert lat.babai_bound <= 0.5 * np.linalg.norm(lat.basis, axis=1).sum() * (1 + 1e-15)
        y = np.random.default_rng(i).normal(scale=3.0, size=(10_000, lat.rank))
        _, resid = lat.reduce(y)
        assert np.linalg.norm(resid, axis=1).max() <= lat.babai_bound * (1 + 1e-12)
        # Just inside the farthest vertex of the rounding box the bound is met.
        signs = np.array(list(itertools.product((0.5, -0.5), repeat=lat.rank)))
        vertices = signs @ lat.coord_basis
        far = vertices[np.argmax(np.linalg.norm(vertices, axis=1))]
        _, resid = lat.reduce((1 - 1e-12) * far)
        assert np.linalg.norm(resid) >= lat.babai_bound - 1e-9
