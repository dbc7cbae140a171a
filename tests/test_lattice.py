"""Projected-lattice machinery against brute-force enumeration oracles."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cylbilliards import lattice
from cylbilliards.errors import BudgetExceeded
from cylbilliards.lattice import ProjectedLattice, hermite_generating_rows, lll_reduce
from cylbilliards.linalg import span_split

# Values of lattice.DEPTH_FIRST_NODES that force each enumeration path.
BREADTH_FIRST, DEPTH_FIRST = 0, math.inf


def scaled_rows(basis):
    """Rational rows as integer rows over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for row in basis for x in row))
    return [[int(x * den) for x in row] for row in basis], den


def lattice_of(basis):
    """The lattice spanned by independent rational rows, in an orthonormal
    frame of their span."""
    return ProjectedLattice(*scaled_rows(basis),
                            span_split(np.array(basis, dtype=float), len(basis))[0])


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
    rows, den = scaled_rows(basis)
    reduced = [[Fraction(x, den) for x in row] for row in lll_reduce(rows)]
    orig = np.array([[float(x) for x in row] for row in basis])
    red = np.array([[float(x) for x in row] for row in reduced])
    coeff = np.linalg.solve(orig.T, red.T)
    assert np.max(np.abs(coeff - np.rint(coeff))) < 1e-9
    assert abs(np.linalg.det(coeff) ** 2 - 1.0) < 1e-9
    assert np.linalg.norm(red, axis=1).max() <= np.linalg.norm(orig, axis=1).max() + 1e-12


def test_shortest_vector_exact_small_case():
    basis = [[Fraction(1), Fraction(0)], [Fraction(7, 2), Fraction(1, 2)]]
    norm_sq = lattice_of(basis).shortest_sq
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


def coefficient_box(basis, center, radius):
    """Every integer coefficient row c that can put c @ basis within radius
    of center (a point of the basis span): |c_i - c0_i| <= radius * |dual
    row i| by Cauchy-Schwarz, with one unit of slack for rounding."""
    gram_inv = np.linalg.inv(basis @ basis.T)
    c0 = np.linalg.lstsq(basis.T, center, rcond=None)[0]
    half = radius * np.sqrt(np.diag(gram_inv)) + 1.0
    ranges = [range(int(np.floor(a - h)), int(np.ceil(a + h)) + 1) for a, h in zip(c0, half)]
    return np.array(list(itertools.product(*ranges)), dtype=float)


@st.composite
def generator_lattices(draw):
    d = draw(st.integers(2, 5))
    n_gen = draw(st.integers(0, d - 2))
    gens = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                         min_size=n_gen, max_size=n_gen))
    assume(n_gen == 0 or np.linalg.matrix_rank(np.array(gens, dtype=float)) == n_gen)
    return ProjectedLattice.from_generator(gens, d)


@st.composite
def rational_bases(draw, max_rank=3):
    m = draw(st.integers(1, max_rank))
    d = draw(st.integers(m, max_rank + 1))
    den = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=m, max_size=m))
    assume(np.linalg.matrix_rank(np.array(rows, dtype=float)) == m)
    return [[Fraction(x, den) for x in row] for row in rows]


def box_shortest_sq(basis_rational):
    """Exact smallest nonzero squared length over the whole coefficient box
    of radius min |b_i|, from the integer Gram matrix of the scaled rows."""
    basis = np.array([[float(x) for x in row] for row in basis_rational])
    box = coefficient_box(basis, np.zeros(basis.shape[1]), np.linalg.norm(basis, axis=1).min())
    box = box[box.any(axis=1)].astype(np.int64)
    den = math.lcm(*(x.denominator for row in basis_rational for x in row))
    ints = np.array([[int(x * den) for x in row] for row in basis_rational], dtype=np.int64)
    sq = np.einsum("ij,jk,ik->i", box, ints @ ints.T, box)
    return Fraction(int(sq.min()), den * den)


class TestAgainstCoefficientBox:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(generator_lattices(), rational_bases()))
    def test_shortest_sq(self, lat_or_basis):
        if isinstance(lat_or_basis, ProjectedLattice):
            basis_rational, got = lat_or_basis.basis_rational, lat_or_basis.shortest_sq
        else:
            basis_rational, got = lat_or_basis, lattice_of(lat_or_basis).shortest_sq
        assert got == box_shortest_sq(basis_rational)

    @settings(max_examples=60, deadline=None)
    @given(generator_lattices(), st.data())
    def test_points_in_ball_and_budgets(self, lat, data):
        d = lat.ambient_dim
        center = np.array(data.draw(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)))
        radius = data.draw(st.floats(0.0, 2.5))
        center_proj = lat.subspace_onb.T @ (lat.subspace_onb @ center)
        box = coefficient_box(lat.basis, center_proj, radius) @ lat.basis
        dist = np.linalg.norm(box - center_proj, axis=1)
        # Points within rounding of the sphere are not decided.
        assume(not np.any(np.abs(dist - radius) < 1e-9 * (1.0 + radius)))
        want = box[dist <= radius]
        got = lat.points_in_ball(center, radius)
        assert np.array_equal(np.unique(np.round(got, 9), axis=0), np.unique(np.round(want, 9), axis=0))
        assert got.shape == want.shape
        # Each enumeration path raises exactly when the ball holds more
        # points than the budget.
        for nodes in (BREADTH_FIRST, DEPTH_FIRST):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lattice, "DEPTH_FIRST_NODES", nodes)
                for budget in sorted({0, 1, 2, max(len(want) - 1, 0), len(want)}):
                    if len(want) > budget:
                        with pytest.raises(BudgetExceeded):
                            lat.points_in_ball(center, radius, max_points=budget)
                    else:
                        assert np.array_equal(lat.points_in_ball(center, radius, max_points=budget), got)


def reference_lll(basis, delta=Fraction(3, 4)):
    """Textbook LLL over Fractions, recomputing Gram-Schmidt after every
    change: the reference the integral version must reproduce row for row."""
    def gram_schmidt(b):
        ortho, mu, norms = [], [[Fraction(0)] * len(b) for _ in b], []
        for i, row in enumerate(b):
            vec = row[:]
            for j in range(i):
                mu[i][j] = sum(x * y for x, y in zip(row, ortho[j])) / norms[j]
                vec = [a - mu[i][j] * c for a, c in zip(vec, ortho[j])]
            ortho.append(vec)
            norms.append(sum(x * x for x in vec))
        return mu, norms

    b = [row[:] for row in basis]
    mu, norms = gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def reference_enumeration(lat, y, radius):
    """Depth-first Fincke-Pohst over the lattice's Gram-Schmidt data, in the
    order (c[m-1], ..., c[0]) ascending."""
    norms, mu = lat._gs_norms_sq, lat._gs_mu
    y_gs = [(y @ lat._gs_ortho[j]) / norms[j] for j in range(lat.rank)]
    r_sq = radius * radius * (1.0 + 1e-12) + 1e-300
    out = []

    def recurse(level, coeffs, partial, shifts):
        if level < 0:
            out.append(coeffs[:])
            return
        center = y_gs[level] - shifts[level]
        half_width = ((r_sq - partial) / norms[level]) ** 0.5
        for c in range(int(np.ceil(center - half_width - 1e-12)), int(np.floor(center + half_width + 1e-12)) + 1):
            diff = c - center
            new_partial = partial + diff * diff * norms[level]
            if new_partial <= r_sq:
                coeffs[level] = c
                recurse(level - 1, coeffs, new_partial, shifts + c * mu[level])
        coeffs[level] = 0

    recurse(lat.rank - 1, [0] * lat.rank, 0.0, np.zeros(lat.rank))
    return np.array(out, dtype=float).reshape(-1, lat.rank)


class TestAgainstReferenceLoops:
    @settings(max_examples=80, deadline=None)
    @given(rational_bases(max_rank=5))
    def test_integral_lll_reproduces_fraction_lll(self, basis):
        rows, den = scaled_rows(basis)
        assert [[Fraction(x, den) for x in row] for row in lll_reduce(rows)] == reference_lll(basis)

    @settings(max_examples=60, deadline=None)
    @given(generator_lattices(), st.data())
    def test_breadth_first_enumeration_reproduces_depth_first(self, lat, data):
        # Radii up to 4 put the node bound on both sides of the crossover
        # for every rank; the chosen path and each forced one are compared
        # bitwise.
        y = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=lat.rank, max_size=lat.rank)))
        radius = data.draw(st.floats(0.0, 4.0))
        want = reference_enumeration(lat, y, radius)
        for nodes in (lattice.DEPTH_FIRST_NODES, BREADTH_FIRST, DEPTH_FIRST):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lattice, "DEPTH_FIRST_NODES", nodes)
                got = lat._enumerate(y, radius)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale,path", [(0.9, "_depth_first"), (1.1, "_breadth_first")])
    def test_node_bound_selects_the_path(self, scale, path, monkeypatch):
        # On Z^3 the node bound is (2 r + 1)^3 against DEPTH_FIRST_NODES * 2^3.
        lat = ProjectedLattice.from_generator([], 3)
        radius = scale * ((8 * lattice.DEPTH_FIRST_NODES) ** (1 / 3) - 1) / 2
        calls = []
        original = getattr(lattice, path)
        monkeypatch.setattr(lattice, path, lambda *args: calls.append(path) or original(*args))
        got = lat._enumerate(np.full(3, 0.3), radius)
        assert calls == [path]
        assert got.tobytes() == reference_enumeration(lat, np.full(3, 0.3), radius).tobytes()
