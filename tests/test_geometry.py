"""Geometry: subspaces, cylinders, table validation, transitivity, hard spheres."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylbilliards import (
    BaseDimTooSmall,
    DependentBasis,
    LatticeSubspace,
    RadiusTooLarge,
    axis_distance,
    build_cylinder,
    build_table,
    hard_sphere_subspaces,
    orthocomplement,
    transitivity_report,
    validate_table,
)
from cylbilliards import lattice
from cylbilliards.errors import BudgetExceeded
from cylbilliards.flow import flight_table
from cylbilliards.geometry import FAILS, HOLDS, UNCHECKED, _axis_gap
from cylbilliards.lattice import ProjectedLattice, hermite_generating_rows

from conftest import exhaustive_splitting_oracle

TABLE_NAMES = ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2", "wide5"]
FLIGHT_ARRAYS = ("offsets", "mask", "cid", "start_offsets", "start_mask", "start_cid",
                 "start_first", "tube_excess", "window_len", "basis", "basis_inv", "onb", "shift")

# Cylinder pairs whose joint generator span is one cylinder's own, so that
# the pair check reuses that cylinder's reduced basis: a sphere with a 3-D
# cylinder, equal spans from different integer bases, and a 4-D generator
# inside a 5-D one.
OWN_SPAN_PAIRS = [
    (3, [([], [0, 0, 0], 0.2), ([[0, 0, 1]], [0.5, 0.5, 0], 0.2)]),
    (3, [([[2, 0, 0]], [0, 0, 0], 0.2), ([[1, 0, 0]], [0, 0.5, 0.5], 0.2)]),
    (7, [([[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
           [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0]], [0.1] * 7, 0.05),
         ([[1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0],
           [0, 0, 0, 0, 1, 0, 0]], [0.3, 0, 0.2, 0, 0, 0.45, 0.7], 0.05)]),
]


def joint_gap(a, b, budget=None):
    """The pair distance from a lattice built afresh on the joint generator."""
    rows = hermite_generating_rows([list(r) for r in a.generator.integer_basis + b.generator.integer_basis])
    lat = ProjectedLattice.from_generator(rows, a.ambient_dim)
    return lat.nearest(b.translation - a.translation, budget)[1]


def span_projector(rows):
    basis = np.atleast_2d(np.asarray(rows, dtype=float))
    q, _ = np.linalg.qr(basis.T)
    r = np.linalg.matrix_rank(basis, tol=1e-10)
    q = q[:, :r]
    return q @ q.T


class TestOrthocomplement:
    def test_coordinate_axis(self):
        comp = orthocomplement([[1, 0, 0]], 3)
        assert comp.shape == (2, 3)
        assert np.allclose(span_projector(comp), span_projector([[0, 1, 0], [0, 0, 1]]))

    def test_empty_input_gives_full_basis(self):
        comp = orthocomplement([], 2)
        assert np.allclose(comp @ comp.T, np.eye(2))
        assert comp.shape == (2, 2)

    def test_diagonal_line_in_plane(self):
        comp = orthocomplement([[1, 1]], 2)
        expected = np.array([[1.0, -1.0]]) / np.sqrt(2)
        assert np.allclose(span_projector(comp), span_projector(expected))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_random_integer_bases(self, d, data):
        k = data.draw(st.integers(0, d))
        rows = [
            data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
            for _ in range(k)
        ]
        mat = np.array(rows, dtype=float).reshape(k, d)
        comp = orthocomplement(rows, d)
        rank = np.linalg.matrix_rank(mat, tol=1e-10) if k else 0
        assert comp.shape[0] == d - rank
        assert np.allclose(comp @ comp.T, np.eye(d - rank), atol=1e-12)
        if k and comp.shape[0]:
            assert np.max(np.abs(mat @ comp.T)) < 1e-10


class TestLatticeSubspace:
    def test_orthonormality_invariant(self):
        sub = LatticeSubspace.from_integer_basis([[1, 1, 0], [0, 1, 2]], 3)
        full = np.vstack([sub.ortho_basis, sub.complement_basis])
        assert np.max(np.abs(full @ full.T - np.eye(3))) < 1e-12
        assert sub.dim + sub.complement_basis.shape[0] == 3

    def test_dependent_basis_rejected(self):
        with pytest.raises(DependentBasis):
            LatticeSubspace.from_integer_basis([[1, 2], [2, 4]], 2)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            LatticeSubspace.from_integer_basis([[0.5, 1.0]], 2)


class TestBuildCylinder:
    def test_sinai_disk(self):
        disk = build_cylinder([], [0, 0], 0.2, 2)
        assert disk.base_dim == 2
        assert disk.generator.dim == 0
        # Projected lattice is the full integer lattice.
        assert disk.lattice.shortest_norm == pytest.approx(1.0, abs=1e-15)
        assert abs(np.linalg.det(disk.lattice.basis)) == pytest.approx(1.0)

    def test_axis_aligned_projection(self):
        cyl = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.3, 3)
        assert cyl.base_dim == 2
        # Lattice lives in the e1-e2 plane with unit shortest vector.
        assert np.max(np.abs(cyl.lattice.basis[:, 2])) < 1e-12
        assert cyl.lattice.shortest_norm == pytest.approx(1.0, abs=1e-15)

    def test_skew_generator_shortest_vector_oracle(self):
        cyl = build_cylinder([[1, 1, 0]], [0, 0, 0], 0.2, 3)
        gen = np.array([1.0, 1.0, 0.0])
        proj = np.eye(3) - np.outer(gen, gen) / 2.0
        best = np.inf
        for z in itertools.product(range(-3, 4), repeat=3):
            if z == (0, 0, 0):
                continue
            norm = np.linalg.norm(proj @ np.array(z, dtype=float))
            if norm > 1e-12:
                best = min(best, norm)
        assert cyl.lattice.shortest_norm == pytest.approx(best, abs=1e-12)

    def test_base_dim_too_small(self):
        with pytest.raises(BaseDimTooSmall):
            build_cylinder([[1, 0]], [0, 0], 0.1, 2)

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLarge):
            build_cylinder([], [0, 0], 0.5, 2)
        build_cylinder([], [0, 0], 0.499, 2)  # strictly below the bound is fine

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_enumeration_path_changes_no_bit(self, name, request, monkeypatch):
        table = request.getfixturevalue(name)
        ft = flight_table(table)
        monkeypatch.setattr(lattice, "DEPTH_FIRST_NODES", 0)
        rebuilt = validate_table(build_table([
            build_cylinder([list(r) for r in c.generator.integer_basis], c.translation, c.radius, table.dim)
            for c in table.cylinders]))
        for c, r in zip(table.cylinders, rebuilt.cylinders):
            assert (r.lattice.integer_basis, r.lattice.scale) == (c.lattice.integer_basis, c.lattice.scale)
            assert r.lattice.shortest_sq == c.lattice.shortest_sq
            assert r.lattice.babai_bound == c.lattice.babai_bound
            assert r.lattice.subspace_onb.tobytes() == c.lattice.subspace_onb.tobytes()
            assert r.base.integer_basis == c.base.integer_basis
            assert r.base.ortho_basis.tobytes() == c.base.ortho_basis.tobytes()
        assert (rebuilt.condition_1_3_disjoint, rebuilt.condition_1_4_pairwise_base_intersection,
                rebuilt.transitive) == (table.condition_1_3_disjoint,
                                        table.condition_1_4_pairwise_base_intersection, table.transitive)
        ft_bf = flight_table(rebuilt)
        for field in FLIGHT_ARRAYS:
            assert getattr(ft_bf, field).tobytes() == getattr(ft, field).tobytes(), field

    def test_base_complement_consistency(self):
        cyl = build_cylinder([[1, 2, 0, 0], [0, 0, 1, 0]], [0.1, 0.2, 0.3, 0.4], 0.05, 4)
        cross = cyl.generator.ortho_basis @ cyl.base_basis.T
        assert np.max(np.abs(cross)) < 1e-12
        assert cyl.generator.dim + cyl.base_dim == 4


class TestTransitivity:
    def test_single_full_base(self):
        report = transitivity_report([np.eye(2)])
        assert report.transitive and report.onsp_holds
        assert report.span_dim == 2 and report.generator_intersection_dim == 0
        assert report.splitting_witness is None

    def test_orthogonal_splitting_d4(self):
        report = transitivity_report([
            [[1, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 1]],
        ])
        assert not report.transitive
        b1, b2 = report.splitting_witness
        assert b1.shape[0] > 0 and b2.shape[0] > 0
        assert np.max(np.abs(b1 @ b2.T)) < 1e-10
        assert report.graph_components == ((1,), (2,))

    def test_shared_direction_d3(self):
        report = transitivity_report([
            [[1, 0, 0], [0, 1, 0]],
            [[0, 1, 0], [0, 0, 1]],
        ])
        assert report.transitive
        assert report.span_dim == 3
        assert report.generator_intersection_dim == 0

    def test_witness_contains_every_subspace(self):
        # Disconnected system with three subspaces in two components.
        subs = [[[1, 0, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 1, 0, 0]]]
        report = transitivity_report(subs, dim=4)
        assert not report.transitive
        b1, b2 = report.splitting_witness
        assert b1.shape[0] > 0 and b2.shape[0] > 0
        assert np.max(np.abs(b1 @ b2.T)) < 1e-10
        for basis in subs:
            mat = np.asarray(basis, dtype=float)
            inside_b1 = np.max(np.abs(mat - mat @ b1.T @ b1)) < 1e-10
            inside_b2 = np.max(np.abs(mat - mat @ b2.T @ b2)) < 1e-10
            assert inside_b1 or inside_b2

    def test_connected_but_deficient_span(self):
        # Connected graph, span a proper subspace: still a splitting.
        report = transitivity_report([[[1, 0, 0], [0, 1, 0]]], dim=3)
        assert not report.transitive
        assert report.span_dim == 2 and report.generator_intersection_dim == 1
        b1, b2 = report.splitting_witness
        assert b2.shape[0] == 1

    def test_integer_orthogonality_is_exact(self):
        # Normalized inner product 1e-11, below GRAPH_TOL, but the integer
        # lines are not orthogonal: one component, not two.
        lines = [[[1, 10**11, 0]], [[0, 1, 10**11]]]
        for subs in (lines, [LatticeSubspace.from_integer_basis(m, 3) for m in lines]):
            report = transitivity_report(subs, dim=3)
            assert report.graph_components == ((1, 2),)
            assert report.span_dim == 2 and not report.transitive

    def test_integral_floats_past_int64_are_exact(self):
        # 1e19 and 2e19 are integral but exceed 2^63: the lines are
        # orthogonal, and [1e19, 2e19] and [1, 2] span one line.
        report = transitivity_report([[[1e19, 2e19]], [[2, -1]]], 2)
        assert not report.transitive and report.span_dim == 2
        assert report.graph_components == ((1,), (2,))
        assert orthocomplement([[1e19, 2e19], [1, 2]], 2).shape == (1, 2)

    def test_against_exhaustive_oracle_random_systems(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            subs = []
            for _ in range(k):
                rows = rng.integers(-2, 3, size=(int(rng.integers(1, d + 1)), d))
                rank = np.linalg.matrix_rank(rows, tol=1e-10)
                if rank == 0:
                    rows = np.eye(d, dtype=int)[:1]
                subs.append(LatticeSubspace.from_integer_basis(
                    _independent_rows(rows), d))
            report = transitivity_report(subs)
            oracle = exhaustive_splitting_oracle([s.ortho_basis for s in subs], d)
            assert report.transitive == oracle


def _independent_rows(rows):
    out = []
    for row in np.asarray(rows, dtype=int):
        trial = out + [row]
        if np.linalg.matrix_rank(np.array(trial), tol=1e-10) == len(trial):
            out.append(row)
    return out if out else [np.eye(len(rows[0]), dtype=int)[0]]


class TestValidateTable:
    def test_parallel_cylinders_disjoint(self):
        c1 = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.1, 3)
        c2 = build_cylinder([[0, 0, 1]], [0.5, 0.5, 0], 0.1, 3)
        table = validate_table(build_table([c1, c2]))
        assert table.condition_1_3_disjoint == HOLDS
        assert table.condition_1_4_pairwise_base_intersection
        assert not table.transitive

    def test_single_disk_vacuous(self, sinai2):
        assert sinai2.condition_1_3_disjoint == HOLDS
        assert sinai2.condition_1_4_pairwise_base_intersection
        assert sinai2.transitive

    def test_two_orthogonal_cylinders(self, ortho3):
        assert ortho3.condition_1_3_disjoint == HOLDS
        assert ortho3.condition_1_4_pairwise_base_intersection
        assert ortho3.transitive
        # base intersection is the shared third direction
        b1 = ortho3.cylinders[0].base.integer_basis
        b2 = ortho3.cylinders[1].base.integer_basis
        stacked = np.array([*b1, *b2], dtype=float)
        dim_int = len(b1) + len(b2) - np.linalg.matrix_rank(stacked, tol=1e-10)
        assert dim_int == 1

    def test_overlapping_cylinders_flagged(self):
        c1 = build_cylinder([], [0, 0], 0.3, 2)
        c2 = build_cylinder([], [0.5, 0.0], 0.3, 2)
        table = validate_table(build_table([c1, c2]))
        assert table.condition_1_3_disjoint == FAILS

    def test_touching_closures_fail(self):
        c1 = build_cylinder([], [0, 0], 0.25, 2)
        c2 = build_cylinder([], [0.5, 0.0], 0.25, 2)
        table = validate_table(build_table([c1, c2]))
        assert table.condition_1_3_disjoint == FAILS

    def test_disjointness_monotone_in_radius(self):
        for r in (0.2, 0.1, 0.05, 0.01):
            c1 = build_cylinder([[1, 0, 0]], [0, 0, 0], r, 3)
            c2 = build_cylinder([[0, 1, 0]], [0.5, 0.5, 0.5], r, 3)
            assert validate_table(build_table([c1, c2])).condition_1_3_disjoint == HOLDS

    def test_disjoint_implies_pair_intersection(self):
        # Randomized spot-check of the geometric implication.
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            cyls = []
            for _ in range(2):
                m = int(rng.integers(0, max(1, d - 1)))
                rows = _independent_rows(rng.integers(-2, 3, size=(m, d))) if m else []
                if len(rows) > d - 2:
                    rows = rows[: d - 2]
                try:
                    cyls.append(build_cylinder(rows, rng.random(d), 0.05, d))
                except Exception:
                    cyls = []
                    break
            if len(cyls) != 2:
                continue
            table = validate_table(build_table(cyls))
            if table.condition_1_3_disjoint == HOLDS:
                assert table.condition_1_4_pairwise_base_intersection

    def test_axis_distance_value(self, ortho3):
        assert axis_distance(*ortho3.cylinders) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("dim,cyls", OWN_SPAN_PAIRS)
    def test_pair_on_own_basis_equals_joint_lattice(self, dim, cyls):
        a, b = (build_cylinder(g, t, r, dim) for g, t, r in cyls)
        joint = hermite_generating_rows([list(r) for r in a.generator.integer_basis + b.generator.integer_basis])
        assert len(joint) in (a.generator.dim, b.generator.dim)
        for x, y in ((a, b), (b, a)):
            assert _axis_gap(x, y) == joint_gap(x, y)
            for budget in (0, 1, 2, 5):
                try:
                    want = joint_gap(x, y, budget)
                except BudgetExceeded:
                    with pytest.raises(BudgetExceeded):
                        _axis_gap(x, y, budget)
                else:
                    assert _axis_gap(x, y, budget) == want

    def test_wide5_sphere_pairs_on_own_basis(self, wide5):
        sphere = wide5.cylinders[0]
        for other in wide5.cylinders[1:]:
            assert _axis_gap(sphere, other) == joint_gap(sphere, other)
            assert _axis_gap(other, sphere) == joint_gap(other, sphere)

    def test_budget_zero_reports_unchecked(self, ortho3):
        fresh = validate_table(build_table(ortho3.cylinders), disjoint_budget=0)
        assert fresh.condition_1_3_disjoint == UNCHECKED
        # A positive budget the enumeration exceeds: ortho3's axes are 0.5
        # apart along e3, so the nearest-translate ball holds two points.
        tight = validate_table(build_table(ortho3.cylinders), disjoint_budget=1)
        assert tight.condition_1_3_disjoint == UNCHECKED
        roomy = validate_table(build_table(ortho3.cylinders), disjoint_budget=2)
        assert roomy.condition_1_3_disjoint == HOLDS
        # single-cylinder tables stay vacuously disjoint
        from cylbilliards import build_cylinder as bc
        single = validate_table(build_table([bc([], [0, 0], 0.2, 2)]), disjoint_budget=0)
        assert single.condition_1_3_disjoint == HOLDS


class TestHardSphereSubspaces:
    def test_two_particles_unreduced_full_space(self):
        subs = hard_sphere_subspaces(2, 2, reduced=False)
        assert len(subs) == 1
        assert subs[0].dim == 4
        assert subs[0].ambient_dim == 4

    def test_three_particles_reduced_zero_intersections(self):
        subs = hard_sphere_subspaces(3, 2, reduced=True)
        assert len(subs) == 3
        for a, b in itertools.combinations(subs, 2):
            stacked = np.array([*a.integer_basis, *b.integer_basis], dtype=float)
            rank = np.linalg.matrix_rank(stacked, tol=1e-10)
            assert a.dim + b.dim - rank == 0

    def test_three_particles_unreduced_index_sharing_pairs(self):
        subs = hard_sphere_subspaces(3, 2, reduced=False)
        pairs = {(0, 1): 2, (0, 2): 2, (1, 2): 2}  # all share one particle index
        for (i, j), expected in pairs.items():
            stacked = np.array([*subs[i].integer_basis, *subs[j].integer_basis], dtype=float)
            rank = np.linalg.matrix_rank(stacked, tol=1e-10)
            assert subs[i].dim + subs[j].dim - rank == expected

    def test_counts_and_dims(self):
        subs = hard_sphere_subspaces(4, 3, reduced=True)
        assert len(subs) == 6
        assert all(s.dim == 3 for s in subs)
        assert all(s.ambient_dim == 12 for s in subs)
