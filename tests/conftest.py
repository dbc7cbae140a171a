"""Shared tables and oracle helpers for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from cylbilliards import (
    PhasePoint,
    build_cylinder,
    build_table,
    evolve,
    random_phase_point,
    validate_table,
)


@pytest.fixture(scope="session")
def sinai2():
    """Single spherical scatterer in the 2-torus (radius 0.2)."""
    return validate_table(build_table([build_cylinder([], [0, 0], 0.2, 2)]))


@pytest.fixture(scope="session")
def ortho3():
    """Two orthogonal cylinders in the 3-torus; transitive, disjoint."""
    c1 = build_cylinder([[1, 0, 0]], [0, 0, 0], 0.2, 3)
    c2 = build_cylinder([[0, 1, 0]], [0.5, 0.5, 0.5], 0.2, 3)
    return validate_table(build_table([c1, c2]))


@pytest.fixture(scope="session")
def skew3():
    """Skew-generator pair in the 3-torus; transitive, disjoint."""
    c1 = build_cylinder([[1, 1, 0]], [0, 0, 0], 0.15, 3)
    c2 = build_cylinder([[0, 0, 1]], [0.5, 0, 0.5], 0.15, 3)
    return validate_table(build_table([c1, c2]))


@pytest.fixture(scope="session")
def parallel3():
    """Two parallel cylinders sharing a generator; not transitive."""
    c1 = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.1, 3)
    c2 = build_cylinder([[0, 0, 1]], [0.5, 0.5, 0], 0.1, 3)
    return validate_table(build_table([c1, c2]))


@pytest.fixture(scope="session")
def dense3():
    """Dense parallel pair in the 3-torus: short free path and the smallest
    per-collision stretch the two-cylinder family allows, which keeps
    20-collision retraces within double-precision reach."""
    c1 = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.35, 3)
    c2 = build_cylinder([[0, 0, 1]], [0.5, 0.5, 0], 0.35, 3)
    return validate_table(build_table([c1, c2]))


@pytest.fixture(scope="session")
def split4():
    """Two cylinders with orthogonal base planes in the 4-torus; the canonical
    non-transitive system (its axes necessarily overlap, which is fine for
    the flow: earliest-root detection never lands strictly inside)."""
    c1 = build_cylinder([[0, 0, 1, 0], [0, 0, 0, 1]], [0, 0, 0, 0], 0.2, 4)
    c2 = build_cylinder([[1, 0, 0, 0], [0, 1, 0, 0]], [0.5, 0.5, 0.5, 0.5], 0.2, 4)
    return validate_table(build_table([c1, c2]))


@pytest.fixture(scope="session")
def hs4x2():
    """Four discs in the 2-torus as one billiard in d = 8 (coordinates
    x1, y1, ..., x4, y4): for each pair (i, j) the tube of radius 0.2 whose
    generator is the integer complement of the pair's base
    span(e_xi - e_xj, e_yi - e_yj)."""
    cylinders = []
    for i, j in itertools.combinations(range(4), 2):
        rows = np.zeros((6, 8), dtype=int)
        rows[0, [2 * i, 2 * j]] = rows[1, [2 * i + 1, 2 * j + 1]] = 1
        others = [c for k in range(4) if k not in (i, j) for c in (2 * k, 2 * k + 1)]
        rows[np.arange(2, 6), others] = 1
        cylinders.append(build_cylinder(rows.tolist(), [0.0] * 8, 0.2, 8))
    return validate_table(build_table(cylinders))


@pytest.fixture(scope="session")
def wide5():
    """A sphere and three cylinders of base rank 3, 4 and 4 in the 5-torus;
    the sphere's offset ball makes every flight scan many candidates."""
    return validate_table(build_table([
        build_cylinder([], [0.5] * 5, 0.1, 5),
        build_cylinder([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], [0] * 5, 0.2, 5),
        build_cylinder([[0, 0, 1, 0, 0]], [0, 0, 0, 0.5, 0], 0.15, 5),
        build_cylinder([[0, 0, 0, 1, 1]], [0, 0, 0.5, 0, 0], 0.15, 5)]))


def tori_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance on the torus."""
    diff = np.abs(np.asarray(a) - np.asarray(b))
    return float(np.max(np.minimum(diff, 1.0 - diff)))


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


def clean(segment) -> bool:
    """Segment usable for analysis: no tangential/double flag."""
    return segment.singular_flag is None or segment.singular_flag.kind == "budget_exceeded"


def segment_with_events(table, rng, n_events, margin=0.4, max_tries=200,
                        min_cos=1e-3, min_gap=1e-3):
    """A nonsingular segment with exactly n_events collisions, ending strictly
    between collisions, with all incidences bounded away from grazing."""
    for _ in range(max_tries):
        x = random_phase_point(table, rng)
        probe = evolve(x, table, 2e4, max_events=n_events + 1)
        if not clean(probe) or probe.n_events < n_events + 1:
            continue
        t_n = probe.events[n_events - 1].time
        t_next = probe.events[n_events].time
        if t_next - t_n < min_gap:
            continue
        seg = evolve(x, table, t_n + margin * (t_next - t_n))
        if seg.n_events != n_events or not clean(seg):
            continue
        if min(e.cos_phi for e in seg.events) < min_cos:
            continue
        if seg.events[0].time < min_gap:
            continue
        return seg
    raise RuntimeError(f"could not build a clean {n_events}-collision segment")


def flow_map(q, v, duration, table):
    """Billiard flow for arbitrary (non-unit) speeds, used as the
    finite-difference oracle for the tangent map. Returns the unwrapped
    endpoint, end velocity, and symbolic sequence."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    speed = float(np.linalg.norm(v))
    q_red = np.mod(q, 1.0)
    seg = evolve(PhasePoint(q_red, v / speed), table, duration * speed)
    assert seg.singular_flag is None
    return seg.end_unwrapped + (q - q_red), seg.end.v * speed, seg.symbolic


def exhaustive_splitting_oracle(bases: list[np.ndarray], dim: int, tol: float = 1e-10) -> bool:
    """Brute-force transitivity: try all two-sided assignments of the
    subspaces; a nontrivial orthogonal splitting exists iff some assignment
    has mutually orthogonal sides and neither forced side is trivial.
    Returns True when the system is transitive (no splitting exists)."""
    k = len(bases)
    stacked = np.vstack(bases)
    span_all = np.linalg.matrix_rank(stacked, tol=1e-10)
    for assign in range(2 ** k):
        side1 = [bases[i] for i in range(k) if assign & (1 << i)]
        side2 = [bases[i] for i in range(k) if not assign & (1 << i)]
        s1 = np.vstack(side1) if side1 else np.zeros((0, dim))
        s2 = np.vstack(side2) if side2 else np.zeros((0, dim))
        if s1.shape[0] and s2.shape[0]:
            if np.max(np.abs(s1 @ s2.T)) > tol:
                continue
            return False
        # One side empty: a splitting still exists iff the other side's span
        # leaves a nonzero orthocomplement.
        full = s1 if s1.shape[0] else s2
        if np.linalg.matrix_rank(full, tol=1e-10) < dim:
            return False
    return span_all == dim
