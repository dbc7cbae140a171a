"""Event-driven flow: detection, reflection, evolution, flags, invariants."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cylbilliards import (
    DimensionMismatch,
    OutwardVelocity,
    PhasePoint,
    StartsInsideScatterer,
    build_cylinder,
    build_table,
    cylinder_distance,
    evolve,
    evolve_batch,
    lyapunov_spectrum,
    next_collision,
    phase_point,
    random_phase_point,
    reflect,
    validate_table,
)
from cylbilliards.flow import _COLUMNS, flight_table

from conftest import clean, tori_distance

unit2 = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)


class TestCylinderDistance:
    def test_direct_projection(self, sinai2):
        dist, offset = cylinder_distance(np.array([0.5, 0.0]), sinai2.cylinders[0])
        assert dist == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(offset, [0, 0])

    def test_nearest_translate(self, sinai2):
        dist, offset = cylinder_distance(np.array([0.9, 0.0]), sinai2.cylinders[0])
        assert dist == pytest.approx(0.1, abs=1e-14)
        assert np.allclose(offset, [1, 0])

    def test_generator_direction_ignored(self):
        cyl = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.3, 3)
        for q3 in (0.0, 0.3, 0.7, 0.95):
            dist, _ = cylinder_distance(np.array([0.3, 0.4, q3]), cyl)
            assert dist == pytest.approx(0.5, abs=1e-14)


class TestNextCollision:
    def test_head_on(self, sinai2):
        ev = next_collision(phase_point([0.5, 0.0], [-1.0, 0.0]), sinai2, 10.0)
        assert ev.time == pytest.approx(0.3, abs=1e-14)
        assert np.allclose(ev.q_hit, [0.2, 0.0], atol=1e-14)
        assert np.allclose(ev.normal, [1.0, 0.0], atol=1e-14)
        assert ev.cos_phi == pytest.approx(1.0, abs=1e-14)
        assert ev.cylinder_index == 1

    def test_head_on_via_lattice_translate(self, sinai2):
        ev = next_collision(phase_point([0.5, 0.0], [1.0, 0.0]), sinai2, 10.0)
        assert ev.time == pytest.approx(0.3, abs=1e-14)
        assert np.allclose(ev.q_hit, [0.8, 0.0], atol=1e-14)
        assert np.allclose(ev.normal, [-1.0, 0.0], atol=1e-14)
        assert np.allclose(ev.lattice_offset, [1.0, 0.0], atol=1e-14)

    def test_parallel_to_generator_never_collides(self):
        cyl = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.3, 3)
        table = validate_table(build_table([cyl]))
        x = phase_point([0.3, 0.4, 0.7], [0.0, 0.0, 1.0])
        assert next_collision(x, table, 1000.0) is None

    def test_none_beyond_horizon(self, sinai2):
        x = phase_point([0.5, 0.0], [-1.0, 0.0])
        assert next_collision(x, sinai2, 0.25) is None

    def test_starts_inside_raises(self, sinai2):
        with pytest.raises(StartsInsideScatterer):
            next_collision(phase_point([0.05, 0.0], [1.0, 0.0]), sinai2, 1.0)

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "dense3", "hs4x2", "skew4"])
    def test_equals_first_event_of_evolve(self, request, name):
        table = _skew4_table() if name == "skew4" else request.getfixturevalue(name)
        rng = np.random.default_rng(72)
        starts = [random_phase_point(table, rng) for _ in range(8)]
        # Boundary starts with inward radial velocity, which are reflected
        # before they fly: the incoming state of each collision of an orbit.
        seg = evolve(starts[0], table, 1e9, max_events=4)
        starts += [PhasePoint(q, v) for q, v in zip(seg.q_hit, seg.v_pre)]
        if name == "sinai2":
            # Flown unreflected, this one crossed the disc to t = 3.156.
            starts.append(phase_point([0.2, 0.0], [-1.0, 0.3]))
            assert next_collision(starts[-1], table, 10.0).time == pytest.approx(2.8407556, abs=1e-6)
        for x in starts:
            got = next_collision(x, table, 30.0)
            first = evolve(x, table, 30.0, max_events=1)
            if first.n_events == 0:
                assert got is None
            else:
                assert_same_event(got, first.events[0])

    def test_event_invariants(self, ortho3):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_phase_point(ortho3, rng)
            ev = next_collision(x, ortho3, 50.0)
            if ev is None:
                continue
            assert ev.v_pre @ ev.normal == pytest.approx(-ev.cos_phi, abs=1e-12)
            assert ev.cos_phi >= 0
            cyl = ev.cylinder
            radial = cyl.base_projector @ (ev.q_hit - cyl.translation) - ev.lattice_offset
            assert np.linalg.norm(radial) == pytest.approx(cyl.radius, abs=1e-10)
            expected_post = ev.v_pre - 2 * (ev.v_pre @ ev.normal) * ev.normal
            assert np.allclose(ev.v_post, expected_post, atol=1e-14)


class TestReflect:
    def test_head_on_reversal(self):
        ev = _synthetic_event(normal=[1.0, 0.0], v_pre=[-1.0, 0.0])
        out = reflect(PhasePoint(ev.q_hit, ev.v_pre), ev)
        assert np.allclose(out.v, [1.0, 0.0])

    def test_mirror_law(self):
        s = np.sqrt(2) / 2
        ev = _synthetic_event(normal=[1.0, 0.0], v_pre=[-s, s])
        out = reflect(PhasePoint(ev.q_hit, ev.v_pre), ev)
        assert np.allclose(out.v, [s, s], atol=1e-15)

    def test_normal_incidence_any_direction(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            nu = rng.normal(size=3)
            nu /= np.linalg.norm(nu)
            ev = _synthetic_event(normal=nu, v_pre=-nu)
            out = reflect(PhasePoint(ev.q_hit, ev.v_pre), ev)
            assert np.allclose(out.v, nu, atol=1e-14)

    def test_outward_velocity_rejected(self):
        ev = _synthetic_event(normal=[1.0, 0.0], v_pre=[-1.0, 0.0])
        with pytest.raises(OutwardVelocity):
            reflect(PhasePoint(ev.q_hit, np.array([1.0, 0.0])), ev)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(unit2, min_size=3, max_size=3), st.lists(unit2, min_size=3, max_size=3))
    def test_reflection_preserves_norm_and_involutes(self, v_raw, n_raw):
        v = np.array(v_raw) / np.linalg.norm(v_raw)
        nu = np.array(n_raw) / np.linalg.norm(n_raw)
        if abs(v @ nu) < 1e-6:
            return
        if v @ nu > 0:
            v = -v
        once = v - 2 * (v @ nu) * nu
        assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-12)
        twice = once - 2 * (once @ nu) * nu
        assert np.allclose(twice, v, atol=1e-12)


def _synthetic_event(normal, v_pre):
    from cylbilliards.flow import CollisionEvent

    normal = np.asarray(normal, dtype=float)
    v_pre = np.asarray(v_pre, dtype=float)
    disk = build_cylinder([], [0] * len(normal), 0.2, len(normal))
    return CollisionEvent(
        time=0.0,
        flight=0.0,
        cylinder_index=1,
        q_hit=np.mod(0.2 * normal, 1.0),
        lattice_offset=np.zeros(len(normal)),
        normal=normal,
        v_pre=v_pre,
        v_post=v_pre - 2 * (v_pre @ normal) * normal,
        cos_phi=-float(v_pre @ normal),
        cylinder=disk,
    )


class TestEvolve:
    def test_period_one_bouncing_orbit(self, sinai2):
        seg = evolve(phase_point([0.5, 0.0], [-1.0, 0.0]), sinai2, 1.0)
        assert seg.symbolic == (1, 1)
        assert [e.time for e in seg.events] == pytest.approx([0.3, 0.9], abs=1e-12)
        assert np.allclose(seg.end.v, [-1.0, 0.0])
        assert np.allclose(seg.end.q, [0.7, 0.0], atol=1e-12)
        assert seg.singular_flag is None

    def test_exact_tangency_is_free_flight(self, sinai2):
        seg = evolve(phase_point([0.5, 0.2], [-1.0, 0.0]), sinai2, 1.0)
        assert seg.n_events == 0
        assert seg.singular_flag is None
        assert np.allclose(seg.end.q, [0.5, 0.2], atol=1e-15)

    def test_free_motion_empty_symbolic(self):
        cyl = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.3, 3)
        table = validate_table(build_table([cyl]))
        seg = evolve(phase_point([0.3, 0.4, 0.7], [0, 0, 1.0]), table, 7.25)
        assert seg.symbolic == ()
        assert seg.duration == 7.25
        assert np.allclose(seg.end_unwrapped, [0.3, 0.4, 0.7 + 7.25])

    def test_double_collision_flagged(self):
        c1 = build_cylinder([], [0, 0], 0.3, 2)
        c2 = build_cylinder([], [0.5, 0.0], 0.3, 2)
        table = validate_table(build_table([c1, c2]))
        seg = evolve(phase_point([0.25, 0.5], [0.0, -1.0]), table, 2.0)
        assert seg.singular_flag is not None
        assert seg.singular_flag.kind == "double"
        assert seg.events[seg.singular_flag.event_index].near_double
        assert seg.duration == seg.events[-1].time

    def test_budget_flag_and_chunked_continuation(self, sinai2):
        x = phase_point([0.51, 0.33], [0.6, 0.8])
        whole = evolve(x, sinai2, 40.0)
        first = evolve(x, sinai2, 40.0, max_events=3)
        assert first.singular_flag.kind == "budget_exceeded"
        rest = evolve(first.end, sinai2, 40.0 - first.duration)
        assert first.symbolic + rest.symbolic == whole.symbolic
        assert tori_distance(rest.end.q, whole.end.q) < 1e-9

    def test_event_times_strictly_increasing(self, ortho3):
        rng = np.random.default_rng(11)
        for _ in range(5):
            seg = evolve(random_phase_point(ortho3, rng), ortho3, 30.0)
            times = [e.time for e in seg.events]
            assert all(b > a for a, b in zip(times, times[1:]))
            assert seg.symbolic == tuple(e.cylinder_index for e in seg.events)

    def test_speed_conservation_1000_collisions(self, ortho3):
        rng = np.random.default_rng(4)
        seg = evolve(random_phase_point(ortho3, rng), ortho3, 1e9, max_events=1000)
        assert abs(np.linalg.norm(seg.end.v) - 1.0) < 1e-11

    def test_reversibility(self, dense3):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 10:
            start = random_phase_point(dense3, rng)
            seg = evolve(start, dense3, 3.0, max_events=20)
            if not clean(seg) or seg.n_events < 5:
                continue
            back = evolve(PhasePoint(seg.end.q, -seg.end.v), dense3, seg.duration)
            assert tori_distance(back.end.q, start.q) < 1e-5
            assert np.max(np.abs(-back.end.v - start.v)) < 1e-5
            checked += 1

    def test_reversal_from_collision_endpoint_retraces(self, dense3):
        # Endpoint exactly on the boundary: the incoming/outgoing boundary
        # identification must reflect the reversed velocity, not tunnel.
        rng = np.random.default_rng(8)
        start = random_phase_point(dense3, rng)
        seg = evolve(start, dense3, 10.0, max_events=8)
        assert seg.singular_flag.kind == "budget_exceeded"
        back = evolve(PhasePoint(seg.end.q, -seg.end.v), dense3, seg.duration)
        # Last forward collision sits at t = duration; reversed, it is
        # absorbed at t = 0, so the retraced sequence drops it.
        assert back.symbolic == tuple(reversed(seg.symbolic[:-1]))
        assert tori_distance(back.end.q, start.q) < 1e-6

    def test_boundary_consistency(self, skew3):
        rng = np.random.default_rng(9)
        seg = evolve(random_phase_point(skew3, rng), skew3, 50.0)
        assert seg.n_events > 5
        for e in seg.events:
            cyl = e.cylinder
            radial = cyl.base_projector @ (e.q_hit - cyl.translation) - e.lattice_offset
            assert abs(np.linalg.norm(radial) - cyl.radius) < 1e-10
            assert abs(np.linalg.norm(e.normal) - 1.0) < 1e-12

    def test_translation_invariance_along_generators(self, parallel3):
        rng = np.random.default_rng(13)
        x = random_phase_point(parallel3, rng)
        seg_a = evolve(x, parallel3, 20.0)
        shift = np.array([0.0, 0.0, 0.37])  # shared generator direction
        seg_b = evolve(PhasePoint(np.mod(x.q + shift, 1.0), x.v), parallel3, 20.0)
        assert seg_a.symbolic == seg_b.symbolic
        assert seg_a.n_events > 0
        for ea, eb in zip(seg_a.events, seg_b.events):
            assert abs(ea.time - eb.time) < 1e-9

    def test_positions_reduced_to_unit_cube(self, ortho3):
        rng = np.random.default_rng(17)
        seg = evolve(random_phase_point(ortho3, rng), ortho3, 25.0)
        for e in seg.events:
            assert np.all(e.q_hit >= 0.0) and np.all(e.q_hit < 1.0)
        assert np.all(seg.end.q >= 0.0) and np.all(seg.end.q < 1.0)

    def test_skew_generator_table_d4(self):
        # Two-dimensional skew generator: collisions live in a genuinely
        # tilted rank-2 projected lattice.
        cyl = build_cylinder([[1, 1, 0, 0], [0, 0, 1, 1]], [0.1, 0.2, 0.3, 0.4], 0.3, 4)
        table = validate_table(build_table([cyl]))
        rng = np.random.default_rng(19)
        seg = evolve(random_phase_point(table, rng), table, 40.0)
        assert seg.n_events > 3
        for e in seg.events:
            radial = cyl.base_projector @ (e.q_hit - cyl.translation) - e.lattice_offset
            assert abs(np.linalg.norm(radial) - cyl.radius) < 1e-10
            # normals stay in the base space, orthogonal to both generators
            assert abs(e.normal @ np.array([1, 1, 0, 0])) < 1e-10
            assert abs(e.normal @ np.array([0, 0, 1, 1])) < 1e-10
        speed = abs(float(np.linalg.norm(seg.end.v)) - 1.0)
        assert speed < 1e-12

    def test_overlapping_table_never_lands_inside(self, split4):
        # Axes of this table intersect, so cylinders overlap; earliest-root
        # detection must still keep every hit point outside the other tube.
        rng = np.random.default_rng(21)
        for _ in range(5):
            seg = evolve(random_phase_point(split4, rng), split4, 15.0)
            for e in seg.events:
                for other in split4.cylinders:
                    if other is e.cylinder:
                        continue
                    dist, _ = cylinder_distance(e.q_hit, other)
                    assert dist > other.radius - 1e-10

    def test_flight_durations_keep_precision_deep_in_long_orbit(self, sinai2):
        # Late in a long orbit event.time carries ~1e-12 absolute error, so
        # time differences lose relative precision; the stored flight is the
        # kernel's own duration, equal to a fresh search from the previous
        # post-collision state.
        rng = np.random.default_rng(3)
        seg = evolve(random_phase_point(sinai2, rng), sinai2, 1e9, max_events=3000)
        assert seg.n_events >= 2000 and seg.events[-1].time > 4000
        assert seg.tail == 0.0
        for prev, ev in zip(seg.events[-60:-1], seg.events[-59:]):
            fresh = next_collision(PhasePoint(prev.q_hit, prev.v_post), sinai2, 100.0)
            assert fresh.cylinder_index == ev.cylinder_index
            assert abs(fresh.time - ev.flight) <= 1e-13 * ev.flight

    def test_tail_is_the_final_free_flight(self, ortho3):
        seg = evolve(random_phase_point(ortho3, np.random.default_rng(5)), ortho3, 12.5)
        assert seg.n_events > 0 and seg.singular_flag is None
        assert seg.tail == 12.5 - seg.events[-1].time
        assert sum(e.flight for e in seg.events) + seg.tail == pytest.approx(12.5, abs=1e-12)


def _brute_translates(gens, trans, radius, lo, hi):
    """Base projector of a cylinder and every integer translate n whose axis
    can come within ``radius`` of a point in the box [lo, hi] - trans: each
    axis translate has a representative this close along the generators."""
    d = len(lo)
    g = np.asarray(gens, dtype=float).reshape(-1, d)
    proj = np.eye(d) - (g.T @ np.linalg.inv(g @ g.T) @ g if len(g) else 0.0)
    margin = int(np.ceil(radius)) + len(g) + 1
    ranges = [range(int(np.floor(a)) - margin, int(np.ceil(b)) + margin + 1)
              for a, b in zip(lo - trans, hi - trans)]
    return proj, np.array(list(itertools.product(*ranges)), dtype=float)


def _brute_first_entry(q, v, specs, t_max):
    """Earliest entry of the flight q + s v, 0 < s <= t_max, over explicit
    integer translates of every cylinder, with no windowing and no lattice
    reduction. specs holds (generator rows, translation, radius). Returns
    (time, 1-based cylinder, relative discriminant) or None; the relative
    discriminant of a grazing entry is near zero."""
    best = None
    for idx, (gens, trans, radius) in enumerate(specs, start=1):
        ends = np.stack([q, q + t_max * v])
        proj, n = _brute_translates(gens, trans, radius, ends.min(axis=0), ends.max(axis=0))
        rel = (q - trans - n) @ proj
        pv = proj @ v
        a = float(pv @ pv)
        b = rel @ pv
        c = np.einsum("ij,ij->i", rel, rel) - radius * radius
        disc = b * b - a * c
        ok = (disc >= 0) & (b < 0) & (c > 0)
        s = (-b[ok] - np.sqrt(disc[ok])) / a
        rel_disc = disc[ok] / (b[ok] ** 2 + a * np.abs(c[ok]))
        if ok.any() and s.min() <= t_max:
            j = int(np.argmin(s))
            if best is None or s[j] < best[0]:
                best = (float(s[j]), idx, float(rel_disc[j]))
    return best


def _brute_clearance(q, specs):
    """Smallest distance from q to a scatterer surface (negative inside)."""
    out = np.inf
    for gens, trans, radius in specs:
        proj, n = _brute_translates(gens, trans, radius, q, q)
        out = min(out, float(np.linalg.norm((q - trans - n) @ proj, axis=1).min()) - radius)
    return out


@st.composite
def small_tables(draw):
    d = draw(st.integers(2, 4))
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        n_gen = draw(st.integers(0, d - 2))
        gens = draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d),
                             min_size=n_gen, max_size=n_gen))
        assume(n_gen == 0 or np.linalg.matrix_rank(np.array(gens, dtype=float)) == n_gen)
        trans = draw(st.lists(st.floats(0.0, 0.999), min_size=d, max_size=d))
        probe = build_cylinder(gens, trans, 1e-3, d)
        radius = draw(st.floats(0.02, 0.45)) * probe.lattice.shortest_norm
        specs.append((gens, np.array(probe.translation), radius))
    return d, specs


class TestCollisionOracle:
    @settings(max_examples=40, deadline=None)
    @given(small_tables(), st.data())
    def test_first_collision_matches_brute_force(self, spec, data):
        d, specs = spec
        table = build_table([build_cylinder(g, t, r, d) for g, t, r in specs])
        q = np.array(data.draw(st.lists(st.floats(0.0, 0.999), min_size=d, max_size=d)))
        v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        assume(np.linalg.norm(v) > 0.1)
        v = v / np.linalg.norm(v)
        assume(_brute_clearance(q, specs) > 1e-6)
        t_max = data.draw(st.floats(0.5, 6.0))
        brute = _brute_first_entry(q, v, specs, t_max)
        # Entries within rounding of the horizon or of tangency are not decided.
        assume(brute is None or (brute[0] < t_max - 1e-7 and brute[2] > 1e-8))
        ev = next_collision(PhasePoint(q, v), table, t_max)
        if brute is None:
            assert ev is None
        elif not (ev.grazing or ev.near_double):
            assert ev.cylinder_index == brute[1]
            assert abs(ev.time - brute[0]) < 1e-9


class TestStartChecks:
    @settings(max_examples=60, deadline=None)
    @given(small_tables(), st.data())
    def test_stacked_distances_match_nearest(self, spec, data):
        d, specs = spec
        table = build_table([build_cylinder(g, t, r, d) for g, t, r in specs])
        q = np.array(data.draw(st.lists(st.floats(0.0, 0.999), min_size=d, max_size=d)))
        _, _, dists = flight_table(table).axis_gaps(q)
        want = [cylinder_distance(q, cyl)[0] for cyl in table.cylinders]
        assert np.allclose(dists, want, rtol=0.0, atol=1e-12)
        clearance = _brute_clearance(q, specs)
        assert float(np.min(dists - [r for _, _, r in specs])) == pytest.approx(clearance, abs=1e-12)
        if clearance < -1e-9:
            with pytest.raises(StartsInsideScatterer):
                next_collision(PhasePoint(q, np.eye(d)[0]), table, 1.0)

    def test_ball_holds_the_nearest_translate_of_a_thin_lattice(self):
        # Here babai_bound (0.36) exceeds r + 2 lambda_1 (0.21). Just inside
        # an edge of the Babai rounding cell the nearest translate lies 0.71
        # from the Babai point, so the ball must reach 2 babai_bound.
        cyl = build_cylinder([[9, 9, -11]], [0.0, 0.0, 0.0], 0.04, 3)
        table = build_table([cyl])
        lat = cyl.lattice
        assert lat.babai_bound > cyl.radius + 2.0 * lat.shortest_norm
        edge = np.linspace(-0.5, 0.5, 101)
        cell = np.vstack([np.column_stack([edge, np.full_like(edge, side)]) for side in (0.4999, -0.4999)])
        for t in np.vstack([cell, cell[:, ::-1]]):
            q = np.mod(t @ lat.coord_basis @ lat.subspace_onb, 1.0)
            got = flight_table(table).axis_gaps(q)[2][0]
            assert got == pytest.approx(cylinder_distance(q, cyl)[0], abs=1e-12)


# ---------------------------------------------------------------------------
# Columnar segments against the per-event construction they replace: the
# loop below builds every CollisionEvent as the flow did before its events
# became columns, from the same raw hits of the first-collision kernel.
# ---------------------------------------------------------------------------

def reference_event(raw, v, time_offset):
    from cylbilliards.flow import EPS_TANG, CollisionEvent

    s_rel, ft, k, rel, uc, lam, q_window, base, near_double = raw
    blk, cyl = ft.blocks[k], ft.cylinders[k]
    onb = ft.onb[blk]
    q_hit_raw = q_window + s_rel * v
    radial = (rel[blk] + s_rel * uc[blk]) @ onb
    normal = radial / math.sqrt(radial @ radial)
    vn = float(v @ normal)
    cos_phi = -vn
    shift = np.floor(q_hit_raw)
    flight = base + s_rel
    return CollisionEvent(
        time=time_offset + flight, flight=flight, cylinder_index=k + 1, q_hit=q_hit_raw - shift,
        lattice_offset=lam[blk] @ onb - cyl.base_projector @ shift, normal=normal,
        v_pre=np.array(v), v_post=v - 2.0 * vn * normal, cos_phi=cos_phi, cylinder=cyl,
        grazing=bool(cos_phi < EPS_TANG), near_double=near_double)


def reference_evolve(x, table, duration, max_events=10**6):
    """(events, flag kind and index, duration, tail, end q, end v, end_unwrapped)."""
    from cylbilliards import flow

    ft = flight_table(table)
    q = np.array(x.q, dtype=float)
    v = flow._start_velocities(ft, q[None], np.asarray(x.v, dtype=float)[None])[0][0]
    disp = np.zeros_like(q)
    elapsed = tail = 0.0
    events, flag = [], None
    while True:
        remaining = duration - elapsed
        if remaining <= 0:
            break
        raw = flow._first_collision(q, v, ft, remaining)
        if raw is None:
            tail = remaining
            disp += tail * v
            q = np.mod(q + tail * v, 1.0)
            elapsed = duration
            break
        ev = reference_event(raw, v, elapsed)
        disp += ev.flight * v
        elapsed = ev.time
        events.append(ev)
        q = ev.q_hit
        if ev.grazing or ev.near_double:
            flag = ("tangential" if ev.grazing else "double", len(events) - 1)
            break
        v = ev.v_post
        if len(events) >= max_events and elapsed < duration:
            flag = ("budget_exceeded", len(events) - 1)
            break
    return events, flag, elapsed, tail, q, v, x.q + disp


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_event(got, want):
    for field in ("time", "flight", "cos_phi"):
        assert same_bits(getattr(got, field), getattr(want, field)), field
    for field in ("q_hit", "lattice_offset", "normal", "v_pre", "v_post"):
        assert same_bits(getattr(got, field), getattr(want, field)), field
    assert got.cylinder_index == want.cylinder_index
    assert got.cylinder is want.cylinder
    assert got.grazing == want.grazing and got.near_double == want.near_double


def _skew4_table():
    """One cylinder in d = 4 whose base frame has no zero entries, so lattice
    offsets sum rounded products in every coordinate."""
    return validate_table(build_table([build_cylinder([[1, 2, 3, 5]], [0.0] * 4, 0.15, 4)]))


def _double_table():
    c1 = build_cylinder([], [0, 0], 0.3, 2)
    c2 = build_cylinder([], [0.5, 0.0], 0.3, 2)
    return validate_table(build_table([c1, c2]))


class TestColumns:
    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2",
                                      "skew4"])
    def test_events_equal_per_event_construction(self, request, name):
        table = _skew4_table() if name == "skew4" else request.getfixturevalue(name)
        rng = np.random.default_rng(70)
        for duration, budget in ((1e9, 150), (15.0, 10**6), (1e9, 1), (1e-3, 10**6), (1e9, 16), (1e9, 17)):
            x = random_phase_point(table, rng)
            seg = evolve(x, table, duration, max_events=budget)
            events, flag, elapsed, tail, q, v, unwrapped = reference_evolve(x, table, duration, budget)
            assert seg.n_events == len(seg.events) == len(events)
            for got, want in zip(seg.events, events):
                assert_same_event(got, want)
            got_flag = seg.singular_flag and (seg.singular_flag.kind, seg.singular_flag.event_index)
            assert got_flag == flag
            assert seg.symbolic == tuple(e.cylinder_index for e in events)
            assert (seg.duration, seg.tail) == (elapsed, tail)
            assert same_bits(seg.end.q, q) and same_bits(seg.end.v, v)
            assert same_bits(seg.end_unwrapped, unwrapped)
            # Every column is read-only, and the events are row views of it.
            assert not seg.q_hit.flags.writeable
            if seg.n_events:
                assert np.shares_memory(seg.events[-1].v_post, seg.v_post)

    @pytest.mark.parametrize("name", ["sinai2", "ortho3"])
    def test_long_run_holds_little_more_than_its_columns(self, request, name):
        table = request.getfixturevalue(name)
        x = random_phase_point(table, np.random.default_rng(72))
        evolve(x, table, 1e9, max_events=20)
        tracemalloc.start()
        try:
            seg = evolve(x, table, 1e9, max_events=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seg.n_events == 2000
        assert peak <= 3 * sum(getattr(seg, col).nbytes for col in _COLUMNS)

    @pytest.mark.parametrize("case", ["tangential", "double", "zero"])
    def test_flagged_and_empty_segments(self, dense3, case):
        from test_tangent import tangential_dense3_start

        table, x, duration = {
            "tangential": (dense3, tangential_dense3_start(), 1e12),
            "double": (_double_table(), phase_point([0.25, 0.5], [0.0, -1.0]), 2.0),
            "zero": (dense3, phase_point([0.5, 0.05, 0.1], [0.0, 0.0, 1.0]), 5.0),
        }[case]
        seg = evolve(x, table, duration)
        events, flag, elapsed, tail, q, v, unwrapped = reference_evolve(x, table, duration)
        assert len(seg.events) == len(events) == (0 if case == "zero" else 1)
        for got, want in zip(seg.events, events):
            assert_same_event(got, want)
        assert (seg.singular_flag and (seg.singular_flag.kind, seg.singular_flag.event_index)) == flag
        assert same_bits(seg.end.v, v) and same_bits(seg.end_unwrapped, unwrapped)
        assert seg.q_hit.shape == seg.normal.shape == (seg.n_events, table.dim)

    @pytest.mark.parametrize("name", ["sinai2", "skew3", "split4", "hs4x2", "skew4"])
    def test_next_collision_equals_per_event_construction(self, request, name):
        from cylbilliards.flow import _first_collision

        table = _skew4_table() if name == "skew4" else request.getfixturevalue(name)
        rng = np.random.default_rng(71)
        for _ in range(10):
            x = random_phase_point(table, rng)
            got = next_collision(x, table, 50.0)
            raw = _first_collision(x.q, x.v, flight_table(table), 50.0)
            if raw is None:
                assert got is None
                continue
            assert_same_event(got, reference_event(raw, np.asarray(x.v, dtype=float), 0.0))


# ---------------------------------------------------------------------------
# Lockstep batches: each segment of a batch is the segment of its start alone
# ---------------------------------------------------------------------------

BATCH_TABLES = ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2", "skew4"]


def _special_starts(name):
    """Starts whose segments are flagged or empty on this table."""
    if name == "dense3":
        # Grazing at once (as in test_tangent), and parallel to the shared
        # axis, so without any event.
        return [phase_point([0.5, 0.05, 0.1], [3e-11, 1e-11, 1.0]), phase_point([0.5, 0.05, 0.1], [0.0, 0.0, 1.0])]
    return []


def assert_same_segment(got, want):
    for name in ("time", "flight", "cylinder_id", "q_hit", "lattice_offset", "normal", "v_pre", "v_post",
                 "cos_phi", "grazing", "near_double"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert (got.duration, got.tail, got.symbolic) == (want.duration, want.tail, want.symbolic)
    flag = (lambda s: s.singular_flag and (s.singular_flag.kind, s.singular_flag.event_index))
    assert flag(got) == flag(want)
    assert same_bits(got.end.q, want.end.q) and same_bits(got.end.v, want.end.v)
    assert same_bits(got.end_unwrapped, want.end_unwrapped)
    assert got.start is want.start


class TestBatch:
    @settings(max_examples=30, deadline=None)
    # Durations in mean free times, with event budgets; the long ones end on
    # their budget or a flag.
    @given(st.sampled_from(BATCH_TABLES), st.integers(0, 2**32 - 1), st.integers(2, 7),
           st.sampled_from([(0.3, 10**6), (4.0, 3), (25.0, 10**6), (1e12, 1), (1e12, 4)]), st.data())
    def test_segments_equal_evolve_alone(self, request, name, seed, size, run, data):
        table = _skew4_table() if name == "skew4" else request.getfixturevalue(name)
        rng = np.random.default_rng(seed)
        starts = [random_phase_point(table, rng) for _ in range(size)] + _special_starts(name)
        starts = data.draw(st.permutations(starts))
        flights, budget = run
        duration = flights * {"sinai2": 2.2, "hs4x2": 0.24, "dense3": 0.23}.get(name, 1.2)
        batch = evolve_batch(starts, table, duration, max_events=budget)
        assert len(batch) == len(starts)
        for x, got in zip(starts, batch):
            assert_same_segment(got, evolve(x, table, duration, max_events=budget))

    def test_flagged_empty_and_truncated_segments_in_one_batch(self, dense3):
        starts = _special_starts("dense3") + [random_phase_point(dense3, np.random.default_rng(s)) for s in range(4)]
        batch = evolve_batch(starts, dense3, 1e12, max_events=5)
        kinds = [seg.singular_flag and seg.singular_flag.kind for seg in batch]
        assert kinds[0] == "tangential" and batch[1].n_events == 0 and "budget_exceeded" in kinds
        for x, got in zip(starts, batch):
            assert_same_segment(got, evolve(x, dense3, 1e12, max_events=5))

    def test_double_event_in_a_batch(self):
        table = _double_table()
        starts = [phase_point([0.25, 0.5], [0.0, -1.0]), phase_point([0.1, 0.6], [0.6, 0.8])]
        batch = evolve_batch(starts, table, 2.0)
        assert batch[0].singular_flag.kind == "double"
        for x, got in zip(starts, batch):
            assert_same_segment(got, evolve(x, table, 2.0))

    def test_narrowed_tubes_keep_their_bits(self):
        # One lockstep batch of 8 on skew4. Its tubes widen and narrow from
        # flight to flight, so passes run with rows of an earlier, wider tube
        # left in a trajectory's slot past its own rows (21 times in this
        # batch, counted when the test was written); they must never hit.
        table = _skew4_table()
        rng = np.random.default_rng(0)
        starts = [random_phase_point(table, rng) for _ in range(8)]
        batch = evolve_batch(starts, table, 20.0)
        assert sum(seg.n_events for seg in batch) == 44
        for x, got in zip(starts, batch):
            assert_same_segment(got, evolve(x, table, 20.0))

    def test_batches_cut_to_the_ball_budget(self, ortho3, monkeypatch):
        from cylbilliards import flow

        starts = [random_phase_point(ortho3, np.random.default_rng([5, i])) for i in range(5)]
        whole = evolve_batch(starts, ortho3, 20.0)
        # Two trajectories per lockstep batch, then a lone one.
        monkeypatch.setattr(flow, "LOCKSTEP_ENTRIES", 2 * flight_table(ortho3).offsets.size)
        for got, want in zip(evolve_batch(starts, ortho3, 20.0), whole):
            assert_same_segment(got, want)

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2",
                                      "wide5"])
    def test_parts_hold_at_most_the_ball_budget(self, request, name):
        from cylbilliards.flow import LOCKSTEP_ENTRIES, _lockstep_parts

        table = request.getfixturevalue(name)
        entries = flight_table(table).offsets.size
        # wide5's ball alone holds more than the budget, so it runs lone at
        # any count; a count of n makes n parts, so counts to 5 000 would
        # build 12.5 million slices.
        for count in range(1, 501 if name == "wide5" else 5001):
            parts = [range(count)[part] for part in _lockstep_parts(table, count)]
            # The parts cut the trajectories in order, none of them empty.
            assert [p.start for p in parts] + [count] == [0] + [p.stop for p in parts]
            assert min(map(len, parts)) >= 1
            assert max(map(len, parts)) * entries <= max(LOCKSTEP_ENTRIES, entries), (count, list(map(len, parts)))

    def test_start_inside_leaves_the_others_alone(self, sinai2):
        inside = phase_point([0.05, 0.0], [1.0, 0.0])
        good = random_phase_point(sinai2, np.random.default_rng(8))
        batch = evolve_batch([good, inside, good], sinai2, 10.0)
        assert isinstance(batch[1], StartsInsideScatterer)
        assert_same_segment(batch[0], evolve(good, sinai2, 10.0))
        assert_same_segment(batch[2], evolve(good, sinai2, 10.0))
        with pytest.raises(StartsInsideScatterer):
            evolve(inside, sinai2, 10.0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, sinai2, budget):
        x = random_phase_point(sinai2, np.random.default_rng(9))
        with pytest.raises(ValueError, match="max_events"):
            evolve(x, sinai2, 10.0, max_events=budget)
        with pytest.raises(ValueError, match="max_events"):
            evolve_batch([x, x], sinai2, 10.0, max_events=budget)


class TestEndings:
    """Runs whose ends the segment works out from its columns: a hit exactly
    at the end of the run, and a run of no time at all."""

    def _cases(self, sinai2):
        rng = np.random.default_rng(12)
        while True:
            x = random_phase_point(sinai2, rng)
            first = next_collision(x, sinai2, 50.0)
            # A flight shorter than sinai2's window (2) is found in its first
            # window, at the same root.
            if first is not None and first.time < 1.5:
                return {"hit_at_end": (x, first.time), "zero": (x, 0.0)}

    @pytest.mark.parametrize("case", ["hit_at_end", "zero"])
    def test_alone_in_a_batch_and_against_the_reference(self, sinai2, case):
        x, duration = self._cases(sinai2)[case]
        seg = evolve(x, sinai2, duration)
        assert seg.singular_flag is None and seg.tail == 0.0
        if case == "hit_at_end":
            assert seg.n_events == 1 and seg.duration == seg.time[-1] == duration
            assert same_bits(seg.end.v, seg.v_post[-1]) and same_bits(seg.end.q, seg.q_hit[-1])
        else:
            assert seg.n_events == 0 and seg.duration == 0.0
            assert same_bits(seg.end.q, x.q) and same_bits(seg.end.v, x.v)
            assert same_bits(seg.end_unwrapped, x.q)
        events, flag, elapsed, tail, q, v, unwrapped = reference_evolve(x, sinai2, duration)
        assert flag is None and (seg.duration, seg.tail) == (elapsed, tail)
        for got, want in zip(seg.events, events, strict=True):
            assert_same_event(got, want)
        assert same_bits(seg.end.q, q) and same_bits(seg.end.v, v) and same_bits(seg.end_unwrapped, unwrapped)
        others = [random_phase_point(sinai2, np.random.default_rng([13, i])) for i in range(3)]
        batch = evolve_batch([others[0], x, *others[1:]], sinai2, duration)
        assert_same_segment(batch[1], seg)
        for y, got in zip(others, batch[:1] + batch[2:]):
            assert_same_segment(got, evolve(y, sinai2, duration))

    @pytest.mark.parametrize("duration", [-5.0, -1e-300, float("nan")])
    def test_negative_or_nan_duration_rejected(self, sinai2, duration):
        x = random_phase_point(sinai2, np.random.default_rng(9))
        with pytest.raises(ValueError, match="duration"):
            evolve(x, sinai2, duration)
        with pytest.raises(ValueError, match="duration"):
            evolve_batch([x, x], sinai2, duration)
        with pytest.raises(ValueError, match="duration"):
            evolve_batch([], sinai2, duration)
        with pytest.raises(ValueError, match="t_max"):
            next_collision(x, sinai2, duration)

    @pytest.mark.parametrize("q, v", [([np.nan, 0.1], [0.6, 0.8]), ([0.5, 0.1], [np.nan, 0.8]),
                                      ([np.inf, 0.1], [0.6, 0.8])], ids=["nan-q", "nan-v", "inf-q"])
    def test_non_finite_start_rejected(self, sinai2, q, v):
        # A NaN velocity has no speed to check, and a NaN or infinite start
        # would fly every window of its duration without a hit.
        x = PhasePoint(np.array(q), np.array(v))
        with pytest.raises(ValueError, match=r"start 0 is not finite"):
            evolve(x, sinai2, 1e9)
        with pytest.raises(ValueError, match=r"start 0 is not finite"):
            next_collision(x, sinai2, 1e9)
        clear = random_phase_point(sinai2, np.random.default_rng(9))
        with pytest.raises(ValueError, match=r"start 1 is not finite"):
            evolve_batch([clear, x], sinai2, 1e9)

    def test_non_unit_speed_rejected(self, sinai2):
        # Both paths check the start velocities; a non-unit speed would give
        # an event with cos(phi) > 1.
        x = PhasePoint(np.array([0.5, 0.1]), np.array([2.0, 0.6]))
        with pytest.raises(ValueError, match=r"start 0: \|v\| = 2\.088\d* is not 1"):
            evolve(x, sinai2, 5.0)
        with pytest.raises(ValueError, match=r"start 0: \|v\| = 2\.088\d* is not 1"):
            next_collision(x, sinai2, 5.0)
        clear = random_phase_point(sinai2, np.random.default_rng(9))
        with pytest.raises(ValueError, match=r"start 1: \|v\|"):
            evolve_batch([clear, x], sinai2, 5.0)

    @pytest.mark.parametrize("q, v, wrong", [([0.5, 0.1, 0.3, 0.2], [0.6, 0.8, 0.0, 0.0], r"q has shape \(4,\)"),
                                             ([0.5, 0.1], [0.6, 0.8, 0.0], r"v has shape \(3,\)"),
                                             ([0.5], [1.0], r"q has shape \(1,\)")], ids=["both-4", "v-3", "both-1"])
    def test_start_of_another_dimension_rejected(self, sinai2, q, v, wrong):
        # Stacked with the other starts, a 4-coordinate start on the 2-torus
        # used to be read as two starts.
        x = PhasePoint(np.array(q), np.array(v))
        message = rf"{wrong}, the table has dimension 2"
        with pytest.raises(DimensionMismatch, match="start 0: " + message):
            evolve(x, sinai2, 5.0)
        with pytest.raises(DimensionMismatch, match="start 0: " + message):
            next_collision(x, sinai2, 5.0)
        with pytest.raises(DimensionMismatch, match="start 0: " + message):
            lyapunov_spectrum(x, sinai2, 5.0)
        clear = random_phase_point(sinai2, np.random.default_rng(9))
        with pytest.raises(DimensionMismatch, match="start 1: " + message):
            evolve_batch([clear, x, clear], sinai2, 5.0)
