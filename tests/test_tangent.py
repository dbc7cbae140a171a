"""Linearized flow, normal-vector transport, Q laws, Lyapunov spectra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylbilliards import (
    DimensionMismatch,
    NormalSamples,
    NormalVector,
    PhasePoint,
    SingularityEncountered,
    TangentialEvent,
    TangentVector,
    build_cylinder,
    build_table,
    collision_derivative,
    collision_operators,
    evolve,
    evolve_normal,
    evolve_tangent,
    free_flight_derivative,
    lyapunov_spectrum,
    normal_vector,
    phase_point,
    random_phase_point,
    time_reverse,
    validate_table,
)
from cylbilliards.tangent import BLOCK, evolve_frame, segment_operators, transport

from conftest import flow_map, segment_with_events
from test_flow import same_bits

coord = st.floats(-2.0, 2.0)
vec2 = st.lists(coord, min_size=2, max_size=2).map(np.array)


class TestFreeFlightDerivative:
    def test_neutral_translation(self):
        out = free_flight_derivative(TangentVector(np.array([1.0, 0.0]), np.zeros(2)), 5.0)
        assert np.allclose(out.dq, [1, 0]) and np.allclose(out.dv, [0, 0])

    def test_velocity_perturbation_shears(self):
        out = free_flight_derivative(TangentVector(np.zeros(2), np.array([1.0, 0.0])), 2.0)
        assert np.allclose(out.dq, [2, 0]) and np.allclose(out.dv, [1, 0])

    def test_zero_time_identity(self):
        tv = TangentVector(np.array([0.3, -0.4]), np.array([0.1, 0.2]))
        out = free_flight_derivative(tv, 0.0)
        assert np.allclose(out.dq, tv.dq) and np.allclose(out.dv, tv.dv)


@pytest.fixture(scope="module")
def headon_event(sinai2):
    seg = evolve(phase_point([0.5, 0.0], [-1.0, 0.0]), sinai2, 0.5)
    return seg.events[0]


@pytest.fixture(scope="module")
def cyl3_event():
    cyl = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.3, 3)
    table = validate_table(build_table([cyl]))
    seg = evolve(phase_point([0.5, 0.0, 0.2], [-1.0, 0.0, 0.0]), table, 0.4)
    assert seg.n_events == 1
    return seg.events[0]


class TestCollisionOperators:
    def test_head_on_disk(self, headon_event):
        ops = collision_operators(headon_event)
        assert ops.cos_phi == pytest.approx(1.0, abs=1e-14)
        e2 = np.array([0.0, 1.0])
        assert np.allclose(ops.V @ e2, e2, atol=1e-14)
        assert np.allclose(ops.K @ e2, 5.0 * e2, atol=1e-12)

    def test_reflection_matrix(self, headon_event):
        ops = collision_operators(headon_event)
        nu = headon_event.normal
        assert np.allclose(ops.R @ nu, -nu, atol=1e-14)
        perp = np.array([-nu[1], nu[0]])
        assert np.allclose(ops.R @ perp, perp, atol=1e-14)
        assert np.allclose(ops.R @ ops.R, np.eye(2), atol=1e-14)

    def test_curvature_flat_along_generator(self, cyl3_event):
        ops = collision_operators(cyl3_event)
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        # normal here is -e1, so e2 spans the spherical direction
        assert np.allclose(ops.K @ e2, e2 / 0.3, atol=1e-12)
        assert np.allclose(ops.K @ e3, np.zeros(3), atol=1e-14)

    def test_curvature_positive_semidefinite(self, skew3):
        rng = np.random.default_rng(2)
        seg = evolve(random_phase_point(skew3, rng), skew3, 20.0)
        for e in seg.events:
            ops = collision_operators(e)
            sym = 0.5 * (ops.K + ops.K.T)
            eigvals = np.linalg.eigvalsh(sym)
            assert eigvals.min() > -1e-12
            # generator directions sit in the null space, exactly
            for a_row in e.cylinder.generator.integer_basis:
                assert np.max(np.abs(ops.K @ np.array(a_row, dtype=float))) < 1e-12

    def test_gain_matches_outgoing_slide(self, skew3):
        # With the outgoing slide V1 = I - v_post nu^T / cos_phi, the inverse
        # gain 2 cos_phi R V1^T K V1 equals R G R and the normal-vector gain
        # 2 cos_phi V1^T K V1 R equals G.
        seg = evolve(random_phase_point(skew3, np.random.default_rng(4)), skew3, 20.0)
        for e in seg.events:
            ops = collision_operators(e)
            v1 = np.eye(3) - np.outer(e.v_post, e.normal) / e.cos_phi
            outgoing = 2.0 * e.cos_phi * v1.T @ ops.K @ v1
            scale = np.abs(ops.gain).max()
            assert np.abs(ops.R @ ops.gain @ ops.R - ops.R @ outgoing).max() < 1e-13 * scale
            assert np.abs(ops.gain - outgoing @ ops.R).max() < 1e-13 * scale

    def test_tangential_event_rejected(self, headon_event):
        from dataclasses import replace

        grazing = replace(headon_event, cos_phi=1e-10)
        with pytest.raises(TangentialEvent):
            collision_operators(grazing)


class TestCollisionDerivative:
    def test_generator_translation_fixed(self, cyl3_event):
        ops = collision_operators(cyl3_event)
        tv = TangentVector(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        out = collision_derivative(tv, ops)
        assert np.allclose(out.dq, tv.dq, atol=1e-14)
        assert np.allclose(out.dv, np.zeros(3), atol=1e-14)

    def test_head_on_gain(self, headon_event):
        ops = collision_operators(headon_event)
        dq = np.array([0.0, 1.0])  # orthogonal to the normal
        out = collision_derivative(TangentVector(dq, np.zeros(2)), ops)
        assert np.allclose(out.dq, dq, atol=1e-13)
        assert np.allclose(out.dv, (2 / 0.2) * dq, atol=1e-11)

    def test_single_collision_against_finite_differences(self, sinai2):
        rng = np.random.default_rng(3)
        x = phase_point([0.55, 0.03], [-0.9, 0.1])
        seg = evolve(x, sinai2, 0.8)
        assert seg.n_events == 1
        h = 1e-6
        for _ in range(5):
            dq0, dv0 = rng.normal(size=2), rng.normal(size=2)
            qp, vp, sp = flow_map(x.q + h * dq0, x.v + h * dv0, seg.duration, sinai2)
            qm, vm, sm = flow_map(x.q - h * dq0, x.v - h * dv0, seg.duration, sinai2)
            assert sp == sm == seg.symbolic
            fd = np.concatenate([(qp - qm), (vp - vm)]) / (2 * h)
            out = evolve_tangent(TangentVector(dq0, dv0), seg)
            analytic = np.concatenate([out.dq, out.dv])
            assert np.linalg.norm(fd - analytic) < 1e-5 * np.linalg.norm(analytic)

    @settings(max_examples=30, deadline=None)
    @given(dq=vec2, dv=vec2)
    def test_forward_then_inverse_is_identity(self, headon_event, dq, dv):
        ops = collision_operators(headon_event)
        tv = TangentVector(dq, dv)
        back = collision_derivative(collision_derivative(tv, ops), ops, inverse=True)
        assert np.max(np.abs(back.dq - tv.dq)) < 1e-12
        assert np.max(np.abs(back.dv - tv.dv)) < 1e-12


class TestEvolveTangent:
    def test_flow_direction_invariant(self, ortho3):
        rng = np.random.default_rng(5)
        seg = segment_with_events(ortho3, rng, 4)
        out = evolve_tangent(TangentVector(seg.start.v, np.zeros(3)), seg)
        assert np.allclose(out.dq, seg.end.v, atol=1e-11)
        assert np.max(np.abs(out.dv)) < 1e-11

    def test_zero_vector_stays_zero(self, ortho3):
        rng = np.random.default_rng(5)
        seg = segment_with_events(ortho3, rng, 3)
        out = evolve_tangent(TangentVector(np.zeros(3), np.zeros(3)), seg)
        assert np.max(np.abs(out.dq)) == 0 and np.max(np.abs(out.dv)) == 0

    def test_matches_finite_differences_three_collisions(self, ortho3):
        # Near-grazing incidences blow up the difference quotient (third
        # derivatives scale like 1/cos^3), so the oracle segments stay away
        # from the tangency band.
        rng = np.random.default_rng(7)
        h = 1e-6
        done = 0
        while done < 5:
            seg = segment_with_events(ortho3, rng, 3, min_cos=0.15)
            if seg.duration > 3.0:
                continue
            dq0, dv0 = rng.normal(size=3), rng.normal(size=3)
            try:
                qp, vp, sp = flow_map(seg.start.q + h * dq0, seg.start.v + h * dv0,
                                      seg.duration, ortho3)
                qm, vm, sm = flow_map(seg.start.q - h * dq0, seg.start.v - h * dv0,
                                      seg.duration, ortho3)
            except AssertionError:
                continue
            if not (sp == sm == seg.symbolic):
                continue
            fd = np.concatenate([(qp - qm), (vp - vm)]) / (2 * h)
            out = evolve_tangent(TangentVector(dq0, dv0), seg)
            analytic = np.concatenate([out.dq, out.dv])
            assert np.linalg.norm(fd - analytic) < 1e-5 * np.linalg.norm(analytic)
            done += 1


class TestNormalVectors:
    def test_q_value_recomputed(self):
        n = normal_vector([1.0, 2.0], [3.0, -1.0])
        assert n.q_value == pytest.approx(float(n.z @ n.w), abs=1e-12)

    def test_pure_w_vector_is_flight_invariant(self, sinai2):
        seg = evolve(phase_point([0.4, 0.4], [0.0, 1.0]), sinai2, 0.15)
        assert seg.n_events == 0
        samples = evolve_normal(normal_vector([0.0, 0.0], [0.3, -0.7]), seg)
        for _, nv, q in samples:
            assert np.allclose(nv.w, [0.3, -0.7]) and q == 0.0

    def test_flight_drop_exact(self, sinai2):
        z = np.array([0.6, -0.8])
        seg = evolve(phase_point([0.4, 0.4], [0.0, 1.0]), sinai2, 0.15)
        samples = evolve_normal(normal_vector(z, [0.0, 0.0]), seg)
        t_end, nv_end, q_end = samples[-1]
        assert q_end == pytest.approx(-0.15 * float(z @ z), abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(vec2, vec2, st.floats(0.0, 50.0))
    def test_flight_identity_random(self, z, w, t):
        n0 = normal_vector(z, w)
        drifted = normal_vector(z, w - t * z)
        assert abs(drifted.q_value - (n0.q_value - t * float(z @ z))) < 1e-12 * (1 + t)

    def test_collision_never_increases_q(self, ortho3):
        rng = np.random.default_rng(11)
        for _ in range(10):
            seg = segment_with_events(ortho3, rng, 6)
            n0 = normal_vector(rng.normal(size=3), rng.normal(size=3))
            samples = evolve_normal(n0, seg, rescale=True)
            # pattern: start, (pre, post, renorm)*, end
            for k in range(seg.n_events):
                q_pre = samples[1 + 3 * k][2]
                q_post = samples[2 + 3 * k][2]
                assert q_post <= q_pre + 1e-12

    def test_rescaled_samples_stay_internally_consistent(self, ortho3):
        # Recorded samples must not alias the evolving state: every sample's
        # stored q_value has to match its own z and w after the full run.
        rng = np.random.default_rng(23)
        seg = segment_with_events(ortho3, rng, 6)
        samples = evolve_normal(normal_vector(rng.normal(size=3), rng.normal(size=3)),
                                seg, rescale=True)
        for _, nv, q in samples:
            assert q == pytest.approx(float(nv.z @ nv.w), abs=1e-12)
            assert q == nv.q_value

    def test_pairing_with_tangent_vectors_conserved(self, skew3):
        # The normal-vector laws are the inverse adjoints of the tangent laws:
        # <z, dq> + <w, dv> is exactly conserved along any joint transport.
        rng = np.random.default_rng(17)
        for _ in range(8):
            seg = segment_with_events(skew3, rng, int(rng.integers(1, 6)))
            z, w = rng.normal(size=3), rng.normal(size=3)
            dq, dv = rng.normal(size=3), rng.normal(size=3)
            pairing0 = float(z @ dq + w @ dv)
            out = evolve_tangent(TangentVector(dq, dv), seg)
            samples = evolve_normal(normal_vector(z, w), seg)
            n_end = samples[-1][1]
            pairing1 = float(n_end.z @ out.dq + n_end.w @ out.dv)
            scale = max(1.0, abs(pairing0),
                        float(np.linalg.norm(n_end.z) * np.linalg.norm(out.dq)))
            assert abs(pairing1 - pairing0) < 1e-11 * scale

    def test_sign_monotone_along_run(self, ortho3):
        rng = np.random.default_rng(13)
        seg = segment_with_events(ortho3, rng, 8)
        n0 = normal_vector(rng.normal(size=3), rng.normal(size=3))
        signs = [np.sign(q) if abs(q) > 1e-14 else 0.0
                 for _, _, q in evolve_normal(n0, seg, rescale=True)]
        # once negative, never back to positive
        seen_negative = False
        for s in signs:
            if seen_negative:
                assert s <= 0
            if s < 0:
                seen_negative = True


class TestTimeReverse:
    def test_phase_point(self):
        x = phase_point([0.3, 0.4], [0.6, 0.8])
        back = time_reverse(time_reverse(x))
        assert np.allclose(back.q, x.q) and np.allclose(back.v, x.v)

    def test_q_flips_sign_exactly(self):
        n = normal_vector([1.0, 0.0], [1.0, 0.0])
        assert n.q_value == 1.0
        assert time_reverse(n).q_value == -1.0

    @settings(max_examples=40, deadline=None)
    @given(vec2, vec2)
    def test_antisymmetry_random(self, z, w):
        n = normal_vector(z, w)
        assert abs(time_reverse(n).q_value + n.q_value) <= 1e-15 * max(1.0, abs(n.q_value))

    def test_zero_fixed(self):
        n = normal_vector([1.0, 0.0], [0.0, 1.0])
        assert n.q_value == 0.0 and time_reverse(n).q_value == 0.0


class TestLyapunov:
    def test_free_flight_exponents_vanish(self):
        cyl = build_cylinder([[0, 0, 1]], [0, 0, 0], 0.3, 3)
        table = validate_table(build_table([cyl]))
        x = phase_point([0.3, 0.4, 0.7], [0.0, 0.0, 1.0])
        rep = lyapunov_spectrum(x, table, 1e4, seed=0)
        assert rep.n_events == 0
        assert max(abs(e) for e in rep.exponents) < 1e-3

    def test_dispersing_top_exponent_positive(self, sinai2):
        rep = lyapunov_spectrum(None, sinai2, 1500.0, seed=1)
        assert rep.top > 0.5
        assert rep.exponents == tuple(sorted(rep.exponents, reverse=True))

    def test_exponent_sum_vanishes(self, ortho3):
        rep = lyapunov_spectrum(None, ortho3, 400.0, seed=2)
        assert abs(rep.exponent_sum) < 1e-3 * 3

    @pytest.mark.parametrize("seed", [22, 35])
    def test_exponent_sum_vanishes_when_velocities_grow(self, sinai2, seed):
        # On these starts the frame's dv rows outgrow its dq rows between
        # renormalizations; the growth cap must watch both.
        rep = lyapunov_spectrum(None, sinai2, 300.0, seed=seed)
        assert abs(rep.exponent_sum) < 1e-4

    def test_deterministic_given_seed(self, sinai2):
        a = lyapunov_spectrum(None, sinai2, 200.0, seed=5)
        b = lyapunov_spectrum(None, sinai2, 200.0, seed=5)
        assert a.exponents == b.exponents

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
    def test_duration_not_positive_rejected(self, sinai2, duration):
        with pytest.raises(ValueError, match="duration"):
            lyapunov_spectrum(None, sinai2, duration, seed=0)

    @pytest.mark.parametrize("interval", [0, -3])
    def test_renorm_interval_below_one_rejected(self, sinai2, interval):
        with pytest.raises(ValueError, match="renorm_interval"):
            lyapunov_spectrum(None, sinai2, 50.0, renorm_interval=interval, seed=0)

    def test_singularity_aborts_with_partial_report(self, sinai2):
        x = phase_point([0.51, 0.33], [0.6, 0.8])
        with pytest.raises(SingularityEncountered) as err:
            lyapunov_spectrum(x, sinai2, 1e9, seed=0, max_events=50)
        assert err.value.partial_report is not None
        assert err.value.partial_report.n_events == 50


def tangential_dense3_start():
    """On dense3, nearly along the shared generator: the first collision
    grazes."""
    v = np.array([3e-11, 1e-11, 1.0])
    return PhasePoint(np.array([0.5, 0.05, 0.1]), v / np.linalg.norm(v))


class TestSingularOrbits:
    def test_lyapunov_stops_before_tangential_event(self, dense3):
        x = tangential_dense3_start()
        seg = evolve(x, dense3, 1e12)
        assert seg.singular_flag.kind == "tangential" and seg.n_events == 1
        with pytest.raises(SingularityEncountered) as err:
            lyapunov_spectrum(x, dense3, 1e12)
        rep = err.value.partial_report
        assert rep is not None
        assert rep.n_events == 0
        # The flight into the grazing event still counts.
        assert rep.duration == seg.duration == seg.events[0].time
        assert all(np.isfinite(rep.exponents))

    def test_normal_transport_rejects_grazing_event(self, dense3):
        seg = evolve(tangential_dense3_start(), dense3, 1e12)
        with pytest.raises(TangentialEvent):
            evolve_normal(normal_vector([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), seg, rescale=True)


# ---------------------------------------------------------------------------
# Stacked collision algebra against a per-event reference loop built from
# collision_operators, collision_derivative and free_flight_derivative.
# ---------------------------------------------------------------------------

def reference_tangent(tv, segment):
    for e in segment.events:
        tv = collision_derivative(free_flight_derivative(tv, e.flight), collision_operators(e))
    return free_flight_derivative(tv, segment.tail)


def reference_normal(n, segment, rescale):
    """(time, z, w) in the pattern start, [pre, post(, renorm)]*, end."""
    z, w = np.array(n.z, dtype=float), np.array(n.w, dtype=float)
    samples = [(0.0, z, w)]
    for e in segment.events:
        w = w - e.flight * z
        samples.append((e.time, z, w))
        ops = collision_operators(e)
        z, w = ops.R @ z - ops.gain @ w, ops.R @ w
        samples.append((e.time, z, w))
        if rescale:
            scale = np.sqrt(z @ z + w @ w)
            z, w = z / scale, w / scale
            samples.append((e.time, z, w))
    samples.append((segment.duration, z, w - segment.tail * z))
    return samples


def reference_lyapunov(x, table, duration, seed, renorm_interval=5, growth_cap=1e4):
    """Benettin's method vector by vector, with lyapunov_spectrum's frame."""
    seg = evolve(x, table, duration)
    d = table.dim
    basis = np.linalg.svd(x.v[None, :] / np.linalg.norm(x.v))[2][1:]
    zeros = np.zeros_like(basis)
    mix = np.linalg.qr(np.random.default_rng([seed, 1]).normal(size=(2 * d - 2, 2 * d - 2)))[0]
    frame = [TangentVector(dq, dv) for dq, dv in zip(mix @ np.vstack([basis, zeros]),
                                                      mix @ np.vstack([zeros, basis]))]
    logs = np.zeros(2 * d - 2)

    def renormalize(frame, v):
        mat = np.array([np.concatenate([t.dq - (t.dq @ v) * v, t.dv - (t.dv @ v) * v]) for t in frame]).T
        q_fac, r_fac = np.linalg.qr(mat)
        signs = np.where(np.diag(r_fac) < 0, -1.0, 1.0)
        return [TangentVector(col[:d], col[d:]) for col in (q_fac * signs).T], np.log(np.abs(np.diag(r_fac)))

    since, v = 0, x.v
    for e in seg.events:
        ops = collision_operators(e)
        frame = [collision_derivative(free_flight_derivative(t, e.flight), ops) for t in frame]
        since, v = since + 1, e.v_post
        if since >= renorm_interval or max(np.abs(np.concatenate([t.dq, t.dv])).max() for t in frame) > growth_cap:
            frame, gained = renormalize(frame, v)
            logs, since = logs + gained, 0
    frame = [free_flight_derivative(t, seg.tail) for t in frame]
    logs = logs + renormalize(frame, v)[1]
    return sorted((logs / seg.duration).tolist(), reverse=True)


# Lengths on both sides of the block edges.
BLOCK_LENGTHS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)


@pytest.fixture(scope="module", params=["sinai2", "skew3", "split4"])
def block_segments(request):
    table = request.getfixturevalue(request.param)
    rng = np.random.default_rng(41)
    return table, {n: segment_with_events(table, rng, n) for n in BLOCK_LENGTHS}


class TestStackedAlgebra:
    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_single_event_call_equals_stacked_row(self, block_segments, n):
        _, segs = block_segments
        seg = segs[n]
        stacked = segment_operators(seg)
        assert len(stacked) == n
        for e, row in zip(seg.events, stacked):
            one = collision_operators(e)
            assert one.cos_phi == row.cos_phi == e.cos_phi
            for field in ("R", "V", "K", "gain"):
                assert np.array_equal(getattr(one, field), getattr(row, field))

    # Unrescaled normal vectors overflow after about 110 collisions on
    # sinai2, so they run only up to the first block edge.
    @pytest.mark.parametrize("n, rescale", [(n, True) for n in BLOCK_LENGTHS]
                             + [(n, False) for n in BLOCK_LENGTHS if n <= BLOCK + 1])
    def test_normal_samples_match_reference(self, block_segments, n, rescale):
        table, segs = block_segments
        seg = segs[n]
        rng = np.random.default_rng(n)
        n0 = normal_vector(rng.normal(size=table.dim), rng.normal(size=table.dim))
        samples = evolve_normal(n0, seg, rescale=rescale)
        reference = reference_normal(n0, seg, rescale)
        assert len(samples) == len(reference) == (3 if rescale else 2) * n + 2
        for (t, nv, q), (t_ref, z, w) in zip(samples, reference):
            q_ref = float(z @ w)
            assert t == t_ref
            assert q == nv.q_value
            assert abs(q - q_ref) <= 1e-11 * max(1.0, abs(q_ref))
            scale = max(1.0, float(np.abs(np.concatenate([z, w])).max()))
            assert np.abs(nv.z - z).max() <= 1e-11 * scale
            assert np.abs(nv.w - w).max() <= 1e-11 * scale

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_tangent_matches_reference(self, block_segments, n):
        table, segs = block_segments
        seg = segs[n]
        rng = np.random.default_rng(n + 1)
        tv = TangentVector(rng.normal(size=table.dim), rng.normal(size=table.dim))
        out, ref = evolve_tangent(tv, seg), reference_tangent(tv, seg)
        got, want = np.concatenate([out.dq, out.dv]), np.concatenate([ref.dq, ref.dv])
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_frame_from_given_operators_is_identical(self, block_segments, n):
        table, segs = block_segments
        seg = segs[n]
        frame = np.random.default_rng(n + 2).normal(size=(3, 2 * table.dim))
        dqs, dvs = frame[:, :table.dim], frame[:, table.dim:]
        given = evolve_frame(dqs, dvs, seg, segment_operators(seg))
        built = evolve_frame(dqs, dvs, seg)
        assert all(np.array_equal(a, b) for a, b in zip(given, built))
        # The caller's frame is left as it was.
        assert np.array_equal(np.hstack([dqs, dvs]), frame)

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_lyapunov_matches_reference(self, block_segments, n):
        table, segs = block_segments
        seg = segs[n]
        rep = lyapunov_spectrum(seg.start, table, seg.duration, seed=n)
        assert rep.n_events == n
        diff = np.abs(np.array(rep.exponents) - reference_lyapunov(seg.start, table, seg.duration, seed=n))
        # The expanding half is rounding-stable; the contracting directions
        # sit in rounding noise that any change of operation order moves.
        assert diff[:table.dim - 1].max() <= 1e-9
        assert diff.max() <= 1e-5


# ---------------------------------------------------------------------------
# Normal-vector samples as columns against the per-sample list that
# evolve_normal built before it returned columns.
# ---------------------------------------------------------------------------

def reference_samples(n, segment, rescale):
    """(time, NormalVector, q_value) per sample, one tuple per row of the
    transported rows [w | -z], as the per-sample builder made them."""
    d = np.shape(n.z)[0]
    per = 3 if rescale else 2
    rows = np.empty((per * segment.n_events + 2, 2 * d))
    rows[0, :d], rows[0, d:] = n.w, -np.asarray(n.z)

    def record(k, pre, post, step):
        j = per * k + 1
        rows[j], rows[j + 1] = pre, post
        if rescale:
            scale = math.sqrt(post @ post)
            if scale > 0:
                post = post / scale
            rows[j + 2] = post
        return post

    rows[-1] = transport(rows[0], segment, visit=record)
    rows[:, d:] *= -1.0  # now [w | z]
    q_values = np.einsum("ij,ij->i", rows[:, d:], rows[:, :d]).tolist()
    times = np.concatenate([[0.0], np.repeat(segment.time, per), [segment.duration]]).tolist()
    return [(t, NormalVector(row[d:], row[:d], q), q) for t, row, q in zip(times, rows, q_values)]


def assert_same_samples(got, want):
    """Equal tuple by tuple and field by field, to the bit."""
    assert len(got) == len(want)
    for (t, nv, q), (t_ref, nv_ref, q_ref) in zip(got, want):
        assert type(t) is float and type(q) is float and isinstance(nv, NormalVector)
        assert same_bits(t, t_ref) and same_bits(q, q_ref) and same_bits(nv.q_value, q)
        assert same_bits(nv.z, nv_ref.z) and same_bits(nv.w, nv_ref.w)


# Event counts on both sides of a block edge, and a budget-truncated run.
SAMPLE_LENGTHS = (0, 1, BLOCK - 1, BLOCK + 1, 300, "budget")


@pytest.fixture(scope="module", params=["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2",
                                        "wide5"])
def sample_segments(request):
    table = request.getfixturevalue(request.param)
    rng = np.random.default_rng(43)
    segs = {n: segment_with_events(table, rng, n) for n in SAMPLE_LENGTHS if n not in (0, "budget")}
    segs[0] = evolve(segs[1].start, table, 0.5 * segs[1].time[0])
    assert segs[0].n_events == 0
    segs["budget"] = None
    while segs["budget"] is None or segs["budget"].singular_flag.kind != "budget_exceeded":
        segs["budget"] = evolve(random_phase_point(table, rng), table, 1e9, max_events=40)
    return table, segs


class TestNormalSamples:
    # Unrescaled vectors overflow within 300 collisions; the overflowed
    # samples must still match to the bit.
    @pytest.mark.parametrize("rescale", [False, True])
    @pytest.mark.parametrize("n", SAMPLE_LENGTHS)
    def test_columns_and_samples_are_the_reference(self, sample_segments, n, rescale):
        table, segs = sample_segments
        seg = segs[n]
        rng = np.random.default_rng(seg.n_events)
        n0 = normal_vector(rng.normal(size=table.dim), rng.normal(size=table.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            got = evolve_normal(n0, seg, rescale=rescale)
            ref = reference_samples(n0, seg, rescale)
        count = (3 if rescale else 2) * seg.n_events + 2
        assert isinstance(got, NormalSamples)
        assert len(got) == len(ref) == count
        times, vectors, q_values = zip(*ref)
        assert same_bits(got.time, np.array(times)) and same_bits(got.q_value, np.array(q_values))
        assert same_bits(got.z, np.array([nv.z for nv in vectors]))
        assert same_bits(got.w, np.array([nv.w for nv in vectors]))
        for column in (got.time, got.z, got.w, got.q_value):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        # Every sample by index from either end, by slice and by iteration;
        # the vectors are row views of the columns.
        assert_same_samples([got[k] for k in range(count)], ref)
        assert_same_samples([got[k] for k in range(-count, 0)], ref)
        for part in (slice(1, 4), slice(None, None, -3), slice(-3, None), slice(count, None)):
            assert_same_samples(got[part], ref[part])
        assert_same_samples(list(got), ref)
        assert np.shares_memory(got[-1][1].z, got.z) and np.shares_memory(got[-1][1].w, got.w)

    def test_grazing_segment_raises(self, dense3):
        # The rescaled run is TestSingularOrbits' case.
        seg = evolve(tangential_dense3_start(), dense3, 1e12)
        with pytest.raises(TangentialEvent):
            evolve_normal(normal_vector([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), seg)


class TestVectorDimension:
    def test_vectors_of_another_dimension_rejected(self, ortho3):
        seg = segment_with_events(ortho3, np.random.default_rng(5), 3)
        two = r" has shape \(2,\), the segment's table has dimension 3"
        with pytest.raises(DimensionMismatch, match="z" + two):
            evolve_normal(normal_vector([1.0, 0.0], [0.0, 1.0]), seg)
        with pytest.raises(DimensionMismatch, match="w" + two):
            evolve_normal(NormalVector(np.ones(3), np.ones(2), 0.0), seg, rescale=True)
        with pytest.raises(DimensionMismatch, match="dq" + two):
            evolve_tangent(TangentVector(np.ones(2), np.ones(2)), seg)
        with pytest.raises(DimensionMismatch, match="dv" + two):
            evolve_tangent(TangentVector(np.ones(3), np.ones(2)), seg)
        with pytest.raises(DimensionMismatch, match=r"dq has shape \(4, 2\)"):
            evolve_frame(np.ones((4, 2)), np.ones((4, 2)), seg)
        with pytest.raises(DimensionMismatch, match=r"dv has shape \(4, 4\)"):
            evolve_frame(np.ones((4, 3)), np.ones((4, 4)), seg)
