"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and summary values.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from cylbilliards import (
    LatticeSubspace,
    PhasePoint,
    build_cylinder,
    build_table,
    evolve,
    evolve_normal,
    evolve_tangent,
    hard_sphere_subspaces,
    lyapunov_spectrum,
    neutral_space_advance,
    neutral_space_numeric,
    normal_vector,
    random_phase_point,
    span_decomposition,
    survey_sufficiency,
    time_reverse,
    transitivity_report,
    validate_table,
    TangentVector,
)
from conftest import (
    clean,
    exhaustive_splitting_oracle,
    flow_map,
    segment_with_events,
    subspace_angle,
    tori_distance,
)


def _random_subspace_system(rng):
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, 5))
    subs = []
    for _ in range(k):
        target = int(rng.integers(1, d + 1))
        rows = []
        for _ in range(3 * d):
            cand = rng.integers(-2, 3, size=d)
            trial = rows + [cand]
            if np.linalg.matrix_rank(np.array(trial), tol=1e-10) == len(trial):
                rows.append(cand)
            if len(rows) == target:
                break
        if not rows:
            rows = [np.eye(d, dtype=int)[0]]
        subs.append(LatticeSubspace.from_integer_basis(np.array(rows), d))
    return d, subs


def test_criterion_1_transitivity_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    t0 = time.monotonic()
    agree = 0
    for _ in range(200):
        d, subs = _random_subspace_system(rng)
        report = transitivity_report(subs)
        oracle = exhaustive_splitting_oracle([s.ortho_basis for s in subs], d)
        assert report.transitive == oracle
        agree += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: ONSP decision matched exhaustive splitting "
          f"search on {agree}/200 systems in {elapsed:.1f}s")


def _random_tables(rng, count):
    tables = []
    while len(tables) < count:
        d = int(rng.integers(3, 6))
        k = int(rng.integers(1, 4))
        cyls = []
        try:
            for _ in range(k):
                gen_dim = int(rng.integers(0, d - 1))
                rows = []
                for _ in range(4 * d):
                    cand = rng.integers(-2, 3, size=d)
                    trial = rows + [cand]
                    if np.linalg.matrix_rank(np.array(trial), tol=1e-10) == len(trial):
                        rows.append(cand)
                    if len(rows) == gen_dim:
                        break
                cyls.append(build_cylinder(np.array(rows, dtype=int).reshape(len(rows), d),
                                           rng.random(d), 0.05, d))
            tables.append(validate_table(build_table(cyls)))
        except Exception:
            continue
    return tables


def test_criterion_2_prop_1_5_consistency(sinai2, ortho3, skew3, parallel3, dense3):
    rng = np.random.default_rng(7)
    tables = [sinai2, ortho3, skew3, parallel3, dense3] + _random_tables(rng, 40)
    checked = 0
    for table in tables:
        if not table.condition_1_4_pairwise_base_intersection:
            continue
        report = transitivity_report([c.base for c in table.cylinders])
        span_full = report.span_dim == table.dim
        gen_trivial = report.generator_intersection_dim == 0
        assert report.transitive == span_full == gen_trivial
        assert table.transitive == report.transitive
        checked += 1
    assert checked >= 30
    print(f"\nACCEPTANCE 2 PASS: transitive <=> full span <=> trivial generator "
          f"intersection on {checked} tables satisfying the pair condition")


def test_criterion_3_conservation_and_reversibility(dense3):
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    # 1e5 collisions in chunks; the endpoint of each chunk seeds the next.
    current = random_phase_point(dense3, rng)
    total = 0
    while total < 100_000:
        seg = evolve(current, dense3, 1e9, max_events=10_000)
        total += seg.n_events
        current = seg.end
    drift = abs(float(np.linalg.norm(current.v)) - 1.0)
    assert drift < 1e-9

    checked = 0
    worst = 0.0
    while checked < 50:
        start = random_phase_point(dense3, rng)
        seg = evolve(start, dense3, 3.3, max_events=20)
        if not clean(seg):
            continue
        back = evolve(PhasePoint(seg.end.q, -seg.end.v), dense3, seg.duration)
        if not clean(back):
            continue
        err = max(tori_distance(back.end.q, start.q),
                  float(np.max(np.abs(-back.end.v - start.v))))
        assert err < 1e-5
        worst = max(worst, err)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: |v| drift {drift:.2e} over {total} collisions; "
          f"worst 20-collision retrace {worst:.2e} over 50 starts in {elapsed:.0f}s")


def test_criterion_4_tangent_map_oracle(ortho3):
    rng = np.random.default_rng(40)
    h = 1e-6
    worst = 0.0
    done = 0
    while done < 50:
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
        fd = np.concatenate([qp - qm, vp - vm]) / (2 * h)
        out = evolve_tangent(TangentVector(dq0, dv0), seg)
        analytic = np.concatenate([out.dq, out.dv])
        rel = float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
        assert rel < 1e-5
        worst = max(worst, rel)
        done += 1
    print(f"\nACCEPTANCE 4 PASS: tangent map matched central differences on "
          f"50 three-collision segments, worst relative error {worst:.2e}")


def test_criterion_5_q_form_laws(sinai2):
    rng = np.random.default_rng(50)

    # Free-flight identity, exact arithmetic check on random data.
    worst_flight = 0.0
    for _ in range(500):
        z, w = rng.normal(size=2), rng.normal(size=2)
        t = float(rng.random() * 20)
        n0 = normal_vector(z, w)
        nt = normal_vector(z, w - t * z)
        err = abs(nt.q_value - (n0.q_value - t * float(z @ z)))
        assert err < 1e-12 * (1 + t)
        worst_flight = max(worst_flight, err)

    # Per-collision monotonicity over 1e4 collisions, renormalized per step.
    collisions = 0
    worst_slack = -np.inf
    while collisions < 10_000:
        x = random_phase_point(sinai2, rng)
        seg = evolve(x, sinai2, 1e6, max_events=20)
        if not clean(seg) or seg.n_events == 0:
            continue
        n0 = normal_vector(rng.normal(size=2), rng.normal(size=2))
        scale = np.sqrt(n0.z @ n0.z + n0.w @ n0.w)
        n0 = normal_vector(n0.z / scale, n0.w / scale)
        samples = evolve_normal(n0, seg, rescale=True)
        for k in range(seg.n_events):
            t_prev, nv_prev, q_prev = samples[max(0, 3 * k)]
            t_pre, _, q_pre = samples[1 + 3 * k]
            t_post, _, q_post = samples[2 + 3 * k]
            dt = t_pre - t_prev
            drop = q_prev - dt * float(nv_prev.z @ nv_prev.z)
            assert abs(q_pre - drop) < 1e-12 * (1 + dt)
            assert q_post <= q_pre + 1e-12
            worst_slack = max(worst_slack, q_post - q_pre)
        collisions += seg.n_events

    # Time-reversal antisymmetry.
    for _ in range(500):
        n = normal_vector(rng.normal(size=2), rng.normal(size=2))
        assert abs(time_reverse(n).q_value + n.q_value) <= 1e-15 * max(1.0, abs(n.q_value))

    print(f"\nACCEPTANCE 5 PASS: flight identity (worst {worst_flight:.1e}), "
          f"{collisions} collision drops (worst slack {worst_slack:.1e}), "
          f"reversal antisymmetry exact")


def test_criterion_6_neutral_space_cross_method(sinai2, ortho3, skew3):
    rng = np.random.default_rng(60)
    worst = 0.0
    per_table = (34, 33, 33)
    for table, quota in zip((sinai2, ortho3, skew3), per_table):
        for _ in range(quota):
            n = int(rng.integers(1, 7))
            seg = segment_with_events(table, rng, n)
            a = neutral_space_advance(seg)
            b = neutral_space_numeric(seg)
            assert a.dim == b.dim
            angle = subspace_angle(a.basis, b.basis)
            assert angle < 1e-8
            worst = max(worst, angle)
    print(f"\nACCEPTANCE 6 PASS: advance-system and derivative-kernel methods "
          f"agreed on 100 segments, worst principal angle {worst:.2e}")


def test_criterion_7_single_collision_dimension_law(sinai2, ortho3, skew3, split4):
    rng = np.random.default_rng(70)
    tables = (sinai2, ortho3, skew3, split4)
    checked = 0
    seen_dims = set()
    while checked < 50:
        table = tables[checked % len(tables)]
        seg = segment_with_events(table, rng, 1)
        res = neutral_space_advance(seg)
        gen_dim = seg.events[0].cylinder.generator.dim
        assert res.dim == gen_dim + 1
        seen_dims.add(res.dim)
        checked += 1
    assert {1, 2, 3} <= seen_dims  # generator dims 0, 1, 2 all exercised
    print(f"\nACCEPTANCE 7 PASS: dim N = dim A + 1 on 50 single-collision "
          f"segments (neutral dims seen: {sorted(seen_dims)})")


def test_criterion_8_prop_3_1_statistics(ortho3, sinai2):
    t0 = time.monotonic()
    lines = []
    for name, table in (("two-cylinder d=3", ortho3), ("Sinai d=2", sinai2)):
        result = survey_sufficiency(table, 540, 25.0, seed=31)
        qualifying = [r for r in result.rows
                      if r.singular_flag == "none" and r.full_span]
        assert len(qualifying) >= 500
        sample = qualifying[:500]
        sufficient = [r for r in sample if r.sufficient]
        fraction = len(sufficient) / len(sample)
        rejected = [r.sample_id for r in sample if not r.sufficient]
        assert fraction >= 0.99
        lines.append(f"{name}: {fraction:.3f} sufficient, "
                     f"non-sufficient ids {rejected if rejected else 'none'}")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 8 PASS: {'; '.join(lines)} ({elapsed:.0f}s)")


def test_criterion_9_case_one_conservation(parallel3, split4):
    rng = np.random.default_rng(90)
    worst = 0.0
    checked = 0
    for table in (parallel3, split4):
        for _ in range(20):
            x = random_phase_point(table, rng)
            seg = evolve(x, table, 20.0, max_events=200)
            if not clean(seg) or seg.n_events == 0:
                continue
            dec = span_decomposition(seg.symbolic, table)
            if dec.a_star.shape[0] == 0:
                continue
            ref = dec.a_star @ seg.start.v
            drifts = [np.max(np.abs(dec.a_star @ e.v_pre - ref)) for e in seg.events]
            drifts += [np.max(np.abs(dec.a_star @ e.v_post - ref)) for e in seg.events]
            drifts.append(np.max(np.abs(dec.a_star @ seg.end.v - ref)))
            err = float(max(drifts))
            assert err < 1e-10
            worst = max(worst, err)
            checked += 1
    assert checked >= 20
    print(f"\nACCEPTANCE 9 PASS: transversal velocity component conserved on "
          f"{checked} segments of non-transitive tables, worst drift {worst:.1e}")


def test_criterion_10_hard_sphere_remark():
    import itertools

    pairs_checked = 0
    for n_particles in (2, 3, 4):
        subs = hard_sphere_subspaces(n_particles, 2, reduced=True)
        for a, b in itertools.combinations(subs, 2):
            stacked = np.array([*a.integer_basis, *b.integer_basis], dtype=float)
            rank = np.linalg.matrix_rank(stacked, tol=1e-10)
            assert a.dim + b.dim - rank == 0
            pairs_checked += 1
    assert pairs_checked == 3 + 15
    print(f"\nACCEPTANCE 10 PASS: all {pairs_checked} reduced base-space pairs "
          f"(N <= 4, nu = 2) intersect trivially")


def test_criterion_11_hyperbolicity_witness(sinai2):
    tops = []
    for seed in range(5):
        report = lyapunov_spectrum(None, sinai2, 1e4, renorm_interval=5, seed=seed)
        assert report.top > 0
        tops.append(report.top)
    tops = np.array(tops)
    spread = float((tops.max() - tops.min()) / tops.mean())
    assert spread < 0.05
    print(f"\nACCEPTANCE 11 PASS: top exponent {tops.mean():.3f} +- "
          f"{tops.std():.3f} (spread {spread:.1%}) across 5 seeds at T=1e4")
