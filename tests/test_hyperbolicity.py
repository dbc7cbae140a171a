"""Neutral spaces, advances, sufficiency, richness, spans, surveys."""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import partial

import numpy as np
import pytest

from cylbilliards import (
    DimensionMismatch,
    EmptySequence,
    NotNeutralError,
    PhasePoint,
    SingularSegment,
    UnknownCylinderIndex,
    advance_functionals,
    evolve,
    neutral_space_advance,
    neutral_space_numeric,
    phase_point,
    random_phase_point,
    richness_report,
    span_decomposition,
    sufficiency,
    survey_sufficiency,
)
from cylbilliards import StartsInsideScatterer, build_cylinder, build_table, hyperbolicity, validate_table
from cylbilliards.hyperbolicity import ADVANCE_ATOL, ADVANCE_SYSTEM, NeutralSpaceResult, _rank
from cylbilliards.linalg import rational_rank

from conftest import clean, segment_with_events, subspace_angle


class TestNeutralSpaceAdvance:
    def test_velocity_always_neutral_with_unit_advances(self, ortho3):
        rng = np.random.default_rng(0)
        seg = segment_with_events(ortho3, rng, 5)
        res = neutral_space_advance(seg)
        assert res.dim >= 1
        v = seg.start.v
        assert np.linalg.norm(res.basis.T @ (res.basis @ v) - v) < 1e-10
        alphas = advance_functionals(seg, v)
        assert np.allclose(alphas, 1.0, atol=1e-10)

    def test_single_collision_dimension_law(self, ortho3, sinai2, skew3):
        rng = np.random.default_rng(1)
        for table in (sinai2, ortho3, skew3):
            for _ in range(5):
                seg = segment_with_events(table, rng, 1)
                res = neutral_space_advance(seg)
                gen_dim = seg.events[0].cylinder.generator.dim
                assert res.dim == gen_dim + 1

    def test_disk_segment_sufficient(self, sinai2):
        seg = evolve(phase_point([0.5, 0.03], [-1.0, 0.0]), sinai2, 0.6)
        assert seg.n_events == 1
        res = neutral_space_advance(seg)
        assert res.dim == 1
        verdict = sufficiency(seg)
        assert verdict.sufficient

    def test_empty_sequence_rejected(self, sinai2):
        seg = evolve(phase_point([0.4, 0.4], [0.0, 1.0]), sinai2, 0.05)
        with pytest.raises(EmptySequence):
            neutral_space_advance(seg)

    def test_singular_segment_rejected(self):
        from cylbilliards import build_cylinder, build_table, validate_table

        c1 = build_cylinder([], [0, 0], 0.3, 2)
        c2 = build_cylinder([], [0.5, 0.0], 0.3, 2)
        table = validate_table(build_table([c1, c2]))
        seg = evolve(phase_point([0.25, 0.5], [0.0, -1.0]), table, 2.0)
        assert seg.singular_flag is not None
        with pytest.raises(SingularSegment):
            neutral_space_advance(seg)

    def test_table_of_another_dimension_rejected(self, ortho3, split4):
        seg = segment_with_events(ortho3, np.random.default_rng(8), 4)
        calls = [neutral_space_advance, neutral_space_numeric, sufficiency,
                 partial(advance_functionals, translation=seg.start.v)]
        for call in calls:
            with pytest.raises(DimensionMismatch, match="table has dimension 4"):
                call(seg, table=split4)
        assert neutral_space_advance(seg, ortho3).dim == neutral_space_advance(seg).dim

    def test_table_of_other_cylinders_rejected(self, ortho3, skew3):
        # Every call walks the segment's own cylinders, so a table with
        # others would be ignored without the check.
        seg = segment_with_events(ortho3, np.random.default_rng(8), 4)
        calls = [neutral_space_advance, neutral_space_numeric, sufficiency,
                 partial(advance_functionals, translation=seg.start.v)]
        for call in calls:
            with pytest.raises(ValueError, match="table has other cylinders"):
                call(seg, table=skew3)
        again = validate_table(build_table(seg.table.cylinders))
        for call in calls:
            call(seg, table=again)

    def test_monotone_refinement(self, ortho3):
        # Appending collisions never increases the neutral dimension.
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = random_phase_point(ortho3, rng)
            probe = evolve(x, ortho3, 2e4, max_events=7)
            if not clean(probe) or probe.n_events < 7:
                continue
            dims = []
            for n in range(1, 7):
                t_mid = 0.5 * (probe.events[n - 1].time + probe.events[n].time)
                seg = evolve(x, ortho3, t_mid)
                if seg.n_events != n:
                    break
                dims.append(neutral_space_advance(seg).dim)
            assert all(b <= a for a, b in zip(dims, dims[1:]))


class TestAdvanceFunctionals:
    def test_zero_translation(self, ortho3):
        rng = np.random.default_rng(3)
        seg = segment_with_events(ortho3, rng, 4)
        assert advance_functionals(seg, np.zeros(3)) == tuple([0.0] * 4)

    def test_shared_generator_translation_has_zero_advances(self, parallel3):
        rng = np.random.default_rng(4)
        seg = segment_with_events(parallel3, rng, 5)
        alphas = advance_functionals(seg, [0.0, 0.0, 1.0])
        assert np.allclose(alphas, 0.0, atol=1e-12)

    def test_non_neutral_rejected(self, ortho3):
        rng = np.random.default_rng(5)
        seg = segment_with_events(ortho3, rng, 4)
        with pytest.raises(NotNeutralError):
            advance_functionals(seg, rng.normal(size=3) + 0.1)

    @pytest.mark.parametrize("translation", [[1.0, 0.0], [[1.0, 0.0, 0.0]], [np.nan, 0.0, 0.0],
                                             [0.0, np.inf, 0.0]], ids=["length", "2d", "nan", "inf"])
    def test_malformed_translation_rejected(self, ortho3, translation):
        seg = segment_with_events(ortho3, np.random.default_rng(3), 4)
        with pytest.raises(ValueError, match="translation"):
            advance_functionals(seg, translation)

    def test_finite_translation_realizes_advances(self, parallel3):
        # The defining property of the advance: translating the start by
        # eps * W moves collision k to happen eps * alpha_k earlier and leaves
        # every velocity unchanged. Checked with a finite translation along a
        # mixed neutral vector (time shift plus generator direction).
        rng = np.random.default_rng(6)
        seg = segment_with_events(parallel3, rng, 5)
        w = 0.7 * seg.start.v + 0.4 * np.array([0.0, 0.0, 1.0])
        alphas = advance_functionals(seg, w)
        assert np.allclose(alphas, 0.7, atol=1e-10)
        eps = 1e-4
        shifted = evolve(
            PhasePoint(np.mod(seg.start.q + eps * w, 1.0), seg.start.v),
            parallel3, seg.duration)
        assert shifted.symbolic == seg.symbolic
        # Root-finding noise is amplified by the in-plane expansion, so the
        # comparison resolves to ~1e-9 while the shift itself is 7e-5.
        for ev_orig, ev_shift, alpha in zip(seg.events, shifted.events, alphas):
            assert ev_shift.time == pytest.approx(ev_orig.time - eps * alpha, abs=1e-9)
            assert np.allclose(ev_shift.v_post, ev_orig.v_post, atol=1e-9)


def _long_segment(table, seed, n_events=300):
    """A clean segment of exactly n_events collisions from a fixed seed,
    ending at its last collision."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        seg = evolve(random_phase_point(table, rng), table, 1e6, max_events=n_events)
        if clean(seg) and seg.n_events == n_events:
            return seg
    raise RuntimeError(f"no clean {n_events}-collision segment")


# ---------------------------------------------------------------------------
# The forward walk against a reference loop that decides the rank of every
# collision on its own.
# ---------------------------------------------------------------------------

def reference_forward_walk(segment, rows):
    basis = images = rows
    advances = np.zeros((rows.shape[0], segment.n_events))
    kept, dropped = [], []
    bases = [c.base_basis for c in segment.table.cylinders]
    jumps = segment.v_post - segment.v_pre
    for k, (cid, v_pre) in enumerate(zip(segment.cylinder_id.tolist(), segment.v_pre)):
        base_rows = bases[cid]
        w_b = images @ base_rows.T
        v_b = base_rows @ v_pre
        alpha = w_b @ v_b / float(v_b @ v_b)
        u, s, _ = np.linalg.svd(w_b - np.outer(alpha, v_b))
        threshold = ADVANCE_ATOL * math.sqrt(max(1.0, float(np.linalg.eigvalsh(images @ images.T)[-1])))
        rank = _rank(s, threshold, kept, dropped)
        if rank:
            if rank == basis.shape[0]:
                raise NotNeutralError(k, float(s[-1]))
            keep = u[:, rank:].T
            basis, images, advances, alpha = keep @ basis, keep @ images, keep @ advances, keep @ alpha
        advances[:, k] = alpha
        images = images + np.outer(alpha, jumps[k])
    return NeutralSpaceResult(basis=basis, dim=basis.shape[0], advances=tuple(map(tuple, advances.tolist())),
                              method=ADVANCE_SYSTEM, largest_kept_sv=max(kept, default=0.0),
                              smallest_dropped_sv=min(dropped, default=None))


def assert_walk_is_reference(segment, rows):
    """``_forward_walk`` is bitwise the reference walk, NotNeutralError
    included."""
    try:
        want = reference_forward_walk(segment, rows)
    except NotNeutralError as exc:
        with pytest.raises(NotNeutralError) as got:
            hyperbolicity._forward_walk(segment, rows)
        assert (got.value.event_index, got.value.residual) == (exc.event_index, exc.residual)
        return
    got = hyperbolicity._forward_walk(segment, rows)
    assert got.basis.tobytes() == want.basis.tobytes() and got.advances == want.advances
    assert (got.dim, got.largest_kept_sv, got.smallest_dropped_sv) == (want.dim, want.largest_kept_sv,
                                                                       want.smallest_dropped_sv)


class TestForwardWalk:
    """The forward elimination on long segments, checked against the
    per-collision constraints themselves and the per-collision reference."""

    @pytest.mark.parametrize("name, seed", [("ortho3", 31), ("dense3", 32), ("split4", 33)])
    def test_long_segment_constraints_and_margins(self, request, name, seed):
        table = request.getfixturevalue(name)
        seg = _long_segment(table, seed)
        res = neutral_space_advance(seg)
        assert np.allclose(res.basis @ res.basis.T, np.eye(res.dim), atol=1e-12)
        assert len(res.advances) == res.dim
        for row, alphas in zip(res.basis, res.advances):
            assert len(alphas) == seg.n_events
            w = row.copy()
            for event, alpha in zip(seg.events, alphas):
                base_rows = event.cylinder.base_basis
                assert np.linalg.norm(base_rows @ (w - alpha * event.v_pre)) < 1e-8
                w = w + alpha * (event.v_post - event.v_pre)
            assert np.allclose(advance_functionals(seg, row), alphas, rtol=0, atol=1e-8)
        assert res.largest_kept_sv < 1e-3
        assert res.smallest_dropped_sv > 1e3

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2"])
    def test_grouped_walk_equals_lone_walk(self, request, monkeypatch, name):
        table = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        segments = [evolve(random_phase_point(table, rng), table, 1e6, max_events=int(n))
                    for n in rng.integers(1, 40, size=12)]
        segments = [seg for seg in segments if clean(seg)]
        segments.append(evolve(phase_point(segments[0].start.q, segments[0].start.v), table, 1e-9))
        segments += [_long_segment(table, 18), _long_segment(table, 19, 20)]

        def failures():
            """Segments whose walks raise; every other dimension must be
            the lone walk's from I_d, and every error its error."""
            failed = 0
            for seg, got in zip(segments, hyperbolicity._neutral_dims(segments, table.dim)):
                try:
                    want = hyperbolicity._forward_walk(seg, np.eye(table.dim)).dim
                except NotNeutralError as exc:
                    assert (type(got), got.event_index, got.residual) == (NotNeutralError, exc.event_index,
                                                                          exc.residual)
                    failed += 1
                    continue
                assert type(got) is int and got == want
            return failed

        assert failures() == 0
        # Below zero every singular value counts, so each collision cuts as
        # many rows as its base has dimensions and the walks fail once too
        # few rows are left.
        monkeypatch.setattr(hyperbolicity, "ADVANCE_ATOL", -1.0)
        assert failures() > 0

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2"])
    def test_walk_equals_reference(self, request, name):
        table = request.getfixturevalue(name)
        rng = np.random.default_rng(23)
        two = np.linalg.qr(rng.normal(size=(table.dim, 2)))[0].T
        for n in (1, 5, 17, 40, 300):
            seg = _long_segment(table, 23 + n, n)
            for rows in (np.eye(table.dim), rng.normal(size=(1, table.dim)), seg.start.v[None], two):
                assert_walk_is_reference(seg, rows)

    @pytest.mark.parametrize("seed, n, late", [(290, 60, 20), (137, 300, 49)])
    def test_walk_equals_reference_past_a_late_cut(self, ortho3, seed, n, late):
        # Each start meets only one cylinder before collision ``late``. From
        # I_3 the walk cuts at collision 0, keeps every row up to ``late``
        # and cuts there, inside a block whose ranks were deferred; from the
        # velocity and that cylinder's generator the first cut is ``late``.
        x = random_phase_point(ortho3, np.random.default_rng(seed))
        seg = evolve(x, ortho3, 1e6, max_events=n)
        assert clean(seg) and seg.n_events == n and n - late >= 16
        generator = np.array(seg.events[0].cylinder.generator.integer_basis[0], dtype=float)
        span = np.linalg.qr(np.array([seg.start.v, generator]).T)[0].T
        for rows in (np.eye(3), span):
            assert [reference_forward_walk(evolve(x, ortho3, 1e6, max_events=m), rows).dim
                    for m in (1, late, late + 1)] == [2, 2, 1]
            assert_walk_is_reference(seg, rows)

    def test_dense3_shared_axis_is_neutral(self, dense3):
        seg = _long_segment(dense3, 32)
        res = neutral_space_advance(seg)
        assert res.dim == 2
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(res.basis.T @ (res.basis @ e3) - e3) < 1e-10


class TestNeutralSpaceNumeric:
    def test_zero_collision_full_space(self, sinai2):
        seg = evolve(phase_point([0.4, 0.4], [0.0, 1.0]), sinai2, 0.05)
        res = neutral_space_numeric(seg)
        assert res.dim == 2
        assert np.allclose(res.basis @ res.basis.T, np.eye(2), atol=1e-12)

    def test_flow_direction_always_contained(self, skew3):
        rng = np.random.default_rng(6)
        seg = segment_with_events(skew3, rng, 3)
        res = neutral_space_numeric(seg)
        v = seg.start.v
        assert np.linalg.norm(res.basis.T @ (res.basis @ v) - v) < 1e-8

    def test_agreement_with_advance_method(self, sinai2, ortho3, skew3):
        rng = np.random.default_rng(7)
        checked = 0
        for table in (sinai2, ortho3, skew3):
            for _ in range(12):
                n = int(rng.integers(1, 7))
                seg = segment_with_events(table, rng, n)
                a = neutral_space_advance(seg)
                b = neutral_space_numeric(seg)
                assert a.dim == b.dim
                assert subspace_angle(a.basis, b.basis) < 1e-8
                checked += 1
        assert checked == 36

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4"])
    def test_long_segments_agree_with_advance_method(self, request, name):
        # The forward sweep keeps its images orthonormal, so it stays exact
        # where transports that grow with the dynamics lose the kernel.
        table = request.getfixturevalue(name)
        seg = segment_with_events(table, np.random.default_rng(300), 300)
        a = neutral_space_advance(seg)
        b = neutral_space_numeric(seg)
        assert a.dim == b.dim
        assert subspace_angle(a.basis, b.basis) <= 1e-6
        assert b.largest_kept_sv < 1e-3
        assert b.smallest_dropped_sv > 1e3

    def test_absolute_times_are_not_used(self, skew3):
        # Deep in a long orbit event times are large and their differences
        # lose precision; the kernel method reads only per-flight durations,
        # so shifting every absolute time changes nothing.
        seg = segment_with_events(skew3, np.random.default_rng(31), 6)
        shift = 1e7
        deep = dataclasses.replace(seg, duration=seg.duration + shift, time=seg.time + shift)
        a, b = neutral_space_numeric(seg), neutral_space_numeric(deep)
        assert np.array_equal(a.basis, b.basis)
        assert a.advances == b.advances
        assert subspace_angle(a.basis, neutral_space_advance(seg).basis) < 1e-8

    def test_advance_tuples_agree_between_methods(self, ortho3):
        rng = np.random.default_rng(8)
        seg = segment_with_events(ortho3, rng, 4)
        a = neutral_space_advance(seg)
        b = neutral_space_numeric(seg)
        if a.dim == 1:
            # bases may differ by sign; compare advance of the common vector
            sign = np.sign(a.basis[0] @ b.basis[0])
            assert np.allclose(a.advances[0], sign * np.array(b.advances[0]), atol=1e-8)


class TestSufficiency:
    def test_zero_collisions_not_sufficient(self, sinai2):
        seg = evolve(phase_point([0.4, 0.4], [0.0, 1.0]), sinai2, 0.05)
        verdict = sufficiency(seg)
        assert not verdict.sufficient
        assert verdict.neutral_dim == 2

    def test_single_cylinder_repeats_not_sufficient(self, parallel3):
        rng = np.random.default_rng(9)
        seg = segment_with_events(parallel3, rng, 6)
        verdict = sufficiency(seg)
        assert not verdict.sufficient
        assert verdict.neutral_dim >= 2

    def test_cross_checked_verdict(self, ortho3):
        rng = np.random.default_rng(10)
        seg = segment_with_events(ortho3, rng, 5)
        verdict = sufficiency(seg)
        assert neutral_space_numeric(seg).dim == verdict.neutral_dim == verdict.witness.dim


class TestRichness:
    def test_full_base_single_cylinder(self, sinai2):
        rep = richness_report((1, 1, 1), sinai2)
        assert rep.full_span and rep.span_dim == 2
        assert rep.codim2_ok and rep.relaxed_ok
        assert rep.min_pair_intersection_dim is None

    def test_two_cylinder_relaxed_only(self, ortho3):
        rep = richness_report((1, 2, 1), ortho3)
        assert rep.span_dim == 3 and rep.full_span
        assert rep.relaxed_ok and not rep.codim2_ok
        assert rep.min_pair_intersection_dim == 1

    def test_repeated_narrow_cylinder_not_full(self, parallel3):
        rep = richness_report((1, 1, 1, 1), parallel3)
        assert not rep.full_span
        assert rep.span_dim == 2

    def test_unknown_index(self, sinai2):
        with pytest.raises(UnknownCylinderIndex):
            richness_report((1, 2), sinai2)

    def test_empty_sequence(self, sinai2):
        with pytest.raises(EmptySequence):
            richness_report((), sinai2)

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "wide5"])
    def test_cached_reports_match_uncached(self, name, request):
        if name == "wide5":
            table = validate_table(build_table([
                build_cylinder([], [0.5] * 5, 0.1, 5),
                build_cylinder([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], [0] * 5, 0.2, 5),
                build_cylinder([[0, 0, 1, 0, 0]], [0, 0, 0, 0.5, 0], 0.15, 5),
                build_cylinder([[0, 0, 0, 1, 1]], [0, 0, 0.5, 0, 0], 0.15, 5)]))
        else:
            table = request.getfixturevalue(name)
        bases = {i: [list(r) for r in c.base.integer_basis] for i, c in enumerate(table.cylinders, start=1)}
        fresh = build_table(table.cylinders)  # not validated: ranks computed on first use
        for size in range(1, len(bases) + 1):
            for subset in itertools.combinations(bases, size):
                pairs = [rational_rank(bases[a]) + rational_rank(bases[b]) - rational_rank(bases[a] + bases[b])
                         for a, b in itertools.combinations(subset, 2)]
                span = rational_rank([row for i in subset for row in bases[i]])
                for t in (table, fresh, table):
                    rep = richness_report(subset[::-1] + subset, t)
                    assert rep.collided == subset
                    assert rep.span_dim == span
                    assert rep.full_span == (span == table.dim)
                    assert rep.min_pair_intersection_dim == min(pairs, default=None)
                    assert rep.codim2_ok == all(p >= 2 for p in pairs)
                    assert rep.relaxed_ok == all(p >= 1 for p in pairs)

    def test_codim2_implies_relaxed(self, parallel3, ortho3, sinai2, skew3):
        for table, symbolic in [(parallel3, (1, 2)), (ortho3, (1, 2)),
                                (sinai2, (1,)), (skew3, (1, 2))]:
            rep = richness_report(symbolic, table)
            if rep.codim2_ok:
                assert rep.relaxed_ok


class TestSpanDecomposition:
    def test_full_span_when_all_collided(self, ortho3):
        dec = span_decomposition((1, 2), ortho3)
        assert dec.is_full
        assert dec.a_star.shape[0] == 0
        assert dec.l_star.shape[0] == 3

    def test_single_cylinder_base(self, skew3):
        dec = span_decomposition((2, 2), skew3)
        assert not dec.is_full
        assert dec.l_star.shape[0] == 2
        assert np.max(np.abs(dec.l_star @ dec.a_star.T)) < 1e-12

    def test_conserved_velocity_component(self, parallel3):
        rng = np.random.default_rng(11)
        for _ in range(5):
            seg = segment_with_events(parallel3, rng, 6)
            dec = span_decomposition(seg.symbolic, parallel3)
            assert dec.a_star.shape[0] == 1
            ref = dec.a_star @ seg.start.v
            for e in seg.events:
                assert np.max(np.abs(dec.a_star @ e.v_pre - ref)) < 1e-10
                assert np.max(np.abs(dec.a_star @ e.v_post - ref)) < 1e-10
            assert np.max(np.abs(dec.a_star @ seg.end.v - ref)) < 1e-10


class TestSurvey:
    def test_generic_mode_high_sufficiency(self, ortho3):
        result = survey_sufficiency(ortho3, 120, 25.0, seed=7)
        s = result.summary
        assert s["n_samples"] == 120
        assert s["n_full_span"] >= 100
        assert s["fraction_sufficient_full_span"] >= 0.99

    def test_rows_match_summary(self, ortho3):
        result = survey_sufficiency(ortho3, 40, 20.0, seed=3)
        nonsingular = [r for r in result.rows if r.singular_flag == "none"]
        assert result.summary["n_nonsingular"] == len(nonsingular)
        suff = [r for r in nonsingular if r.sufficient]
        assert result.summary["n_sufficient"] == len(suff)

    def test_deterministic_given_seed(self, ortho3):
        a = survey_sufficiency(ortho3, 25, 15.0, seed=5)
        b = survey_sufficiency(ortho3, 25, 15.0, seed=5)
        assert [dataclasses.asdict(r) for r in a.rows] == [dataclasses.asdict(r) for r in b.rows]

    def test_threads_match_serial(self, ortho3):
        serial = survey_sufficiency(ortho3, 16, 12.0, seed=9)
        for threads in (2, 3):
            parallel = survey_sufficiency(ortho3, 16, 12.0, seed=9, threads=threads)
            assert [dataclasses.asdict(r) for r in serial.rows] == [dataclasses.asdict(r) for r in parallel.rows]

    def test_pool_starts_no_more_workers_than_batches(self, ortho3, monkeypatch):
        import concurrent.futures

        asked = []

        class SerialPool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        rows = survey_sufficiency(ortho3, 4, 10.0, seed=1, threads=64).rows
        assert asked == [4]
        serial = survey_sufficiency(ortho3, 4, 10.0, seed=1).rows
        assert [dataclasses.asdict(r) for r in rows] == [dataclasses.asdict(r) for r in serial]

    @pytest.mark.parametrize("mode", ["generic", "ansatz"])
    def test_rows_are_the_first_rows_of_a_larger_survey(self, skew3, mode):
        full = survey_sufficiency(skew3, 48, 15.0, seed=23, mode=mode).rows
        for n in (1, 2, 7, 30):
            assert [dataclasses.asdict(r) for r in survey_sufficiency(skew3, n, 15.0, seed=23, mode=mode).rows] == \
                [dataclasses.asdict(r) for r in full[:n]]

    @pytest.mark.parametrize("name, mode", [("ortho3", "generic"), ("skew3", "ansatz"), ("hs4x2", "generic")])
    def test_rows_do_not_depend_on_the_batch_cut(self, request, monkeypatch, name, mode):
        from cylbilliards import flow

        table = request.getfixturevalue(name)

        def rows():
            return [dataclasses.asdict(r) for r in survey_sufficiency(table, 12, 15.0, seed=31, mode=mode).rows]

        default = rows()
        entries = flow.flight_table(table).offsets.size
        # Lone trajectories, then batches of at most two and at most five.
        for cap in (1, 2 * entries, 5 * entries):
            monkeypatch.setattr(flow, "LOCKSTEP_ENTRIES", cap)
            assert rows() == default

    @pytest.mark.parametrize("mode", ["generic", "ansatz"])
    def test_rows_equal_per_sample_reference(self, ortho3, mode):
        rows = survey_sufficiency(ortho3, 24, 15.0, seed=29, mode=mode, max_events=12).rows
        for row in rows:
            rng = np.random.default_rng([29, row.sample_id])
            x = random_phase_point(ortho3, rng) if mode == "generic" else \
                hyperbolicity._tangency_starts(ortho3, [rng])[0]
            seg = evolve(x, ortho3, 15.0, max_events=12)
            assert row.n_collisions == seg.n_events
            assert row.singular_flag == (seg.singular_flag.kind if seg.singular_flag else "none")
            assert row.distinct_cylinders == len(set(seg.symbolic))
            if seg.n_events:
                assert row.span_dim == richness_report(seg.symbolic, ortho3).span_dim
            if clean(seg):
                verdict = sufficiency(seg)
                assert (row.neutral_dim, row.sufficient) == (verdict.neutral_dim, verdict.sufficient)

    @pytest.mark.parametrize("change", [dict(max_events=0), dict(sample_count=-1), dict(mode="bogus"),
                                        dict(duration=-5.0), dict(duration=float("nan"))])
    def test_bad_arguments_rejected(self, ortho3, change):
        args = dict(sample_count=4, duration=5.0, seed=1) | change
        with pytest.raises(ValueError):
            survey_sufficiency(ortho3, **args)

    def test_non_transitive_split_table(self, split4):
        # Base planes are orthogonal complements: two-cylinder orbits span
        # R^4 but fail every pair-intersection condition, and the product
        # structure keeps a two-dimensional neutral space, so nothing is
        # ever sufficient.
        from cylbilliards import richness_report as rich

        result = survey_sufficiency(split4, 40, 12.0, seed=13)
        assert result.summary["n_codim2_rich"] == 0
        assert rich((1, 2), split4).relaxed_ok is False
        for r in result.rows:
            assert r.sufficient is not True
            if r.full_span:
                assert r.neutral_dim is None or r.neutral_dim >= 2

    def test_ansatz_mode_starts_on_boundary(self, ortho3):
        result = survey_sufficiency(ortho3, 20, 20.0, seed=15, mode="ansatz")
        assert result.summary["mode"] == "ansatz"
        rows = [r for r in result.rows if r.singular_flag == "none"]
        assert len(rows) >= 18
        # near-tangency starts still produce orbits that pick up collisions
        assert all(r.n_collisions > 0 for r in rows)

    def test_budget_truncated_samples_are_analysed(self, ortho3):
        # Every sample hits the event budget; such segments are ordinary
        # nonsingular pieces of orbit, exactly as ``sufficiency`` treats them.
        result = survey_sufficiency(ortho3, 6, 50.0, seed=3, max_events=3)
        assert all(r.singular_flag == "budget_exceeded" for r in result.rows)
        for r in result.rows:
            x = random_phase_point(ortho3, np.random.default_rng([3, r.sample_id]))
            seg = evolve(x, ortho3, 50.0, max_events=3)
            verdict = sufficiency(seg)
            assert r.neutral_dim == verdict.neutral_dim
            assert r.sufficient == verdict.sufficient
        assert result.summary["n_singular"] == 0
        assert result.summary["n_nonsingular"] == 6

    def test_failed_samples_are_discarded_not_fatal(self, ortho3, monkeypatch):
        real_starts, real_evolve = hyperbolicity._tangency_starts, hyperbolicity.evolve_batch
        calls = {"start": 0, "evolve": 0}

        def flaky_starts(*args, **kwargs):
            starts = real_starts(*args, **kwargs)
            for i in range(len(starts)):
                calls["start"] += 1
                if calls["start"] % 3 == 0:
                    starts[i] = RuntimeError("could not sample a clear near-tangency boundary point")
            return starts

        def flaky_evolve(*args, **kwargs):
            segments = real_evolve(*args, **kwargs)
            for i in range(len(segments)):
                calls["evolve"] += 1
                if calls["evolve"] % 4 == 0:
                    segments[i] = StartsInsideScatterer("start point is inside cylinder 1")
            return segments

        monkeypatch.setattr(hyperbolicity, "_tangency_starts", flaky_starts)
        monkeypatch.setattr(hyperbolicity, "evolve_batch", flaky_evolve)
        result = survey_sufficiency(ortho3, 12, 10.0, seed=4, mode="ansatz")
        errors = [r for r in result.rows if r.singular_flag == "error"]
        assert [r.sample_id for r in result.rows] == list(range(12))
        assert {r.error.split(":")[0] for r in errors} == {"RuntimeError", "StartsInsideScatterer"}
        assert all(r.neutral_dim is None and r.n_collisions == 0 for r in errors)
        s = result.summary
        assert s["n_discarded"] == len(errors) >= 5
        assert s["n_discarded"] + s["n_singular"] + s["n_nonsingular"] == 12
        assert s["n_nonsingular"] == sum(r.singular_flag == "none" for r in result.rows)

    def test_singular_fraction_reported(self, sinai2):
        result = survey_sufficiency(sinai2, 30, 10.0, seed=21)
        assert "fraction_singular" in result.summary
        assert result.summary["fraction_singular"] == pytest.approx(
            result.summary["n_singular"] / 30)
