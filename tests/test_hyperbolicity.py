"""Neutral spaces, advances, sufficiency, richness, spans, surveys."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from fractions import Fraction
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
from cylbilliards import (StartsInsideScatterer, build_cylinder, build_table, geometry, hyperbolicity,
                          transitivity_report, validate_table)
from cylbilliards.hyperbolicity import ADVANCE_ATOL, ADVANCE_SYSTEM, NeutralSpaceResult, _rank
from cylbilliards.linalg import integer_rref, rational_rank
from cylbilliards.tableio import load_scenario

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

    def test_table_loaded_twice_accepted(self, tmp_path):
        # Each load builds new Cylinder objects of the same exact definition.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"table": {"dimension": 3, "cylinders": [
            {"generator": [[1, 0, 0]], "translation": [0.0, 0.0, 0.0], "radius": 0.2},
            {"generator": [[0, 1, 0]], "translation": [0.5, 0.5, 0.5], "radius": 0.2}]}}))
        first, second = load_scenario(path).table, load_scenario(path).table
        assert not set(first.cylinders) & set(second.cylinders)
        seg = segment_with_events(first, np.random.default_rng(8), 38)
        for call in (neutral_space_advance, neutral_space_numeric, lambda *a: sufficiency(*a).witness):
            got, want = call(seg, second), call(seg)
            assert (got.basis.tobytes(), got.advances) == (want.basis.tobytes(), want.advances)
        assert advance_functionals(seg, seg.start.v, second) == advance_functionals(seg, seg.start.v)

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

def trivial_dim(segment):
    return geometry.base_ranks(segment.table).trivial_neutral_dim(tuple(sorted(set(segment.symbolic))))


def reference_forward_walk(segment, rows, floor=0):
    """Decides every collision's rank. The margins and ``decided`` count the
    collisions met while more than ``floor`` rows are left; a residual of
    Frobenius norm at most ADVANCE_ATOL / 2 has rank 0 and gives no margin."""
    basis = images = rows
    advances = np.zeros((rows.shape[0], segment.n_events))
    kept, dropped = [], []
    decided = 0
    bases = [c.base_basis for c in segment.table.cylinders]
    jumps = segment.v_post - segment.v_pre
    for k, (cid, v_pre) in enumerate(zip(segment.cylinder_id.tolist(), segment.v_pre)):
        base_rows = bases[cid]
        w_b = images @ base_rows.T
        v_b = base_rows @ v_pre
        alpha = w_b @ v_b / float(v_b @ v_b)
        residual = w_b - np.outer(alpha, v_b)
        u, s, _ = np.linalg.svd(residual)
        threshold = ADVANCE_ATOL * math.sqrt(max(1.0, float(np.linalg.eigvalsh(images @ images.T)[-1])))
        quiet = math.sqrt(residual.ravel() @ residual.ravel()) <= ADVANCE_ATOL / 2
        if basis.shape[0] > floor:
            decided = k + 1
            rank = _rank(s, threshold, [], []) if quiet else _rank(s, threshold, kept, dropped)
        else:
            rank = _rank(s, threshold, [], [])
        assert not (quiet and rank)
        if rank:
            if rank == basis.shape[0]:
                raise NotNeutralError(k, float(s[-1]))
            keep = u[:, rank:].T
            basis, images, advances, alpha = keep @ basis, keep @ images, keep @ advances, keep @ alpha
        advances[:, k] = alpha
        images = images + np.outer(alpha, jumps[k])
    return NeutralSpaceResult(basis=basis, dim=basis.shape[0], advances=tuple(map(tuple, advances.tolist())),
                              method=ADVANCE_SYSTEM, decided=decided, largest_kept_sv=max(kept, default=0.0),
                              smallest_dropped_sv=min(dropped, default=None))


def exact_component_advance(segment, w, members):
    """<w, P_C v0> / |P_C v0|^2 and |P_C v0|^2 as exact rationals of the
    float w and v0, where P_C projects onto the span of the base spaces of
    the cylinders ``members`` (1-based): their integer rows, reduced by
    integer_rref to independent ones, orthogonalized over the rationals."""
    rows, _ = integer_rref([row for i in members for row in segment.table.cylinder(i).base.integer_basis])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    ortho = []
    for row in rows:
        u = [Fraction(x) for x in row]
        for o, oo in ortho:
            f = dot(u, o) / oo
            u = [a - f * b for a, b in zip(u, o)]
        ortho.append((u, dot(u, u)))
    w, v0 = ([Fraction(x) for x in vec.tolist()] for vec in (w, segment.v_pre[0]))
    norm_sq = sum(dot(v0, o) ** 2 / oo for o, oo in ortho)
    return sum(dot(w, o) * dot(v0, o) / oo for o, oo in ortho) / norm_sq, norm_sq


def assert_tail_is_closed_form(segment, got, want):
    """The advances of a walk from I_d past its ``decided`` collisions.

    Each is within 4 ulp of the exact ``exact_component_advance`` of its
    row and of the component of the cylinder hit. The ulp is taken at
    1/|P_C v0| when the value is smaller: that is the largest value the
    quotient takes for a unit row, and a float inner product errs by some
    ulp of the product of its factors' norms, not of its value. The
    per-collision recurrence errs by 15 to 100 such ulp at n = 300. Each
    is also within 1e-12 of the reference walk's, and every row's
    advance-system residual stays below the walk's threshold at every
    collision."""
    advances = np.array(got.advances).reshape(got.dim, segment.n_events)
    visited = sorted(set(segment.symbolic))
    symbolic = np.array(segment.symbolic)
    for component in transitivity_report([segment.table.cylinder(i).base for i in visited]).graph_components:
        members = [visited[j - 1] for j in component]
        hits = np.isin(symbolic, members).nonzero()[0]
        hits = hits[hits >= got.decided]
        for w, alphas in zip(got.basis, advances):
            exact, norm_sq = exact_component_advance(segment, w, members)
            ulp = Fraction(math.ulp(max(abs(float(exact)), 1.0 / math.sqrt(norm_sq))))
            assert all(abs(Fraction(a) - exact) <= 4 * ulp for a in alphas[hits].tolist())
    tail = slice(got.decided, None)
    assert np.abs(advances[:, tail] - np.array(want.advances).reshape(advances.shape)[:, tail]).max(initial=0.0) \
        <= 1e-12
    images = got.basis
    for cid, v_pre, v_post, alpha in zip(segment.cylinder_id.tolist(), segment.v_pre, segment.v_post, advances.T):
        base_rows = segment.table.cylinders[cid].base_basis
        residual = np.linalg.norm((images - np.outer(alpha, v_pre)) @ base_rows.T, axis=1)
        assert (residual < ADVANCE_ATOL * np.maximum(1.0, np.linalg.norm(images, axis=1))).all()
        images = images + np.outer(alpha, v_post - v_pre)


def assert_walk_is_reference(segment, rows):
    """``_forward_walk`` is bitwise the reference walk, NotNeutralError
    included, except for the advances of a walk from the whole space past
    its ``decided`` collisions. That walk decides ranks only until it has
    dim T rows, so its margins are the reference's over those collisions,
    and it fills the remaining advances in closed form, which
    ``assert_tail_is_closed_form`` checks. From I_d it is also the witness
    of ``sufficiency`` and ``neutral_space_advance``."""
    floor = trivial_dim(segment) if len(rows) == segment.table.dim else 0
    try:
        want = reference_forward_walk(segment, rows, floor)
    except NotNeutralError as exc:
        with pytest.raises(NotNeutralError) as got:
            hyperbolicity._forward_walk(segment, rows)
        assert (got.value.event_index, got.value.residual) == (exc.event_index, exc.residual)
        return
    walks = [hyperbolicity._forward_walk(segment, rows)]
    if np.array_equal(rows, np.eye(segment.table.dim)):
        walks += [sufficiency(segment).witness, neutral_space_advance(segment)]
    for got in walks:
        assert got.basis.tobytes() == want.basis.tobytes()
        assert (got.dim, got.decided, got.largest_kept_sv, got.smallest_dropped_sv) == \
            (want.dim, want.decided, want.largest_kept_sv, want.smallest_dropped_sv)
        head = [alphas[:got.decided] for alphas in got.advances]
        assert np.array(head).tobytes() == np.array([alphas[:want.decided] for alphas in want.advances]).tobytes()
        if floor:
            assert_tail_is_closed_form(segment, got, want)
        else:
            assert got.decided == segment.n_events


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

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2",
                                      "wide5"])
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
        # few rows are left. The walks would stop at dim T first, below
        # which they cut in no exact arithmetic, so dim T is set to zero.
        monkeypatch.setattr(hyperbolicity, "ADVANCE_ATOL", -1.0)
        monkeypatch.setattr(geometry.BaseRanks, "trivial_neutral_dim", lambda self, visited: 0)
        assert failures() > 0

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2",
                                      "wide5"])
    def test_walk_equals_reference(self, request, name):
        table = request.getfixturevalue(name)
        rng = np.random.default_rng(23)
        two = np.linalg.qr(rng.normal(size=(table.dim, 2)))[0].T
        for n in (1, 5, 17, 20, 40, 60, 300):
            seg = _long_segment(table, 23 + n, n)
            for rows in (np.eye(table.dim), rng.normal(size=(1, table.dim)), seg.start.v[None], two):
                assert_walk_is_reference(seg, rows)

    @pytest.mark.parametrize("seed, n, late", [(290, 60, 20), (137, 300, 49)])
    def test_walk_equals_reference_past_a_late_cut(self, ortho3, seed, n, late):
        # Each start meets only one cylinder before collision ``late``. From
        # I_3 the walk cuts at collision 0, keeps every row up to ``late``
        # and cuts there to dim T = 1, after which it decides no more
        # ranks; from the velocity and that cylinder's generator the first
        # cut is ``late``, and every later collision is decided.
        x = random_phase_point(ortho3, np.random.default_rng(seed))
        seg = evolve(x, ortho3, 1e6, max_events=n)
        assert clean(seg) and seg.n_events == n and n - late >= 16
        generator = np.array(seg.events[0].cylinder.generator.integer_basis[0], dtype=float)
        span = np.linalg.qr(np.array([seg.start.v, generator]).T)[0].T
        for rows in (np.eye(3), span):
            assert [reference_forward_walk(evolve(x, ortho3, 1e6, max_events=m), rows).dim
                    for m in (1, late, late + 1)] == [2, 2, 1]
            assert_walk_is_reference(seg, rows)
        # Past the cut the one row's tail is one value, the velocity's 1 up
        # to sign.
        res = sufficiency(seg).witness
        assert res.decided == late + 1 and len(set(res.advances[0][late + 1:])) == 1

    def test_dense3_shared_axis_is_neutral(self, dense3):
        seg = _long_segment(dense3, 32)
        res = neutral_space_advance(seg)
        assert res.dim == 2
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(res.basis.T @ (res.basis @ e3) - e3) < 1e-10


class TestClosedFormTail:
    """A walk from I_d fills the advances past its ``decided`` collisions
    from the components of the visited cylinders: one value per row and
    component."""

    @staticmethod
    def tail_values(segment, res):
        """Per visited component (tuples of 1-based cylinders), the set of
        tail advance vectors over its collisions; one vector per component
        means the tail is constant there."""
        advances = np.array(res.advances).reshape(res.dim, segment.n_events)
        visited = tuple(sorted(set(segment.symbolic)))
        symbolic = np.array(segment.symbolic)
        values = {}
        for component in geometry.base_ranks(segment.table).components(visited):
            at = np.isin(symbolic, component).nonzero()[0]
            values[component] = {tuple(col) for col in advances[:, at[at >= res.decided]].T.tolist()}
        return values

    def test_split4_two_orthogonal_components(self, split4):
        seg = _long_segment(split4, 33)
        res = sufficiency(seg).witness
        assert (res.dim, set(seg.symbolic)) == (2, {1, 2}) and res.decided < 300
        values = self.tail_values(seg, res)
        assert list(values) == [(1,), (2,)] and all(len(v) == 1 for v in values.values())
        # The rows' advances on the two components are independent.
        assert abs(np.linalg.det(np.array([next(iter(v)) for v in values.values()]))) > 1e-3
        assert_walk_is_reference(seg, np.eye(4))

    def test_dense3_one_component_of_dependent_rows(self, dense3):
        seg = _long_segment(dense3, 32)
        res = sufficiency(seg).witness
        assert (res.dim, set(seg.symbolic)) == (2, {1, 2})
        # Both base spaces are span(e1, e2): four integer rows of rank 2.
        assert rational_rank([row for c in dense3.cylinders for row in c.base.integer_basis]) == 2
        values = self.tail_values(seg, res)
        assert list(values) == [(1, 2)] and len(values[1, 2]) == 1
        assert_walk_is_reference(seg, np.eye(3))

    def test_hs4x2_three_trivially_neutral_rows(self, hs4x2):
        seg = _long_segment(hs4x2, 18)
        res = sufficiency(seg).witness
        assert trivial_dim(seg) == res.dim == 3 and res.decided < 300
        assert all(len(v) == 1 for v in self.tail_values(seg, res).values())
        assert_walk_is_reference(seg, np.eye(8))

    def test_visited_sets_do_not_share_projectors(self, ortho3):
        # The late-cut start meets only cylinder 1 in its first 49
        # collisions: there T = span(P_1 v0, e1), and over 300 collisions
        # T = span(v0). Walked in both orders, on two tables of the same
        # cylinders with their own caches, every witness is the same.
        x = random_phase_point(ortho3, np.random.default_rng(137))
        again = validate_table(build_table(ortho3.cylinders))
        segments = [evolve(x, table, 1e6, max_events=n) for table in (ortho3, again) for n in (40, 300)]
        assert [set(seg.symbolic) for seg in segments] == [{1}, {1, 2}] * 2
        first = [sufficiency(seg).witness for seg in segments[:2]]
        second = [sufficiency(seg).witness for seg in segments[:1:-1]][::-1]
        for a, b, seg in zip(first, second, segments):
            assert (a.basis.tobytes(), a.advances, a.decided) == (b.basis.tobytes(), b.advances, b.decided)
            assert_walk_is_reference(seg, np.eye(3))
        assert [w.dim for w in first] == [2, 1]

    def test_zero_event_segment_unchanged(self, sinai2):
        seg = evolve(phase_point([0.4, 0.4], [0.0, 1.0]), sinai2, 0.05)
        res = sufficiency(seg).witness
        assert res.basis.tobytes() == np.eye(2).tobytes()
        assert (res.dim, res.advances, res.decided, res.largest_kept_sv, res.smallest_dropped_sv) == \
            (2, ((), ()), 0, 0.0, None)


class TestTriviallyNeutralSpace:
    """T = span{P_C v0 for each visited component C} + A* is exactly
    neutral, so every walk from I_d ends at or above dim T."""

    @staticmethod
    def t_rows(segment):
        """T's spanning vectors with their exact advance tuples: v0 (all 1),
        P_C v0 (1 at C's collisions, 0 elsewhere) and the rows of A* (0)."""
        table, symbolic = segment.table, np.array(segment.symbolic)
        visited = sorted(set(segment.symbolic))
        v0 = segment.start.v
        rows = [(v0, np.ones(segment.n_events))]
        components = transitivity_report([table.cylinder(i).base for i in visited]).graph_components
        for component in components:
            members = [visited[j - 1] for j in component]
            l_star = span_decomposition(members, table).l_star
            rows.append((l_star.T @ (l_star @ v0), np.isin(symbolic, members).astype(float)))
        a_star = span_decomposition(visited, table).a_star
        rows += [(row, np.zeros(segment.n_events)) for row in a_star]
        return rows, len(components) + len(a_star)

    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2"])
    def test_t_is_neutral_and_inside_every_walk(self, request, name):
        table = request.getfixturevalue(name)
        both_visited = False
        for n in (1, 5, 40, 300):
            seg = _long_segment(table, 41 + n, n)
            rows, dim_t = self.t_rows(seg)
            assert trivial_dim(seg) == dim_t
            assert np.linalg.matrix_rank(np.array([w for w, _ in rows]), tol=1e-10) == dim_t
            for w, alphas in rows:
                assert np.allclose(advance_functionals(seg, w), alphas, rtol=0, atol=1e-8)
            res = neutral_space_advance(seg)
            assert res.dim >= dim_t
            for w, _ in rows:
                w = w / np.linalg.norm(w)
                assert np.linalg.norm(w - res.basis.T @ (res.basis @ w)) < 1e-8
            if name == "split4" and len(set(seg.symbolic)) == 2:
                # One time shift per orthogonal component.
                assert dim_t == 2
                both_visited = True
        assert name != "split4" or both_visited


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
        import os

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
        serial = [dataclasses.asdict(r) for r in survey_sufficiency(ortho3, 6, 10.0, seed=1).rows]
        # Six samples asked onto 64 threads: at most one batch per sample
        # and one worker per CPU that the process may use (its affinity mask
        # where the platform has one, not the host's CPU count); an unknown
        # or single CPU runs serially.
        affinity = hasattr(os, "sched_getaffinity")
        for cpus, pool in ((None, []), (1, []), (2, [2]), (3, [3]), (8, [6])):
            asked.clear()
            if affinity:
                monkeypatch.setattr(os, "cpu_count", lambda: 64)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus or 0)))
            else:
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            rows = survey_sufficiency(ortho3, 6, 10.0, seed=1, threads=64).rows
            assert asked == pool
            assert [dataclasses.asdict(r) for r in rows] == serial

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
