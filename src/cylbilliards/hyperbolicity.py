"""Neutral spaces, advances, sufficiency verdicts, combinatorial richness,
orbit-span decomposition, and statistical sufficiency surveys.

A configuration translation W is neutral for a segment when it leaves every
velocity along the segment unchanged. Writing W_k for the translation carried
by the k-th flight and alpha_k for the time advance of the k-th collision,
neutrality is the exact linear system

    project_base_k(W_k - alpha_k * v_k) = 0,
    W_{k+1} = W_k + alpha_k * (v_{k+1} - v_k),

in the unknowns (W, alpha_1..alpha_n). Each collision pins its advance,
alpha_k = <B_k W_k, B_k v_k> / |B_k v_k|^2 with B_k the orthonormal base rows
of the cylinder hit, because v_k has a nonzero base component. One forward
elimination solves the system: orthonormal candidate rows N, starting at
I_d, are carried with their images W_k and advances, and each collision cuts
N down to the left-null directions of the residual B_k W_k - alpha_k B_k v_k.
The surviving rows span the neutral space; the segment is sufficient
(geometrically hyperbolic) exactly when that space is the line spanned by the
velocity. That space always contains T, spanned by the projection of the
velocity onto the span of each component of the non-orthogonality graph of
the visited base spaces and by the complement of their whole span, so a walk
from I_d with dim T rows left has nothing more to cut.

Its remaining advances are known in closed form. Let C be a component and
P_C the projector onto the span of its base spaces; the spans of different
components are orthogonal. W = P_C v_0 is neutral with W_k = P_C v_k and
advance 1 at C's collisions and 0 at all others: the jump at a collision of
C is a reflection within C's span, which P_C v follows and whose length it
keeps, and a jump elsewhere is orthogonal to that span and leaves P_C v
unchanged. So |P_C v_k| = |P_C v_0|, which is positive because v has a
nonzero base component at each collision of C. A row of the complement of
the visited span has advance 0. Once the walk has dim T rows, every row w
lies in T, so its advance at any later collision of C is
<w, P_C v_0> / |P_C v_0|^2: the walk leaves its loop there and fills the
rest with one gather. The same walk from a single row decides every
collision and gives that row's advance tuple. An independent
derivative-kernel method, a forward sweep of the linearized flow, computes
the same space and serves as a cross-check.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch, EmptySequence, NotNeutralError, SingularSegment, UnknownCylinderIndex
from .flow import (OrbitSegment, PhasePoint, _random_starts, evolve_batch, flight_table, is_singular,
                   _lockstep_parts)
from .geometry import BilliardTable, Cylinder, base_ranks
from .linalg import span_split
from .tangent import transport

ADVANCE_SYSTEM = "advance_system"
DERIVATIVE_KERNEL = "derivative_kernel"

# Absolute rank tolerance, scaled by max(1, norm), of the per-collision cuts
# of both neutral-space sweeps.
ADVANCE_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class NeutralSpaceResult:
    basis: np.ndarray  # orthonormal rows
    dim: int
    advances: tuple[tuple[float, ...], ...]  # one advance tuple per basis row
    method: str
    decided: int  # collisions whose rank was decided, from the first
    # Rank margins of those decisions, each over its threshold: the largest
    # singular value treated as zero (0.0 if none) and the smallest one
    # dropped (None if none). A residual of Frobenius norm at most
    # ADVANCE_ATOL / 2 has rank 0 whatever its threshold and gives none.
    largest_kept_sv: float | None = None
    smallest_dropped_sv: float | None = None


@dataclass(frozen=True, eq=False)
class SufficiencyVerdict:
    sufficient: bool
    neutral_dim: int
    witness: NeutralSpaceResult


@dataclass(frozen=True, eq=False)
class RichnessReport:
    collided: tuple[int, ...]
    span_dim: int
    full_span: bool
    min_pair_intersection_dim: int | None
    codim2_ok: bool
    relaxed_ok: bool


@dataclass(frozen=True, eq=False)
class SpanDecomposition:
    l_star: np.ndarray  # orthonormal rows spanning the collided base spaces
    a_star: np.ndarray  # orthonormal rows of the orthocomplement
    is_full: bool


def _require_nonsingular(segment: OrbitSegment) -> None:
    flag = segment.singular_flag
    if flag is not None and is_singular(flag.kind):
        raise SingularSegment(f"segment flagged {flag.kind}")


def _segment_dim(segment: OrbitSegment, table: BilliardTable | None) -> int:
    """The segment's dimension; the walks read its table's cylinders. Raises
    DimensionMismatch for a ``table`` of another dimension, and ValueError
    for one whose cylinders are not those of the segment's table: the same
    objects, or cylinders of the same exact definition, as a table loaded
    again from the same scenario has."""
    d = segment.table.dim
    if table is not None and table.dim != d:
        raise DimensionMismatch(f"table has dimension {table.dim}, the segment's table {d}")
    if table is not None and not (len(table.cylinders) == len(segment.table.cylinders)
                                  and all(map(_same_cylinder, table.cylinders, segment.table.cylinders))):
        raise ValueError("table has other cylinders than the segment's table")
    return d


def _same_cylinder(a: Cylinder, b: Cylinder) -> bool:
    """Whether two cylinders are one object or have the same exact
    definition: generator integer basis, translation bits and radius."""
    return a is b or (a.generator.integer_basis == b.generator.integer_basis
                      and a.translation.tobytes() == b.translation.tobytes() and a.radius == b.radius)


def _rank(s: np.ndarray, threshold: float, kept: list, dropped: list) -> int:
    """Number of singular values above ``threshold``. Appends the ratio to it
    of the largest value treated as zero to ``kept``, and of the smallest
    value counted to ``dropped``, when there is one."""
    rank = int(np.count_nonzero(s > threshold))
    if rank < s.size:
        kept.append(float(s[rank]) / threshold)
    if rank:
        dropped.append(float(s[rank - 1]) / threshold)
    return rank


def _visited(cylinder_id) -> tuple[int, ...]:
    """The sorted 1-based cylinders of a segment's 0-based cylinder ids."""
    return tuple(c + 1 for c in sorted(set(cylinder_id)))


def _trivial_dim(table: BilliardTable, cylinder_id) -> int:
    """dim T of a segment from its 0-based cylinder ids (see the module
    docstring)."""
    return base_ranks(table).trivial_neutral_dim(_visited(cylinder_id))


def _forward_walk(segment: OrbitSegment, rows: np.ndarray) -> NeutralSpaceResult:
    """Forward elimination of the advance system from candidate ``rows``.

    Rows are only ever left-multiplied by matrices with orthonormal rows, so
    orthonormal input stays orthonormal. Raises NotNeutralError, with the
    smallest residual singular value, at a collision that drops every row.

    A walk from d rows, the whole space, stops once it has at most dim T
    rows: every row then lies in T, and the advances of the remaining
    collisions are filled in closed form (see the module docstring). Its
    rank margins cover its first ``decided`` collisions. A collision whose
    residual is already below half the smallest threshold, as it is at
    most repeats of the cylinder just hit, is carried on without an SVD.
    """
    basis = images = rows
    n = segment.n_events
    advances = np.zeros((rows.shape[0], n))
    kept, dropped = [], []
    bases = [c.base_basis for c in segment.table.cylinders]
    ranks = base_ranks(segment.table)
    visited = _visited(segment.cylinder_id.tolist())
    floor = ranks.trivial_neutral_dim(visited) if len(rows) == segment.table.dim else 0
    decided = 0
    # A residual of Frobenius norm at most half the smallest threshold,
    # ADVANCE_ATOL, has rank 0 whatever its threshold, as no singular value
    # exceeds that norm: it needs no SVD and gives no margin.
    quiet = ADVANCE_ATOL / 2
    v_base, v_sq = _base_velocities([segment], bases, n)
    jumps = segment.v_post - segment.v_pre
    for k, (c, v_b, v_b_sq, jump) in enumerate(zip(segment.cylinder_id.tolist(), v_base[0], v_sq[0].tolist(),
                                                   jumps)):
        if len(basis) <= floor:
            # Every row lies in T: one advance per row and component.
            comp_of, spans = ranks.component_spans(visited)
            v0 = segment.v_pre[0]
            coeff = np.empty((len(basis), len(spans)))
            for j, span in enumerate(spans):
                x = span @ v0
                coeff[:, j] = basis @ span.T @ x / (x @ x)
            advances[:, k:] = coeff[:, comp_of[segment.cylinder_id[k:]]]
            break
        base_rows = bases[c]
        v_b = v_b[:len(base_rows)]
        w_b = images @ base_rows.T
        alpha = w_b @ v_b / v_b_sq
        decided = k + 1
        residual = w_b - alpha[:, None] * v_b
        flat = residual.ravel()
        if math.sqrt(flat @ flat) > quiet:
            u, s, _ = np.linalg.svd(residual)
            # Absolute and scaled by max(1, |W_k|_2): a threshold relative to
            # the largest residual would drop the velocity direction (see
            # README). |W_k|_2^2 is the top eigenvalue of the p x p Gram
            # matrix, a third of the cost of np.linalg.norm(images, 2).
            threshold = ADVANCE_ATOL * math.sqrt(max(1.0, float(np.linalg.eigvalsh(images @ images.T)[-1])))
            rank = _rank(s, threshold, kept, dropped)
            if rank:
                if rank == basis.shape[0]:
                    raise NotNeutralError(k, float(s[-1]))
                keep = u[:, rank:].T
                basis, images, advances, alpha = keep @ basis, keep @ images, keep @ advances, keep @ alpha
        advances[:, k] = alpha
        images = images + alpha[:, None] * jump
    return NeutralSpaceResult(basis=basis, dim=basis.shape[0], advances=tuple(map(tuple, advances.tolist())),
                              method=ADVANCE_SYSTEM, decided=decided, largest_kept_sv=max(kept, default=0.0),
                              smallest_dropped_sv=min(dropped, default=None))


def _base_velocities(segments, bases, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per segment and event, the base velocity B_k v_k of the cylinder hit,
    padded to the largest base rank and to ``n_max`` events, and its squared
    length |B_k v_k|^2."""
    v_base = np.zeros((len(segments), n_max, max((len(b) for b in bases), default=0)))
    for i, seg in enumerate(segments):
        for c in set(seg.cylinder_id.tolist()):
            at = (seg.cylinder_id == c).nonzero()[0]
            v_base[i, at, :len(bases[c])] = (bases[c] @ seg.v_pre[at][:, :, None])[:, :, 0]
    return v_base, (v_base[:, :, None, :] @ v_base[:, :, :, None])[:, :, 0, 0]


def _neutral_dims(segments, d: int) -> list:
    """Per segment, the neutral dimension ``_forward_walk`` finds from I_d,
    or the NotNeutralError it raises, for every segment at once.

    At collision k the segments still running are grouped by (cylinder hit,
    rows left). Each group takes its base velocities, jumps and residuals in
    stacked products whose every item is the product ``_forward_walk`` makes
    for that segment alone (|B v|^2 over B v padded to the largest base
    rank, as ``_base_velocities`` pads it), and one stacked SVD and eigvalsh
    over its members that are not quiet. Each segment keeps only its
    images, cut and advanced as the lone walk does, so each dimension is
    bitwise the lone walk's, and leaves the walk once it has at most dim T
    rows, where the lone walk stops deciding.
    """
    n_seg = len(segments)
    counts = [seg.n_events for seg in segments]
    cids = [seg.cylinder_id.tolist() for seg in segments]
    floors = [_trivial_dim(seg.table, ids) for seg, ids in zip(segments, cids)]
    bases = [c.base_basis for c in segments[0].table.cylinders] if n_seg else []
    width = max((len(b) for b in bases), default=0)
    images = [np.eye(d)] * n_seg
    failed: list = [None] * n_seg
    active = list(range(n_seg))
    for k in range(max(counts, default=0)):
        active = [i for i in active if counts[i] > k and failed[i] is None and len(images[i]) > floors[i]]
        if not active:
            break
        groups: dict = {}
        for i in active:
            groups.setdefault((cids[i][k], len(images[i])), []).append(i)
        for (c, p), members in groups.items():
            g = np.array(members)
            base_rows = bases[c]
            image = images[members[0]][None] if len(members) == 1 else np.stack([images[i] for i in members])
            v = np.stack([segments[i].v_pre[k] for i in members])
            jump = np.stack([segments[i].v_post[k] for i in members]) - v
            v_b = (base_rows @ v[:, :, None])[:, :, 0]
            padded = np.zeros((len(members), width))
            padded[:, :len(base_rows)] = v_b
            v_sq = (padded[:, None, :] @ padded[:, :, None])[:, 0, 0]
            w_b = image @ base_rows.T
            alpha = (w_b @ v_b[:, :, None])[:, :, 0] / v_sq[:, None]
            residual = w_b - alpha[:, :, None] * v_b[:, None, :]
            # A quiet residual, of Frobenius norm at most ADVANCE_ATOL / 2, has
            # rank 0 whatever its threshold and takes no SVD, as in
            # _forward_walk; being half the smallest threshold, the bound
            # does not depend on the summation order of the norm.
            loud = (np.sqrt(np.einsum("ijk,ijk->i", residual, residual)) > ADVANCE_ATOL / 2).nonzero()[0]
            rank = np.zeros(len(members), dtype=np.intp)
            if loud.size:
                u, s, _ = np.linalg.svd(residual[loud])
                # Absolute and scaled by max(1, |W_k|_2): a threshold relative to
                # the largest residual would drop the velocity direction (see
                # README). |W_k|_2^2 is the top eigenvalue of the p x p Gram
                # matrix, a third of the cost of np.linalg.norm(images, 2).
                top = np.linalg.eigvalsh(image[loud] @ image[loud].transpose(0, 2, 1))[:, -1]
                threshold = ADVANCE_ATOL * np.sqrt(np.maximum(1.0, top))
                rank[loud] = (s > threshold[:, None]).sum(axis=1)
                row_of = np.empty(len(members), dtype=np.intp)
                row_of[loud] = np.arange(loud.size)
            values = set(rank.tolist())
            for r in values:
                at = slice(None) if len(values) == 1 else (rank == r).nonzero()[0]
                sub, image_r, alpha_r = g[at].tolist(), image[at], alpha[at]
                if r == p:
                    for i, smallest in zip(sub, s[row_of[at], -1].tolist()):
                        failed[i] = NotNeutralError(k, smallest)
                    continue
                if r:
                    keep = u[row_of[at]][:, :, r:].transpose(0, 2, 1)
                    image_r, alpha_r = keep @ image_r, (keep @ alpha_r[:, :, None])[:, :, 0]
                images_r = image_r + alpha_r[:, :, None] * jump[at][:, None, :]
                for i, image_i in zip(sub, images_r):
                    images[i] = image_i
    return [failed[i] or len(images[i]) for i in range(n_seg)]


def neutral_space_advance(segment: OrbitSegment, table: BilliardTable | None = None) -> NeutralSpaceResult:
    """Neutral space from the exact advance linear system.

    One forward elimination from I_d (see the module docstring): the rows
    that survive every collision are an orthonormal basis of the neutral
    space at the segment start, each with its advance tuple, and the result
    reports how close the rank decisions came to their threshold.
    """
    d = _segment_dim(segment, table)
    _require_nonsingular(segment)
    if not segment.n_events:
        raise EmptySequence("advance system needs at least one collision")
    return _forward_walk(segment, np.eye(d))


def advance_functionals(segment: OrbitSegment, translation, table: BilliardTable | None = None) -> tuple[float, ...]:
    """Advance tuple (alpha_1..alpha_n) of a neutral translation: the forward
    elimination started at the single row ``translation``. Raises
    ValueError unless ``translation`` is a finite vector of the segment's
    dimension, and NotNeutralError when a constraint residual survives.
    """
    dim = _segment_dim(segment, table)
    translation = np.asarray(translation, dtype=float)
    if translation.shape != (dim,) or not np.isfinite(translation).all():
        raise ValueError(f"translation must be a finite vector of length {dim}, got shape {translation.shape}")
    _require_nonsingular(segment)
    if not segment.n_events:
        raise EmptySequence("advance functionals need at least one collision")
    return _forward_walk(segment, translation[None]).advances[0]


def neutral_space_numeric(segment: OrbitSegment, table: BilliardTable | None = None) -> NeutralSpaceResult:
    """Neutral space from the derivative kernel.

    One forward sweep of the linearized flow carries candidate translations
    (W, 0), starting at I_d. A translation is neutral when its velocity
    response stays zero, so at collision k the candidates are cut to the
    kernel of their gain images W_k G_k^T, with singular values up to
    ADVANCE_ATOL * max(1, |G_k|_2) counted as zero, and the survivors' images
    move on by R_k. Each advance is read off the tangent flow as
    -<normal, W_k>/cos(phi). The images stay orthonormal, so long segments
    lose no precision. A zero-collision segment returns the full space.
    """
    d = _segment_dim(segment, table)
    _require_nonsingular(segment)
    normal, cos_phi = segment.normal, segment.cos_phi.tolist()
    basis = np.eye(d)
    advances = np.zeros((d, segment.n_events))
    kept, dropped = [], []

    def cut(k, pre, post, step):
        nonlocal basis, advances
        u, s, _ = np.linalg.svd(post[:, d:])
        # The step's upper right block is G_k^T.
        rank = _rank(s, ADVANCE_ATOL * max(1.0, float(np.linalg.norm(step[:d, d:], 2))), kept, dropped)
        if rank:
            keep = u[:, rank:].T
            basis, advances, post = keep @ basis, keep @ advances, keep @ post
        post[:, d:] = 0.0
        # R_k negates the normal, so <normal, R_k W_k> = -<normal, W_k>.
        advances[:, k] = post[:, :d] @ normal[k] / cos_phi[k]
        return post

    transport(np.hstack([basis, np.zeros((d, d))]), segment, visit=cut)
    return NeutralSpaceResult(basis=basis, dim=basis.shape[0], advances=tuple(map(tuple, advances.tolist())),
                              method=DERIVATIVE_KERNEL, decided=segment.n_events,
                              largest_kept_sv=max(kept, default=0.0), smallest_dropped_sv=min(dropped, default=None))


def sufficiency(segment: OrbitSegment, table: BilliardTable | None = None) -> SufficiencyVerdict:
    """Sufficiency (geometric hyperbolicity): neutral space of minimal dim 1.

    Zero-collision segments are never sufficient (the neutral space is all of
    R^d).
    """
    d = _segment_dim(segment, table)
    _require_nonsingular(segment)
    witness = _forward_walk(segment, np.eye(d))
    return SufficiencyVerdict(sufficient=witness.dim == 1, neutral_dim=witness.dim,
                              witness=witness)


def richness_report(symbolic, table: BilliardTable) -> RichnessReport:
    """Combinatorial richness of a symbolic sequence: span of the collided
    base spaces and their pairwise intersection dimensions, all exact."""
    symbolic = tuple(int(s) for s in symbolic)
    if not symbolic:
        raise EmptySequence("richness needs a nonempty symbolic sequence")
    k = len(table.cylinders)
    for s in symbolic:
        if not 1 <= s <= k:
            raise UnknownCylinderIndex(f"index {s} outside 1..{k}")
    collided = tuple(sorted(set(symbolic)))
    ranks = base_ranks(table)
    span_dim = ranks.span_dim(collided)
    full_span = span_dim == table.dim
    min_pair = min((ranks.pair_dims[pair] for pair in itertools.combinations(collided, 2)), default=None)
    codim2_ok = min_pair is None or min_pair >= 2
    relaxed_ok = min_pair is None or min_pair >= 1
    return RichnessReport(collided=collided, span_dim=span_dim, full_span=full_span,
                          min_pair_intersection_dim=min_pair,
                          codim2_ok=codim2_ok, relaxed_ok=relaxed_ok)


def span_decomposition(symbolic, table: BilliardTable) -> SpanDecomposition:
    """Span of the collided base spaces and its orthocomplement.

    When the orthocomplement is nonzero, the velocity component in it is a
    conserved quantity of the sub-billiard the orbit actually sees.
    """
    symbolic = tuple(int(s) for s in symbolic)
    if not symbolic:
        raise EmptySequence("span decomposition needs a nonempty symbolic sequence")
    collided = tuple(sorted(set(symbolic)))
    rows = [row for s in collided for row in table.cylinder(s).base.integer_basis]
    rank = base_ranks(table).span_dim(collided)
    l_star, a_star = span_split(np.array(rows, dtype=float), rank)
    return SpanDecomposition(l_star=l_star, a_star=a_star, is_full=a_star.shape[0] == 0)


# ---------------------------------------------------------------------------
# Statistical surveys
# ---------------------------------------------------------------------------

GENERIC = "generic"
ANSATZ = "ansatz"

# Width of the near-tangency band used to proxy fresh post-singularity points.
TANGENCY_BAND = 0.05

# singular_flag of a survey row whose start could not be drawn or evolved;
# the summary counts such rows as discarded.
SAMPLE_ERROR = "error"


@dataclass(frozen=True, eq=False, slots=True)
class SurveyRow:
    sample_id: int
    seed: int
    n_collisions: int
    distinct_cylinders: int
    span_dim: int | None
    codim2_ok: bool | None
    full_span: bool | None
    neutral_dim: int | None
    sufficient: bool | None
    singular_flag: str
    error: str | None = None  # why a SAMPLE_ERROR row was discarded


@dataclass(frozen=True, eq=False)
class SurveyResult:
    rows: tuple[SurveyRow, ...]
    summary: dict


def survey_sufficiency(table: BilliardTable, sample_count: int, duration: float,
                       seed: int, mode: str = GENERIC, max_events: int = 10_000,
                       threads: int = 1) -> SurveyResult:
    """Classify sampled orbit segments by richness and sufficiency.

    generic mode samples phase points uniformly (positions rejection-sampled
    outside the scatterers); ansatz mode starts on scatterer boundaries with
    outgoing velocities whose cos(phi) lies in (0, TANGENCY_BAND), proxying
    points freshly past a singular reflection, and tests forward sufficiency
    within ``duration``.
    Per-sample generators are derived from (seed, sample_id), and the samples
    are drawn, evolved and walked together as one batch in which each
    sample's row is bitwise what it gives alone. Output is therefore
    deterministic and independent of scheduling: ``threads`` > 1 splits the
    samples into that many contiguous batches, at most one per CPU that this
    process may use, run in worker processes.
    """
    if mode not in (GENERIC, ANSATZ):
        raise ValueError(f"unknown survey mode {mode!r}")
    if sample_count < 0:
        raise ValueError(f"sample_count = {sample_count} is negative")
    if not duration >= 0:
        raise ValueError(f"duration = {duration} is not >= 0")
    if max_events < 1:
        raise ValueError(f"max_events = {max_events} is below 1")
    work = partial(_survey_rows, table, seed=seed, duration=duration, mode=mode,
                   max_events=max_events)
    ids = range(sample_count)
    # The CPUs this process may run on, where the platform can tell.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, cpus or 1)
    if threads > 1 and sample_count > 1:
        from concurrent.futures import ProcessPoolExecutor

        # One worker per batch: every batch carries the table, and each
        # fresh copy rebuilds its flight data.
        size = math.ceil(sample_count / threads)
        batches = [ids[i:i + size] for i in range(0, sample_count, size)]
        with ProcessPoolExecutor(max_workers=len(batches)) as pool:
            rows = [row for batch in pool.map(work, batches) for row in batch]
    else:
        rows = work(ids)
    return SurveyResult(rows=tuple(rows), summary=summarize_survey(rows, table, seed=seed,
                                                                   mode=mode,
                                                                   sample_count=sample_count,
                                                                   duration=duration))


def _survey_rows(table: BilliardTable, sample_ids, *, seed: int, duration: float, mode: str,
                 max_events: int) -> list[SurveyRow]:
    """The survey rows of ``sample_ids``, a lockstep batch at a time: every
    start drawn from its own stream, the batch evolved together, and only
    its neutral dimensions found, by ``_neutral_dims``. A start that cannot
    be drawn, evolved or walked becomes that sample's SAMPLE_ERROR row and
    leaves the others unchanged."""
    rows: list[SurveyRow] = []
    richness: dict = {}
    for part in _lockstep_parts(table, len(sample_ids)):
        batch = sample_ids[part]
        rngs = [np.random.default_rng([seed, i]) for i in batch]
        outcome = _random_starts(table, rngs) if mode == GENERIC else _tangency_starts(table, rngs)
        drawn = [i for i, x in enumerate(outcome) if isinstance(x, PhasePoint)]
        for i, seg in zip(drawn, evolve_batch([outcome[i] for i in drawn], table, duration, max_events=max_events)):
            outcome[i] = seg
        walked = [i for i, seg in enumerate(outcome) if isinstance(seg, OrbitSegment)
                  and not is_singular(seg.singular_flag and seg.singular_flag.kind)]
        dims = dict(zip(walked, _neutral_dims([outcome[i] for i in walked], table.dim)))
        for i, (sample_id, seg) in enumerate(zip(batch, outcome)):
            dim = dims.get(i)
            if isinstance(dim, NotNeutralError):
                seg = dim
            if not isinstance(seg, OrbitSegment):
                rows.append(SurveyRow(sample_id=sample_id, seed=seed, n_collisions=0, distinct_cylinders=0,
                                      span_dim=None, codim2_ok=None, full_span=None, neutral_dim=None,
                                      sufficient=None, singular_flag=SAMPLE_ERROR,
                                      error=f"{type(seg).__name__}: {seg}"))
                continue
            flag = seg.singular_flag.kind if seg.singular_flag else "none"
            collided = tuple(sorted(set(seg.symbolic)))
            span_dim = codim2 = full = None
            if collided:
                # Richness depends only on the set of cylinders hit.
                if collided not in richness:
                    richness[collided] = richness_report(collided, table)
                rich = richness[collided]
                span_dim, codim2, full = rich.span_dim, rich.codim2_ok, rich.full_span
            rows.append(SurveyRow(sample_id=sample_id, seed=seed, n_collisions=seg.n_events,
                                  distinct_cylinders=len(collided), span_dim=span_dim, codim2_ok=codim2,
                                  full_span=full, neutral_dim=dim,
                                  sufficient=None if dim is None else dim == 1, singular_flag=flag))
    return rows


def _tangency_starts(table: BilliardTable, rngs) -> list:
    """Per generator, a post-collision point on a scatterer boundary with
    cos(phi) in (0, TANGENCY_BAND), or the RuntimeError of a stream that
    finds none in 200 tries. Each stream is consumed exactly as a lone draw
    would consume it; every round checks the pending positions with one
    stacked axis_gaps."""
    ft = flight_table(table)
    starts: list = [None] * len(rngs)
    tries = [0] * len(rngs)
    pending = list(range(len(rngs)))
    while pending:
        drawn = []
        for i in pending:
            rng = rngs[i]
            idx = int(rng.integers(len(table.cylinders)))
            cyl = table.cylinders[idx]
            radial = rng.normal(size=cyl.base_basis.shape[0])
            radial /= np.linalg.norm(radial)
            normal = radial @ cyl.base_basis
            q = cyl.translation + cyl.radius * normal
            gen_basis = np.array(cyl.generator.integer_basis, dtype=float)
            if gen_basis.size:
                q = q + rng.random(gen_basis.shape[0]) @ gen_basis
            drawn.append((idx, normal, np.mod(q, 1.0)))
        gaps = ft.axis_distances(np.array([q for _, _, q in drawn])) > ft.radius
        retry = []
        for i, (idx, normal, q), clear in zip(pending, drawn, gaps):
            tries[i] += 1
            if np.delete(clear, idx).all():
                rng = rngs[i]
                cos_phi = TANGENCY_BAND * rng.random()
                tangent = rng.normal(size=table.dim)
                tangent -= (tangent @ normal) * normal
                norm = np.linalg.norm(tangent)
                if norm >= 1e-12 and cos_phi > 0.0:
                    starts[i] = PhasePoint(q, cos_phi * normal + np.sqrt(1.0 - cos_phi**2) * (tangent / norm))
                    continue
            if tries[i] < 200:
                retry.append(i)
            else:
                starts[i] = RuntimeError("could not sample a clear near-tangency boundary point")
        pending = retry
    return starts


def summarize_survey(rows, table: BilliardTable, **meta) -> dict:
    """Counts and fractions over survey rows."""
    n = len(rows)
    n_discarded = sum(r.singular_flag == SAMPLE_ERROR for r in rows)
    nonsingular = [r for r in rows if r.singular_flag != SAMPLE_ERROR and not is_singular(r.singular_flag)]
    n_singular = n - n_discarded - len(nonsingular)
    full_span = [r for r in nonsingular if r.full_span]
    rich = [r for r in full_span if r.codim2_ok]
    sufficient_rows = [r for r in nonsingular if r.sufficient]
    suff_full = [r for r in full_span if r.sufficient]

    def frac(part, whole):
        return len(part) / len(whole) if whole else None

    return {
        **meta,
        "n_samples": n,
        "n_discarded": n_discarded,
        "n_singular": n_singular,
        "fraction_singular": n_singular / n if n else None,
        "n_nonsingular": len(nonsingular),
        "n_full_span": len(full_span),
        "n_codim2_rich": len(rich),
        "n_sufficient": len(sufficient_rows),
        "fraction_sufficient_nonsingular": frac(sufficient_rows, nonsingular),
        "fraction_full_span": frac(full_span, nonsingular),
        "fraction_sufficient_full_span": frac(suff_full, full_span),
        "non_sufficient_full_span_ids": [r.sample_id for r in full_span if not r.sufficient],
    }
