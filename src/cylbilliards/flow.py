"""Event-driven billiard flow: free flight, exact first-collision detection
against all reachable lattice translates of every cylinder, specular
reflection, symbolic sequence recording, and singularity flagging.

Collision detection works per flight window on one table that stacks every
cylinder's base coordinates and precomputed ball of lattice offsets. The
window length is capped so that the reachable axis translates stay inside
the balls; per window one Babai rounding recenters all balls and one numpy
pass solves every entering root of the distance quadratics, and the earliest
wins. Near-ties across distinct (cylinder, offset) candidates and
near-grazing incidences are flagged rather than resolved. The same table
answers the start checks: one rounding and a minimum over each ball gives
the distance from a point to every cylinder's nearest axis translate.

Many trajectories run in lockstep: one pass takes one window or one hit of
every trajectory still in flight, each with a slot of tube rows in one state
updated in place; past its tube a slot holds pads, rows the tube left out.
Each coordinate-mixing product is one BLAS call per trajectory, or per row,
of exactly the shape the one-trajectory loop uses, so a trajectory computes
the same bits in any batch as alone. Hits come out pass by pass, in time
order, and one stable sort by trajectory orders them. A lone trajectory runs
the plain loop, whose per-call cost is lower.

A segment stores its events as columns. Both flight loops stop a run at a
tangential or double hit, at the event budget or at the end of the duration,
and return only their per-hit arrays and each trajectory's hit count. Times,
lattice offsets, the flag, the end state, the tail and the covering-space
endpoint are then worked out once per batch from the columns.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OutwardVelocity, StartsInsideScatterer
from .geometry import BilliardTable, Cylinder
from .lattice import babai_round

# Grazing incidences with |<v, normal>| below this are flagged tangential.
EPS_TANG = 1e-9
# Two candidate collisions closer in time than this are flagged double.
EPS_DOUBLE = 1e-9
# Guard against re-detecting the collision a trajectory just left.
MIN_FLIGHT = 1e-12
# Slack when deciding whether a point is strictly inside a scatterer.
INSIDE_TOL = 1e-10
# A lockstep batch holds per trajectory arrays the size of the table's
# stacked offset ball (rows x stacked base dimension), so batches, and the
# samples a survey holds at once, are cut into equal parts of at most this
# many ball entries. 2^15 is the largest power of two that keeps wide5
# (43 616 entries) lone, where batches of 4 ran 1.6x slower than lone
# trajectories; the other benchmark tables batch 18 (hs4x2, 1 800 entries)
# to 655 (sinai2, 50) trajectories. On a 2-core host with one BLAS thread a
# survey sample cost less the larger its batch, up to this cap: ortho3
# 1.32 ms at 16, 0.51 ms at 163; hs4x2 4.29 ms in pairs, 3.57 ms lone,
# 1.85 ms at 18. A 2 000-sample sinai2 survey raised the peak resident
# memory by 6 MB.
LOCKSTEP_ENTRIES = 2**15

BUDGET_EXCEEDED = "budget_exceeded"
TANGENTIAL = "tangential"
DOUBLE = "double"


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Unit-speed state (q, v) with q a torus representative in [0,1)^d."""

    q: np.ndarray
    v: np.ndarray


def phase_point(q, v) -> PhasePoint:
    q = np.mod(np.asarray(q, dtype=float), 1.0)
    v = np.asarray(v, dtype=float)
    return PhasePoint(q, v / np.linalg.norm(v))


def is_singular(kind: str | None) -> bool:
    """Whether a flag of this kind invalidates the recorded events. Only
    tangential and double flags do: a budget-truncated segment is an
    ordinary nonsingular piece of orbit."""
    return kind in (TANGENTIAL, DOUBLE)


@dataclass(frozen=True, eq=False)
class SingularFlag:
    """kind is "tangential", "double" or "budget_exceeded"; event_index is the
    position (0-based) of the flagged event in the segment's event list."""

    kind: str
    event_index: int | None = None


@dataclass(frozen=True, eq=False)
class CollisionEvent:
    time: float
    flight: float  # duration of the flight ending here, exact however late
    cylinder_index: int  # 1-based, matching symbolic sequences
    q_hit: np.ndarray
    lattice_offset: np.ndarray
    normal: np.ndarray
    v_pre: np.ndarray
    v_post: np.ndarray
    cos_phi: float
    cylinder: Cylinder
    grazing: bool = False
    near_double: bool = False


# The per-event columns of an OrbitSegment, in CollisionEvent field order
# (cylinder_id stands for the 1-based cylinder_index).
_COLUMNS = ("time", "flight", "cylinder_id", "q_hit", "lattice_offset", "normal", "v_pre",
            "v_post", "cos_phi", "grazing", "near_double")


@dataclass(frozen=True, eq=False)
class OrbitSegment:
    """A piece of orbit with its events stored as read-only columns: entry k
    of each (n,) column and row k of each (n, d) column belong to event k.
    ``events`` builds CollisionEvents whose arrays are row views of the
    columns, on first use."""

    start: PhasePoint
    duration: float
    tail: float  # free flight after the last event; 0 when cut at an event
    time: np.ndarray  # (n,) running sum of flight
    flight: np.ndarray  # (n,) duration of the flight ending at each event
    cylinder_id: np.ndarray  # (n,) 0-based index into table.cylinders
    q_hit: np.ndarray  # (n, d)
    lattice_offset: np.ndarray  # (n, d)
    normal: np.ndarray  # (n, d)
    v_pre: np.ndarray  # (n, d)
    v_post: np.ndarray  # (n, d)
    cos_phi: np.ndarray  # (n,)
    grazing: np.ndarray  # (n,) bool
    near_double: np.ndarray  # (n,) bool
    singular_flag: SingularFlag | None
    end: PhasePoint
    end_unwrapped: np.ndarray
    table: BilliardTable

    @property
    def n_events(self) -> int:
        return len(self.flight)

    @cached_property
    def symbolic(self) -> tuple[int, ...]:
        return tuple((self.cylinder_id + 1).tolist())

    @cached_property
    def events(self) -> tuple[CollisionEvent, ...]:
        return _event_rows(self.table, {name: getattr(self, name) for name in _COLUMNS})


def _event_rows(table: BilliardTable, cols: dict) -> tuple[CollisionEvent, ...]:
    """CollisionEvents of the columns: Python numbers from the (n,) ones,
    row views of the (n, d) ones."""
    cylinders = table.cylinders
    fields = (cols[name].tolist() if cols[name].ndim == 1 else cols[name] for name in _COLUMNS)
    return tuple(CollisionEvent(t, f, k + 1, q, lo, nu, a, b, c, cylinders[k], g, nd)
                 for t, f, k, q, lo, nu, a, b, c, g, nd in zip(*fields))


def cylinder_distance(q, cyl: Cylinder) -> tuple[float, np.ndarray]:
    """Distance from a torus point to the cylinder axis, with the achieving
    projected-lattice offset."""
    rel = np.asarray(q, dtype=float) - cyl.translation
    offset, dist = cyl.lattice.nearest(rel)
    return dist, offset


def reflect(x: PhasePoint, event: CollisionEvent) -> PhasePoint:
    """Specular reflection at the event's boundary point."""
    nv = float(x.v @ event.normal)
    if nv >= 0:
        raise OutwardVelocity(f"<v, normal> = {nv:.3e} is not negative")
    return PhasePoint(x.q, x.v - 2.0 * nv * event.normal)


def random_phase_point(table: BilliardTable, rng: np.random.Generator) -> PhasePoint:
    """Uniform position outside all scatterers, uniform velocity direction."""
    d = table.dim
    ft = flight_table(table)
    while True:
        q = rng.random(d)
        if (ft.axis_gaps(q)[2] > ft.radius).all():
            break
    v = rng.normal(size=d)
    return PhasePoint(q, v / np.linalg.norm(v))


def _random_starts(table: BilliardTable, rngs) -> list[PhasePoint]:
    """One random_phase_point per generator, each drawn from its own stream
    exactly as random_phase_point draws it: positions until one is clear,
    then a velocity. Each rejection round checks every pending position
    with one stacked axis_gaps."""
    d = table.dim
    ft = flight_table(table)
    q = np.empty((len(rngs), d))
    pending = np.arange(len(rngs))
    while pending.size:
        for i in pending.tolist():
            q[i] = rngs[i].random(d)
        pending = pending[~(ft.axis_distances(q[pending]) > ft.radius).all(axis=1)]
    starts = []
    for x, rng in zip(q, rngs):
        v = rng.normal(size=d)
        starts.append(PhasePoint(x, v / np.linalg.norm(v)))
    return starts


# ---------------------------------------------------------------------------
# Per-table flight data: every cylinder's candidate offsets, stacked
# ---------------------------------------------------------------------------

_FLIGHT_CACHE: "weakref.WeakKeyDictionary[BilliardTable, _FlightTable]" = weakref.WeakKeyDictionary()


def flight_table(table: BilliardTable) -> "_FlightTable":
    """The table's stacked flight data, built on first use."""
    ft = _FLIGHT_CACHE.get(table)
    if ft is None:
        ft = _FLIGHT_CACHE[table] = _FlightTable(table)
    return ft


class _FlightTable:
    """Flight-loop constants of a table in stacked base coordinates: cylinder
    k owns the block ``blocks[k]`` of one axis of size M = sum of the base
    dimensions, in the orthonormal frame of its base (an isometry for
    distances). Candidate offsets are rows zero-padded to length M, in
    cylinder order, with their cylinder ``cid`` and block ``mask``. The
    start checks use the ``start_*`` copies of the rows within 2 babai_bound
    of the origin; cylinder k's begin at ``start_first[k]``."""

    def __init__(self, table: BilliardTable):
        self.cylinders = table.cylinders
        lats = [c.lattice for c in self.cylinders]
        ends = np.cumsum([lat.rank for lat in lats])
        self.blocks = [slice(int(end) - lat.rank, int(end)) for end, lat in zip(ends, lats)]
        size = int(ends[-1])
        self.onb = np.vstack([lat.subspace_onb for lat in lats])
        self.shift = np.concatenate([lat.subspace_onb @ c.translation
                                     for c, lat in zip(self.cylinders, lats)])
        self.basis = np.zeros((size, size))
        self.basis_inv = np.zeros((size, size))
        indicator = np.zeros((len(lats), size))
        balls = []
        for k, (cyl, lat, blk) in enumerate(zip(self.cylinders, lats, self.blocks)):
            self.basis[blk, blk] = lat.coord_basis
            self.basis_inv[blk, blk] = lat.coord_inv
            indicator[k, blk] = 1.0
            # Wide enough for a window's reach and for the start checks.
            rho = max(cyl.radius + 2.0 * lat.shortest_norm, lat.babai_bound) + lat.babai_bound + 1e-6
            points = lat.points_in_ball(np.zeros(cyl.ambient_dim), rho)
            balls.append((points @ self.onb.T) * indicator[k])
        self.offsets = np.vstack(balls)
        self.cid = np.repeat(np.arange(len(balls)), [len(b) for b in balls])
        self.mask = indicator[self.cid]
        self.radius = np.array([c.radius for c in self.cylinders])
        self.projectors = np.array([c.base_projector for c in self.cylinders])
        self.r_sq = (self.radius * self.radius)[self.cid]
        beta = np.array([lat.babai_bound for lat in lats])
        off_sq = np.einsum("ij,ij->i", self.offsets, self.offsets)
        self.tube_excess = off_sq - ((self.radius + beta + 1e-6) ** 2)[self.cid]
        self.window_len = 2.0 * np.array([lat.shortest_norm for lat in lats])[self.cid]
        near = (off_sq <= ((2.0 * beta + 1e-6) ** 2)[self.cid]).nonzero()[0]
        self.start_offsets, self.start_mask, self.start_cid = self.offsets[near], self.mask[near], self.cid[near]
        self.start_first = np.searchsorted(self.start_cid, np.arange(len(lats)))

    def axis_gaps(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For torus points q (..., d): each point relative to the axis
        translate of every start row (rows in stacked base coordinates), their
        squared lengths, and each cylinder's distance to its nearest axis
        translate: one block-diagonal Babai rounding, then a minimum over each
        cylinder's start rows. The nearest translate lies within
        2 |residual| <= 2 babai_bound of the Babai point, so it is among
        them. Each point takes the products a lone point takes."""
        y = (self.onb @ np.asarray(q, dtype=float)[..., None])[..., 0] - self.shift
        _, e = babai_round(y[..., None, :], self.basis, self.basis_inv)
        rel = self.start_mask * e - self.start_offsets
        d_sq = np.einsum("...ij,...ij->...i", rel, rel)
        return rel, d_sq, np.sqrt(np.minimum.reduceat(d_sq, self.start_first, axis=-1))

    def axis_distances(self, q: np.ndarray) -> np.ndarray:
        """Each cylinder's distance to its nearest axis translate from the
        torus points q (B, d), the third output of ``axis_gaps``, taken a few
        points at a time so that the start rows of wide tables stay within
        LOCKSTEP_ENTRIES per call."""
        step = max(1, LOCKSTEP_ENTRIES // self.start_offsets.size)
        if len(q) <= step:
            return self.axis_gaps(q)[2]
        return np.concatenate([self.axis_gaps(q[i:i + step])[2] for i in range(0, len(q), step)])


def _first_collision(q0: np.ndarray, v: np.ndarray, ft: _FlightTable, t_max: float):
    """Earliest entering collision within t_max as a raw hit tuple, or None.

    Per window, one block-diagonal Babai rounding of the start point gives
    every cylinder's residual e (|e| <= babai_bound), and the quadratics of
    all candidates are solved at once; equal roots go to the first cylinder,
    then its first offset. Per flight, each offset ball is cut to the tube of
    radius r + babai_bound around the line through the Babai point along the
    base direction u. The cut is exact: the flight runs along that line moved
    by e, so an offset farther than r + |e| from it never comes within r.
    """
    uc = ft.onb @ v
    a_row = ft.mask @ (uc * uc)
    off_u = ft.offsets @ uc
    # Tube test |o|^2 - (o.u)^2 / a <= tube^2, multiplied through by a.
    rows = ((ft.tube_excess * a_row <= off_u * off_u) & (a_row > 1e-28)).nonzero()[0]
    if not rows.size:
        return None
    offsets, mask = ft.offsets.take(rows, axis=0), ft.mask.take(rows, axis=0)
    r_sq, a_row = ft.r_sq[rows], a_row[rows]
    window = float((ft.window_len[rows] / np.sqrt(a_row)).min())

    q = np.asarray(q0, dtype=float)
    base = 0.0
    while base < t_max - 1e-15:
        w = min(window, t_max - base)
        lam0, e = babai_round(ft.onb @ q - ft.shift, ft.basis, ft.basis_inv)
        # Each candidate's position relative to its axis translate, in its block.
        rel = mask * e - offsets
        b = rel @ uc
        gamma = np.add.reduce(rel * rel, axis=1) - r_sq
        bb, ag = b * b, a_row * gamma
        disc = bb - ag
        # Discriminants within rounding noise of zero are exact tangencies:
        # the chord is numerically unresolvable, so no event is generated.
        hit = ((disc > 1e-14 * (bb + np.abs(ag))) & (b < 0.0)).nonzero()[0]
        if hit.size:
            # Stable smaller root of a s^2 + 2 b s + gamma = 0.
            s = gamma[hit] / (np.sqrt(disc[hit]) - b[hit])
            s[s <= MIN_FLIGHT] = np.inf
            j = int(s.argmin())
            # Roots slightly beyond the window feed the near-double count
            # only; the event itself must land inside (MIN_FLIGHT, w].
            if s[j] <= w:
                n_close = np.count_nonzero(s <= s[j] + EPS_DOUBLE)
                row = rows[hit[j]]
                return (float(s[j]), ft, int(ft.cid[row]), rel[hit[j]], uc,
                        lam0 + ft.offsets[row], q, base, n_close > 1)
        # Overlap consecutive windows so a root within MIN_FLIGHT of the
        # boundary cannot be skipped by the minimum-flight guard.
        step = w if w <= 2e-10 else w - 1e-10
        q = np.mod(q + step * v, 1.0)
        base += step
    return None


def _hit(raw, v: np.ndarray) -> tuple:
    """The per-hit step of a raw hit of velocity v, with what the next
    flight needs: (flight, cylinder id, hit point reduced to [0,1)^d, its
    integer shift, stacked lattice point, normal, cos_phi, v_post,
    near_double)."""
    s_rel, ft, k, rel, uc, lam, q_window, base, near_double = raw
    blk = ft.blocks[k]
    q_hit = q_window + s_rel * v
    radial = (rel[blk] + s_rel * uc[blk]) @ ft.onb[blk]
    normal = radial / math.sqrt(radial @ radial)
    vn = float(v @ normal)
    shift = np.floor(q_hit)
    return base + s_rel, k, q_hit - shift, shift, lam, normal, -vn, v - 2.0 * vn * normal, near_double


def _finish(ft: _FlightTable, hits: dict) -> dict:
    """The columns of the hits of any number of segments, from the per-hit
    arrays of a flight loop (flight, cylinder_id, q_hit, shift, lam, normal,
    cos_phi, v_post, near_double, v_pre): the geometry the loop does not
    need, finished once."""
    cid, lam, shift = hits["cylinder_id"], hits["lam"], hits["shift"]
    lattice_offset = np.empty_like(shift)
    for k in set(cid.tolist()):
        at, blk = (cid == k).nonzero()[0], ft.blocks[k]
        # Stacked vector products, so that each row is rounded exactly as its
        # own product lam_k @ onb - P @ shift_k would be.
        lattice_offset[at] = ((lam[at, blk][:, None, :] @ ft.onb[blk])[:, 0]
                              - (ft.projectors[k] @ shift[at, :, None])[:, :, 0])
    cols = dict(flight=hits["flight"], cylinder_id=cid, q_hit=hits["q_hit"], lattice_offset=lattice_offset,
                normal=hits["normal"], v_pre=hits["v_pre"], v_post=hits["v_post"], cos_phi=hits["cos_phi"],
                grazing=hits["cos_phi"] < EPS_TANG, near_double=hits["near_double"])
    for col in cols.values():
        col.flags.writeable = False
    return cols


# The per-hit arrays both flight loops return, in ``_hit`` order, then the
# incoming velocity.
_HITS = ("flight", "cylinder_id", "q_hit", "shift", "lam", "normal", "cos_phi", "v_post", "near_double",
         "v_pre")


def _hit_arrays(hits: list, d: int, size: int) -> dict:
    """Per-hit tuples (as from ``_hit``, then v_pre) as arrays of one
    trajectory."""
    n = len(hits)
    cols = zip(*hits) if n else [()] * len(_HITS)
    kinds = (float, int, float, float, float, float, float, float, bool, float)
    widths = (0, 0, d, d, size, d, 0, d, 0, d)
    return {name: np.array(c, dtype=kind).reshape((n, w) if w else n)
            for name, c, kind, w in zip(_HITS, cols, kinds, widths)}


def next_collision(x: PhasePoint, table: BilliardTable, t_max: float) -> CollisionEvent | None:
    """First collision of the flight starting at x, searched up to t_max.

    Raises StartsInsideScatterer when x sits strictly inside a cylinder. A
    start on a scatterer with inward radial velocity is reflected first, as
    in ``evolve``, whose first event this is. Grazing and near-double
    candidates are flagged inside the returned event. Raises ValueError
    unless t_max >= 0 and the start is finite and of unit speed.
    """
    if not t_max >= 0:
        raise ValueError(f"t_max = {t_max} is not >= 0")
    ft = flight_table(table)
    q = np.asarray(x.q, dtype=float)[None]
    v, (error,) = _start_velocities(ft, q, np.asarray(x.v, dtype=float)[None])
    if error is not None:
        raise error
    hits, (n,) = _trajectory(ft, q, v, t_max, 1)
    if not n:
        return None
    cols = _finish(ft, hits)
    return _event_rows(table, dict(time=cols["flight"], **cols))[0]


def _start_velocities(ft: _FlightTable, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, list]:
    """Start velocities of the points q (B, d) with velocities v, and per
    point the StartsInsideScatterer it raises when it sits strictly inside a
    cylinder (else None). Incoming and outgoing states on the boundary are
    identified: a start point sitting on a scatterer with inward radial
    velocity is reflected, so that time reversal at a collision endpoint
    retraces the orbit instead of tunneling through the tube. Raises
    ValueError naming the first start with a NaN or infinite entry, which
    would fly every window of its duration and end nowhere, and then the
    first start whose speed is not 1."""
    v = np.array(v, dtype=float)
    bad = ~(np.isfinite(q).all(axis=1) & np.isfinite(v).all(axis=1))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"start {i} is not finite: q = {q[i]}, v = {v[i]}")
    speed = np.linalg.norm(v, axis=1)
    bad = np.abs(speed - 1.0) > 1e-9
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"start {i}: |v| = {speed[i]} is not 1")
    errors: list = [None] * len(q)
    dists = ft.axis_distances(q)
    # The points within twice the tolerance of a scatterer, then the tests.
    for i, k in zip(*(dists < ft.radius + 2.0 * INSIDE_TOL).nonzero()):
        dist, radius = float(dists[i, k]), float(ft.radius[k])
        if errors[i] is not None:
            continue
        if dist < radius - INSIDE_TOL:
            errors[i] = StartsInsideScatterer(f"start point is {radius - dist:.3e} inside cylinder {k + 1}")
            continue
        if not (abs(dist - radius) <= INSIDE_TOL and dist > 0):
            continue
        rel, d_sq, _ = ft.axis_gaps(q[i])
        blk = ft.blocks[k]
        row = ft.start_first[k] + int(d_sq[ft.start_cid == k].argmin())
        normal = rel[row, blk] @ ft.onb[blk] / dist
        vn = float(v[i] @ normal)
        if vn < 0:
            v[i] = v[i] - 2.0 * vn * normal
    return v, errors


def evolve(x: PhasePoint, table: BilliardTable, duration: float,
           max_events: int = 10**6) -> OrbitSegment:
    """Run the billiard flow for the given duration.

    The segment is truncated at the first flagged singularity (tangential or
    double) or when max_events is reached; the flag records which. Positions
    are re-reduced to [0,1)^d after every flight, and the covering-space
    endpoint is tracked separately for derivative checks. Raises ValueError
    unless duration >= 0, max_events >= 1 and the start is finite and of
    unit speed.
    """
    (segment,) = evolve_batch([x], table, duration, max_events)
    if isinstance(segment, StartsInsideScatterer):
        raise segment
    return segment


def evolve_batch(starts, table: BilliardTable, duration: float,
                 max_events: int = 10**6) -> list:
    """``evolve`` of every start, all advancing together.

    Returns one entry per start: its OrbitSegment, bitwise equal to what
    ``evolve`` gives for that start alone, or the StartsInsideScatterer the
    start raises when it sits strictly inside a cylinder, which leaves the
    other starts unaffected. A NaN, infinite or non-unit-speed start raises
    ValueError.
    """
    if max_events < 1:
        raise ValueError(f"max_events = {max_events} is below 1")
    if not duration >= 0:
        raise ValueError(f"duration = {duration} is not >= 0")
    starts = list(starts)
    d = table.dim
    q = np.array([x.q for x in starts], dtype=float).reshape(-1, d)
    v = np.array([x.v for x in starts], dtype=float).reshape(-1, d)
    ft = flight_table(table)
    v, errors = _start_velocities(ft, q, v)
    run = [i for i, err in enumerate(errors) if err is None]
    out = list(errors)
    zero = np.zeros((1, d))
    for part in _lockstep_parts(table, len(run)):
        batch = run[part]
        kernel = _trajectory if len(batch) == 1 else _lockstep
        hits, counts = kernel(ft, q[batch], v[batch], duration, max_events)
        cols = _finish(ft, hits)
        steps = cols["flight"][:, None] * cols["v_pre"]
        begin = 0
        for i, n in zip(batch, counts):
            at = slice(begin, begin + n)
            begin += n
            time = np.cumsum(cols["flight"][at])
            time.flags.writeable = False
            # How the run ended: at a flagged hit, on its budget, at a hit
            # exactly at its end, or in free flight for the time left.
            kind, end_q, end_v, elapsed = None, q[i], v[i], 0.0
            if n:
                last = begin - 1
                elapsed, end_q = float(time[-1]), cols["q_hit"][last]
                kind = TANGENTIAL if cols["grazing"][last] else DOUBLE if cols["near_double"][last] else \
                    BUDGET_EXCEEDED if n == max_events and elapsed < duration else None
                # A tangential or double hit keeps the incoming velocity.
                end_v = cols["v_pre" if is_singular(kind) else "v_post"][last]
            tail = 0.0
            if kind is None and elapsed < duration:
                tail, elapsed = float(duration) - elapsed, float(duration)
                end_q = np.mod(end_q + tail * end_v, 1.0)
            # The covering-space displacement, summed flight by flight in order.
            unwrapped = q[i] + np.cumsum(np.concatenate([zero, steps[at], tail * end_v[None]]), axis=0)[-1]
            out[i] = OrbitSegment(start=starts[i], duration=elapsed, tail=tail, time=time,
                                  **{name: col[at] for name, col in cols.items()},
                                  singular_flag=SingularFlag(kind, n - 1) if kind else None,
                                  end=PhasePoint(end_q, end_v), end_unwrapped=unwrapped, table=table)
    return out


def _lockstep_parts(table: BilliardTable, count: int) -> list[slice]:
    """``count`` trajectories of this table cut into equal lockstep batches
    of at most LOCKSTEP_ENTRIES ball entries each."""
    parts = math.ceil(count * flight_table(table).offsets.size / LOCKSTEP_ENTRIES)
    size = math.ceil(count / parts) if parts else 0
    return [slice(i, i + size) for i in range(0, count, size)] if size else []


def _trajectory(ft: _FlightTable, q: np.ndarray, v: np.ndarray, duration: float, max_events: int):
    """``_lockstep`` for one trajectory (q, v) (1, d), as a plain flight
    loop: alone, a trajectory's array bookkeeping in the lockstep costs more
    than its flights. Same arithmetic, same stops, same returns: the per-hit
    arrays and the hit count."""
    q, v = q[0], v[0]
    elapsed = 0.0
    hits = []
    while elapsed < duration and len(hits) < max_events:
        raw = _first_collision(q, v, ft, duration - elapsed)
        if raw is None:
            break
        hit = _hit(raw, v)
        flight, _, q, _, _, _, cos_phi, v_post, near_double = hit
        hits.append(hit + (v,))
        if cos_phi < EPS_TANG or near_double:
            break
        elapsed += flight
        v = v_post
    return _hit_arrays(hits, len(q), len(ft.onb)), [len(hits)]


# ---------------------------------------------------------------------------
# The lockstep kernel
# ---------------------------------------------------------------------------

def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of a and b (n, d), each the one-dimensional
    ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _tubes(ft: _FlightTable, v: np.ndarray) -> dict:
    """``_first_collision``'s per-flight set-up for flights with velocities v
    (C, d), one matrix-vector product per flight: the stacked base velocity
    ``uc``, the tube rows in table order, padded to a common width R >= 2
    with rows left out of the tube (``n_rows`` counts the kept ones), with
    their r^2 and |base velocity|^2, and the window length."""
    uc = (ft.onb @ v[:, :, None])[:, :, 0]
    a_row = (ft.mask @ (uc * uc)[:, :, None])[:, :, 0]
    off_u = (ft.offsets @ uc[:, :, None])[:, :, 0]
    keep = (ft.tube_excess * a_row <= off_u * off_u) & (a_row > 1e-28)
    n_rows = keep.sum(axis=1)
    # Kept rows first, in table order; past n_rows the entries are pads.
    rows = np.argsort(~keep, axis=1, kind="stable")[:, :max(2, int(n_rows.max()))]
    at = np.arange(len(v))[:, None]
    a_row = a_row[at, rows]
    window = np.where(np.arange(rows.shape[1]) < n_rows[:, None], ft.window_len[rows], np.inf) / np.sqrt(a_row)
    return dict(uc=uc, n_rows=n_rows, rows=rows, r_sq=ft.r_sq[rows], a_row=a_row, window=window.min(axis=1))


def _lockstep(ft: _FlightTable, q: np.ndarray, v: np.ndarray, duration: float, max_events: int):
    """Run trajectories (q, v) (B, d) for ``duration``, all together: the
    flight loop of ``_trajectory`` with every trajectory's arithmetic
    unchanged.

    The trajectories in flight share one state, a dict of per-trajectory
    arrays updated in place; each owns a slot of N tube rows (N the rows of
    the stacked ball), of which its flight uses the first ``n_rows``. Each
    pass takes one window of every trajectory in the state. One with a root
    inside its window records the hit and, unless the hit is flagged or the
    budget is spent, writes its next tube into its slot; one without moves
    its own window on, and its flight ends when the windows reach the
    remaining time. Trajectories whose runs end leave in one compaction per
    pass. Slot rows past ``n_rows`` are pads, or left from an earlier, wider
    tube: no product is taken over them, so their b is 0 and they never hit.

    Returns the per-hit arrays of all trajectories (``_HITS``), put in order
    by trajectory and then time by one stable sort of the passes' hits, and
    per trajectory its number of hits.
    """
    n_traj, d = q.shape
    counts = np.zeros(n_traj, dtype=int)
    hits = []
    # Slot rows no tube has reached are row 0; take_off fills the rest.
    n_ball = len(ft.offsets)
    st = dict(ids=np.arange(n_traj), q=np.empty_like(q), v=np.empty_like(v),
              uc=np.empty((n_traj, len(ft.onb))), base=np.empty(n_traj), elapsed=np.empty(n_traj),
              window=np.empty(n_traj), n_rows=np.empty(n_traj, dtype=int),
              rows=np.zeros((n_traj, n_ball), dtype=int), r_sq=np.zeros((n_traj, n_ball)),
              a_row=np.zeros((n_traj, n_ball)))

    def take_off(at, q0, v0, time) -> None:
        """New flights from q0 with velocities v0, ``time`` into the run, in
        the slots ``at`` (indices, or a slice for all). A flight without
        candidate rows never hits: its windows run out its time."""
        tube = _tubes(ft, v0)
        width = tube["rows"].shape[1]
        for name in ("rows", "r_sq", "a_row"):
            st[name][at, :width] = tube.pop(name)
        for name, col in dict(tube, q=q0, v=v0, base=0.0, elapsed=time).items():
            st[name][at] = col

    with np.errstate(divide="ignore", invalid="ignore"):
        leave = np.full(n_traj, duration <= 0)
        if duration > 0 and n_traj:
            take_off(slice(None), q, v, 0.0)
        while True:
            if leave.any():
                st = {name: arr[~leave] for name, arr in st.items()}
            n_live = len(st["ids"])
            if not n_live:
                break
            leave = np.zeros(n_live, dtype=bool)
            # The widest live tube; narrower ones end in pad or leftover rows.
            width = int(st["n_rows"].max())
            rows, uc = st["rows"][:, :width], st["uc"]
            left = duration - st["elapsed"]
            w = np.minimum(st["window"], left - st["base"])
            lam0, e = babai_round((ft.onb @ st["q"][:, :, None])[:, None, :, 0] - ft.shift, ft.basis, ft.basis_inv)
            # Each candidate's position relative to its axis translate.
            rel = ft.mask[rows] * e - ft.offsets[rows]
            # One matrix-vector product per trajectory over its own rows, as
            # in the one-trajectory loop.
            b = np.zeros((n_live, width))
            for i, n in enumerate(st["n_rows"].tolist()):
                np.matmul(rel[i, :n], uc[i], out=b[i, :n])
            gamma = np.add.reduce(rel * rel, axis=2) - st["r_sq"][:, :width]
            bb, ag = b * b, st["a_row"][:, :width] * gamma
            disc = bb - ag
            # Discriminants within rounding noise of zero are exact
            # tangencies: the chord is numerically unresolvable, so no event
            # is generated.
            hit = (disc > 1e-14 * (bb + np.abs(ag))) & (b < 0.0)
            got = np.zeros(n_live, dtype=bool)
            if hit.any():
                # Stable smaller root of a s^2 + 2 b s + gamma = 0.
                s = gamma / (np.sqrt(disc) - b)
                s = np.where(hit & (s > MIN_FLIGHT), s, np.inf)
                # Roots slightly beyond the window feed the near-double count
                # only; the event itself must land inside (MIN_FLIGHT, w].
                # Equal roots go to the first row: the first cylinder, then
                # its first offset.
                j = s.argmin(axis=1)
                s_min = s[np.arange(n_live), j]
                got = s_min <= w
            h = got.nonzero()[0]
            if len(h):
                j, s_h, ids = j[h], s_min[h], st["ids"][h]
                row = rows[h, j]
                k = ft.cid[row]
                moved = rel[h, j] + s_h[:, None] * uc[h]
                radial = np.empty((len(h), d))
                for c in set(k.tolist()):
                    at, blk = (k == c).nonzero()[0], ft.blocks[c]
                    radial[at] = (moved[at, blk][:, None, :] @ ft.onb[blk])[:, 0]
                normal = radial / np.sqrt(_dots(radial, radial))[:, None]
                v_pre, q_w = st["v"][h], st["q"][h]
                vn = _dots(v_pre, normal)
                q_hit = q_w + s_h[:, None] * v_pre
                shift = np.floor(q_hit)
                q_hit -= shift
                flight = st["base"][h] + s_h
                time = st["elapsed"][h] + flight
                v_post = v_pre - (2.0 * vn)[:, None] * normal
                near_double = np.count_nonzero(s[h] <= (s_h + EPS_DOUBLE)[:, None], axis=1) > 1
                cos_phi = -vn
                # counts keeps every trajectory's number of hits so far.
                counts[ids] += 1
                hits.append((flight, k, q_hit, shift, lam0[h, 0] + ft.offsets[row], normal, cos_phi, v_post,
                             near_double, v_pre, ids))
                go = (counts[ids] < max_events) & (time < duration) & ~((cos_phi < EPS_TANG) | near_double)
                at = h
                if not go.all():
                    leave[h[~go]] = True
                    at, q_hit, v_post, time = h[go], q_hit[go], v_post[go], time[go]
                if len(at):
                    # A slice writes faster than indices when all fly on.
                    take_off(at if len(at) < n_live else slice(None), q_hit, v_post, time)
            if len(h) < n_live:
                # Overlap consecutive windows so a root within MIN_FLIGHT of
                # the boundary cannot be skipped by the minimum-flight guard.
                step = np.where(w <= 2e-10, w, w - 1e-10)
                np.copyto(st["q"], np.mod(st["q"] + step[:, None] * st["v"], 1.0), where=~got[:, None])
                np.copyto(st["base"], st["base"] + step, where=~got)
                # These flights end free, when the windows reach the time left.
                leave |= ~got & (st["base"] >= left - 1e-15)

    if not hits:
        return _hit_arrays([], d, len(ft.onb)), counts.tolist()
    *columns, ids = (np.concatenate(c) for c in zip(*hits))
    hits.clear()
    order = np.argsort(ids, kind="stable")
    return {name: col[order] for name, col in zip(_HITS, columns)}, counts.tolist()
