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
answers the start checks: one rounding and a minimum over each ball give the
distance from a point to every cylinder's nearest axis translate.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class OrbitSegment:
    start: PhasePoint
    duration: float
    tail: float  # free flight after the last event; 0 when cut at an event
    events: tuple[CollisionEvent, ...]
    symbolic: tuple[int, ...]
    singular_flag: SingularFlag | None
    end: PhasePoint
    end_unwrapped: np.ndarray
    table: BilliardTable

    @property
    def n_events(self) -> int:
        return len(self.events)


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
        self.r_sq = (self.radius * self.radius)[self.cid]
        beta = np.array([lat.babai_bound for lat in lats])
        off_sq = np.einsum("ij,ij->i", self.offsets, self.offsets)
        self.tube_excess = off_sq - ((self.radius + beta + 1e-6) ** 2)[self.cid]
        self.window_len = 2.0 * np.array([lat.shortest_norm for lat in lats])[self.cid]
        near = (off_sq <= ((2.0 * beta + 1e-6) ** 2)[self.cid]).nonzero()[0]
        self.start_offsets, self.start_mask, self.start_cid = self.offsets[near], self.mask[near], self.cid[near]
        self.start_first = np.searchsorted(self.start_cid, np.arange(len(lats)))

    def axis_gaps(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The torus point q relative to the axis translate of every start
        row (rows in stacked base coordinates), their squared lengths, and
        each cylinder's distance to its nearest axis translate: one
        block-diagonal Babai rounding, then a minimum over each cylinder's
        start rows. The nearest translate lies within 2 |residual| <=
        2 babai_bound of the Babai point, so it is among them."""
        _, e = babai_round(self.onb @ q - self.shift, self.basis, self.basis_inv)
        rel = self.start_mask * e - self.start_offsets
        d_sq = np.einsum("ij,ij->i", rel, rel)
        return rel, d_sq, np.sqrt(np.minimum.reduceat(d_sq, self.start_first))


def _first_collision(q0: np.ndarray, v: np.ndarray, table: BilliardTable,
                     t_max: float):
    """Earliest entering collision within t_max as a raw hit tuple, or None.

    Per window, one block-diagonal Babai rounding of the start point gives
    every cylinder's residual e (|e| <= babai_bound), and the quadratics of
    all candidates are solved at once; equal roots go to the first cylinder,
    then its first offset. Per flight, each offset ball is cut to the tube of
    radius r + babai_bound around the line through the Babai point along the
    base direction u. The cut is exact: the flight runs along that line moved
    by e, so an offset farther than r + |e| from it never comes within r.
    """
    ft = flight_table(table)
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
        gamma = (rel * rel).sum(axis=1) - r_sq
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


def _build_event(raw, v: np.ndarray, time_offset: float) -> CollisionEvent:
    s_rel, ft, k, rel, uc, lam, q_window, base, near_double = raw
    blk, cyl = ft.blocks[k], ft.cylinders[k]
    onb = ft.onb[blk]
    q_hit_raw = q_window + s_rel * v
    radial = (rel[blk] + s_rel * uc[blk]) @ onb
    normal = radial / math.sqrt(radial @ radial)
    vn = float(v @ normal)
    cos_phi = -vn
    shift = np.floor(q_hit_raw)
    lam_amb = lam[blk] @ onb - cyl.base_projector @ shift
    flight = base + s_rel
    return CollisionEvent(
        time=time_offset + flight,
        flight=flight,
        cylinder_index=k + 1,
        q_hit=q_hit_raw - shift,
        lattice_offset=lam_amb,
        normal=normal,
        v_pre=np.array(v),
        v_post=v - 2.0 * vn * normal,
        cos_phi=cos_phi,
        cylinder=cyl,
        grazing=bool(cos_phi < EPS_TANG),
        near_double=near_double,
    )


def next_collision(x: PhasePoint, table: BilliardTable, t_max: float) -> CollisionEvent | None:
    """First collision of the flight starting at x, searched up to t_max.

    Raises StartsInsideScatterer when x sits strictly inside a cylinder.
    Grazing and near-double candidates are flagged inside the returned event.
    """
    _start_velocity(x, table)  # only for its check: the flight keeps x.v
    raw = _first_collision(x.q, x.v, table, t_max)
    if raw is None:
        return None
    return _build_event(raw, np.asarray(x.v, dtype=float), 0.0)


def _start_velocity(x: PhasePoint, table: BilliardTable) -> np.ndarray:
    """Raises StartsInsideScatterer when x sits strictly inside a cylinder.
    Otherwise returns the velocity after identifying incoming with outgoing
    states on the boundary: a start point sitting on a scatterer with inward
    radial velocity is reflected, so that time reversal at a collision
    endpoint retraces the orbit instead of tunneling through the tube."""
    v = np.array(x.v, dtype=float)
    ft = flight_table(table)
    rel, d_sq, dists = ft.axis_gaps(np.asarray(x.q, dtype=float))
    for k, (dist, radius) in enumerate(zip(dists.tolist(), ft.radius.tolist())):
        if dist < radius - INSIDE_TOL:
            raise StartsInsideScatterer(f"start point is {radius - dist:.3e} inside cylinder {k + 1}")
        if abs(dist - radius) <= INSIDE_TOL and dist > 0:
            blk = ft.blocks[k]
            row = ft.start_first[k] + int(d_sq[ft.start_cid == k].argmin())
            normal = rel[row, blk] @ ft.onb[blk] / dist
            vn = float(v @ normal)
            if vn < 0:
                v = v - 2.0 * vn * normal
    return v


def evolve(x: PhasePoint, table: BilliardTable, duration: float,
           max_events: int = 10**6) -> OrbitSegment:
    """Run the billiard flow for the given duration.

    The segment is truncated at the first flagged singularity (tangential or
    double) or when max_events is reached; the flag records which. Positions
    are re-reduced to [0,1)^d after every flight, and the covering-space
    endpoint is tracked separately for derivative checks.
    """
    speed = float(np.linalg.norm(x.v))
    if abs(speed - 1.0) > 1e-9:
        raise ValueError(f"|v| = {speed} is not 1")

    q = np.array(x.q, dtype=float)
    v = _start_velocity(x, table)
    disp = np.zeros_like(q)
    elapsed = tail = 0.0
    events: list[CollisionEvent] = []
    flag: SingularFlag | None = None

    while True:
        remaining = duration - elapsed
        if remaining <= 0:
            break
        raw = _first_collision(q, v, table, remaining)
        if raw is None:
            tail = remaining
            disp += tail * v
            q = np.mod(q + tail * v, 1.0)
            elapsed = duration
            break
        ev = _build_event(raw, v, elapsed)
        disp += ev.flight * v
        elapsed = ev.time
        events.append(ev)
        q = ev.q_hit
        if ev.grazing:
            flag = SingularFlag(TANGENTIAL, len(events) - 1)
            break
        if ev.near_double:
            flag = SingularFlag(DOUBLE, len(events) - 1)
            break
        v = ev.v_post
        if len(events) >= max_events and elapsed < duration:
            flag = SingularFlag(BUDGET_EXCEEDED, len(events) - 1)
            break

    return OrbitSegment(
        start=x,
        duration=elapsed,
        tail=tail,
        events=tuple(events),
        symbolic=tuple(e.cylinder_index for e in events),
        singular_flag=flag,
        end=PhasePoint(np.array(q), np.array(v)),
        end_unwrapped=x.q + disp,
        table=table,
    )
