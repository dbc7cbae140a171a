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

A segment stores its events as columns. The flight loop keeps per hit only
what the next flight needs; times, lattice offsets and the covering-space
endpoint are finished once per segment with array operations.
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


def _finish(ft: _FlightTable, hits: list, v_pre: list) -> dict:
    """The columns of a segment from its hits and incoming velocities: the
    geometry the flight loop does not need, finished once per segment."""
    n, d = len(hits), ft.onb.shape[1]
    flight, cid, q_hit, shift, lam, normal, cos_phi, v_post, near_double = zip(*hits) if n else [()] * 9
    flight = np.array(flight, dtype=float)
    cid = np.array(cid, dtype=int)
    cos_phi = np.array(cos_phi, dtype=float)
    q_hit, shift, normal, v_post, v_pre = (np.array(c, dtype=float).reshape(n, d)
                                           for c in (q_hit, shift, normal, v_post, v_pre))
    lam = np.array(lam, dtype=float).reshape(n, len(ft.onb))
    lattice_offset = np.empty((n, d))
    for k in set(cid.tolist()):
        at, blk = (cid == k).nonzero()[0], ft.blocks[k]
        # Stacked vector products, so that each row is rounded exactly as its
        # own product lam_k @ onb - P @ shift_k would be.
        lattice_offset[at] = ((lam[at, blk][:, None, :] @ ft.onb[blk])[:, 0]
                              - (ft.projectors[k] @ shift[at, :, None])[:, :, 0])
    cols = dict(time=np.cumsum(flight), flight=flight, cylinder_id=cid, q_hit=q_hit,
                lattice_offset=lattice_offset, normal=normal, v_pre=v_pre, v_post=v_post,
                cos_phi=cos_phi, grazing=cos_phi < EPS_TANG,
                near_double=np.array(near_double, dtype=bool))
    for col in cols.values():
        col.flags.writeable = False
    return cols


def next_collision(x: PhasePoint, table: BilliardTable, t_max: float) -> CollisionEvent | None:
    """First collision of the flight starting at x, searched up to t_max.

    Raises StartsInsideScatterer when x sits strictly inside a cylinder.
    Grazing and near-double candidates are flagged inside the returned event.
    """
    _start_velocity(x, table)  # only for its check: the flight keeps x.v
    v = np.asarray(x.v, dtype=float)
    ft = flight_table(table)
    raw = _first_collision(x.q, v, ft, t_max)
    if raw is None:
        return None
    return _event_rows(table, _finish(ft, [_hit(raw, v)], [v]))[0]


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

    ft = flight_table(table)
    q = np.array(x.q, dtype=float)
    v = _start_velocity(x, table)
    elapsed = tail = 0.0
    hits, v_pre = [], []
    flag: SingularFlag | None = None

    while True:
        remaining = duration - elapsed
        if remaining <= 0:
            break
        raw = _first_collision(q, v, ft, remaining)
        if raw is None:
            tail = remaining
            q = np.mod(q + tail * v, 1.0)
            elapsed = duration
            break
        hit = _hit(raw, v)
        flight, _, q, _, _, _, cos_phi, v_post, near_double = hit
        hits.append(hit)
        v_pre.append(v)
        elapsed += flight
        if cos_phi < EPS_TANG:
            flag = SingularFlag(TANGENTIAL, len(hits) - 1)
            break
        if near_double:
            flag = SingularFlag(DOUBLE, len(hits) - 1)
            break
        v = v_post
        if len(hits) >= max_events and elapsed < duration:
            flag = SingularFlag(BUDGET_EXCEEDED, len(hits) - 1)
            break

    cols = _finish(ft, hits, v_pre)
    # The covering-space displacement, summed flight by flight in order.
    steps = np.vstack([np.zeros_like(q), cols["flight"][:, None] * cols["v_pre"], tail * v])
    return OrbitSegment(
        start=x,
        duration=elapsed,
        tail=tail,
        **cols,
        singular_flag=flag,
        end=PhasePoint(np.array(q), np.array(v)),
        end_unwrapped=x.q + np.cumsum(steps, axis=0)[-1],
        table=table,
    )
