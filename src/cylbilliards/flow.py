"""Event-driven billiard flow: free flight, exact first-collision detection
against all reachable lattice translates of every cylinder, specular
reflection, symbolic sequence recording, and singularity flagging.

Collision detection works per flight window: the window length is capped so
that the set of reachable axis translates stays inside a precomputed ball of
lattice offsets (Babai rounding recenters the ball each step). Within a
window every entering root of the distance quadratic is solved in closed
form and the earliest one wins; near-ties across distinct (cylinder, offset)
candidates and near-grazing incidences are flagged rather than resolved.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import OutwardVelocity, StartsInsideScatterer
from .geometry import BilliardTable, Cylinder

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
    while True:
        q = rng.random(d)
        if all(cylinder_distance(q, c)[0] > c.radius for c in table.cylinders):
            break
    v = rng.normal(size=d)
    return PhasePoint(q, v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Per-table flight data (precomputed candidate offsets)
# ---------------------------------------------------------------------------

_FLIGHT_CACHE: "weakref.WeakKeyDictionary[BilliardTable, list]" = weakref.WeakKeyDictionary()


class _FlightCylinder:
    """Per-cylinder constants for the flight loop, expressed in base-space
    coordinates (orthonormal frame of the base, an isometry for distances)."""

    __slots__ = (
        "cyl", "index", "translation", "radius", "r_sq", "onb", "reduce",
        "offsets_c", "off_sq", "window_len",
    )

    def __init__(self, cyl: Cylinder, index: int):
        lat = cyl.lattice
        self.cyl = cyl
        self.index = index  # 1-based symbolic index
        self.translation = cyl.translation
        self.radius = cyl.radius
        self.r_sq = cyl.radius * cyl.radius
        self.onb = lat.subspace_onb
        self.reduce = lat.reduce
        self.window_len = 2.0 * lat.shortest_norm
        rho = cyl.radius + self.window_len + lat.babai_bound + 1e-6
        offsets_amb = lat.points_in_ball(np.zeros(cyl.ambient_dim), rho)
        self.offsets_c = offsets_amb @ lat.subspace_onb.T
        self.off_sq = np.einsum("ij,ij->i", self.offsets_c, self.offsets_c)


def _flight_data(table: BilliardTable) -> list[_FlightCylinder]:
    data = _FLIGHT_CACHE.get(table)
    if data is None:
        data = [_FlightCylinder(c, i) for i, c in enumerate(table.cylinders, start=1)]
        _FLIGHT_CACHE[table] = data
    return data


def _first_collision(q0: np.ndarray, v: np.ndarray, table: BilliardTable,
                     t_max: float):
    """Earliest entering collision within t_max as a raw hit tuple, or None.

    The window length is capped per flight so every reachable translate lies
    in the precomputed offset ball around the Babai-rounded axis point.
    """
    data = _flight_data(table)
    active = []
    window = np.inf
    for fd in data:
        uc = fd.onb @ v
        a = float(uc @ uc)
        if a > 1e-28:
            off_u = fd.offsets_c @ uc
            active.append((fd, uc, a, off_u))
            cap = fd.window_len / a**0.5
            if cap < window:
                window = cap
    if not active:
        return None

    q = np.array(q0, dtype=float)
    base = 0.0
    while base < t_max - 1e-15:
        w = min(window, t_max - base)
        best = None
        runner_arrays = []
        for fd, uc, a, off_u in active:
            lam0, e = fd.reduce(fd.onb @ (q - fd.translation))
            b = (float(e @ uc) - off_u)
            gamma = (float(e @ e) - fd.r_sq) - 2.0 * (fd.offsets_c @ e) + fd.off_sq
            disc = b * b - a * gamma
            # Discriminants within rounding noise of zero are exact tangencies:
            # the chord is numerically unresolvable, so no event is generated.
            floor = 1e-14 * (b * b + a * np.abs(gamma))
            mask = (disc > floor) & (b < 0.0)
            if not mask.any():
                continue
            # Stable smaller root of a s^2 + 2 b s + gamma = 0.
            s = gamma[mask] / (-b[mask] + np.sqrt(disc[mask]))
            # Roots slightly beyond the window feed the near-double scan only;
            # the event itself must land inside (MIN_FLIGHT, w].
            near = (s > MIN_FLIGHT) & (s <= w + EPS_DOUBLE)
            if not near.any():
                continue
            s_near = s[near]
            runner_arrays.append(s_near)
            eligible = np.flatnonzero(s_near <= w)
            if eligible.size == 0:
                continue
            k_local = eligible[int(np.argmin(s_near[eligible]))]
            s_min = float(s_near[k_local])
            if best is None or s_min < best[0]:
                k_idx = int(np.flatnonzero(mask)[np.flatnonzero(near)[k_local]])
                best = (s_min, fd, uc, e, lam0, k_idx)
        if best is not None:
            s_star, fd, uc, e, lam0, k_idx = best
            n_close = sum(int(np.sum(arr <= s_star + EPS_DOUBLE)) for arr in runner_arrays)
            return (s_star, fd, uc, e, lam0, k_idx, q, base, n_close > 1)
        # Overlap consecutive windows so a root within MIN_FLIGHT of the
        # boundary cannot be skipped by the minimum-flight guard.
        step = w if w <= 2e-10 else w - 1e-10
        q = np.mod(q + step * v, 1.0)
        base += step
    return None


def _build_event(raw, v: np.ndarray, time_offset: float) -> CollisionEvent:
    s_rel, fd, uc, e, lam0, k_idx, q_window, base, near_double = raw
    q_hit_raw = q_window + s_rel * v
    rad_c = (e - fd.offsets_c[k_idx]) + s_rel * uc
    radial = rad_c @ fd.onb
    normal = radial / np.sqrt(float(radial @ radial))
    vn = float(v @ normal)
    cos_phi = -vn
    shift = np.floor(q_hit_raw)
    lam_amb = (lam0 + fd.offsets_c[k_idx]) @ fd.onb - fd.cyl.base_projector @ shift
    return CollisionEvent(
        time=time_offset + base + s_rel,
        cylinder_index=fd.index,
        q_hit=q_hit_raw - shift,
        lattice_offset=lam_amb,
        normal=normal,
        v_pre=np.array(v),
        v_post=v - 2.0 * vn * normal,
        cos_phi=cos_phi,
        cylinder=fd.cyl,
        grazing=bool(cos_phi < EPS_TANG),
        near_double=near_double,
    )


def next_collision(x: PhasePoint, table: BilliardTable, t_max: float) -> CollisionEvent | None:
    """First collision of the flight starting at x, searched up to t_max.

    Raises StartsInsideScatterer when x sits strictly inside a cylinder.
    Grazing and near-double candidates are flagged inside the returned event.
    """
    _check_outside(x, table)
    raw = _first_collision(x.q, x.v, table, t_max)
    if raw is None:
        return None
    return _build_event(raw, np.asarray(x.v, dtype=float), 0.0)


def _check_outside(x: PhasePoint, table: BilliardTable) -> None:
    for i, cyl in enumerate(table.cylinders, start=1):
        dist, _ = cylinder_distance(x.q, cyl)
        if dist < cyl.radius - INSIDE_TOL:
            raise StartsInsideScatterer(
                f"start point is {cyl.radius - dist:.3e} inside cylinder {i}"
            )


def _boundary_lift(q: np.ndarray, v: np.ndarray, table: BilliardTable) -> np.ndarray:
    """Identify incoming with outgoing states on the boundary: a start point
    sitting on a scatterer with inward radial velocity is reflected, so that
    time reversal at a collision endpoint retraces the orbit instead of
    tunneling through the tube."""
    for cyl in table.cylinders:
        dist, offset = cylinder_distance(q, cyl)
        if abs(dist - cyl.radius) <= INSIDE_TOL and dist > 0:
            normal = (cyl.base_projector @ (q - cyl.translation) - offset) / dist
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
    _check_outside(x, table)

    q = np.array(x.q, dtype=float)
    v = _boundary_lift(q, np.array(x.v, dtype=float), table)
    disp = np.zeros_like(q)
    elapsed = 0.0
    events: list[CollisionEvent] = []
    flag: SingularFlag | None = None

    while True:
        remaining = duration - elapsed
        if remaining <= 0:
            break
        raw = _first_collision(q, v, table, remaining)
        if raw is None:
            disp += remaining * v
            q = np.mod(q + remaining * v, 1.0)
            elapsed = duration
            break
        ev = _build_event(raw, v, elapsed)
        dt = ev.time - elapsed
        disp += dt * v
        elapsed = ev.time
        events.append(ev)
        q = np.array(ev.q_hit)
        if ev.grazing:
            flag = SingularFlag(TANGENTIAL, len(events) - 1)
            break
        if ev.near_double:
            flag = SingularFlag(DOUBLE, len(events) - 1)
            break
        v = np.array(ev.v_post)
        if len(events) >= max_events and elapsed < duration:
            flag = SingularFlag(BUDGET_EXCEEDED, len(events) - 1)
            break

    return OrbitSegment(
        start=x,
        duration=elapsed,
        events=tuple(events),
        symbolic=tuple(e.cylinder_index for e in events),
        singular_flag=flag,
        end=PhasePoint(q, v),
        end_unwrapped=x.q + disp,
        table=table,
    )
