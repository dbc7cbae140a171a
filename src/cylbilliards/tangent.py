"""Linearized billiard flow and the infinitesimal Lyapunov function.

Free flight transports tangent vectors by the shear (dq, dv) -> (dq + t dv,
dv). At a collision the derivative is assembled from the reflection R across
the boundary tangent plane, the flight-direction slide V onto that plane (and
its adjoint), and the second fundamental form K of the cylinder, which is
1/r on the spherical directions and zero along the generator. Normal vectors
(z, w) of separating manifolds evolve by the adjoint laws, and the quadratic
form <z, w> is non-increasing along the forward flow: exactly conserved minus
t|z|^2 during flight, and losing a positive semi-definite term at each
collision.

One collision algebra builds R, V, K and the gain of up to BLOCK events at a
time as stacked arrays, so its memory is O(BLOCK d^2) on any segment. One
transport loop carries 2d-wide rows [dq | dv] through a segment: an in-place
shear per flight, one product with a 2d x 2d step matrix per collision.
Frames, Lyapunov spectra and the derivative-kernel neutral space run through
it, and so do normal vectors as rows [w | -z], on which the adjoint law is
the tangent law. A normal-vector run returns its samples as read-only
columns (time, z, w, q_value), one row per sample; the per-sample
(time, NormalVector, q_value) tuples are built only when a caller indexes
or iterates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SingularityEncountered, TangentialEvent
from .flow import (
    BUDGET_EXCEEDED,
    EPS_TANG,
    CollisionEvent,
    OrbitSegment,
    PhasePoint,
    evolve,
    flight_table,
    is_singular,
    random_phase_point,
)
from .geometry import BilliardTable
from .linalg import span_split

# Events per block of the stacked collision algebra.
BLOCK = 64


@dataclass(frozen=True, eq=False)
class TangentVector:
    dq: np.ndarray
    dv: np.ndarray


@dataclass(frozen=True, eq=False)
class NormalVector:
    z: np.ndarray
    w: np.ndarray
    q_value: float


def normal_vector(z, w) -> NormalVector:
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    return NormalVector(z, w, float(z @ w))


@dataclass(frozen=True, eq=False)
class NormalSamples:
    """The samples of a normal-vector run stored as read-only columns: entry
    k of each (N,) column and row k of each (N, d) column belong to sample
    k. ``samples`` builds the (time, NormalVector, q_value) tuples, whose
    arrays are row views of the columns, on first use; indexing and
    iteration go through it, and ``len`` is N."""

    time: np.ndarray  # (N,)
    z: np.ndarray  # (N, d)
    w: np.ndarray  # (N, d)
    q_value: np.ndarray  # (N,) <z, w> of each sample

    @cached_property
    def samples(self) -> tuple[tuple[float, NormalVector, float], ...]:
        return tuple((t, NormalVector(z, w, q), q)
                     for t, z, w, q in zip(self.time.tolist(), self.z, self.w, self.q_value.tolist()))

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index):
        return self.samples[index]

    def __iter__(self):
        return iter(self.samples)


def _require_width(segment: OrbitSegment, **arrays) -> None:
    """DimensionMismatch unless the last axis of each named array has the
    length of the segment's table dimension."""
    d = segment.table.dim
    for name, array in arrays.items():
        if np.shape(array)[-1:] != (d,):
            raise DimensionMismatch(f"{name} has shape {np.shape(array)}, the segment's table has dimension {d}")


@dataclass(frozen=True, eq=False)
class CollisionOperators:
    """Matrices of the collision derivative in the ambient frame."""

    R: np.ndarray
    V: np.ndarray
    K: np.ndarray
    cos_phi: float
    gain: np.ndarray  # G = 2 cos_phi R V^T K V


def _collision_blocks(normal, v_pre, cos_phi, cylinder_id, projectors, radii):
    """R, V, K, cos_phi and G of consecutive blocks of at most BLOCK events,
    stacked along a leading event axis. The events come as columns;
    ``cylinder_id`` indexes the per-cylinder base projectors (k, d, d) and
    radii (k,). Raises TangentialEvent at the first grazing event of a
    block, before the block is built.

    V slides vectors onto the boundary tangent plane parallel to the incoming
    velocity; K is (P_base - nu nu^T)/r, positive semi-definite with the
    generator directions in its null space. Since R nu = -nu and K nu = 0,
    the outgoing slide gives the same gain, so G serves the forward step
    (dq, dv) -> (R dq, R dv + G dq), its inverse, whose gain is R G R, and
    the adjoint step on normal vectors.
    """
    eye = np.eye(normal.shape[1])
    for start in range(0, len(cos_phi), BLOCK):
        stop = start + BLOCK
        c = cos_phi[start:stop]
        grazing = (c <= EPS_TANG).nonzero()[0]
        if grazing.size:
            j = int(grazing[0])
            raise TangentialEvent(f"cos_phi = {c[j]:.3e} at event {start + j}")
        nu = normal[start:stop]
        ids = cylinder_id[start:stop]
        nn = nu[:, :, None] * nu[:, None, :]
        R = eye - 2.0 * nn
        V = eye + v_pre[start:stop, :, None] * nu[:, None, :] / c[:, None, None]
        K = (projectors[ids] - nn) / radii[ids][:, None, None]
        G = (2.0 * c)[:, None, None] * (R @ V.transpose(0, 2, 1) @ K @ V)
        yield R, V, K, c, G


def _segment_blocks(segment: OrbitSegment, stop: int | None = None):
    """The stacked algebra of the segment's first ``stop`` events (all by
    default), read from its columns."""
    ft = flight_table(segment.table)
    return _collision_blocks(segment.normal[:stop], segment.v_pre[:stop], segment.cos_phi[:stop],
                             segment.cylinder_id[:stop], ft.projectors, ft.radius)


def collision_operators(event: CollisionEvent) -> CollisionOperators:
    """R, V, K and the gain G of one nonsingular event: a one-event block of
    the stacked algebra."""
    cyl = event.cylinder
    R, V, K, cos_phi, G = next(_collision_blocks(
        np.asarray(event.normal, dtype=float)[None], np.asarray(event.v_pre, dtype=float)[None],
        np.array([event.cos_phi]), np.zeros(1, dtype=int), cyl.base_projector[None], np.array([cyl.radius])))
    return CollisionOperators(R=R[0], V=V[0], K=K[0], cos_phi=float(cos_phi[0]), gain=G[0])


def segment_operators(segment: OrbitSegment) -> list[CollisionOperators]:
    return [CollisionOperators(R=R, V=V, K=K, cos_phi=float(c), gain=G)
            for block in _segment_blocks(segment) for R, V, K, c, G in zip(*block)]


def free_flight_derivative(tv: TangentVector, t: float) -> TangentVector:
    return TangentVector(tv.dq + t * tv.dv, tv.dv)


def collision_derivative(tv: TangentVector, ops: CollisionOperators,
                         inverse: bool = False) -> TangentVector:
    """Apply the collision derivative (or its exact inverse) to one vector."""
    dq = ops.R @ tv.dq
    if inverse:
        return TangentVector(dq, ops.R @ (tv.dv - ops.gain @ dq))
    return TangentVector(dq, ops.R @ tv.dv + ops.gain @ tv.dq)


def transport(x: np.ndarray, segment: OrbitSegment, visit=None, stop: int | None = None,
              ops_list: list[CollisionOperators] | None = None) -> np.ndarray:
    """Carry 2d-wide tangent rows [dq | dv] through the segment's flights,
    their collisions (stacked from ``ops_list`` if given) and its tail. With
    ``stop`` the rows stop just before collision ``stop``, after the flight
    into it. ``visit(k, pre, post, step)`` sees the rows around collision k
    and returns the rows to carry on."""
    x = np.array(x, dtype=float)
    d = x.shape[-1] // 2
    if ops_list is None:
        blocks = ((R, G) for R, _, _, _, G in _segment_blocks(segment, stop))
    else:
        blocks = (([o.R for o in ops_list[s:s + BLOCK]], [o.gain for o in ops_list[s:s + BLOCK]])
                  for s in range(0, len(ops_list), BLOCK))
    flights = segment.flight[:stop].tolist()
    k = 0
    for R, G in blocks:
        # The row action x -> x @ [[R, G^T], [0, R]] (R is symmetric).
        steps = np.zeros((len(R), 2 * d, 2 * d))
        steps[:, :d, :d] = steps[:, d:, d:] = R
        steps[:, :d, d:] = np.transpose(G, (0, 2, 1))
        for step in steps:
            x[..., :d] += flights[k] * x[..., d:]
            post = x @ step
            x = post if visit is None else visit(k, x, post, step)
            k += 1
    x[..., :d] += (segment.tail if stop is None else float(segment.flight[stop])) * x[..., d:]
    return x


def evolve_tangent(tv: TangentVector, segment: OrbitSegment) -> TangentVector:
    """Transport a tangent vector across the whole segment. Raises
    DimensionMismatch unless dq and dv have the table's dimension."""
    _require_width(segment, dq=tv.dq, dv=tv.dv)
    dqs, dvs = evolve_frame(np.atleast_2d(tv.dq), np.atleast_2d(tv.dv), segment)
    return TangentVector(dqs[0], dvs[0])


def evolve_frame(dqs: np.ndarray, dvs: np.ndarray, segment: OrbitSegment,
                 ops_list: list[CollisionOperators] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Transport a row-stacked frame across the whole segment. Raises
    DimensionMismatch unless its rows have the table's dimension."""
    _require_width(segment, dq=dqs, dv=dvs)
    return tuple(np.hsplit(transport(np.hstack([dqs, dvs]), segment, ops_list=ops_list), 2))


def evolve_normal(n: NormalVector, segment: OrbitSegment, rescale: bool = False) -> NormalSamples:
    """Transport a separating-manifold normal vector along the segment.

    Returns NormalSamples: columns time, z, w and q_value with one row per
    sample, taken at the segment start, before and after every collision,
    and at the segment end. During a flight of length t the pair evolves as
    (z, w - t z), so q_value drops by exactly t|z|^2; across a collision it
    can only decrease. Indexing or iterating the result gives the samples as
    (time, NormalVector, q_value) tuples. Raises DimensionMismatch unless z
    and w have the table's dimension.

    Components of n grow roughly like the tangent dynamics, so double
    precision overflows after one to a few hundred collisions (about 110 on
    the 2-torus disc table of radius 0.2). With ``rescale=True``
    the vector is renormalized after each collision and the renormalized
    state is appended as an extra sample at the same time stamp; rescaling is
    by a positive factor, so the sign of q_value is unaffected. The sample
    pattern is then (start, [pre, post, renorm]*, end).
    """
    _require_width(segment, z=n.z, w=n.w)
    d = segment.table.dim
    per = 3 if rescale else 2
    # The adjoint step [[R, -G], [0, R]] on (z, w) is the tangent step on
    # (w, -z), so the rows are [w | -z]; each sample gets its own row.
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
    z, w = rows[:, d:], rows[:, :d]
    columns = dict(time=np.concatenate([[0.0], np.repeat(segment.time, per), [segment.duration]]),
                   z=z, w=w, q_value=np.einsum("ij,ij->i", z, w))
    for column in columns.values():
        column.flags.writeable = False
    return NormalSamples(**columns)


def time_reverse(obj):
    """Velocity-reversal involution: (q, v) -> (q, -v) and (z, w) -> (z, -w)."""
    if isinstance(obj, PhasePoint):
        return PhasePoint(obj.q, -obj.v)
    if isinstance(obj, NormalVector):
        return normal_vector(obj.z, -obj.w)
    raise TypeError(f"cannot time-reverse {type(obj).__name__}")


@dataclass(frozen=True, eq=False)
class LyapunovReport:
    exponents: tuple[float, ...]
    duration: float
    renorm_count: int
    seed: int
    n_events: int

    @property
    def top(self) -> float:
        return self.exponents[0]

    @property
    def exponent_sum(self) -> float:
        return float(sum(self.exponents))


def lyapunov_spectrum(x: PhasePoint | None, table: BilliardTable, duration: float,
                      renorm_interval: int = 5, seed: int = 0,
                      max_events: int = 10**6) -> LyapunovReport:
    """Finite-time Lyapunov exponents of the reduced transversal space.

    An orthonormal frame of dimension 2d - 2 (both components orthogonal to
    the velocity) is transported by the exact derivative flow and
    re-orthonormalized by QR every ``renorm_interval`` collisions, summing
    log stretching factors. When ``x`` is None a start point is
    rejection-sampled from ``seed``; the initial frame mix is seeded either
    way, so the run is deterministic given (x, seed).

    A singularity or event-budget flag aborts with ``SingularityEncountered``
    carrying the partial report. A tangential or double event has no
    derivative, so transport stops just before it, after the flight into it.
    Raises ValueError unless duration > 0 and renorm_interval >= 1, and
    DimensionMismatch unless x has the table's dimension.
    """
    if not duration > 0:
        raise ValueError(f"duration = {duration} is not positive")
    if renorm_interval < 1:
        raise ValueError(f"renorm_interval = {renorm_interval} is below 1")
    if x is None:
        x = random_phase_point(table, np.random.default_rng([seed, 0x5eed]))
    segment = evolve(x, table, duration, max_events=max_events)
    flag = segment.singular_flag
    stop = flag.event_index if flag is not None and is_singular(flag.kind) else None
    v_post = segment.v_post[:stop]

    d = table.dim
    m = 2 * d - 2
    # Orthonormal rows spanning the hyperplane orthogonal to v.
    basis = span_split(x.v[None, :] / np.linalg.norm(x.v), 1)[1]
    frame = np.zeros((m, 2 * d))
    frame[:d - 1, :d] = frame[d - 1:, d:] = basis
    frame = np.linalg.qr(np.random.default_rng([seed, 1]).normal(size=(m, m)))[0] @ frame

    logs = np.zeros(m)
    renorms = since_renorm = 0
    # Beyond this frame growth the contracting directions start drowning in
    # rounding noise, so renormalize early regardless of the interval.
    growth_cap = 1e4

    def renormalize(k, pre, post, step):
        nonlocal logs, renorms, since_renorm
        since_renorm += 1
        if since_renorm >= renorm_interval or abs(post).max() > growth_cap:
            post, logs = _renormalize(post, logs, v_post[k])
            renorms += 1
            since_renorm = 0
        return post

    frame = transport(frame, segment, visit=renormalize, stop=stop)
    _, logs = _renormalize(frame, logs, v_post[-1] if len(v_post) else np.asarray(x.v))
    renorms += 1

    exponents = tuple(sorted((logs / segment.duration).tolist(), reverse=True))
    report = LyapunovReport(exponents=exponents, duration=segment.duration, renorm_count=renorms,
                            seed=seed, n_events=len(v_post))
    if flag is not None:
        cause = f"event budget {max_events} exhausted" if flag.kind == BUDGET_EXCEEDED else f"{flag.kind} singularity"
        raise SingularityEncountered(f"{cause} at t = {segment.duration:.6g}", partial_report=report)
    return report


def _renormalize(frame: np.ndarray, logs: np.ndarray, v_cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Squash rounding drift out of the transversal space, then QR.
    halves = frame.reshape(frame.shape[0], 2, -1)
    halves = halves - (halves @ v_cur)[..., None] * v_cur
    q_fac, r_fac = np.linalg.qr(halves.reshape(frame.shape).T)
    diag = np.diag(r_fac)
    signs = np.where(diag < 0, -1.0, 1.0)
    return (q_fac * signs).T, logs + np.log(np.abs(diag))
