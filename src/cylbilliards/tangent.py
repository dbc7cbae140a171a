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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityEncountered, TangentialEvent
from .flow import (
    BUDGET_EXCEEDED,
    EPS_TANG,
    CollisionEvent,
    OrbitSegment,
    PhasePoint,
    evolve,
    random_phase_point,
)
from .geometry import BilliardTable


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
class CollisionOperators:
    """Matrices of the collision derivative in the ambient frame."""

    R: np.ndarray
    V: np.ndarray
    K: np.ndarray
    cos_phi: float
    gain: np.ndarray  # G = 2 cos_phi R V^T K V


def collision_operators(event: CollisionEvent) -> CollisionOperators:
    """Assemble R, V, K and the gain G for a nonsingular event.

    V slides vectors onto the boundary tangent plane parallel to the incoming
    velocity; K is (P_base - nu nu^T)/r, positive semi-definite with the
    generator directions in its null space. Since R nu = -nu and K nu = 0,
    the outgoing slide gives the same gain, so G serves the forward step
    (dq, dv) -> (R dq, R dv + G dq), its inverse, whose gain is R G R, and
    the adjoint step on normal vectors.
    """
    cos_phi = event.cos_phi
    if cos_phi <= EPS_TANG:
        raise TangentialEvent(f"cos_phi = {cos_phi:.3e} at event on cylinder {event.cylinder_index}")
    nu = event.normal
    eye = np.eye(nu.shape[0])
    R = eye - 2.0 * np.outer(nu, nu)
    V = eye + np.outer(event.v_pre, nu) / cos_phi
    K = (event.cylinder.base_projector - np.outer(nu, nu)) / event.cylinder.radius
    gain = 2.0 * cos_phi * R @ V.T @ K @ V
    return CollisionOperators(R=R, V=V, K=K, cos_phi=cos_phi, gain=gain)


def free_flight_derivative(tv: TangentVector, t: float) -> TangentVector:
    return TangentVector(tv.dq + t * tv.dv, tv.dv)


def collision_derivative(tv: TangentVector, ops: CollisionOperators,
                         inverse: bool = False) -> TangentVector:
    """Apply the collision derivative (or its exact inverse) to one vector."""
    dq = ops.R @ tv.dq
    if inverse:
        return TangentVector(dq, ops.R @ (tv.dv - ops.gain @ dq))
    return TangentVector(dq, ops.R @ tv.dv + ops.gain @ tv.dq)


# Row-stacked frame versions used by the Lyapunov and neutral-space code.

def flight_frame(dqs: np.ndarray, dvs: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    return dqs + t * dvs, dvs


def collide_frame(dqs: np.ndarray, dvs: np.ndarray, ops: CollisionOperators,
                  inverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    # R is symmetric, so row-stacked vectors transform by right-multiplication.
    dqs_out = dqs @ ops.R
    if inverse:
        return dqs_out, (dvs - dqs_out @ ops.gain.T) @ ops.R
    return dqs_out, dvs @ ops.R + dqs @ ops.gain.T


def segment_operators(segment: OrbitSegment) -> list[CollisionOperators]:
    return [collision_operators(e) for e in segment.events]


def evolve_tangent(tv: TangentVector, segment: OrbitSegment) -> TangentVector:
    """Transport a tangent vector across the whole segment."""
    dqs = np.atleast_2d(np.asarray(tv.dq, dtype=float))
    dvs = np.atleast_2d(np.asarray(tv.dv, dtype=float))
    dqs, dvs = evolve_frame(dqs, dvs, segment)
    return TangentVector(dqs[0], dvs[0])


def evolve_frame(dqs: np.ndarray, dvs: np.ndarray, segment: OrbitSegment,
                 ops_list: list[CollisionOperators] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Transport a row-stacked frame across the whole segment."""
    if ops_list is None:
        ops_list = segment_operators(segment)
    for event, ops in zip(segment.events, ops_list):
        dqs, dvs = flight_frame(dqs, dvs, event.flight)
        dqs, dvs = collide_frame(dqs, dvs, ops)
    return flight_frame(dqs, dvs, segment.tail)


def evolve_normal(n: NormalVector, segment: OrbitSegment,
                  rescale: bool = False) -> list[tuple[float, NormalVector, float]]:
    """Transport a separating-manifold normal vector along the segment.

    Returns samples (time, vector, q_value) at the segment start, before and
    after every collision, and at the segment end. During a flight of length
    t the pair evolves as (z, w - t z), so q_value drops by exactly t|z|^2;
    across a collision it can only decrease.

    Components of n grow roughly like the tangent dynamics, so double
    precision overflows after a few hundred collisions. With ``rescale=True``
    the vector is renormalized after each collision and the renormalized
    state is appended as an extra sample at the same time stamp; rescaling is
    by a positive factor, so the sign of q_value is unaffected. The sample
    pattern is then (start, [pre, post, renorm]*, end).
    """
    z = np.asarray(n.z, dtype=float).copy()
    w = np.asarray(n.w, dtype=float).copy()
    samples = [(0.0, normal_vector(z, w), float(z @ w))]
    for event in segment.events:
        w = w - event.flight * z
        nv = normal_vector(z, w)
        samples.append((event.time, nv, nv.q_value))
        ops = collision_operators(event)
        z, w = ops.R @ z - ops.gain @ w, ops.R @ w
        nv = normal_vector(z, w)
        samples.append((event.time, nv, nv.q_value))
        if rescale:
            scale = float(np.sqrt(z @ z + w @ w))
            if scale > 0:
                # Fresh arrays: recorded samples must not alias the live state.
                z = z / scale
                w = w / scale
            nv = normal_vector(z, w)
            samples.append((event.time, nv, nv.q_value))
    w = w - segment.tail * z
    nv = normal_vector(z, w)
    samples.append((segment.duration, nv, nv.q_value))
    return samples


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
    carrying the partial report.
    """
    if x is None:
        x = random_phase_point(table, np.random.default_rng([seed, 0x5eed]))
    segment = evolve(x, table, duration, max_events=max_events)

    d = table.dim
    m = 2 * d - 2
    basis = _orthonormal_to(x.v)
    dqs = np.vstack([basis, np.zeros_like(basis)])
    dvs = np.vstack([np.zeros_like(basis), basis])
    rng = np.random.default_rng([seed, 1])
    mix = np.linalg.qr(rng.normal(size=(m, m)))[0]
    dqs = mix @ dqs
    dvs = mix @ dvs

    logs = np.zeros(m)
    renorms = 0
    since_renorm = 0
    v_cur = np.array(x.v)
    # Beyond this frame growth the contracting directions start drowning in
    # rounding noise, so renormalize early regardless of the interval.
    growth_cap = 1e4
    for event in segment.events:
        dqs, dvs = flight_frame(dqs, dvs, event.flight)
        dqs, dvs = collide_frame(dqs, dvs, collision_operators(event))
        v_cur = event.v_post
        since_renorm += 1
        if (since_renorm >= renorm_interval or abs(dqs).max() > growth_cap
                or abs(dvs).max() > growth_cap):
            dqs, dvs, logs = _renormalize(dqs, dvs, logs, v_cur)
            renorms += 1
            since_renorm = 0
    dqs, dvs = flight_frame(dqs, dvs, segment.tail)
    dqs, dvs, logs = _renormalize(dqs, dvs, logs, v_cur)
    renorms += 1

    exponents = tuple(sorted((logs / segment.duration).tolist(), reverse=True))
    report = LyapunovReport(
        exponents=exponents,
        duration=segment.duration,
        renorm_count=renorms,
        seed=seed,
        n_events=segment.n_events,
    )
    if segment.singular_flag is not None:
        kind = segment.singular_flag.kind
        if kind == BUDGET_EXCEEDED:
            msg = f"event budget {max_events} exhausted at t = {segment.duration:.6g}"
        else:
            msg = f"{kind} singularity at t = {segment.duration:.6g}"
        raise SingularityEncountered(msg, partial_report=report)
    return report


def _orthonormal_to(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the hyperplane orthogonal to v."""
    _, _, vt = np.linalg.svd(v[None, :] / np.linalg.norm(v))
    return vt[1:]


def _renormalize(dqs: np.ndarray, dvs: np.ndarray, logs: np.ndarray,
                 v_cur: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Squash rounding drift out of the transversal space, then QR.
    dqs = dqs - np.outer(dqs @ v_cur, v_cur)
    dvs = dvs - np.outer(dvs @ v_cur, v_cur)
    mat = np.hstack([dqs, dvs]).T
    q_fac, r_fac = np.linalg.qr(mat)
    diag = np.diag(r_fac)
    signs = np.where(diag < 0, -1.0, 1.0)
    q_fac = q_fac * signs
    logs = logs + np.log(np.abs(diag))
    d = dqs.shape[1]
    return q_fac[:d].T, q_fac[d:].T, logs
