"""Independent output checks for the benchmark.

Nothing in this module imports the package. Every check recomputes what it
needs from the integer table specs (generator rows, translations, radii) or
from recorded outputs alone, so a fault in the package cannot hide itself:

- Santalo's mean-free-path formula for the collision rate;
- a brute-force flight oracle over explicit integer translates, with its own
  base projectors built from the integer generators;
- per-event invariants (specular law, unit normal orthogonal to the axis,
  speed drift, flight consistency);
- Lyapunov pairing, a zero exponent sum and a positive top exponent;
- the Q-form laws of the normal-vector transport;
- neutral-space invariants (velocity and the span complement are neutral).

``selftest()`` exercises the oracles on hand-made cases and runs before any
workload.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances of the per-event checks.
SPECULAR_TOL = 1e-12
SPEED_TOL = 1e-9
FLIGHT_TOL = 1e-8
# Time agreement between the oracle's first hit and the recorded event.
HIT_TIME_TOL = 1e-9
# A flight "enters" a tube only if it dips below r by more than this depth.
ENTRY_DEPTH = 1e-9
# The oracle enumerates translates along pieces of a flight at most this long.
PIECE = 0.5
# Neutral-space membership tolerance.
NEUTRAL_TOL = 1e-7
# Santalo: the run's relative error must stay below
# SANTALO_K * sqrt(ln(flights) / flights); the log allows for the
# heavy-tailed free paths of infinite-horizon tables.
SANTALO_K = 4.0


class CheckFailed(Exception):
    """An output disagrees with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Table geometry from integer data
# ---------------------------------------------------------------------------


def base_projector(gens, dim: int) -> np.ndarray:
    """Orthogonal projector onto the complement of the integer generator rows."""
    g = np.asarray(gens, dtype=float).reshape(-1, dim)
    if g.shape[0] == 0:
        return np.eye(dim)
    return np.eye(dim) - g.T @ np.linalg.solve(g @ g.T, g)


def ball_volume(k: int) -> float:
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


def sphere_area(k: int) -> float:
    """Area of the unit sphere S^{k-1} in R^k."""
    return 2 * math.pi ** (k / 2) / math.gamma(k / 2)


def santalo_mean_free_time(dim: int, cylinders) -> float:
    """<tau> = |Q| |S^{d-1}| / (|dQ| |B^{d-1}|) at unit speed (Chernov 1997).

    ``cylinders`` holds (generator_rows, radius) of pairwise disjoint tubes
    whose generator rows are a basis of the axis lattice; a tube with an
    m-dimensional base has volume |B^m| r^m and boundary |S^{m-1}| r^{m-1},
    both times the covolume of its axis subtorus.
    """
    vol, area = 1.0, 0.0
    for gens, r in cylinders:
        g = np.asarray(gens, dtype=float).reshape(-1, dim)
        m = dim - g.shape[0]
        covol = math.sqrt(np.linalg.det(g @ g.T)) if g.shape[0] else 1.0
        vol -= ball_volume(m) * r**m * covol
        area += sphere_area(m) * r ** (m - 1) * covol
    return vol * sphere_area(dim) / (area * ball_volume(dim - 1))


def santalo_check(name: str, measured: float, expected: float, flights: int) -> str:
    """Compare a measured mean free path with Santalo's value."""
    require(flights >= 100, f"{name}: only {flights} flights for the Santalo check")
    rel = measured / expected - 1.0
    tol = SANTALO_K * math.sqrt(math.log(flights) / flights)
    require(abs(rel) <= tol,
            f"{name}: mean free path {measured:.5g} vs Santalo {expected:.5g} "
            f"({rel:+.2%}, tolerance {tol:.2%} at {flights} flights)")
    return f"{name}: mean free path {measured:.5g} vs Santalo {expected:.5g} ({rel:+.2%}, tol {tol:.1%}, {flights} flights)"


# ---------------------------------------------------------------------------
# Brute-force first-collision oracle
# ---------------------------------------------------------------------------


class FlightOracle:
    """First tube entry along a straight flight, by explicit integer translates.

    Each tube is {x : |P (x - t - n)| < r for some n in Z^d}. A translate class
    that the flight can touch has a representative n within
    H = sqrt(r^2 + mu^2) of the flight in every coordinate, where mu bounds the
    covering radius of the generator lattice (half the root sum of squared
    generator lengths). Coordinates that P ignores (unit vectors inside the
    axis) are fixed at 0. Every candidate's distance quadratic is solved in
    closed form.
    """

    def __init__(self, dim: int, cylinders):
        self.dim = dim
        self.tubes = []
        for gens, translation, r in cylinders:
            g = np.asarray(gens, dtype=float).reshape(-1, dim)
            proj = base_projector(g, dim)
            mu = 0.5 * math.sqrt(float(np.sum(g * g)))
            keep = np.flatnonzero(np.linalg.norm(proj, axis=0) > 1e-12)
            self.tubes.append((proj, np.asarray(translation, dtype=float), float(r),
                               math.sqrt(r * r + mu * mu), keep))

    def _candidates(self, tube, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        _, _, _, reach, keep = tube
        lo = np.floor(np.minimum(y0, y1)[keep] - reach).astype(int)
        hi = np.ceil(np.maximum(y0, y1)[keep] + reach).astype(int)
        axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(keep))
        n = np.zeros((grid.shape[0], self.dim))
        n[:, keep] = grid
        return n

    def first_entry(self, q0, v, t_max: float):
        """Earliest entering time in (0, t_max] as (time, 1-based cylinder),
        or None. Raises CheckFailed when q0 lies inside a tube. Long flights
        are cut into pieces of length PIECE so each box stays small."""
        q0 = np.asarray(q0, dtype=float)
        v = np.asarray(v, dtype=float)
        pieces = max(1, math.ceil(t_max / PIECE))
        for j in range(pieces):
            s0, s1 = t_max * j / pieces, t_max * (j + 1) / pieces
            lo = HIT_TIME_TOL if j == 0 else s0
            hi = s1 + (HIT_TIME_TOL if j == pieces - 1 else 0.0)
            best = None
            for idx, tube in enumerate(self.tubes, start=1):
                hit = self._entry(tube, idx, q0, v, s0, s1, lo, hi, check_start=j == 0)
                if hit is not None and (best is None or hit < best[0]):
                    best = (hit, idx)
            if best is not None:
                return best
        return None

    def _entry(self, tube, idx, q0, v, s0, s1, lo, hi, check_start):
        proj, trans, r, _, _ = tube
        y0 = q0 - trans
        n = self._candidates(tube, y0 + s0 * v, y0 + s1 * v)
        rel = (y0 - n) @ proj  # P is symmetric
        pv = proj @ v
        a = float(pv @ pv)
        c = np.einsum("ij,ij->i", rel, rel) - r * r
        if check_start:
            require(bool(np.all(c > -2 * ENTRY_DEPTH * r)), f"flight starts inside cylinder {idx}")
        if a < 1e-28:
            return None
        b = rel @ pv
        # Closest approach below r by more than ENTRY_DEPTH, approaching.
        dips = (c - b * b / a < -2 * ENTRY_DEPTH * r) & (b < 0)
        if not dips.any():
            return None
        disc = np.sqrt(np.maximum(b[dips] ** 2 - a * c[dips], 0.0))
        s = (-b[dips] - disc) / a
        s = s[(s > lo) & (s <= hi)]
        return float(s.min()) if s.size else None

    def distance_to_axis(self, q, cylinder_index: int) -> float:
        proj, trans, _, _, _ = self.tubes[cylinder_index - 1]
        y = np.asarray(q, dtype=float) - trans
        n = self._candidates(self.tubes[cylinder_index - 1], y, y)
        rel = (y - n) @ proj
        return float(np.sqrt(np.min(np.einsum("ij,ij->i", rel, rel))))


def check_flight(oracle: FlightOracle, q0, v, duration: float, q_hit, cylinder_index: int) -> None:
    """The recorded flight (q0, v) -> q_hit after ``duration`` on
    ``cylinder_index`` is the first tube entry and ends on the tube."""
    hit = oracle.first_entry(q0, v, duration)
    require(hit is not None, f"oracle finds no entry within the recorded flight of {duration:.6g}")
    s, idx = hit
    require(s >= duration - HIT_TIME_TOL * max(1.0, duration),
            f"oracle: cylinder {idx} entered at {s:.12g}, before the recorded event at {duration:.12g}")
    require(idx == cylinder_index,
            f"oracle: first entry on cylinder {idx}, recorded {cylinder_index}")
    r = oracle.tubes[cylinder_index - 1][2]
    dist = oracle.distance_to_axis(q_hit, cylinder_index)
    require(abs(dist - r) <= 1e-9, f"q_hit at distance {dist:.15g} from the axis, radius {r}")


# ---------------------------------------------------------------------------
# Per-event, Lyapunov, Q-form and neutral-space invariants
# ---------------------------------------------------------------------------


def torus_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = np.abs(np.mod(a - b + 0.5, 1.0) - 0.5)
    return diff.max(axis=-1)


def check_events(times, q_hit, normals, v_pre, v_post, cos_phi, cylinders, gen_units,
                 q_start=None, v_start=None, t_start: float = 0.0) -> None:
    """Specular law, unit normal orthogonal to the axis, speed drift, and
    straight flights between consecutive events (arrays, one row per event)."""
    if len(times) == 0:
        return
    vn = np.einsum("ij,ij->i", v_pre, normals)
    mirror = v_pre - 2.0 * vn[:, None] * normals
    require(float(np.abs(v_post - mirror).max()) <= SPECULAR_TOL, "specular law violated")
    require(float(np.abs(np.linalg.norm(normals, axis=1) - 1).max()) <= SPECULAR_TOL,
            "collision normal is not a unit vector")
    for k, units in enumerate(gen_units):
        rows = cylinders == k + 1
        if units.shape[0] and rows.any():
            require(float(np.abs(normals[rows] @ units.T).max()) <= SPECULAR_TOL,
                    f"normal not orthogonal to the generators of cylinder {k + 1}")
    require(float(np.abs(np.linalg.norm(v_post, axis=1) - 1).max()) <= SPEED_TOL, "|v| drift above 1e-9")
    require(bool(np.all(cos_phi > 0)) and float(np.abs(cos_phi + vn).max()) <= SPECULAR_TOL,
            "cos(phi) disagrees with the incoming velocity and normal")
    require(bool(np.all(np.diff(times) > 0)), "event times do not increase")
    if len(times) > 1:
        dt = np.diff(times)
        pred = q_hit[:-1] + dt[:, None] * v_post[:-1]
        require(float(torus_gap(pred, q_hit[1:]).max()) <= FLIGHT_TOL * (1 + dt.max()),
                "consecutive events are not joined by a straight flight")
        require(bool(np.all(np.abs(v_pre[1:] - v_post[:-1]).max(axis=1) == 0)),
                "velocity changed between collisions")
    if q_start is not None:
        dt0 = times[0] - t_start
        gap = torus_gap(np.asarray(q_start) + dt0 * np.asarray(v_start), q_hit[0])
        require(float(gap) <= FLIGHT_TOL * (1 + dt0), "first flight does not reach the first event")


def check_lyapunov(exponents, pair_tol: float, sum_tol: float | None) -> None:
    """Finite exponents, a positive top one, a sum within ``sum_tol`` of 0
    (not checked when None), and pairs lam_i + lam_{m+1-i} that cancel to
    within ``pair_tol``."""
    lam = np.asarray(exponents, dtype=float)
    require(bool(np.all(np.isfinite(lam))), "non-finite Lyapunov exponent")
    require(lam[0] > 0, f"top Lyapunov exponent {lam[0]:.4g} is not positive")
    if sum_tol is not None:
        require(abs(float(lam.sum())) <= sum_tol,
                f"Lyapunov exponent sum {lam.sum():.3g} (tolerance {sum_tol:.3g})")
    pairs = lam + lam[::-1]
    require(float(np.abs(pairs).max()) <= pair_tol,
            f"Lyapunov pairing off by {np.abs(pairs).max():.3g} (tolerance {pair_tol:.3g})")


def check_qform(samples, event_times, duration: float) -> None:
    """Q-form laws on evolve_normal(rescale=True) samples: the sample pattern
    is start, [pre, post, renorm] per collision, end. In flight (z, w) goes
    to (z, w - t z), so Q drops by exactly t|z|^2; across a collision Q never
    increases; renormalization keeps the sign of Q."""
    n = len(event_times)
    require(len(samples) == 3 * n + 2, f"{len(samples)} Q samples for {n} collisions")
    flights = [(samples[0], samples[1] if n else samples[-1])]
    flights += [(samples[3 * k + 3], samples[3 * k + 4] if k + 1 < n else samples[-1])
                for k in range(n)]
    for (t_a, a, _), (t_b, b, _) in flights:
        dt = t_b - t_a
        z_sq = float(a.z @ a.z)
        expected = a.q_value - dt * z_sq
        scale = abs(a.q_value) + dt * z_sq + float(np.abs(a.z).max() * np.abs(a.w).max())
        require(np.array_equal(a.z, b.z), "z changed during a flight")
        require(abs(b.q_value - expected) <= 1e-9 * max(scale, 1e-300),
                f"Q dropped by {a.q_value - b.q_value:.6g} in flight, expected {dt * z_sq:.6g}")
    for k in range(n):
        pre, post, ren = samples[3 * k + 1][1], samples[3 * k + 2][1], samples[3 * k + 3][1]
        scale = max(float(np.abs(x.z).max() * np.abs(x.w).max()) + abs(x.q_value) for x in (pre, post))
        require(post.q_value <= pre.q_value + 1e-9 * scale,
                f"Q increased at collision {k}: {pre.q_value:.6g} -> {post.q_value:.6g}")
        require(np.sign(ren.q_value) == np.sign(post.q_value) or post.q_value == 0,
                "renormalization changed the sign of Q")
    require(abs(samples[-1][0] - duration) <= 1e-12 * max(1.0, duration), "last Q sample off the segment end")


def neutral_lower_bound(start_v, basis, collided_gens, dim: int) -> None:
    """Neutral-space invariants: the start velocity and every direction
    orthogonal to all collided base spaces are neutral, so the neutral
    space holds their span."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))

    def residual(vec):
        return float(np.linalg.norm(vec - basis.T @ (basis @ vec)))

    require(residual(np.asarray(start_v)) <= NEUTRAL_TOL, "start velocity is not in the neutral space")
    stacked = sum(base_projector(g, dim) for g in collided_gens)
    _, s, vt = np.linalg.svd(stacked)
    complement = vt[s <= 1e-9 * max(1.0, s[0])]
    for a in complement:
        require(residual(a) <= NEUTRAL_TOL, "a direction outside the collided bases is not neutral")
    span = np.vstack([complement, np.asarray(start_v)[None, :]])
    require(basis.shape[0] >= np.linalg.matrix_rank(span, tol=1e-9),
            f"neutral dim {basis.shape[0]} below the invariant bound")


def principal_angle(a, b) -> float:
    """Largest principal angle between two row spaces of equal dimension."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    cosines = np.linalg.svd(a @ b.T, compute_uv=False)
    return float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))


# ---------------------------------------------------------------------------
# Self-test on hand-made cases
# ---------------------------------------------------------------------------


def selftest() -> None:
    """Run the oracles on cases worked out by hand; raise on any miss."""
    # Santalo for one disc of radius r in the 2-torus: (1 - pi r^2) / (2 r).
    for r in (0.1, 0.2, 0.3):
        got = santalo_mean_free_time(2, [([], r)])
        want = (1 - math.pi * r * r) / (2 * r)
        require(abs(got - want) <= 1e-12 * want, f"selftest: Santalo disc {got} vs {want}")
    # Two tubes along e1 and e2 in the 3-torus: (1 - 2 pi r^2) / (pi r).
    got = santalo_mean_free_time(3, [([[1, 0, 0]], 0.2), ([[0, 1, 0]], 0.2)])
    want = (1 - 2 * math.pi * 0.04) / (math.pi * 0.2)
    require(abs(got - want) <= 1e-12 * want, "selftest: Santalo tube pair")

    # Disc r = 0.2 at the origin; from (0.5, 0) moving along -e1 the flight
    # meets the disc at s = 0.3 in (0.2, 0).
    disc = FlightOracle(2, [([], [0.0, 0.0], 0.2)])
    hit = disc.first_entry([0.5, 0.0], [-1.0, 0.0], 1.0)
    require(hit is not None and abs(hit[0] - 0.3) <= 1e-12, f"selftest: disc entry {hit}")
    check_flight(disc, [0.5, 0.0], [-1.0, 0.0], 0.3, [0.2, 0.0], 1)
    # The same disc's translate at (1, 0) is met first from (0.7, 0) along +e1.
    check_flight(disc, [0.7, 0.0], [1.0, 0.0], 0.1, [0.8, 0.0], 1)
    # A recorded flight whose collision was dropped: from (0.5, 0.1) along -e1
    # for 0.8 it passes through the disc, so the oracle must object.
    try:
        check_flight(disc, [0.5, 0.1], [-1.0, 0.0], 0.8, [0.7, 0.1], 1)
    except CheckFailed:
        pass
    else:
        raise CheckFailed("selftest: the flight oracle missed a dropped collision")
    # Tube along e3 (radius 0.2 at the origin) in the 3-torus: a flight along
    # e3 never enters it, a flight along -e1 from (0.5, 0, 0.3) does at 0.3.
    tube = FlightOracle(3, [([[0, 0, 1]], [0.0, 0.0, 0.0], 0.2)])
    require(tube.first_entry([0.5, 0.0, 0.1], [0.0, 0.0, 1.0], 5.0) is None,
            "selftest: flight parallel to the axis enters the tube")
    hit = tube.first_entry([0.5, 0.0, 0.3], [-1.0, 0.0, 0.0], 1.0)
    require(hit is not None and abs(hit[0] - 0.3) <= 1e-12, f"selftest: tube entry {hit}")
    # A point inside a tube is refused.
    try:
        tube.first_entry([0.1, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0)
    except CheckFailed:
        pass
    else:
        raise CheckFailed("selftest: start inside a tube not detected")
    # Lyapunov: an unpaired spectrum, and one whose sum is not 0, must be refused.
    for lam, sum_tol, what in (([1.0, 0.5, -0.3, -1.2], None, "an unpaired spectrum"),
                               ([1.0, 0.5, -0.5, -0.9], 1e-4, "a spectrum with sum 0.1")):
        try:
            check_lyapunov(lam, pair_tol=0.1, sum_tol=sum_tol)
        except CheckFailed:
            pass
        else:
            raise CheckFailed(f"selftest: Lyapunov check accepted {what}")
