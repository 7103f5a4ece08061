"""The three-point propagation differential and the string time function.

The differential is w(z) dz with w = -(1/2) wp'(z) / (wp(z) - p) where
p = wp(1/2 + q).  It has residues +1 at 0 and -1/2 at 1/2 +- q, purely
imaginary periods, and its real integral t(z) = -(1/2) ln|wp(z) - p| + C
is the harmonic "time" of string propagation.  The additive constant is
C = (1/2) ln|p - e3|, so t(tau/2) = 0 at the interaction point tau/2, a
zero of the differential that config keeps away from every puncture, and
t((1+tau)/2) is separation_time.  wp - p comes from ``elliptic`` and w from
``basis.frame_array``; residues and periods integrate w from it, and
``omega_hat`` reads one point as a one-entry array.  The time function
has one evaluation, from pole_factor_array: ``time_coordinate`` takes a
point or an array, and the level-line scan decides every side and every
accepted point from the same array values.  The scan refines each
crossing edge by bracketed false position (the Illinois variant), all
edges in lockstep, so every point stays on its own grid edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import check_away_from_punctures, frame_array, puncture_circle
from .config import EXCLUSION_RADIUS, TorusConfig, complex_array, distance_to_points_array
from .elliptic import half_period_values, pole_factor_array
from .errors import BisectionError, DegenerateModuliError, PoleOnPathError
from .quadrature import GRID_CHUNK, contour_residue, segment_integral

# the coarsest level-line grid, in nodes per side of the cell
MIN_RESOLUTION = 16

# steps on a level-line grid edge before its root search gives up; far
# more than double precision can resolve on an edge of the unit cell
BISECTION_STEPS = 80


@dataclass(frozen=True)
class LevelLineSample:
    """Grid crossings of the time function with the level t = u."""

    u: float
    points: tuple[complex, ...]


def omega_hat(z: complex, cfg: TorusConfig) -> complex:
    """Scalar part of the propagation differential (a one-entry frame_array)."""
    return frame_array(np.array([z], dtype=complex), cfg)[1].item()


def residue_at(s: complex, cfg: TorusConfig) -> complex:
    """Residue of the propagation differential at the puncture s.

    The trapezoid sum of w over the cached basis.puncture_circles frame
    around s, whose circle encloses s and no other puncture.  Raises
    ValueError when s is not one of cfg.punctures().
    """
    circle = puncture_circle(s, cfg)
    return contour_residue(circle.w, circle.nodes, circle.center)


def _widest_gap(coords: list[float]) -> tuple[float, float]:
    """Middle and half width of the widest gap between coords mod 1 (a tie goes to the later gap)."""
    xs = sorted(x % 1.0 for x in coords)
    gaps = [(b - a, a) for a, b in zip(xs, [*xs[1:], xs[0] + 1.0])]
    width, start = max(reversed(gaps), key=lambda gap: gap[0])
    return (start + 0.5 * width) % 1.0, 0.5 * width


def _cycle_segments(cfg: TorusConfig) -> tuple[tuple[tuple[complex, complex], ...], float]:
    """Representatives of the a- and b-cycle, and their distance to the punctures.

    With z = a + b*tau, the a-cycle [d*tau, 1 + d*tau] is the line b = d and
    the b-cycle [e, e + tau] the line a = e, where d and e are the middles of
    the widest gaps between the punctures' b and a coordinates.  Each segment
    spans one period of its line, so its distance to every puncture translate
    is that of the line: half the b gap times Im tau, and half the a gap
    times Im tau / |tau|.
    """
    tau = cfg.tau
    b = [s.imag / tau.imag for s in cfg.punctures()]
    d, half_b = _widest_gap(b)
    e, half_a = _widest_gap([s.real - bs * tau.real for s, bs in zip(cfg.punctures(), b)])
    clearance = min(half_b * tau.imag, half_a * tau.imag / abs(tau))
    return ((d * tau, 1.0 + d * tau), (complex(e), e + tau)), clearance


def period_real_parts(cfg: TorusConfig) -> tuple[float, float]:
    """Re of the contour integrals of the differential over both cycles.

    Both vanish (to quadrature accuracy) because the propagation
    differential has purely imaginary periods.  The representatives are
    those of _cycle_segments; PoleOnPathError is raised when they pass
    within 10 * EXCLUSION_RADIUS of a puncture.
    """
    segments, clearance = _cycle_segments(cfg)
    if clearance <= 10.0 * EXCLUSION_RADIUS:
        raise PoleOnPathError(f"the cycle segments pass {clearance:.3g} from a puncture")
    outcomes = segment_integral(lambda z: frame_array(z, cfg)[1], segments, tol=1e-13)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    pa, pb = (value.real for value in outcomes)
    return pa, pb


def time_coordinate(z, cfg: TorusConfig):
    """Harmonic time t(z) = -(1/2) ln|wp(z) - p| + C with t(tau/2) = 0.

    t -> -inf at the in-point 0 and +inf at the out-points 1/2 +- q, matching
    the residue signs (+1, -1/2, -1/2).  z is a complex, giving a float, or a
    complex array, giving an array of its shape; a complex is a one-entry
    array, so its value is the one its entry gets in any array call,
    level_line_samples' included.  C = (1/2) ln|p - e3| makes t(tau/2) exactly
    0.0, and t((1+tau)/2) separation_time to rounding.  Raises
    PoleProximityError inside a puncture exclusion disk, and
    DegenerateModuliError naming q, tau and z where wp - p is 0 elsewhere.
    """
    zs = z if isinstance(z, np.ndarray) else np.array([z], dtype=complex)
    check_away_from_punctures(zs, cfg)
    return _time_array(zs, cfg) if zs is z else float(_time_array(zs, cfg)[0])


def separation_time(cfg: TorusConfig) -> float:
    """Time between the interaction points tau/2 and (1+tau)/2: HalfPeriodValues.separation
    at this torus's p = wp(1/2 + q); at q = 0, (1/2) ln|(e3 - e1)/(e2 - e1)|."""
    hp = half_period_values(cfg)
    return hp.separation(hp.p)


def mu_modulus(cfg: TorusConfig) -> complex:
    """The level-2 moduli parameter mu = (e2 - e1)/(e3 - e1); |mu| = 1 marks
    Re tau = +-1/2 lattices, and -(1/2) ln|mu| is the two-point separation
    time.

    Raises DegenerateModuliError when e2 and e1 agree to 1e-13 of
    max(1, |e1|), where ln|mu| is rounding noise or undefined.
    """
    hp = half_period_values(cfg)
    if abs(hp.e2 - hp.e1) < 1e-13 * max(1.0, abs(hp.e1)):
        raise DegenerateModuliError("e2 coincides with e1")
    return (hp.e2 - hp.e1) / (hp.e3 - hp.e1)


def _time_array(z: np.ndarray, cfg: TorusConfig) -> np.ndarray:
    # time_coordinate at every entry of a complex array, without its puncture check
    hp = half_period_values(cfg)
    x = np.abs(pole_factor_array(z, cfg, prime=False)[0])
    if not x.all():  # on a thin lattice p - e1 can round to 0, and X with it at 1/2
        raise DegenerateModuliError(f"q={cfg.q}, tau={cfg.tau}: wp - p is 0 to rounding at "
                                    f"z={complex(z[x == 0][0])}, away from the punctures")
    return -0.5 * np.log(x) + 0.5 * math.log(abs(hp.differences(hp.p)[2]))


def _side(f: np.ndarray) -> np.ndarray:
    """The side of the level that f = t - u puts a point on: 1.0 where
    f >= 0 (a tie, f = 0, counts as above the level), -1.0 where f < 0 and
    NaN where f is NaN (a skipped node)."""
    return np.where(f >= 0.0, 1.0, np.sign(f))


def _near_slices(x: float, reach: float, resolution: int):
    # the node indices i, at -1/2 + i / resolution, within reach of x - 1, x or
    # x + 1, as one slice each, widened by one node against rounding
    for c in (x - 1.0, x, x + 1.0):
        lo = max(0, math.floor((c - reach + 0.5) * resolution) - 1)
        hi = min(resolution, math.ceil((c + reach + 0.5) * resolution) + 1)
        if lo <= hi:
            yield slice(lo, hi + 1)


def _near_nodes(points: tuple[complex, ...], tau: complex, resolution: int, radius: float) -> np.ndarray:
    """Flat indices ai + (resolution + 1) bi, in increasing order, of every
    level-line grid node -1/2 + ai / resolution + (-1/2 + bi / resolution) tau
    that can lie within radius of a lattice translate of one of the points.

    In the basis (1, tau) a node within radius of s + m + n tau, with
    s = alpha + beta tau, differs from (alpha + m, beta + n) by at most
    radius (1 + |Re tau| / Im tau) in a and radius / Im tau in b; with
    alpha and beta taken mod 1, m and n in {-1, 0, 1} reach every node of
    the cell.  Each point gives a box of nodes per translate.
    """
    side = resolution + 1
    reach_b = radius / tau.imag
    reach_a = radius + reach_b * abs(tau.real)
    near = np.zeros((side, side), dtype=bool)
    for s in points:
        beta = s.imag / tau.imag
        alpha = s.real - beta * tau.real
        for rows in _near_slices(beta % 1.0, reach_b, resolution):
            for columns in _near_slices(alpha % 1.0, reach_a, resolution):
                near[rows, columns] = True
    return np.flatnonzero(near)


def level_line_samples(cfg: TorusConfig, u: float, resolution: int = 64) -> LevelLineSample:
    """Points where the time function crosses the level u.

    A (resolution x resolution) grid of the fundamental cell is evaluated
    with pole_factor_array in chunks of GRID_CHUNK nodes; nodes within
    4 * EXCLUSION_RADIUS of a puncture are skipped.  Only a node within the
    longest grid edge plus 4 * EXCLUSION_RADIUS of a puncture can be
    skipped or start an edge whose trial point is refused (_near_nodes
    lists them), so those alone are tested.  Only the nodes up to
    the middle one in row-major order are tested and timed: the node
    mirrored through the cell's centre is -z, t is even and the punctures
    are symmetric under z -> -z, so each later node reads t(-z) (and is
    skipped where its mirror is).  Each change of side of f = t - u along
    a grid edge [z0, z1] is refined by bracketed false position, all edges
    in lockstep with one array evaluation per step:
    the trial point is z0 + w (z1 - z0) with w = f0 / (f0 - f1), formed on
    the real and imaginary parts apart and assembled by
    config.complex_array (so a horizontal edge keeps its row's Im z
    exactly), and w = 1/2 where it is not strictly inside (0, 1).  The
    trial point replaces the end on its own side, and an end kept
    twice in a row has its f halved (the Illinois rule), until |t - u| <=
    cfg.tol, or BisectionError is raised after BISECTION_STEPS steps,
    giving |wp - p| at the first open edge's ends and |p| (a thin
    lattice's pole factor cancels to noise there); an edge whose trial
    point falls inside a puncture exclusion disk gives no point.  A tie,
    f = 0, is on the side f > 0 wherever a side is compared (_side), so a
    node on the level, such as the interaction point tau/2 at the level
    0 when resolution is even, starts crossings on its edges to the other
    side and the refinement closes in on it.  Node
    sides, kept ends and accepted trial points are decided from these
    array values, which are time_coordinate's bit for bit (at -z for a
    mirrored node), and every accepted point is timed
    itself, so every returned point meets |time_coordinate - u| <=
    cfg.tol.  Points come in edge order: row-major by start node,
    horizontal edge first.  Raises ValueError for a u that is not finite.
    """
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_RESOLUTION}, got {resolution}")
    tau, punctures = cfg.tau, cfg.punctures()
    side = resolution + 1
    coords = -0.5 + np.arange(side) / resolution

    def node(k: np.ndarray) -> np.ndarray:
        # node k = ai + side*bi is coords[ai] + coords[bi]*tau
        ca, cb = coords[k % side], coords[k // side]
        return complex_array(ca + cb * tau.real, cb * tau.imag)

    # the longest grid edge plus 4 * EXCLUSION_RADIUS
    reach = max(1.0, abs(tau)) / resolution + 4.0 * EXCLUSION_RADIUS
    near = np.zeros(side * side, dtype=bool)
    near[_near_nodes(punctures, tau, resolution, reach)] = True

    # t - u at every node, NaN where skipped: node side**2 - 1 - k is -(node k),
    # so the nodes k < half are timed and the others read their mirror's value
    s = np.full(side * side, np.nan)
    half = (side * side + 1) // 2
    clear = np.ones(half, dtype=bool)
    k = np.flatnonzero(near[:half])
    clear[k] = distance_to_points_array(node(k), punctures, tau) > 4.0 * EXCLUSION_RADIUS
    for first in range(0, half, GRID_CHUNK):
        k = np.arange(first, min(first + GRID_CHUNK, half))
        k = k[clear[k]]
        s[k] = _time_array(node(k), cfg) - u
    s[half:] = s[side * side - half - 1::-1]

    # crossing edges in scan order: flat index 2*k for (k, k+1), 2*k+1 for
    # (k, k+side); products of sides, which cannot overflow as those of s can
    grid = _side(s).reshape(side, side)
    crossing = np.zeros((side, side, 2), dtype=bool)
    crossing[:, :-1, 0] = grid[:, :-1] * grid[:, 1:] < 0
    crossing[:-1, :, 1] = grid[:-1, :] * grid[1:, :] < 0
    edge = np.flatnonzero(crossing)
    start = edge // 2
    end = start + np.where(edge % 2, side, 1)

    # each open edge's ends, their t - u and the end kept at the previous
    # step (0 the start, 1 the end, -1 before the first)
    ids = np.arange(edge.size)
    tested = near[start]  # the edges whose trial points are tested for clearance
    z0, z1, f0, f1 = node(start), node(end), s[start], s[end]
    kept = np.full(edge.size, -1)
    found: dict[int, complex] = {}
    for _ in range(BISECTION_STEPS):
        if not ids.size:
            break
        w = f0 / (f0 - f1)
        w = np.where((w > 0.0) & (w < 1.0), w, 0.5)
        zm = complex_array(z0.real + w * (z1.real - z0.real), z0.imag + w * (z1.imag - z0.imag))
        test = np.flatnonzero(tested[ids])
        if test.size:
            refused = test[distance_to_points_array(zm[test], punctures, tau) <= EXCLUSION_RADIUS]
            if refused.size:
                keep = np.ones(ids.size, dtype=bool)
                keep[refused] = False
                ids, z0, z1, f0, f1, kept, zm = (a[keep] for a in (ids, z0, z1, f0, f1, kept, zm))
        fm = _time_array(zm, cfg) - u
        done = np.abs(fm) <= cfg.tol
        found.update(zip(ids[done].tolist(), zm[done].tolist()))
        # keep the end on the other side; halve f at an end kept twice in a row
        keep0 = _side(fm) != _side(f0)
        f0 = np.where(keep0, np.where(kept == 0, 0.5 * f0, f0), fm)
        f1 = np.where(keep0, fm, np.where(kept == 1, 0.5 * f1, f1))
        z0 = np.where(keep0, z0, zm)
        z1 = np.where(keep0, zm, z1)
        kept = np.where(keep0, 0, 1)
        go = ~done
        ids, z0, z1, f0, f1, kept, fm = (a[go] for a in (ids, z0, z1, f0, f1, kept, fm))
    if ids.size:
        # the scale of wp - p at the edge's ends tells a precision failure
        # (|wp - p| within rounding of |p|) from a slow one
        ends = node(np.array([start[ids[0]], end[ids[0]]]))
        x0, x1 = np.abs(pole_factor_array(ends, cfg, prime=False)[0]).tolist()
        raise BisectionError(
            f"level line t = {u!r} on the grid edge [{complex(ends[0])}, {complex(ends[1])}] "
            f"did not converge in {BISECTION_STEPS} steps: |t - u| = {abs(fm[0]):.3g} > tol = {cfg.tol:.3g}; "
            f"|wp - p| = {x0:.3g} and {x1:.3g} at its ends, |p| = {abs(half_period_values(cfg).p):.3g}"
        )
    return LevelLineSample(u=u, points=tuple(found[i] for i in sorted(found)))
