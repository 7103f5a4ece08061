"""The three-point propagation differential and the string time function.

The differential is w(z) dz with w = -(1/2) wp'(z) / (wp(z) - p) where
p = wp(1/2 + q).  It has residues +1 at 0 and -1/2 at 1/2 +- q, purely
imaginary periods, and its real integral t(z) = -(1/2) ln|wp(z) - p| + C
is the harmonic "time" of string propagation.  The additive constant is
fixed by t((1+tau)/4) = 0.  The punctures, p and w itself come from
``basis.frame_array``; residues and periods integrate w from it, and
``omega_hat`` reads one point as a one-entry array.  The time function has
one evaluation, from wp_array: ``time_coordinate`` takes a point or an
array, and the level-line scan decides every sign and every accepted point
from the same array values.  The scan refines each crossing edge by
bracketed false position (the Illinois variant), all edges in lockstep, so
every point stays on its own grid edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import check_away_from_punctures, frame_array, pole_parameter, puncture_circle
from .config import CONFIG_CACHE_SIZE, EXCLUSION_RADIUS, TorusConfig, complex_array, distance_to_points_array
from .elliptic import half_period_values, wp_array
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


@dataclass(frozen=True)
class MuModulus:
    """Level-2 moduli parameter mu = (e2-e1)/(e3-e1) and derived quantities."""

    mu: complex
    abs_mu: float
    separation_time_two_point: float


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


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _reference_constant(cfg: TorusConfig) -> float:
    # t((1+tau)/4) = 0, from a one-entry wp_array
    ref = wp_array(np.array([0.25 * (1.0 + cfg.tau)]), cfg).item()
    return 0.5 * math.log(abs(ref - pole_parameter(cfg)))


def time_coordinate(z, cfg: TorusConfig):
    """Harmonic time t(z) = -(1/2) ln|wp(z) - p| + C with t((1+tau)/4) = 0.

    t -> -inf at the in-point 0 and +inf at the out-points 1/2 +- q,
    matching the residue signs (+1, -1/2, -1/2).  z is a complex, giving a
    float, or a complex array, giving an array of its shape.  A complex is
    evaluated as a one-entry array, so its value is the one its entry gets
    in any array call, level_line_samples' included.  Raises
    PoleProximityError inside a puncture exclusion disk.
    """
    zs = z if isinstance(z, np.ndarray) else np.array([z], dtype=complex)
    check_away_from_punctures(zs, cfg)
    return _time_array(zs, cfg) if zs is z else float(_time_array(zs, cfg)[0])


def separation_time(cfg: TorusConfig) -> float:
    """Time between the two interaction points tau/2 and (1+tau)/2.

    Equals (1/2) ln|(e3 - p)/(e2 - p)| with p = wp(1/2 + q); at q = 0 this
    becomes (1/2) ln|(e3 - e1)/(e2 - e1)|.
    """
    hp = half_period_values(cfg)
    p_q = pole_parameter(cfg)
    denom = hp.e2 - p_q
    if abs(denom) < 1e-13 * max(1.0, abs(hp.e2)):
        raise DegenerateModuliError("e2 coincides with wp(1/2+q)")
    return 0.5 * math.log(abs((hp.e3 - p_q) / denom))


def mu_modulus(cfg: TorusConfig) -> MuModulus:
    """mu = (e2 - e1)/(e3 - e1); |mu| = 1 marks Re tau = +-1/2 lattices.

    Raises DegenerateModuliError when e2 and e1 agree to 1e-13 of
    max(1, |e1|), where ln|mu| is rounding noise or undefined.
    """
    hp = half_period_values(cfg)
    if abs(hp.e2 - hp.e1) < 1e-13 * max(1.0, abs(hp.e1)):
        raise DegenerateModuliError("e2 coincides with e1")
    mu = (hp.e2 - hp.e1) / (hp.e3 - hp.e1)
    return MuModulus(mu, abs(mu), -0.5 * math.log(abs(mu)))


def _time_array(z: np.ndarray, cfg: TorusConfig) -> np.ndarray:
    # time_coordinate at every entry of a complex array, without its puncture check
    t = -0.5 * np.log(np.abs(wp_array(z, cfg) - pole_parameter(cfg)))
    return t + _reference_constant(cfg)


def level_line_samples(cfg: TorusConfig, u: float, resolution: int = 64) -> LevelLineSample:
    """Points where the time function crosses the level u.

    A (resolution x resolution) grid of the fundamental cell is evaluated
    with wp_array in chunks of GRID_CHUNK nodes; nodes within
    4 * EXCLUSION_RADIUS of a puncture are skipped.  Each sign change of
    f = t - u along a grid edge [z0, z1] is refined by bracketed false
    position, all edges in lockstep with one array evaluation per step:
    the trial point is z0 + w (z1 - z0) with w = f0 / (f0 - f1), formed on
    the real and imaginary parts apart and assembled by
    config.complex_array (so a horizontal edge keeps its row's Im z
    exactly), and w = 1/2 where it is not strictly inside (0, 1).  The
    trial point replaces the end whose sign it shares, and an end kept
    twice in a row has its f halved (the Illinois rule), until |t - u| <=
    cfg.tol, or BisectionError is raised after BISECTION_STEPS steps; an
    edge whose trial point falls inside a puncture exclusion disk gives
    no point.  Node signs, kept ends and accepted trial points
    are decided from these array values, which are time_coordinate's bit
    for bit, so every returned point meets |time_coordinate - u| <=
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

    # t - u at every node, NaN where skipped
    s = np.full(side * side, np.nan)
    for first in range(0, side * side, GRID_CHUNK):
        k = np.arange(first, min(first + GRID_CHUNK, side * side))
        z = node(k)
        clear = distance_to_points_array(z, punctures, tau) > 4.0 * EXCLUSION_RADIUS
        s[k[clear]] = _time_array(z[clear], cfg) - u

    # crossing edges in scan order: flat index 2*k for (k, k+1), 2*k+1 for
    # (k, k+side); products of signs, which cannot overflow as those of s can
    sign = np.sign(s)
    grid = sign.reshape(side, side)
    crossing = np.zeros((side, side, 2), dtype=bool)
    crossing[:, :-1, 0] = grid[:, :-1] * grid[:, 1:] < 0
    crossing[:-1, :, 1] = grid[:-1, :] * grid[1:, :] < 0
    edge = np.flatnonzero(crossing)
    start = edge // 2
    end = start + np.where(edge % 2, side, 1)

    # each open edge's ends, their t - u and the end kept at the previous
    # step (0 the start, 1 the end, -1 before the first)
    ids = np.arange(edge.size)
    z0, z1, f0, f1 = node(start), node(end), s[start], s[end]
    kept = np.full(edge.size, -1)
    found: dict[int, complex] = {}
    for _ in range(BISECTION_STEPS):
        if not ids.size:
            break
        w = f0 / (f0 - f1)
        w = np.where((w > 0.0) & (w < 1.0), w, 0.5)
        zm = complex_array(z0.real + w * (z1.real - z0.real), z0.imag + w * (z1.imag - z0.imag))
        clear = distance_to_points_array(zm, punctures, tau) > EXCLUSION_RADIUS
        ids, z0, z1, f0, f1, kept, zm = (a[clear] for a in (ids, z0, z1, f0, f1, kept, zm))
        fm = _time_array(zm, cfg) - u
        done = np.abs(fm) <= cfg.tol
        found.update(zip(ids[done].tolist(), zm[done].tolist()))
        # keep the end of the other sign; halve f at an end kept twice in a row
        keep0 = np.sign(fm) != np.sign(f0)
        f0 = np.where(keep0, np.where(kept == 0, 0.5 * f0, f0), fm)
        f1 = np.where(keep0, fm, np.where(kept == 1, 0.5 * f1, f1))
        z0 = np.where(keep0, z0, zm)
        z1 = np.where(keep0, zm, z1)
        kept = np.where(keep0, 0, 1)
        go = ~done
        ids, z0, z1, f0, f1, kept, fm = (a[go] for a in (ids, z0, z1, f0, f1, kept, fm))
    if ids.size:
        bad = ids[0]
        raise BisectionError(
            f"level line t = {u!r} on the grid edge [{complex(node(start[bad]))}, "
            f"{complex(node(end[bad]))}] did not converge in {BISECTION_STEPS} steps: "
            f"|t - u| = {abs(fm[0]):.3g} > tol = {cfg.tol:.3g}"
        )
    return LevelLineSample(u=u, points=tuple(found[i] for i in sorted(found)))
