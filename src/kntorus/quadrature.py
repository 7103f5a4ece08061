"""Contour and segment quadrature used by the residue/period/pairing code.

Circles use the periodic trapezoid rule, which converges exponentially for
integrands analytic in an annulus around the contour.  It reads values,
one integrand or a stack of them, already evaluated at circle_nodes: each
circle is one of ``basis.puncture_circles``, evaluated once per configuration.
Straight segments use composite Gauss-Legendre with panel doubling until
two refinements agree, or report QuadratureError once MAX_PANELS is
reached.  One segment_integral call takes a list of segments and refines
them level by level: at each panel count the nodes of every segment not
yet settled are packed into integrand calls of at most GRID_CHUNK nodes,
so one array evaluation (e.g. ``basis.frame_array``) serves many
segments.  A segment whose nodes the integrand refuses with
PoleProximityError is dropped, and the others go on.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import PoleProximityError, QuadratureError

# nodes per integrand call (and per wp_array call in a level-line scan)
GRID_CHUNK = 1024

# Gauss-Legendre nodes per segment panel, and the rule's nodes and weights on [-1, 1]
GAUSS_ORDER = 16
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)

# panels at which segment_integral gives up; a segment 5e-4 to 2e-3 from a pole needs 512 to 2048
MAX_PANELS = 2048


def circle_nodes(center: complex, radius: float, n: int) -> np.ndarray:
    """Equispaced nodes on |z - center| = radius, deterministic order."""
    return center + radius * np.exp(2j * np.pi * np.arange(n) / n)


def contour_residue(values: np.ndarray, nodes: np.ndarray, center: complex) -> complex | np.ndarray:
    """(1/2*pi*i) * contour integral from values f(z_k) at the circle_nodes z_k.

    The trapezoid rule collapses to mean(f(z_k) * (z_k - center)), i.e. the
    Cauchy coefficient extractor, over the last axis of values: a complex
    for one integrand, for a stack each row's own residue bit for bit.
    """
    residues = np.mean(values * (nodes - center), axis=-1)
    return complex(residues) if residues.ndim == 0 else residues


def segment_integral(
    f: Callable[[np.ndarray], np.ndarray],
    segments: Sequence[tuple[complex, complex]],
    tol: float = 1e-12,
) -> list[complex | QuadratureError | PoleProximityError]:
    """Integrals of the array integrand f along the straight segments (z0, z1).

    The panel count of every segment doubles from 1 until two successive
    estimates agree within tol * max(1, |value|).  Returns one outcome per
    segment, in order: the converged value; a QuadratureError holding the
    last estimate if they still differ at MAX_PANELS panels of GAUSS_ORDER
    nodes; or the PoleProximityError f raised at one of the segment's
    nodes, which drops that segment alone.
    """
    outcomes: list = [None] * len(segments)
    previous: dict[int, complex] = {}
    panels = 1
    while None in outcomes:
        totals = _level_sums(f, segments, panels, outcomes)
        for i, total in totals.items():
            if outcomes[i] is not None:  # dropped at this level
                continue
            z0, z1 = segments[i]
            current = complex(total) * (z1 - z0) * 0.5 / panels
            diff = abs(current - previous[i]) if panels > 1 else float("inf")
            bound = tol * max(1.0, abs(current))
            if panels > 1 and diff <= bound:
                outcomes[i] = current
            elif 2 * panels > MAX_PANELS:
                outcomes[i] = QuadratureError(
                    f"segment [{z0}, {z1}] did not converge in {panels} panels: the last two "
                    f"estimates differ by {diff:.3g} > {bound:.3g}",
                    estimate=current,
                )
            previous[i] = current
        panels *= 2
    return outcomes


def _level_sums(f, segments, panels: int, outcomes: list) -> dict[int, complex]:
    # the weighted node sums of every open segment at this panel count.  A
    # group of at most GRID_CHUNK // GAUSS_ORDER whole panels of one segment
    # is one np.dot, summed group by group, so a segment's sum does not
    # depend on what shares its integrand calls; each call packs groups of
    # the same panels of several segments, at most GRID_CHUNK nodes.
    totals = {i: 0j for i, outcome in enumerate(outcomes) if outcome is None}
    per_group = max(1, GRID_CHUNK // GAUSS_ORDER)
    h = 1.0 / panels
    for first in range(0, panels, per_group):
        mid = (np.arange(first, min(first + per_group, panels)) + 0.5) * h
        t = (mid[:, None] + 0.5 * h * _GAUSS_NODES).ravel()
        weights = np.tile(_GAUSS_WEIGHTS, mid.size)
        open_ = [i for i in totals if outcomes[i] is None]
        per_call = max(1, GRID_CHUNK // t.size)
        for k in range(0, len(open_), per_call):
            batch = [(i, segments[i][0] + t * (segments[i][1] - segments[i][0]))
                     for i in open_[k:k + per_call]]
            _accumulate(f, batch, weights, totals, outcomes)
    return totals


def _accumulate(f, batch, weights: np.ndarray, totals: dict, outcomes: list) -> None:
    # one integrand call for the (segment, nodes) pairs of batch; when f
    # refuses a node, each segment is evaluated alone and the refused ones dropped
    try:
        values = f(np.concatenate([z for _, z in batch]))
    except PoleProximityError as exc:
        if len(batch) == 1:
            outcomes[batch[0][0]] = exc
        else:
            for item in batch:
                _accumulate(f, [item], weights, totals, outcomes)
        return
    for k, (i, _) in enumerate(batch):
        totals[i] += np.dot(weights, values[k * weights.size:(k + 1) * weights.size])
