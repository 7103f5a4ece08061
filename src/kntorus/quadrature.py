"""Contour and segment quadrature used by the residue/period/pairing code.

Circles use the periodic trapezoid rule, which converges exponentially for
integrands analytic in an annulus around the contour.  It reads values
already evaluated at circle_nodes: each circle is one of
``basis.puncture_circles``, with its frame evaluated once per configuration.
Straight segments use composite Gauss-Legendre with panel doubling until
two refinements agree, or raise QuadratureError once MAX_PANELS is reached;
the integrand takes an array of nodes and returns the array of values, so
one array evaluation (e.g. ``basis.frame_array``) serves many nodes, at
most GRID_CHUNK at a time, summed chunk by chunk.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

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


def contour_residue(values: np.ndarray, nodes: np.ndarray, center: complex) -> complex:
    """(1/2*pi*i) * contour integral from values f(z_k) at the circle_nodes z_k.

    The trapezoid rule collapses to mean(f(z_k) * (z_k - center)), i.e. the
    Cauchy coefficient extractor.
    """
    return complex(np.mean(values * (nodes - center)))


def segment_integral(
    f: Callable[[np.ndarray], np.ndarray], z0: complex, z1: complex, tol: float = 1e-12
) -> complex:
    """Integral of the array integrand f along the straight segment from z0 to z1.

    The panel count doubles until two successive estimates agree within
    tol * max(1, |value|); QuadratureError is raised if they still differ
    at MAX_PANELS panels of GAUSS_ORDER nodes.
    """
    direction = z1 - z0
    per_call = max(1, GRID_CHUNK // GAUSS_ORDER)  # whole panels per integrand call

    def composite(panels: int) -> complex:
        h = 1.0 / panels
        total = 0j
        for first in range(0, panels, per_call):
            mid = (np.arange(first, min(first + per_call, panels)) + 0.5) * h
            t = (mid[:, None] + 0.5 * h * _GAUSS_NODES).ravel()
            total += np.dot(np.tile(_GAUSS_WEIGHTS, mid.size), f(z0 + t * direction))
        return complex(total) * direction * 0.5 / panels

    current = composite(1)
    panels, diff = 1, float("inf")
    while 2 * panels <= MAX_PANELS:
        panels *= 2
        previous, current = current, composite(panels)
        diff = abs(current - previous)
        if diff <= tol * max(1.0, abs(current)):
            return current
    raise QuadratureError(
        f"segment [{z0}, {z1}] did not converge in {panels} panels: the last two "
        f"estimates differ by {diff:.3g} > {tol * max(1.0, abs(current)):.3g}",
        estimate=current,
    )
