"""Contour and segment quadrature used by the residue/period/pairing code.

Circles use the periodic trapezoid rule, which converges exponentially for
integrands analytic in an annulus around the contour.  Straight segments use
composite Gauss-Legendre with panel doubling until two refinements agree,
or raise QuadratureError once max_panels is reached.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import QuadratureError


def circle_nodes(center: complex, radius: float, n: int) -> list[complex]:
    """Equispaced nodes on |z - center| = radius, deterministic order."""
    return [complex(center + radius * np.exp(2j * np.pi * k / n)) for k in range(n)]


def circle_trapezoid(values: Iterable[complex], nodes: list[complex], center: complex) -> complex:
    """(1/2*pi*i) * contour integral from values f(z_k) at circle_nodes.

    The trapezoid rule collapses to mean(f(z_k) * (z_k - center)), i.e. the
    Cauchy coefficient extractor.
    """
    total = 0j
    for v, z in zip(values, nodes):
        total += v * (z - center)
    return total / len(nodes)


def contour_residue(
    f: Callable[[complex], complex], center: complex, radius: float, n: int = 256
) -> complex:
    """(1/2*pi*i) * closed contour integral of f over the circle."""
    nodes = circle_nodes(center, radius, n)
    return circle_trapezoid((f(z) for z in nodes), nodes, center)


def segment_integral(
    f: Callable[[complex], complex],
    z0: complex,
    z1: complex,
    tol: float = 1e-12,
    order: int = 16,
    max_panels: int = 1024,
) -> complex:
    """Integral of f along the straight segment from z0 to z1.

    The panel count doubles until two successive estimates agree within
    tol * max(1, |value|); QuadratureError is raised if they still differ
    at max_panels panels.  A segment passing ~1e-3 from a pole of f needs
    512 to 1024 panels of order 16.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    direction = z1 - z0

    def composite(panels: int) -> complex:
        total = 0j
        h = 1.0 / panels
        for p in range(panels):
            mid = (p + 0.5) * h
            for x, w in zip(nodes, weights):
                t = mid + 0.5 * h * x
                total += w * f(z0 + t * direction)
        return total * direction * 0.5 / panels

    current = composite(1)
    panels, diff = 1, float("inf")
    while 2 * panels <= max_panels:
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
