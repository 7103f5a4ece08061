"""Contour and segment quadrature used by the residue/period/pairing code.

Circles use the periodic trapezoid rule, which converges exponentially for
integrands analytic in an annulus around the contour.  Straight segments use
composite Gauss-Legendre with panel doubling until two refinements agree.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


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
    max_panels: int = 256,
) -> complex:
    """Integral of f along the straight segment from z0 to z1."""
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

    previous = composite(1)
    panels = 2
    while panels <= max_panels:
        current = composite(panels)
        if abs(current - previous) <= tol * max(1.0, abs(current)):
            return current
        previous = current
        panels *= 2
    return previous
