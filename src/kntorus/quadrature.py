"""Contour and segment quadrature used by the residue/period/pairing code.

Circles use the periodic trapezoid rule, which converges exponentially for
integrands analytic in an annulus around the contour.  It reads values,
one integrand or a stack of them, already evaluated at circle_nodes: each
circle is one of ``basis.puncture_circles``, evaluated once per configuration.
Straight segments use composite Gauss-Legendre refined by local bisection,
as in QUADPACK's QAG (Piessens et al., 1983) and Gander & Gautschi (BIT 40,
2000): only the panels whose error estimate is over their share of the
tolerance are split, so a segment passing near a pole spends its nodes
beside the pole.  A segment that cannot meet the tolerance within
MAX_PANELS panels, none narrower than MIN_WIDTH of it, reports
QuadratureError.  One segment_integral call takes a list of segments and
refines them level by level: at each level the panels of every segment
not yet settled are packed into integrand calls of at most GRID_CHUNK
nodes, so one array evaluation (e.g. ``basis.frame_array``) serves many
segments.  A segment whose nodes the integrand refuses with
PoleProximityError is dropped, and the others go on.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import PoleProximityError, QuadratureError

# nodes per integrand call (and per wp_array call in a level-line scan)
GRID_CHUNK = 1024

# Gauss-Legendre nodes per segment panel, and the rule's nodes and weights on [-1, 1]
GAUSS_ORDER = 16
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)

# the most panels segment_integral refines a segment to, and the narrowest,
# as a fraction of the segment: a segment 7.6e5 times as long as its
# distance to a pole (Im tau = 75 against the 1e-4 exclusion radius) needs
# about 2^-20, and a non-integrable integrand ends at this floor rather than
# at panels too narrow for distinct nodes
MAX_PANELS = 2048
MIN_WIDTH = 2.0 ** -30


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

    Each segment is refined by local bisection.  A panel contributes the sum
    of the GAUSS_ORDER-node rule on its two halves, and its error estimate
    is the rule on the whole panel less that sum.  While the sum of a
    segment's estimates (on equal panels, the difference of two successive
    doublings) exceeds tol * max(1, |value|) in modulus, every panel whose
    estimate exceeds its share of that bound in modulus (the bound times
    the panel's fraction of the segment) is split in two.  Returns one outcome
    per segment, in order: the converged value; a QuadratureError holding
    the value reached when the splits it needs would take it past
    MAX_PANELS panels or below MIN_WIDTH, or holding NaN as soon as a rule
    on it is not finite; or the PoleProximityError f raised at one of the
    segment's nodes, which drops that segment alone.
    """
    outcomes: list = [None] * len(segments)
    ends = np.array(segments, dtype=complex).reshape(-1, 2)
    count = len(ends)
    # the refined panels of every open segment, grouped by segment: its
    # index, the panel's start and width as fractions of it, and the rules
    # on the panel and on its two halves; first each whole segment
    rule = _rules(f, ends, np.repeat(np.arange(count), 3), np.tile([0.0, 0.0, 0.5], count),
                  np.tile([1.0, 0.5, 0.5], count), outcomes).reshape(-1, 3)
    owner, start, width = np.arange(count), np.zeros(count), np.ones(count)
    whole, left, right = rule.T
    while True:
        live = np.array([outcome is None for outcome in outcomes], dtype=bool)[owner]
        owner, start, width, whole, left, right = (a[live] for a in (owner, start, width, whole, left, right))
        if not owner.size:
            return outcomes
        firsts = np.flatnonzero(np.diff(owner, prepend=-1))
        panels = np.diff(firsts, append=owner.size)
        with np.errstate(all="ignore"):  # a rule that is not finite is refused below
            estimates = whole - left - right
            value = np.add.reduceat(left + right, firsts)
            error = np.abs(np.add.reduceat(estimates, firsts))
        bound = tol * np.maximum(1.0, np.abs(value))
        split = (np.abs(estimates) > np.repeat(bound, panels) * width) & (width >= 4 * MIN_WIDTH)
        splits = np.add.reduceat(split, firsts)
        for i, v, e, b, n, m in zip(owner[firsts].tolist(), value.tolist(), error.tolist(), bound.tolist(),
                                    panels.tolist(), splits.tolist()):
            z0, z1 = segments[i]
            if not math.isfinite(e):
                outcomes[i] = QuadratureError(
                    f"segment [{z0}, {z1}]: the integrand is not finite on it", estimate=complex("nan"))
            elif e <= b:
                outcomes[i] = v
            elif not m or 2 * (n + m) > MAX_PANELS:
                need = f"more than {MAX_PANELS} panels" if m else f"panels narrower than {MIN_WIDTH:.3g} of it"
                outcomes[i] = QuadratureError(
                    f"segment [{z0}, {z1}] did not converge in {2 * n} panels: the error estimate {e:.3g} "
                    f"> {b:.3g}, and refining it further needs {need}",
                    estimate=v,
                )
        # each panel to split becomes its two halves, with the rules on their quarters
        split &= np.array([outcome is None for outcome in outcomes], dtype=bool)[owner]
        if not split.any():  # every segment is settled
            return outcomes
        quarter = 0.25 * width[split]
        quarters = start[split][:, None] + quarter[:, None] * np.arange(4)
        rule = _rules(f, ends, np.repeat(owner[split], 4), quarters.ravel(), np.repeat(quarter, 4),
                      outcomes).reshape(-1, 4)
        owner, start, width, whole, left, right = (
            np.concatenate([a[~split], b]) for a, b in (
                (owner, np.repeat(owner[split], 2)),
                (start, quarters[:, ::2].ravel()),
                (width, np.repeat(2 * quarter, 2)),
                (whole, np.column_stack([left[split], right[split]]).ravel()),
                (left, rule[:, ::2].ravel()),
                (right, rule[:, 1::2].ravel()),
            )
        )
        order = np.argsort(owner, kind="stable")
        owner, start, width, whole, left, right = (a[order] for a in (owner, start, width, whole, left, right))


def _rules(f, ends: np.ndarray, owner: np.ndarray, start: np.ndarray, width: np.ndarray,
           outcomes: list) -> np.ndarray:
    # the rule on every panel (start, width) of the segment at its owner,
    # grouped by segment.  The nodes of all panels pass through f in
    # consecutive calls of GRID_CHUNK nodes; when f refuses a node, each
    # segment's part of that call is evaluated alone, and a segment refused
    # alone is dropped with f's error.  A rule is summed node by node in a
    # fixed order, so it does not depend on what shares its integrand calls.
    t = (start + 0.5 * width)[:, None] + (0.5 * width)[:, None] * _GAUSS_NODES
    z0, dz = ends[owner, 0], ends[owner, 1] - ends[owner, 0]
    z = (z0[:, None] + t * dz[:, None]).ravel()
    node_owner = np.repeat(owner, GAUSS_ORDER)
    values = np.full(z.size, np.nan, dtype=complex)
    for lo in range(0, z.size, GRID_CHUNK):
        try:
            values[lo:lo + GRID_CHUNK] = f(z[lo:lo + GRID_CHUNK])
        except PoleProximityError:
            for i in dict.fromkeys(node_owner[lo:lo + GRID_CHUNK].tolist()):
                at = lo + np.flatnonzero(node_owner[lo:lo + GRID_CHUNK] == i)
                try:
                    if outcomes[i] is None:  # a segment keeps the error at its first refused node
                        values[at] = f(z[at])
                except PoleProximityError as exc:
                    outcomes[i] = exc
    values = values.reshape(-1, GAUSS_ORDER)
    with np.errstate(all="ignore"):  # segment_integral refuses a rule that is not finite
        total = values[:, 0] * _GAUSS_WEIGHTS[0]
        for k in range(1, GAUSS_ORDER):
            total += values[:, k] * _GAUSS_WEIGHTS[k]
        return total * (0.5 * width) * dz
