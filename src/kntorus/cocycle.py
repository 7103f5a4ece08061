"""Duality pairing and the central-extension cocycle.

pairing(cfg, window) is the duality pairing <e_j, O_k> as one matrix over
[-window, window]^2, one stacked contour residue per row.

The cocycle is computed three ways:

* _chi_literal: the finite double sum over products of shifted structure
  constants, split by the normal-ordering boundary k = -1, over a k window
  proved from their support.  This is the oracle; it reproduces the
  commutator anomaly of the wedge-space operators exactly (up to the
  stored orientation flags).  It costs O(|i|) per entry; only tests run it.
* chi_sum: the same values in O(1) from _CHI_POLY, the exact polynomial
  form of the double sum (degree <= 2 in lam4..lam7, an odd cubic in the
  index at each level and parity).  The tests re-derive the table from
  the double sum at integer parameter probes.
* chi_closed: fixed closed-form coefficient tables, kept verbatim, in the
  same orientation.  Disagreements beyond round-off are emitted in a
  reconciliation report rather than silently corrected; the double sum is
  the authority (it is what the wedge operators realize).

Orientation: chi_sum is oriented so that the Witt limit lands in the
conventional form chi(m, -m) = 13/6 (m^3 - m); _chi_literal, in its own
pair order, is the transpose.  The wedge-operator commutator realizes the
opposite orientation; the constant flags DEFAULT_SIGN_CONVENTION =
(sigma_c, sigma_chi) = (+1, -1), written into every cocycle table,
connect the two:
[L_i, L_j] = sigma_c * sum_k C_ij^k L_k + sigma_chi * chi_sum(i, j).
The tests ground the flags exactly: at integer parameter probes the
wedge vacuum gives -chi_sum bit for bit.

cocycle_identity_residual(bound, params) checks the two-cocycle identity
of chi_sum on every label triple of the cube [-bound, bound]^3 in one
call: it reads the structure constants from one algebra.bracket_slots
table, filled from the slot rule that shifted_constants reads, and chi_sum
from one table over the window.  It forms the four products C_bc^m chi_am
(m = b + c + 2t) once over the cube and reads the other two cyclic terms
from them with their axes rotated, adding in the order of the cyclic sum's
definition.

build_cocycle_table returns the nonzero chi_sum values over a window as a
plain dict {(i, j): chi}; cli.py alone writes it out, with the sign
convention and the reconciliation report.  The report reads chi_sum from
that table, so a command evaluates chi_sum once per table entry.  Both
visit only the pairs on the levels i + j of CHI_LEVELS, in (i, j) order:
off those levels chi_sum and chi_closed are zero.
"""

from __future__ import annotations

import numpy as np

from .algebra import bracket_slots, shifted_constants
from .basis import AlgebraParams, PunctureCircle, monomial, puncture_circles
from .config import TorusConfig, complex_abs, complex_multiply
from .errors import BadContourError
from .quadrature import contour_residue

# the wedge-operator convention (sigma_c, sigma_chi); the tests check it
# exactly against fock.extract_vacuum_cocycle and fock.commutator_residual
DEFAULT_SIGN_CONVENTION: tuple[int, int] = (1, -1)

PAIRING_INDEX_BOUND = 12

# chi_closed entries further than this, relative to max(1, |chi_sum|), from
# chi_sum are listed by reconciliation_report
RECONCILIATION_RTOL = 1e-8


# ---------------------------------------------------------------------------
# duality pairing by contour quadrature


def _residue_table(circle: PunctureCircle, firsts, seconds) -> np.ndarray:
    """Residues around circle of A_a * A_b at [x, y], a = firsts[x] and b = seconds[y],
    from one monomial table per side, one row of products at a time."""
    left, right = (np.array([monomial(a, circle.base, circle.w) for a in side]) for side in (firsts, seconds))
    return np.array([contour_residue(row * right, circle.nodes, circle.center) for row in left])


def pairing(cfg: TorusConfig, window: int) -> np.ndarray:
    """Dual pairing of the vector field e_j with the quadratic form O_k, at
    [j + window, k + window] for j, k in [-window, window].

    The integrand is the scalar A_{j+1} * A_{-k-2}; its integral over any
    level line equals the residue at the in-point and minus the sum of the
    residues at the out-points.  The in-point quadrature is used whenever
    the pole there is mild (order j - k - 1 >= -4).  A deeper in-point pole
    forces, by conservation of the total vanishing order, a holomorphic
    integrand at both out-points, whose residues vanish identically; the
    entry is then an exact zero.  The underlying vanishing orders are
    certified separately by argument-principle quadrature.  Returns the
    identity up to quadrature error; refuses a negative window (ValueError)
    and one above PAIRING_INDEX_BOUND (BadContourError).
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    if window > PAIRING_INDEX_BOUND:
        raise BadContourError(f"pairing window must be <= {PAIRING_INDEX_BOUND}")
    # the in-point order of A_{j+1} * A_{-k-2} is j - k - 1, as its labels are its orders there
    labels = range(-window, window + 1)
    table = _residue_table(puncture_circles(cfg)[0], [j + 1 for j in labels], [-k - 2 for k in labels])
    j, k = np.indices(table.shape)
    return np.where(j - k - 1 >= -4, table, 0j)


def pairing_residue_routes(j: int, k: int, cfg: TorusConfig) -> tuple[complex, complex]:
    """(in-point residue, -(sum of out-point residues)) for consistency checks.

    Both routes are homologous to a level line, so they agree whenever both
    are numerically benign (mild pole orders on each side).
    """
    a, *out = (complex(_residue_table(circle, [j + 1], [-k - 2])[0, 0]) for circle in puncture_circles(cfg))
    return a, -sum(out)


# ---------------------------------------------------------------------------
# the cocycle: double-sum oracle and its exact polynomial form


def _chi_literal(i: int, j: int, params: AlgebraParams) -> complex:
    """Double sum (sum_A - sum_B) C_ik^l C_jl^k, C_ik^l = shifted_constants(i, k)[l].

    A = {k < -1 <= l} and B = {l < -1 <= k}.  C_ik^l = 0 unless i+k <= l <= i+k+6, so
    A-terms have -i-7 <= k <= -2 and B-terms -1 <= k <= -i-2: the k summed span both.
    """
    total = 0j
    for k in range(min(-i - 7, -1), max(-1, -i - 1)):
        for l, c_ikl in shifted_constants(i, k, params).items():
            c_jlk = shifted_constants(j, l, params).get(k)
            if c_jlk is not None and (k < -1) != (l < -1):
                total += c_ikl * c_jlk if k < -1 else -(c_ikl * c_jlk)
    return total


# The double sum is a polynomial of degree <= 2 in lam4..lam7.  At fixed
# level i + j and parity of i, each monomial's coefficient is an odd cubic
# (a*s**3 + b*s)/6 in the integer s = (i - j)/2; the division is exact for
# every admissible pair.  Key (level, i % 2) -> ((lam indices, a, b), ...),
# in the chi_sum orientation for i > j; the indices 0..3 stand for
# lam4..lam7 and name the monomial's factors.  The table is exact: the
# tests re-derive it from _chi_literal at integer parameter probes.
_CHI_POLY: dict[tuple[int, int], tuple[tuple[tuple[int, ...], int, int], ...]] = {
    (0, 1): (((0,), 13, -13),),
    (0, 0): (((0, 0), 13, -13),),
    (-2, 1): (((1,), 13, -4),),
    (-2, 0): (((0, 1), 26, 22),),
    (-4, 1): (((2,), 13, -25),),
    (-4, 0): (((0, 2), 26, 118), ((1, 1), 13, -4)),
    (-6, 1): (((3,), 13, -76),),
    (-6, 0): (((0, 3), 26, 262), ((1, 2), 26, 10)),
    (-8, 0): (((1, 3), 26, 76), ((2, 2), 13, -25)),
    (-10, 0): (((2, 3), 26, -62),),
    (-12, 0): (((3, 3), 13, -76),),
}
# the levels i + j where chi_sum can be nonzero, ascending; the closed-form
# tables' levels are among them
CHI_LEVELS: tuple[int, ...] = tuple(sorted({level for level, _ in _CHI_POLY}))


def _chi_poly(i: int, j: int, params: AlgebraParams) -> complex:
    """_chi_literal(i, j, params) for i > j, in O(1) from _CHI_POLY."""
    total = 0j
    s = (i - j) // 2
    lam = params.as_tuple()
    for factors, a, b in _CHI_POLY.get((i + j, i % 2), ()):
        term = -((a * s**3 + b * s) // 6)
        for t in factors:
            term *= lam[t]
        total += term
    return total


def chi_sum(i: int, j: int, params: AlgebraParams) -> complex:
    """Central-extension cocycle: the double sum, in closed form.

    Supported on i+j in {0, -2, ..., -12} and normalized so that the Witt
    limit gives chi_sum(m, -m) = 13/6 (m^3 - m).  The table is evaluated
    with the larger index first and negated for i > j, which makes
    antisymmetry bit-exact.
    """
    if i == j:
        return 0j
    if i < j:
        return _chi_poly(j, i, params)
    return -_chi_poly(i, j, params)


# ---------------------------------------------------------------------------
# closed-form cocycle


# Q keys carrying a lam7 factor: their values vanish in two-point mode
STARRED_Q_KEYS = (28, 35, 42, 49)


def q_values(params: AlgebraParams) -> dict[int, complex]:
    """Quadratic parameter combinations keyed by label products:
    Q_k = sum of lam_a * lam_b over a, b in {4,...,7} with a*b = k."""
    l4, l5, l6, l7 = params.as_tuple()
    return {
        20: 2 * l4 * l5,
        24: 2 * l4 * l6,
        25: l5 * l5,
        28: 2 * l4 * l7,
        30: 2 * l5 * l6,
        35: 2 * l5 * l7,
        36: l6 * l6,
        42: 2 * l6 * l7,
        49: l7 * l7,
    }


# closed-form coefficient tables: level -> [(cubic, linear, Q key or None)]
# with the summand (cubic * s**3 + linear * s) * Q at shift s = i - level/2 ...
# see chi_closed for the exact variable.
_ODD_TABLE: dict[int, list[tuple[float, float, int | None]]] = {
    0: [(13 / 6, -13 / 6, None)],
    -2: [(13 / 6, -2 / 3, 20)],
    -4: [(13 / 6, -25 / 6, 24)],
    -6: [(13 / 6, -76 / 6, 28)],
}

_EVEN_TABLE: dict[int, list[tuple[float, float, int | None]]] = {
    0: [(13 / 6, -13 / 6, None)],
    -2: [(13 / 3, 5 / 3, 20)],
    -4: [(13 / 3, 11 / 3, 24), (13 / 6, -2 / 3, 25)],
    -6: [(13 / 3, 5 / 3, 28), (13 / 3, -25 / 3, 30)],
    -8: [(13 / 3, -58 / 3, 35), (13 / 6, -73 / 6, 36)],
    -10: [(13 / 3, -133 / 3, 42)],
    -12: [(13 / 6, -110 / 3, 49)],
}


def chi_closed(i: int, j: int, params: AlgebraParams) -> complex:
    """Cocycle from the closed-form coefficient tables (kept verbatim).

    Mixed-parity pairs vanish; odd-odd pairs use the four-level table,
    even-even pairs the seven-level table.  The cubic variable is the first
    argument shifted by half the level depth, which makes each term
    antisymmetric under (i, j) swap and aligns the Witt limit with
    chi_sum.  Residual disagreements with chi_sum are the business of the
    reconciliation report, never patched here.
    """
    return _chi_closed(i, j, q_values(params))


def _chi_closed(i: int, j: int, qv: dict[int, complex]) -> complex:
    """chi_closed(i, j, params) from qv = q_values(params)."""
    if (i + j) % 2 != 0 or (i % 2) != (j % 2):
        return 0j
    level = i + j
    table = _ODD_TABLE if i % 2 != 0 else _EVEN_TABLE
    if level not in table:
        return 0j
    shift = -level // 2
    s = i + shift
    total = 0j
    for cubic, linear, qkey in table[level]:
        factor = 1.0 + 0j if qkey is None else qv[qkey]
        total += (cubic * s**3 + linear * s) * factor
    return total


# ---------------------------------------------------------------------------
# identities, tables, reconciliation


def cocycle_identity_residual(bound: int, params: AlgebraParams) -> np.ndarray:
    """Two-cocycle identity residual, normalized by the cubic parameter
    scale, for every label triple (i, j, k) in [-bound, bound]^3, at
    [i + bound, j + bound, k + bound].

    Cyclic sum over (i, j, k) of sum_m C_jk^m chi_im; zero for any valid
    cocycle, in either orientation (the identity is linear in chi and C).

    C_bc^m is slot t of algebra.slot_coefficients(b + 1, c + 1), read from
    one bracket_slots table, at m = b + c + 2t (the shifted_constants key),
    and chi_sum is read from one table over the window, called only where
    a + m is a _CHI_POLY level and an exact 0j elsewhere.  The products
    Q_t[a, b, c] = C_bc^m chi_am are formed once over the cube; the term
    (j, k, i) is Q_t with its axes rotated, and likewise (k, i, j).  They
    add into one running sum, t ascending within each cyclic term and the
    terms in the order (i, j, k), (j, k, i), (k, i, j).
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    labels = range(-bound, bound + 1)
    # shifted_constants(b, c) is bracket(b + 1, c + 1) with targets shifted by -1
    shifted = range(1 - bound, bound + 2)
    slots = bracket_slots(params, shifted, shifted)
    seconds = range(-2 * bound, 2 * bound + 7)
    chi = np.array([[chi_sum(a, m, params) if a + m in CHI_LEVELS else 0j for m in seconds] for a in labels])
    # Q_t[a, b, c] = C_bc^m chi_am at m = b + c + 2t, over the cube; the index
    # arrays are the labels + bound, so m - seconds.start is b + c + 2t
    index = range(len(labels))
    a, b, c = np.ix_(index, index, index)
    products = [complex_multiply(slots[b, c, t], chi[a, b + c + 2 * t]) for t in range(4)]
    total = np.zeros((len(labels),) * 3, dtype=complex)
    # the term (j, k, i) of the triple (i, j, k) is Q_t at (j, k, i): Q_t with its axes rotated
    for axes in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        for product in products:
            total += product.transpose(axes)
    return complex_abs(total) / (params.scale() ** 3)


def _support_pairs(window: int):
    """The pairs (i, j) over [-window, window]^2, in (i, j) order, whose level
    i + j is in CHI_LEVELS: the only pairs where chi_sum or chi_closed can
    be nonzero.  Raises ValueError for window < 1 when iterated."""
    if window < 1:
        raise ValueError("window must be >= 1")
    for i in range(-window, window + 1):
        for level in CHI_LEVELS:
            if -window <= level - i <= window:
                yield i, level - i


def build_cocycle_table(params: AlgebraParams, window: int) -> dict[tuple[int, int], complex]:
    """The nonzero chi_sum values over [-window, window]^2, keyed (i, j)."""
    entries: dict[tuple[int, int], complex] = {}
    for i, j in _support_pairs(window):
        value = chi_sum(i, j, params)
        if value != 0:
            entries[(i, j)] = value
    return entries


def reconciliation_report(params: AlgebraParams, window: int, table: dict[tuple[int, int], complex]) -> list[dict]:
    """chi_closed vs chi_sum comparison, reading chi_sum from table, the
    build_cocycle_table(params, window) it reconciles.

    One record per disagreeing pair, with chi_sum and chi_closed as complex
    values; empty list means full agreement at RECONCILIATION_RTOL over the
    whole window.  A pair missing from the table is a zero of chi_sum, and
    chi_sum is called for it, so that its parts keep their signs.  The Q
    values are formed once per report; each chi_closed value has the bits
    chi_closed(i, j, params) returns.
    """
    report: list[dict] = []
    qv = q_values(params)
    for i, j in _support_pairs(window):
        s = table.get((i, j))
        if s is None:
            s = chi_sum(i, j, params)
        c = _chi_closed(i, j, qv)
        diff = abs(s - c)
        if diff > RECONCILIATION_RTOL * max(1.0, abs(s)):
            report.append(
                {
                    "i": i,
                    "j": j,
                    "chi_sum": s,
                    "chi_closed": c,
                    "abs_diff": diff,
                }
            )
    return report
