"""Structure constants of the generalized Krichever-Novikov algebra.

Basis vector fields l_k = A_k d/dz close under the Lie bracket with sparse
structure constants whose only non-integer content is lam4..lam7:

    [l_n, l_m] = (m - n) l_{n+m-1}                       n, m even
    [l_a, l_b] = (b - a) * sum_t lam_{4+t} l_{a+b-1+2t}  a, b odd
    [l_a, l_n] = sum_t (n - a - t) lam_{4+t} l_{a+n-1+2t}  a odd, n even

with t = 0..3.  The even-odd bracket follows by antisymmetry.  Every
target index lies in [i+j-1, i+j+5] and shares the parity of i+j-1
(almost-grading).  slot_coefficients is the one implementation of these
formulas: bracket, shifted_constants and the slot table bracket_slots all
read it.  A slot depends only on the label difference j - i and the parity
of i, so bracket_slots calls it once per (parity, difference) and gathers
the rows x cols table from those values by index: every entry is still a
slot_coefficients value, bit for bit.  bracket_numeric realizes the
defining vector-field bracket A_i A_j' - A_j A_i' from the values and
derivatives of two basis functions, at a point or on arrays, and serves as
the independent oracle.  bracket_oracle evaluates both sides of that
oracle at many drawn (pair, point) entries from shared tables: one frame
array of the points, one table of basis.monomial and one of
basis.monomial_derivative over the labels, and one bracket_slots table.
build_structure_table returns the nonzero structure constants over an
index window as a StructureTable of four columns i, j, k and c in (i, j, k)
order, read from one bracket_slots table by one np.nonzero; its rows()
gives them as plain (i, j, k, c) tuples, and cli.py alone writes them out.

jacobi_residual(bound, params) checks the Jacobi identity on every label
triple of the cube [-bound, bound]^3 in one call.  It reads every bracket
from one bracket_slots table, forms the cyclic term once over the cube and
reads the other two cyclic terms from it with its axes rotated.  Each
complex product and modulus is rounded as Python's (config.complex_multiply
and config.complex_abs) and the sums run in the order of the cyclic sum's
definition.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import AlgebraParams, monomial, monomial_derivative, require_finite
from .config import complex_abs, complex_multiply

BracketTerms = dict[int, complex]
StructureRow = tuple[int, int, int, complex]


class StructureTable(NamedTuple):
    """Structure constants as columns: row n is (i[n], j[n], k[n], c[n]),
    the labels as int arrays and the coefficients as a complex array."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    c: np.ndarray

    def rows(self) -> list[StructureRow]:
        """The rows as (i, j, k, c) tuples of Python int and complex."""
        return list(zip(self.i.tolist(), self.j.tolist(), self.k.tolist(), self.c.tolist()))


def slot_coefficients(i: int, j: int, params: AlgebraParams) -> tuple[complex, ...]:
    """The coefficients of [l_i, l_j] at the targets i + j - 1 + 2t, t = 0..3.

    The one implementation of the slot rule: slot t is (j - i + step t)
    lam_{4+t}, with step 0 for two odd labels, -1 for odd-even and +1 for
    even-odd (the antisymmetric image of odd-even); two even labels fill
    slot 0 alone with j - i.  Adding 0j makes every zero part +0.0.
    """
    if i % 2 == 0 and j % 2 == 0:
        return complex(j - i), 0j, 0j, 0j
    step = j % 2 - i % 2
    d = j - i
    lam4, lam5, lam6, lam7 = params.as_tuple()
    return (
        complex(d) * lam4 + 0j,
        complex(d + step) * lam5 + 0j,
        complex(d + 2 * step) * lam6 + 0j,
        complex(d + 3 * step) * lam7 + 0j,
    )


def bracket(i: int, j: int, params: AlgebraParams) -> BracketTerms:
    """Sparse bracket [l_i, l_j] as a map target index -> coefficient.

    Zero coefficients are dropped, so antisymmetric pairs and equal
    arguments produce an empty map.
    """
    return {i + j - 1 + 2 * t: c for t, c in enumerate(slot_coefficients(i, j, params)) if c}


def shifted_constants(i: int, j: int, params: AlgebraParams) -> BracketTerms:
    """Structure constants in the shifted basis e_i = l_{i+1}: the nonzero
    slots of [l_{i+1}, l_{j+1}], keyed at i + j + 2t."""
    return {i + j + 2 * t: c for t, c in enumerate(slot_coefficients(i + 1, j + 1, params)) if c}


def bracket_numeric(value_i, derivative_i, value_j, derivative_j):
    """Pointwise vector-field bracket A_i * A_j' - A_j * A_i' from the values
    and derivatives of A_i and A_j (basis.monomial and
    basis.monomial_derivative), at a point or at arrays of points alike.

    Truth oracle for bracket(): the closed-form constants must reproduce
    this value when contracted with the basis functions.
    """
    return value_i * derivative_j - value_j * derivative_i


def bracket_slots(params: AlgebraParams, rows: range, cols: range) -> np.ndarray:
    """slot_coefficients(a, b, params) for a in rows and b in cols, as one
    complex array, at [a - rows.start, b - cols.start, t] for the target
    a + b - 1 + 2t (t = 0..3).

    The rule is called once for each parity of a (both) and each
    difference b - a that occurs, and the table is gathered from those
    values.
    """
    first = cols.start - rows[-1]  # the least difference b - a
    diffs = range(first, cols[-1] - rows.start + 1)
    slots = np.array([[slot_coefficients(p, p + d, params) for d in diffs] for p in (0, 1)])
    a = np.arange(rows.start, rows.stop)[:, None]
    b = np.arange(cols.start, cols.stop)[None, :]
    return slots[a % 2, b - a - first]


def bracket_oracle(
    params: AlgebraParams, labels: range, frame: tuple[np.ndarray, np.ndarray, np.ndarray], draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the bracket oracle at drawn points: the slot contraction
    sum_t C_t A_{i+j-1+2t} and bracket_numeric(A_i, A_i', A_j, A_j'), for
    i = labels[x], j = labels[y] at the point draws[x, y, ...] of frame
    (as basis.frame_array returns it), in the shape of draws.

    A_k is read from one table of basis.monomial over [2 lo - 1, 2 hi + 5]
    and A_k' from one of basis.monomial_derivative over labels, and the
    slots from one bracket_slots table; a zero slot adds no term, as
    bracket() drops it.  The terms and the values of A_i and A_j that the
    draws read pass through basis.require_finite, which raises
    DegenerateModuliError naming the least label whose value is not
    finite: on a thin lattice wp - p can come so close to 0 that its power
    vanishes or overflows.
    """
    base, w, w_prime = frame
    targets = range(2 * labels.start - 1, 2 * labels[-1] + 6)
    x, y = np.indices(draws.shape)[:2]
    i, j = x + labels.start, y + labels.start
    k = (i + j - 1)[..., None] + 2 * np.arange(4)  # the targets of [l_i, l_j]
    slots = bracket_slots(params, labels, labels)[x, y]
    with np.errstate(all="ignore"):
        values = np.array([monomial(t, base, w) for t in targets])
        derivatives = np.array([monomial_derivative(t, base, w, w_prime) for t in labels])
        terms = np.where(slots != 0, values[k - targets.start, draws[..., None]], 0)
        value_i, value_j = values[i - targets.start, draws], values[j - targets.start, draws]
        contraction = (slots * terms).sum(axis=-1)
        numeric = bracket_numeric(value_i, derivatives[x, draws], value_j, derivatives[y, draws])
    require_finite((k, terms), (i, value_i), (j, value_j))
    return contraction, numeric


def jacobi_residual(bound: int, params: AlgebraParams) -> np.ndarray:
    """Max-norm of the cyclic Jacobi sum, normalized by the parameter scale,
    for every label triple (i, j, k) in [-bound, bound]^3, at
    [i + bound, j + bound, k + bound].

    The double brackets are quadratic in lam4..lam7, so the residual is
    divided by max(1, max|lam|)^2; an exact Lie algebra leaves only
    floating-point noise well below 1e-9.

    Both brackets are read from one bracket_slots table, so from the slot
    rule bracket() reads.  [[l_a, l_b], l_c] has its targets at
    a + b + c - 2 + 2s, s = 0..6, the same for all three cyclic terms.  The
    term T[a, b, c] is formed once over the cube: its products add from
    zero with the outer slot ascending.  The terms (j, k, i) and (k, i, j)
    are T with its axes rotated, and the three add in the order (i, j, k),
    (j, k, i), (k, i, j).
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    labels = range(-bound, bound + 1)
    # [l_a, l_b] lands on m in [-2 bound - 1, 2 bound + 5], which [l_m, l_c] reads again
    rows = range(-2 * bound - 1, 2 * bound + 6)
    slots = bracket_slots(params, rows, labels)
    a, b, c = np.ix_(labels, labels, labels)
    x, y, n = a - rows.start, b - labels.start, c - labels.start
    term = np.zeros((len(labels),) * 3 + (7,), dtype=complex)
    for t1 in range(4):
        # slot t1 of [l_a, l_b], at m, times the four slots of [l_m, l_c]
        m = a + b - 1 + 2 * t1 - rows.start
        term[..., t1 : t1 + 4] += complex_multiply(slots[x, y, t1][..., None], slots[m, n])
    total = term + term.transpose(2, 0, 1, 3) + term.transpose(1, 2, 0, 3)
    scale = params.scale()
    return complex_abs(total).max(axis=-1) / (scale * scale)


def build_structure_table(params: AlgebraParams, window: int, indexing: str = "original") -> StructureTable:
    """The nonzero structure constants over [-window, window]^2 as the
    columns of rows (i, j, k, c), c the coefficient of [l_i, l_j] at l_k, in
    (i, j, k) order; in the l basis ("original") or the shifted basis
    e_i = l_{i+1} ("shifted"), where the row carries shifted_constants(i, j)[k].

    The coefficients come from one bracket_slots table, whose slot t sits
    at k = i + j - 1 + 2t (original) or i + j + 2t (shifted): the table's
    (x, y, t) order is (i, j, k) order, so one np.nonzero over it reads
    every row in order.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if indexing not in ("original", "shifted"):
        raise ValueError(f"unknown indexing {indexing!r}")
    shift = 0 if indexing == "original" else 1
    slot_labels = range(shift - window, shift + window + 1)
    slots = bracket_slots(params, slot_labels, slot_labels)
    x, y, t = np.nonzero(slots)
    i, j = x - window, y - window
    return StructureTable(i, j, i + j - 1 + shift + 2 * t, slots[x, y, t])
