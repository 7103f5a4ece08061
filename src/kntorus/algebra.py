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
defining vector-field bracket pointwise from the frame of a point and
serves as the independent oracle.  build_structure_table returns the
nonzero structure constants over an index window as plain rows
(i, j, k, c) in (i, j, k) order, read from one bracket_slots table;
cli.py alone writes them out.

jacobi_residual takes ints or broadcastable int arrays of labels: one call
checks a whole grid of triples.  It reads every bracket from one
bracket_slots table and forms each complex product from real arrays
(config.complex_product) so that every grid entry is bit for bit the
scalar call's value.
"""

from __future__ import annotations

import numpy as np

from .basis import AlgebraParams, monomial, monomial_derivative
from .config import complex_product

BracketTerms = dict[int, complex]
StructureRow = tuple[int, int, int, complex]


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
    return tuple(complex(j - i + step * t) * lam + 0j for t, lam in enumerate(params.as_tuple()))


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


def bracket_numeric(i: int, j: int, frame: tuple[complex, complex, complex]) -> complex:
    """Pointwise vector-field bracket A_i * A_j' - A_j * A_i' from the frame
    (base, w, w') of a point, as basis.frame returns it.

    Truth oracle for bracket(): the closed-form constants must reproduce
    this value when contracted with the basis functions.
    """
    base, w, w_prime = frame
    return monomial(i, base, w) * monomial_derivative(j, base, w, w_prime) - monomial(
        j, base, w
    ) * monomial_derivative(i, base, w, w_prime)


def bracket_eval(terms: BracketTerms, frame: tuple[complex, complex, complex]) -> complex:
    """Contract bracket terms (as bracket() returns them) with the basis
    functions at the point of frame."""
    base, w, _ = frame
    return sum(c * monomial(k, base, w) for k, c in terms.items())


def bracket_slots(params: AlgebraParams, rows: range, cols: range) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of slot_coefficients(a, b, params) for a in
    rows and b in cols, at [a - rows.start, b - cols.start, t] for the
    target a + b - 1 + 2t (t = 0..3).

    The rule is called once for each parity of a (both) and each
    difference b - a that occurs, and the table is gathered from those
    values.
    """
    first = cols.start - rows[-1]  # the least difference b - a
    diffs = range(first, cols[-1] - rows.start + 1)
    slots = np.array([[slot_coefficients(p, p + d, params) for d in diffs] for p in (0, 1)])
    a = np.arange(rows.start, rows.stop)[:, None]
    b = np.arange(cols.start, cols.stop)[None, :]
    table = slots[a % 2, b - a - first]
    return table.real, table.imag


def jacobi_residual(i, j, k, params: AlgebraParams):
    """Max-norm of the cyclic Jacobi sum, normalized by the parameter scale.

    The double brackets are quadratic in lam4..lam7, so the residual is
    divided by max(1, max|lam|)^2; an exact Lie algebra leaves only
    floating-point noise well below 1e-9.

    i, j, k are ints (the result is a float) or broadcastable int arrays
    (an array of the broadcast shape).  Both brackets of each term are read
    from one bracket_slots table, so from the slot rule bracket() reads.
    [[l_a, l_b], l_c] has its targets at a + b + c - 2 + 2s, s = 0..6, the
    same for all three cyclic terms.  Each term sums its products from zero
    with the outer slot ascending, and the terms add in the order (i, j, k),
    (j, k, i), (k, i, j): the summation order of the scalar definition, so
    the value does not depend on the shape of the call.
    """
    i, j, k = np.broadcast_arrays(i, j, k)
    lo = int(min(i.min(), j.min(), k.min()))
    hi = int(max(i.max(), j.max(), k.max()))
    # [l_a, l_b] lands on m in [2lo - 1, 2hi + 5], which [l_m, l_c] reads again
    rows, cols = range(min(lo, 2 * lo - 1), max(hi, 2 * hi + 5) + 1), range(lo, hi + 1)
    re, im = bracket_slots(params, rows, cols)
    total_re = np.zeros(i.shape + (7,))
    total_im = np.zeros_like(total_re)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        x, y, n = a - rows.start, b - cols.start, c - cols.start
        term_re = np.zeros_like(total_re)
        term_im = np.zeros_like(total_re)
        for t1 in range(4):
            # slot t1 of [l_a, l_b], at m, times the four slots of [l_m, l_c]
            m = a + b - 1 + 2 * t1 - rows.start
            p_re, p_im = complex_product(
                re[x, y, t1][..., None], im[x, y, t1][..., None], re[m, n], im[m, n]
            )
            term_re[..., t1 : t1 + 4] += p_re
            term_im[..., t1 : t1 + 4] += p_im
        total_re += term_re
        total_im += term_im
    scale = params.scale()
    residual = np.hypot(total_re, total_im).max(axis=-1) / (scale * scale)
    return float(residual) if residual.ndim == 0 else residual


def build_structure_table(
    params: AlgebraParams, window: int, indexing: str = "original"
) -> list[StructureRow]:
    """The nonzero structure constants over [-window, window]^2 as rows
    (i, j, k, c), c the coefficient of [l_i, l_j] at l_k, in (i, j, k)
    order; in the l basis ("original") or the shifted basis e_i = l_{i+1}
    ("shifted"), where the row carries shifted_constants(i, j)[k].

    The coefficients come from one bracket_slots table, whose slot t sits
    at k = i + j - 1 + 2t (original) or i + j + 2t (shifted), so slot order
    is k order within each pair.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if indexing not in ("original", "shifted"):
        raise ValueError(f"unknown indexing {indexing!r}")
    shift = 0 if indexing == "original" else 1
    labels = range(-window, window + 1)
    slot_labels = range(labels.start + shift, labels.stop + shift)
    re, im = bracket_slots(params, slot_labels, slot_labels)
    slots = np.empty(re.shape, complex)
    slots.real, slots.imag = re, im
    rows: list[StructureRow] = []
    for x, i in enumerate(labels):
        # the nonzero slots t of [l_i, l_j], j = labels[y], in (y, t) order
        y, t = np.nonzero(slots[x])
        j = y + labels.start
        k = i + j - 1 + shift + 2 * t
        rows.extend(zip([i] * y.size, j.tolist(), k.tolist(), slots[x, y, t].tolist()))
    return rows
