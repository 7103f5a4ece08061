"""Structure constants of the generalized Krichever-Novikov algebra.

Basis vector fields l_k = A_k d/dz close under the Lie bracket with sparse
structure constants whose only non-integer content is lam4..lam7:

    [l_n, l_m] = (m - n) l_{n+m-1}                       n, m even
    [l_a, l_b] = (b - a) * sum_t lam_{4+t} l_{a+b-1+2t}  a, b odd
    [l_a, l_n] = sum_t (n - a - t) lam_{4+t} l_{a+n-1+2t}  a odd, n even

with t = 0..3.  The even-odd bracket follows by antisymmetry.  Every
target index lies in [i+j-1, i+j+5] and shares the parity of i+j-1
(almost-grading).  bracket_numeric realizes the defining vector-field
bracket pointwise from the frame of a point and serves as the independent
oracle.  build_structure_table returns the brackets over an index window
as a plain dict {(i, j): terms}; cli.py alone writes it out.

jacobi_residual takes ints or broadcastable int arrays of labels: one call
checks a whole grid of triples.  It reads every bracket from one slot table,
bracket_slots, filled from bracket() itself, and forms each complex product
from real arrays (slot_product) so that every grid entry is bit for bit the
scalar call's value.
"""

from __future__ import annotations

import numpy as np

from .basis import AlgebraParams, monomial, monomial_derivative

BracketTerms = dict[int, complex]
StructureEntries = dict[tuple[int, int], BracketTerms]


def bracket(i: int, j: int, params: AlgebraParams) -> BracketTerms:
    """Sparse bracket [l_i, l_j] as a map target index -> coefficient.

    Zero coefficients are dropped, so antisymmetric pairs and equal
    arguments produce an empty map.
    """
    lam = params.as_tuple()
    terms: BracketTerms = {}

    def add(k: int, c: complex) -> None:
        if c != 0:
            terms[k] = terms.get(k, 0j) + c
            if terms[k] == 0:
                del terms[k]

    if i % 2 == 0 and j % 2 == 0:
        add(i + j - 1, complex(j - i))
    elif i % 2 != 0 and j % 2 != 0:
        factor = complex(j - i)
        if factor != 0:
            for t in range(4):
                add(i + j - 1 + 2 * t, factor * lam[t])
    elif i % 2 != 0:  # odd-even
        for t in range(4):
            add(i + j - 1 + 2 * t, complex(j - i - t) * lam[t])
    else:  # even-odd via antisymmetry
        for k, c in bracket(j, i, params).items():
            add(k, -c)
    return terms


def shifted_constants(i: int, j: int, params: AlgebraParams) -> BracketTerms:
    """Structure constants in the shifted basis e_i = l_{i+1}.

    Support lies in [i+j, i+j+6] with even steps.
    """
    return {k - 1: c for k, c in bracket(i + 1, j + 1, params).items()}


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


def bracket_slots(
    params: AlgebraParams, rows: range, cols: range
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of bracket(a, b, params) for a in rows and b
    in cols, at [a - rows.start, b - cols.start, t] for the target
    a + b - 1 + 2t (t = 0..3); a target bracket() drops holds 0.0."""
    re = np.zeros((len(rows), len(cols), 4))
    im = np.zeros_like(re)
    for x, a in enumerate(rows):
        for y, b in enumerate(cols):
            for k, c in bracket(a, b, params).items():
                t = (k - a - b + 1) // 2
                re[x, y, t] = c.real
                im[x, y, t] = c.imag
    return re, im


def slot_product(ar, ai, br, bi):
    """(re, im) of (ar + i ai) * (br + i bi), rounded as Python's complex
    product: separate real multiplies, so no fused multiply-add (numpy's
    complex multiply may fuse and differ in the last bit)."""
    return ar * br - ai * bi, ar * bi + ai * br


def jacobi_residual(i, j, k, params: AlgebraParams):
    """Max-norm of the cyclic Jacobi sum, normalized by the parameter scale.

    The double brackets are quadratic in lam4..lam7, so the residual is
    divided by max(1, max|lam|)^2; an exact Lie algebra leaves only
    floating-point noise well below 1e-9.

    i, j, k are ints (the result is a float) or broadcastable int arrays
    (an array of the broadcast shape).  [[l_a, l_b], l_c] has its targets at
    a + b + c - 2 + 2s, s = 0..6, the same for all three cyclic terms.  Each
    term sums its products from zero with the outer slot ascending, and the
    terms add in the order (i, j, k), (j, k, i), (k, i, j): the summation
    order of the scalar definition, so the value does not depend on the
    shape of the call.
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
            p_re, p_im = slot_product(
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
) -> StructureEntries:
    """The nonempty brackets over [-window, window]^2, keyed (i, j), in the
    l basis ("original") or the shifted basis e_i = l_{i+1} ("shifted")."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if indexing not in ("original", "shifted"):
        raise ValueError(f"unknown indexing {indexing!r}")
    terms_of = bracket if indexing == "original" else shifted_constants
    entries: StructureEntries = {}
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            if i == j:
                continue
            terms = terms_of(i, j, params)
            if terms:
                entries[(i, j)] = terms
    return entries


def table_gap(a: StructureEntries, b: StructureEntries) -> float:
    """Largest entrywise coefficient difference, relative to b's magnitude.

    Used for degeneration-continuity checks; the normalization is the
    largest coefficient magnitude of the reference table.
    """
    keys = set(a) | set(b)
    gap = 0.0
    ref = 1.0
    for terms in b.values():
        for c in terms.values():
            ref = max(ref, abs(c))
    for key in keys:
        ta = a.get(key, {})
        tb = b.get(key, {})
        for k in set(ta) | set(tb):
            gap = max(gap, abs(ta.get(k, 0j) - tb.get(k, 0j)))
    return gap / ref
