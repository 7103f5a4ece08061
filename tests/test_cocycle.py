import math
import pprint
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import complex_lams, label_lists
from kntorus.algebra import bracket
from kntorus.basis import WITT_PARAMS, AlgebraParams, formal_params, lambda_coefficients
from kntorus.cocycle import (
    _CHI_POLY,
    _chi_literal,
    build_cocycle_table,
    chi_closed,
    chi_sum,
    cocycle_identity_residual,
    pairing,
    q_values,
    reconciliation_report,
    shifted_constants,
)
from kntorus.errors import BadContourError
from kntorus.verify import label_grid

LEVELS = (0, -2, -4, -6, -8, -10, -12)


def test_pairing_full_window(cfg_generic):
    # acceptance criterion 5 sweeps the same window at tau = i, q = 0.2
    for j in range(-10, 11):
        for k in range(-10, 11):
            expect = 1.0 if j == k else 0.0
            assert abs(pairing(j, k, cfg_generic) - expect) < 1e-8


def test_pairing_index_bound(cfg_square):
    with pytest.raises(BadContourError):
        pairing(13, 0, cfg_square)


def test_pairing_two_point_mode(cfg_two_point):
    # duality survives the merged out-puncture (double zero of the pole
    # factor, simple differential pole)
    for j in range(-8, 9):
        for k in range(-8, 9):
            expect = 1.0 if j == k else 0.0
            assert abs(pairing(j, k, cfg_two_point) - expect) < 1e-8


def test_shifted_constants(cfg_square):
    lam = lambda_coefficients(cfg_square)
    assert shifted_constants(1, 3, lam) == {4: 2 + 0j}
    assert shifted_constants(2, 2, lam) == {}
    rng = random.Random(51)
    for _ in range(50):
        i, j = rng.randint(-8, 8), rng.randint(-8, 8)
        for k, c in shifted_constants(i, j, lam).items():
            assert i + j <= k <= i + j + 6
            assert bracket(i + 1, j + 1, lam)[k + 1] == c


def _brute_force_chi(i, j, params, bound=40):
    # transposed orientation, huge index window: independent of the derived
    # summation bounds inside chi_sum
    i, j = j, i
    total = 0j
    for k in range(-bound, bound + 1):
        first = shifted_constants(i, k, params)
        if not first:
            continue
        for l, c1 in first.items():
            if abs(l) > bound + 10:
                continue
            c2 = shifted_constants(j, l, params).get(k)
            if c2 is None:
                continue
            if k < -1 <= l:
                total += c1 * c2
            elif k >= -1 > l:
                total -= c1 * c2
    return total


def test_chi_sum_matches_brute_force(cfg_square):
    lam = lambda_coefficients(cfg_square)
    rng = random.Random(55)
    pairs = [(2, -2), (3, -5), (-4, 0), (1, -7), (5, -5), (0, -2)]
    pairs += [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(10)]
    for i, j in pairs:
        expect = _brute_force_chi(i, j, lam)
        got = chi_sum(i, j, lam)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


def _literal_chi(i, j, params):
    # chi_sum's orientation, taken from the double sum
    if i == j:
        return 0j
    return _chi_literal(j, i, params) if i < j else -_chi_literal(i, j, params)


def _probe_coefficients(i, j):
    """Exact coefficient of every monomial of degree <= 2 in lam4..lam7.

    Integer probes at lam = 0, +-e_t and e_t + e_u keep the double sum in
    exact floating-point arithmetic.
    """

    def at(*lam):
        v = _literal_chi(i, j, AlgebraParams(*lam, provenance="formal"))
        assert v.imag == 0 and v.real == int(v.real)
        return Fraction(v.real)

    def unit(*factors):
        lam = [0, 0, 0, 0]
        for t, x in factors:
            lam[t] += x
        return at(*lam)

    c0 = at(0, 0, 0, 0)
    coeffs = {(): c0}
    for t in range(4):
        plus, minus = unit((t, 1)), unit((t, -1))
        coeffs[(t,)] = (plus - minus) / 2
        coeffs[(t, t)] = (plus + minus) / 2 - c0
    for t, u in combinations_with_replacement(range(4), 2):
        if t != u:
            coeffs[(t, u)] = (
                unit((t, 1), (u, 1)) - c0 - sum(coeffs[(x,)] + coeffs[(x, x)] for x in (t, u))
            )
    return coeffs


def test_chi_poly_rederived_from_double_sum():
    bound = 40
    derived = {}
    for level in LEVELS:
        for parity in (1, 0):
            samples = {
                (i - (level - i)) // 2: _probe_coefficients(i, level - i)
                for i in range(-bound, bound + 1)
                if i % 2 == parity and i > level - i and abs(level - i) <= bound
            }
            terms = []
            for mono in sorted(next(iter(samples.values())), key=lambda m: (len(m), m)):
                values = {s: c[mono] for s, c in samples.items()}
                if not any(values.values()):
                    continue
                # the odd cubic (a s^3 + b s) / 6 through the two smallest s
                (s1, v1), (s2, v2) = sorted(values.items())[:2]
                det = s1**3 * s2 - s1 * s2**3
                a = 6 * (v1 * s2 - v2 * s1) / det
                b = 6 * (s1**3 * v2 - s2**3 * v1) / det
                assert a.denominator == b.denominator == 1, (level, parity, mono, a, b)
                for s, v in values.items():
                    assert 6 * v == a * s**3 + b * s, (level, parity, mono, s)
                terms.append((mono, int(a), int(b)))
            if terms:
                derived[(level, parity)] = tuple(terms)
    assert derived == _CHI_POLY, "regenerated _CHI_POLY:\n" + pprint.pformat(derived)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(complex_lams, complex_lams, complex_lams, complex_lams),
    st.integers(-40, 40),
    # every level of the support, both parities, and a margin outside it
    st.integers(-14, 2),
)
def test_chi_sum_matches_double_sum(lam, i, level):
    j = level - i
    assume(abs(j) <= 40)
    params = AlgebraParams(*lam, provenance="formal")
    expect = _literal_chi(i, j, params)
    assert abs(chi_sum(i, j, params) - expect) <= 1e-12 * max(1.0, abs(expect))


def test_witt_table_bit_identical_to_double_sum():
    table = build_cocycle_table(WITT_PARAMS, 8)
    expect = {}
    for i in range(-8, 9):
        for j in range(-8, 9):
            value = _literal_chi(i, j, WITT_PARAMS)
            if value != 0:
                expect[(i, j)] = repr(value)
    # repr tells 0.0 from -0.0
    assert {key: repr(value) for key, value in table.items()} == expect


def test_chi_poly_monomials_have_weight_minus_level():
    # lam_{4+t} has weight 2t (wp scales by c^-2 when the lattice scales by c)
    for (level, _), monomials in _CHI_POLY.items():
        for factors, _, _ in monomials:
            assert sum(2 * t for t in factors) == -level, (level, factors)


@pytest.mark.parametrize("e", [-1, 1, 2, 3])
def test_weight_scaling_is_exact(cfg_generic, e):
    # with c = 2**e, lam_{4+t} -> c^-2t lam_{4+t} multiplies chi_sum(i, j) by
    # c^(i+j) and the bracket slot at target k by c^(i+j-1-k), exactly
    def c_pow(n: int) -> float:
        return math.ldexp(1.0, e * n)

    lam = lambda_coefficients(cfg_generic)
    scaled = AlgebraParams(*(v * c_pow(-2 * t) for t, v in enumerate(lam.as_tuple())))
    for i in range(-12, 13):
        for j in range(-12, 13):
            assert chi_sum(i, j, scaled) == chi_sum(i, j, lam) * c_pow(i + j), (i, j)
            expect = {k: v * c_pow(i + j - 1 - k) for k, v in bracket(i, j, lam).items()}
            assert bracket(i, j, scaled) == expect, (i, j)


def test_chi_literal_orientation_is_operator_anomaly():
    # the raw boundary-split double sum carries the bc-system orientation
    # (anomaly -13 at (2,-2)); the public chi_sum is its transpose
    assert _chi_literal(2, -2, WITT_PARAMS) == -13 + 0j
    assert chi_sum(2, -2, WITT_PARAMS) == 13 + 0j


def test_chi_literal_antisymmetric_in_exact_arithmetic():
    # with order-one formal parameters the two evaluation orders agree to
    # round-off, substantiating the canonicalized antisymmetry
    params = formal_params(0.25 + 0.125j, -0.5, 0.0625j)
    rng = random.Random(53)
    for _ in range(40):
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        assert abs(_chi_literal(i, j, params) + _chi_literal(j, i, params)) < 1e-12


def test_q_values(cfg_square, cfg_two_point):
    lam = lambda_coefficients(cfg_square)
    qv = q_values(lam)
    assert qv[20] == 2 * lam.lam4 * lam.lam5
    assert qv[25] == lam.lam5 * lam.lam5
    assert qv[36] == lam.lam6 * lam.lam6
    assert set(qv) == {20, 24, 25, 28, 30, 35, 36, 42, 49}
    qv0 = q_values(lambda_coefficients(cfg_two_point))
    for key in (28, 35, 42, 49):
        assert qv0[key] == 0j
    qv_unit = q_values(formal_params())
    assert all(v == 0 for v in qv_unit.values())


def test_chi_closed_level_zero():
    # no Q term contributes at level 0, any parameters
    lam = formal_params(0.3, -0.7j, 0.2)
    assert chi_closed(2, -2, lam) == 13 + 0j
    assert chi_closed(-2, 2, lam) == -13 + 0j
    assert chi_closed(1, -1, lam) == 0j
    assert chi_closed(-1, 1, lam) == 0j


def test_chi_closed_mixed_parity(cfg_square):
    lam = lambda_coefficients(cfg_square)
    for i in range(-6, 7):
        for j in range(-6, 7):
            if (i % 2) != (j % 2):
                assert chi_closed(i, j, lam) == 0j


def test_chi_closed_antisymmetry(cfg_square):
    lam = lambda_coefficients(cfg_square)
    for i in range(-8, 9):
        for j in range(-8, 9):
            assert abs(chi_closed(i, j, lam) + chi_closed(j, i, lam)) <= 1e-9 * max(
                1.0, abs(chi_closed(i, j, lam))
            )


def test_chi_closed_starred_terms_vanish_two_point(cfg_two_point):
    lam = lambda_coefficients(cfg_two_point)
    # starred keys carry lam7: levels -10, -12 and the odd -6 level die
    for i in range(-8, 9):
        for j in range(-8, 9):
            if i + j in (-10, -12):
                assert chi_closed(i, j, lam) == 0j
            if i + j == -6 and i % 2 != 0 and j % 2 != 0:
                assert chi_closed(i, j, lam) == 0j


@settings(max_examples=16, deadline=None)
@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
def test_two_cocycle_identity_exact_at_integer_probes(lams):
    # with lam4 = 1 and small integer lam5..lam7 every structure constant
    # and cocycle value is an exact small integer, so the identity holds
    # bit for bit, not only to round-off
    params = formal_params(*(complex(x) for x in lams))
    residual = cocycle_identity_residual(*label_grid(6), params)
    assert not residual.any(), np.argwhere(residual) - 6


def _identity_by_loop(i: int, j: int, k: int, params: AlgebraParams) -> float:
    # the cyclic sum straight from shifted_constants and chi_sum, in
    # cocycle_identity_residual's order of summation
    total = 0j
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, coeff in shifted_constants(b, c, params).items():
            total += coeff * chi_sum(a, m, params)
    return abs(total) / params.scale() ** 3


@settings(max_examples=25, deadline=None)
@given(st.tuples(complex_lams, complex_lams, complex_lams), label_lists, label_lists, label_lists)
def test_identity_grid_equals_scalar_calls(lam, i, j, k):
    params = formal_params(*lam)
    grid = cocycle_identity_residual(*np.meshgrid(i, j, k, indexing="ij"), params)
    assert grid.shape == (len(i), len(j), len(k))
    for (a, b, c), value in np.ndenumerate(grid):
        scalar = cocycle_identity_residual(i[a], j[b], k[c], params)
        assert type(scalar) is float
        assert value == scalar == _identity_by_loop(i[a], j[b], k[c], params)


def test_identity_trivial_cases(cfg_square):
    lam = lambda_coefficients(cfg_square)
    assert cocycle_identity_residual(2, -1, -1, WITT_PARAMS) <= 1e-12
    assert cocycle_identity_residual(3, 3, 1, lam) <= 1e-9


def test_reconciliation_witt_agrees():
    assert reconciliation_report(WITT_PARAMS, 8) == []


def test_reconciliation_report_structure(cfg_square):
    lam = lambda_coefficients(cfg_square)
    report = reconciliation_report(lam, 8)
    # the closed-form tables deviate from the double sum beyond level 0;
    # every deviation must be reported, never patched (acceptance criterion 11
    # checks that the report is complete)
    assert report
    for entry in report:
        assert set(entry) == {"i", "j", "chi_sum", "chi_closed", "abs_diff"}
        i, j = entry["i"], entry["j"]
        assert entry["chi_sum"] == chi_sum(i, j, lam)
        assert entry["chi_closed"] == chi_closed(i, j, lam)
        assert i + j in LEVELS and i + j != 0


def test_cocycle_table(cfg_square):
    lam = lambda_coefficients(cfg_square)
    table = build_cocycle_table(lam, 4)
    # the CSV and JSON round trips of the table are in test_cli
    for (i, j), value in table.items():
        assert value == chi_sum(i, j, lam)
        assert table[(j, i)] == -value
    with pytest.raises(ValueError):
        build_cocycle_table(lam, 0)
