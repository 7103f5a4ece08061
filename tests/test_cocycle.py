import math
import pprint
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bits, complex_lams, label_triples
from kntorus.algebra import bracket
from kntorus.basis import WITT_PARAMS, AlgebraParams, formal_params, lambda_coefficients
from kntorus.cocycle import (
    _CHI_POLY,
    CHI_LEVELS,
    RECONCILIATION_RTOL,
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
from kntorus.config import TorusConfig
from kntorus.errors import BadContourError
from kntorus.verify import random_formal_sets

LEVELS = (0, -2, -4, -6, -8, -10, -12)

# lam4..lam7 derived at tau = i, q = 0.2
SQUARE_LAMS = lambda_coefficients(TorusConfig(tau=1j, q=0.2)).as_tuple()


@pytest.mark.parametrize("fixture, window", [("cfg_generic", 10), ("cfg_two_point", 8)])
def test_pairing_matrix(fixture, window, request):
    # acceptance criterion 5 sweeps the same window at tau = i, q = 0.2;
    # duality survives the merged out-puncture of q = 0 (double zero of the
    # pole factor, simple differential pole)
    p = pairing(request.getfixturevalue(fixture), window)
    assert p.shape == (2 * window + 1,) * 2
    assert np.abs(p - np.eye(2 * window + 1)).max() < 1e-8
    # a deep in-point pole, order j - k - 1 < -4, gives an exact zero
    j, k = np.indices(p.shape)
    assert not p[j - k - 1 < -4].any()


def test_pairing_index_bound(cfg_square):
    with pytest.raises(BadContourError):
        pairing(cfg_square, 13)
    with pytest.raises(ValueError, match="window"):
        pairing(cfg_square, -1)


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
# (i, j) = (2, -2), (3, -5), (-4, 0), (1, -7), (5, -5), (0, -2) at tau = i, q = 0.2
@example(SQUARE_LAMS, 2, 0)
@example(SQUARE_LAMS, 3, -2)
@example(SQUARE_LAMS, -4, -4)
@example(SQUARE_LAMS, 1, -6)
@example(SQUARE_LAMS, 5, 0)
@example(SQUARE_LAMS, 0, -2)
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


def test_chi_levels_are_the_support():
    # the one support tuple that the tables, the identity residual and
    # verify's chi_support read, ascending
    assert CHI_LEVELS == tuple(sorted(LEVELS))


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


def test_two_cocycle_identity_holds_for_every_lam():
    # with lam4 = 1 each cocycle-identity sum on [-12, 12]^3 is a polynomial
    # of degree <= 3 in each of lam5..lam7 (C is linear in lam, chi
    # quadratic), so it is zero if it vanishes on the grid {0, ..., 3}^3.
    # There every slot is an integer below 200 and every chi value one
    # below 10**6 in modulus, so the float sums are exact integers
    for lams in product(range(4), repeat=3):
        residual = cocycle_identity_residual(12, formal_params(*map(complex, lams)))
        assert not residual.any(), (lams, np.argwhere(residual) - 12)


def _identity_by_loop(i: int, j: int, k: int, params: AlgebraParams) -> float:
    # the cyclic sum straight from shifted_constants and chi_sum, in
    # cocycle_identity_residual's order of summation
    total = 0j
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, coeff in shifted_constants(b, c, params).items():
            total += coeff * chi_sum(a, m, params)
    return abs(total) / params.scale() ** 3


@settings(max_examples=25, deadline=None)
@given(st.tuples(complex_lams, complex_lams, complex_lams), label_triples)
def test_identity_random_lam(lam, triples):
    params = formal_params(*lam)
    residual = cocycle_identity_residual(12, params)
    assert residual.max() <= 1e-9
    for i, j, k in triples:
        assert residual[i + 12, j + 12, k + 12] == _identity_by_loop(i, j, k, params), (i, j, k)


@pytest.mark.parametrize(
    "params", [random_formal_sets(1, seed=404)[0], lambda_coefficients(TorusConfig(tau=1j, q=0.2))]
)
def test_identity_verify_grids_are_the_definition(params):
    # the [-4, 4]^3 cube of verify cocycle, entry by entry
    residual = cocycle_identity_residual(4, params)
    for (x, y, z), value in np.ndenumerate(residual):
        assert value == _identity_by_loop(x - 4, y - 4, z - 4, params)


def test_identity_trivial_cases(cfg_square):
    lam = lambda_coefficients(cfg_square)
    # (i, j, k) sits at [i + 3, j + 3, k + 3] of the bound-3 cube
    assert cocycle_identity_residual(3, WITT_PARAMS)[5, 2, 2] <= 1e-12
    assert cocycle_identity_residual(3, lam)[6, 6, 4] <= 1e-9


def test_identity_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="bound"):
        cocycle_identity_residual(-1, WITT_PARAMS)


def test_reconciliation_witt_agrees():
    assert reconciliation_report(WITT_PARAMS, 8, build_cocycle_table(WITT_PARAMS, 8)) == []


def test_reconciliation_report_refuses_a_small_window():
    with pytest.raises(ValueError, match="window"):
        reconciliation_report(WITT_PARAMS, 0, {})


def test_reconciliation_report_structure(cfg_square):
    lam = lambda_coefficients(cfg_square)
    report = reconciliation_report(lam, 8, build_cocycle_table(lam, 8))
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


@pytest.mark.parametrize("window", (1, 2, 8, 33))
def test_tables_match_the_full_window(window, cfg_generic):
    # the tables visit the support levels alone; a double loop over every
    # pair of the window gives the same items in the same order.  At
    # lam5 = 37, lam6 = -296, chi_sum(0, -4) is -0-0j and chi_closed is not
    # 0 there, so the report holds a zero that is in no table
    zero = formal_params(37 + 0j, -296 + 0j)
    for params in (WITT_PARAMS, lambda_coefficients(cfg_generic), zero, *random_formal_sets(2, seed=406)):
        table, report = {}, []
        for i in range(-window, window + 1):
            for j in range(-window, window + 1):
                s, c = chi_sum(i, j, params), chi_closed(i, j, params)
                if s != 0:
                    table[(i, j)] = s
                if abs(s - c) > RECONCILIATION_RTOL * max(1.0, abs(s)):
                    report.append({"i": i, "j": j, "chi_sum": s, "chi_closed": c, "abs_diff": abs(s - c)})
        assert list(build_cocycle_table(params, window).items()) == list(table.items())
        got = reconciliation_report(params, window, table)
        assert got == report
        # a reported zero of chi_sum keeps the signs of its parts
        assert [bits(e["chi_sum"]) for e in got] == [bits(e["chi_sum"]) for e in report]
