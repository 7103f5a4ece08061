import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, complex_lams, label_triples, point_frame
from kntorus import basis
from kntorus.algebra import (
    bracket,
    bracket_numeric,
    bracket_oracle,
    bracket_slots,
    build_structure_table,
    jacobi_residual,
    shifted_constants,
    slot_coefficients,
)
from kntorus.basis import (
    WITT_PARAMS,
    AlgebraParams,
    basis_value,
    formal_params,
    lambda_coefficients,
    monomial,
    monomial_derivative,
)
from kntorus.config import TorusConfig
from kntorus.verify import random_formal_sets, random_points


def test_bracket_even_even(cfg_square):
    lam = lambda_coefficients(cfg_square)
    assert bracket(2, 4, lam) == {5: 2 + 0j}
    assert bracket(4, 2, lam) == {5: -2 + 0j}
    assert bracket(2, 2, lam) == {}


def test_bracket_equal_odd(cfg_square):
    lam = lambda_coefficients(cfg_square)
    assert bracket(1, 1, lam) == {}


def test_bracket_odd_even_pattern(cfg_square):
    # [l_1, l_2]: the lam5 slot carries factor (n - a - 1) = 0 and drops out
    lam = lambda_coefficients(cfg_square)
    terms = bracket(1, 2, lam)
    assert set(terms) == {2, 6, 8}
    assert terms[2] == lam.lam4
    assert terms[6] == -lam.lam6
    assert terms[8] == -2 * lam.lam7


def _numeric(i, j, fr):
    """bracket_numeric of the labels i, j at the frame fr of one point."""
    return bracket_numeric(
        monomial(i, *fr[:2]), monomial_derivative(i, *fr), monomial(j, *fr[:2]), monomial_derivative(j, *fr)
    )


def _contraction(terms, fr):
    """The terms of bracket() contracted with the basis functions at the frame fr of one point."""
    return sum(c * monomial(k, *fr[:2]) for k, c in terms.items())


def test_bracket_numeric_vanishes_on_diagonal(cfg_square):
    z = random_points(cfg_square, 1, seed=41)[0]
    assert _numeric(3, 3, point_frame(z, cfg_square)) == 0j


def test_bracket_numeric_even_pair(cfg_square):
    for z in random_points(cfg_square, 5, seed=42):
        lhs = _numeric(2, 4, point_frame(z, cfg_square))
        rhs = 2 * basis_value(5, z, cfg_square)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_bracket_numeric_mixed_pair(cfg_square):
    lam = lambda_coefficients(cfg_square)
    for z in random_points(cfg_square, 5, seed=43):
        fr = point_frame(z, cfg_square)
        lhs = _numeric(1, -1, fr)
        rhs = _contraction(bracket(1, -1, lam), fr)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


@pytest.mark.parametrize("cfg", [TorusConfig(tau=1j, q=0.2), TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j)])
def test_bracket_oracle_tables_are_the_scalar_oracle(cfg):
    # drawn at every point, each entry of both tables is the scalar
    # contraction and the scalar bracket_numeric there, to rounding
    params = lambda_coefficients(cfg)
    pts = random_points(cfg, 25, seed=402)
    labels = range(-6, 7)
    draws = np.tile(np.arange(len(pts)), (len(labels), len(labels), 1))
    contraction, numeric = bracket_oracle(params, labels, basis.frame_array(np.array(pts), cfg), draws)
    assert contraction.shape == numeric.shape == draws.shape
    for (x, y, d), p in np.ndenumerate(draws):
        i, j, fr = labels[x], labels[y], point_frame(pts[p], cfg)
        for value, ref in ((contraction, _contraction(bracket(i, j, params), fr)), (numeric, _numeric(i, j, fr))):
            assert abs(value[x, y, d] - ref) <= 1e-13 * max(1.0, abs(ref)), (i, j, p)


def test_jacobi_examples(cfg_square):
    lam = lambda_coefficients(cfg_square)
    # even triple: the intermediate odd index still drags lambda terms in,
    # so cancellation is exact only up to round-off; (i, j, k) sits at
    # [i + 6, j + 6, k + 6] of the bound-6 cube
    assert jacobi_residual(6, lam)[8, 10, 12] <= 1e-12
    assert jacobi_residual(6, WITT_PARAMS)[8, 10, 12] == 0.0
    for seed in range(5):
        assert jacobi_residual(6, random_formal_sets(1, seed)[0])[7, 9, 8] <= 1e-9
    assert jacobi_residual(6, lam)[7, 5, 9] <= 1e-9


def test_jacobi_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="bound"):
        jacobi_residual(-1, WITT_PARAMS)


def test_one_slot_rule_bit_for_bit():
    # lams with negative, zero and negative-zero parts; labels -12..12 cover
    # all four parity classes
    window = range(-12, 13)
    for params in (
        formal_params(-1.5 - 0.25j, complex(-0.0, -2.0), -0.5 + 0j),
        formal_params(0j, 0.75 - 1j, complex(-3.0, -0.0)),
        WITT_PARAMS,
    ):
        table = bracket_slots(params, window, window)
        re, im = table.real, table.imag
        assert not np.signbit(re[re == 0]).any() and not np.signbit(im[im == 0]).any()
        for x, a in enumerate(window):
            for y, b in enumerate(window):
                terms = bracket(a, b, params)
                for t in range(4):
                    slot = complex(re[x, y, t], im[x, y, t])
                    assert bits(slot) == bits(terms.get(a + b - 1 + 2 * t, 0j)), (a, b, t)
                shifted = {k - 1: bits(c) for k, c in bracket(a + 1, b + 1, params).items()}
                assert {k: bits(c) for k, c in shifted_constants(a, b, params).items()} == shifted


# the slot rule's parameter sets: the Witt algebra, derived at two
# geometries, seeded formal sets, an integer probe with lam4 != 1, and lams
# whose slots overflow
SLOT_PARAMS = (
    WITT_PARAMS,
    lambda_coefficients(TorusConfig(tau=1j, q=0.2)),
    lambda_coefficients(TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j)),
    *random_formal_sets(2, seed=405),
    AlgebraParams(2, 3, -1, 5),
    formal_params(complex(1e308, 1e308)),
)
label_ranges = st.builds(lambda start, size: range(start, start + size), st.integers(-12, 12), st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SLOT_PARAMS), label_ranges, label_ranges)
@example(WITT_PARAMS, range(3, 4), range(-4, 5))
@example(AlgebraParams(2, 3, -1, 5), range(-12, -3), range(6, 13))
@example(formal_params(complex(1e308, 1e308)), range(-1, 0), range(-12, 13))
def test_slot_table_gathers_the_slot_rule(params, rows, cols):
    # rows and cols start and end at either parity, may hold one label, and
    # need not overlap; every entry is the slot rule's own value, signed zeros too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = bracket_slots(params, rows, cols)
    assert table.shape == (len(rows), len(cols), 4)
    for x, a in enumerate(rows):
        for y, b in enumerate(cols):
            for t, c in enumerate(slot_coefficients(a, b, params)):
                assert bits(table[x, y, t]) == bits(c), (a, b, t)


def test_overflowing_lams_fill_the_tables_without_warning():
    # the CLI refuses such tables by their non-finite entries; the tables
    # themselves are filled without an escaping RuntimeWarning
    params = formal_params(complex(1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = bracket_slots(params, range(-8, 9), range(-8, 9))
        rows = build_structure_table(params, 8).rows()
    assert not np.isfinite(table.real).all() and not np.isfinite(table.imag).all()
    assert any(not np.isfinite(c) for *_, c in rows)


labels = st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(st.tuples(complex_lams, complex_lams, complex_lams), labels, labels)
def test_bracket_antisymmetry_random_lam(lam, i, j):
    params = formal_params(*lam)
    assert bracket(j, i, params) == {k: -c for k, c in bracket(i, j, params).items()}


def _jacobi_by_loop(i: int, j: int, k: int, params) -> float:
    # the cyclic sum straight from bracket(), with no reuse of brackets, in
    # jacobi_residual's order of summation
    total = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        term = {}
        for m, coeff in bracket(a, b, params).items():
            for target, inner in bracket(m, c, params).items():
                term[target] = term.get(target, 0j) + coeff * inner
        for target, value in term.items():
            total[target] = total.get(target, 0j) + value
    scale = params.scale()
    return max((abs(v) for v in total.values()), default=0.0) / (scale * scale)


@settings(max_examples=25, deadline=None)
@given(st.tuples(complex_lams, complex_lams, complex_lams), label_triples)
def test_jacobi_random_lam(lam, triples):
    params = formal_params(*lam)
    residual = jacobi_residual(12, params)
    assert residual.max() <= 1e-9
    for i, j, k in triples:
        assert residual[i + 12, j + 12, k + 12] == _jacobi_by_loop(i, j, k, params), (i, j, k)


def test_jacobi_identity_holds_for_every_lam():
    # with lam4 = 1 each Jacobi sum on [-12, 12]^3 is a polynomial of degree
    # <= 2 in each of lam5..lam7 (a bracket is linear in lam), so it is zero
    # if it vanishes on the grid {0, 1, 2}^3.  There every slot is an integer
    # below 200 in modulus, so the float sums are exact integers
    for lams in product(range(3), repeat=3):
        residual = jacobi_residual(12, formal_params(*map(complex, lams)))
        assert not residual.any(), (lams, np.argwhere(residual) - 12)


@pytest.mark.parametrize(
    "params", [random_formal_sets(1, seed=403)[0], lambda_coefficients(TorusConfig(tau=1j, q=0.2))]
)
def test_jacobi_verify_grids_are_the_definition(params):
    # the [-5, 5]^3 cube of verify algebra, entry by entry
    residual = jacobi_residual(5, params)
    for (x, y, z), value in np.ndenumerate(residual):
        assert value == _jacobi_by_loop(x - 5, y - 5, z - 5, params)


def _by_pair(rows):
    """build_structure_table's rows as {(i, j): {k: c}}."""
    pairs = {}
    for i, j, k, c in rows:
        pairs.setdefault((i, j), {})[k] = c
    return pairs


SIGNED_ZERO_PARAMS = formal_params(complex(-1.5, -0.0), complex(-0.0, 2), complex(-3, -0.0))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((*SLOT_PARAMS, SIGNED_ZERO_PARAMS)), st.integers(1, 12), st.sampled_from(("original", "shifted"))
)
@example(SIGNED_ZERO_PARAMS, 12, "shifted")
@example(formal_params(complex(1e308, 1e308)), 12, "original")
@example(WITT_PARAMS, 1, "original")
def test_structure_table_is_the_bracket_loop(params, window, indexing):
    # every row of the table, in order and bit for bit, is the loop over the
    # label pairs and their bracket's nonzero terms; labels are Python ints
    # and constants Python complexes, as the JSON writer needs
    labels = range(-window, window + 1)
    constants = bracket if indexing == "original" else shifted_constants
    expect = [(i, j, k, c) for i in labels for j in labels for k, c in constants(i, j, params).items()]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = build_structure_table(params, window, indexing).rows()
    assert [row[:3] for row in rows] == [row[:3] for row in expect]
    assert [bits(c) for *_, c in rows] == [bits(c) for *_, c in expect]
    assert {tuple(map(type, row)) for row in rows} == {(int, int, int, complex)}


def test_structure_table_entries(cfg_square):
    # the CSV and JSON round trips of the table are in test_cli
    rows = build_structure_table(lambda_coefficients(cfg_square), 4).rows()
    assert [row[:3] for row in rows] == sorted(row[:3] for row in rows)
    assert all(c != 0 for *_, c in rows)
    table = _by_pair(rows)
    assert table[(2, 4)] == {5: 2 + 0j}
    assert (1, 1) not in table


def test_shifted_table_indexing(cfg_square):
    lam = lambda_coefficients(cfg_square)
    shifted = _by_pair(build_structure_table(lam, 3, indexing="shifted").rows())
    # [e_1, e_3] = [l_2, l_4] = 2 l_5 = 2 e_4
    assert shifted[(1, 3)] == {4: 2 + 0j}


def test_degeneration_two_point_values(cfg_two_point):
    from kntorus.elliptic import half_period_values

    hp = half_period_values(cfg_two_point)
    table = _by_pair(build_structure_table(lambda_coefficients(cfg_two_point), 4).rows())
    terms = table[(1, 3)]
    assert abs(terms[3] - 2.0) < 1e-12
    assert abs(terms[5] - 2 * 3 * hp.e1) < 1e-9
    assert abs(terms[7] - 2 * (hp.e1 - hp.e2) * (hp.e1 - hp.e3)) < 1e-8
    assert 9 not in terms  # lam7 = 0 shrinks the support to three slots


def test_degeneration_witt():
    table = _by_pair(build_structure_table(WITT_PARAMS, 3).rows())
    assert table[(1, 2)] == {2: 1 + 0j}
    for (i, j), terms in table.items():
        assert set(terms) == {i + j - 1}
        assert terms[i + j - 1] == complex(j - i)
