import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_lams, label_lists
from kntorus.algebra import (
    bracket,
    bracket_eval,
    bracket_numeric,
    build_structure_table,
    jacobi_residual,
)
from kntorus.basis import WITT_PARAMS, basis_value, formal_params, frame, lambda_coefficients
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


def test_bracket_numeric_vanishes_on_diagonal(cfg_square):
    z = random_points(cfg_square, 1, seed=41)[0]
    assert bracket_numeric(3, 3, frame(z, cfg_square)) == 0j


def test_bracket_numeric_even_pair(cfg_square):
    for z in random_points(cfg_square, 5, seed=42):
        lhs = bracket_numeric(2, 4, frame(z, cfg_square))
        rhs = 2 * basis_value(5, z, cfg_square)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_bracket_numeric_mixed_pair(cfg_square):
    lam = lambda_coefficients(cfg_square)
    for z in random_points(cfg_square, 5, seed=43):
        fr = frame(z, cfg_square)
        lhs = bracket_numeric(1, -1, fr)
        rhs = bracket_eval(bracket(1, -1, lam), fr)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_jacobi_examples(cfg_square):
    lam = lambda_coefficients(cfg_square)
    # even triple: the intermediate odd index still drags lambda terms in,
    # so cancellation is exact only up to round-off
    assert jacobi_residual(2, 4, 6, lam) <= 1e-12
    assert jacobi_residual(2, 4, 6, WITT_PARAMS) == 0.0
    for seed in range(5):
        assert jacobi_residual(1, 3, 2, random_formal_sets(1, seed)[0]) <= 1e-9
    assert jacobi_residual(1, -1, 3, lam) <= 1e-9


labels = st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(st.tuples(complex_lams, complex_lams, complex_lams), labels, labels)
def test_bracket_antisymmetry_random_lam(lam, i, j):
    params = formal_params(*lam)
    assert bracket(j, i, params) == {k: -c for k, c in bracket(i, j, params).items()}


@settings(max_examples=200, deadline=None)
@given(st.tuples(complex_lams, complex_lams, complex_lams), labels, labels, labels)
def test_jacobi_random_lam(lam, i, j, k):
    params = formal_params(*lam)
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
    direct = max((abs(v) for v in total.values()), default=0.0) / (scale * scale)
    assert jacobi_residual(i, j, k, params) == direct
    assert direct <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.tuples(complex_lams, complex_lams, complex_lams), label_lists, label_lists, label_lists)
def test_jacobi_grid_equals_scalar_calls(lam, i, j, k):
    params = formal_params(*lam)
    grid = jacobi_residual(*np.meshgrid(i, j, k, indexing="ij"), params)
    assert grid.shape == (len(i), len(j), len(k))
    for (a, b, c), value in np.ndenumerate(grid):
        scalar = jacobi_residual(i[a], j[b], k[c], params)
        assert type(scalar) is float and value == scalar


def test_structure_table_entries(cfg_square):
    # the CSV and JSON round trips of the table are in test_cli
    table = build_structure_table(lambda_coefficients(cfg_square), 4)
    assert table[(2, 4)] == {5: 2 + 0j}
    assert (1, 1) not in table


def test_shifted_table_indexing(cfg_square):
    lam = lambda_coefficients(cfg_square)
    shifted = build_structure_table(lam, 3, indexing="shifted")
    # [e_1, e_3] = [l_2, l_4] = 2 l_5 = 2 e_4
    assert shifted[(1, 3)] == {4: 2 + 0j}


def test_degeneration_two_point_values(cfg_two_point):
    from kntorus.elliptic import half_period_values

    hp = half_period_values(cfg_two_point)
    table = build_structure_table(lambda_coefficients(cfg_two_point), 4)
    terms = table[(1, 3)]
    assert abs(terms[3] - 2.0) < 1e-12
    assert abs(terms[5] - 2 * 3 * hp.e1) < 1e-9
    assert abs(terms[7] - 2 * (hp.e1 - hp.e2) * (hp.e1 - hp.e3)) < 1e-8
    assert 9 not in terms  # lam7 = 0 shrinks the support to three slots


def test_degeneration_witt():
    table = build_structure_table(WITT_PARAMS, 3)
    assert table[(1, 2)] == {2: 1 + 0j}
    for (i, j), terms in table.items():
        assert set(terms) == {i + j - 1}
        assert terms[i + j - 1] == complex(j - i)
