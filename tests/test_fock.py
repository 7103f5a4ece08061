import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from kntorus.algebra import shifted_constants
from kntorus.basis import WITT_PARAMS, formal_params, lambda_coefficients
from kntorus.cocycle import DEFAULT_SIGN_CONVENTION, chi_sum
from kntorus.fock import (
    VACUUM,
    WedgeState,
    apply_b,
    apply_c,
    commutator_residual,
    determine_sign_convention,
    extract_vacuum_cocycle,
    l_operator,
    normal_ordered_bc,
    vec_add,
    vec_norm,
    vec_scale,
)
from kntorus.verify import random_wedge_state

VAC = {VACUUM: 1.0 + 0j}


def test_vacuum_annihilation():
    assert apply_c(-2, VAC) == {}
    assert apply_c(-5, VAC) == {}
    assert apply_b(-1, VAC) == {}
    assert apply_b(3, VAC) == {}


def test_vacuum_creation_signs():
    assert apply_c(0, VAC) == {WedgeState((0,), ()): 1 + 0j}
    assert apply_b(-2, VAC) == {WedgeState((), (-2,)): 1 + 0j}
    # removing deeper slots hops over the occupied slot above
    assert apply_b(-3, VAC) == {WedgeState((), (-3,)): -1 + 0j}


def test_clifford_recovers_vacuum():
    v = apply_c(-3, apply_b(-3, {VACUUM: 1.0 + 0j}))
    assert v == {VACUUM: 1 + 0j}


def test_states_carry_no_chart_and_no_sign():
    with pytest.raises(ValueError):
        WedgeState(stable_below=0)


wedge_states = hs.builds(
    lambda occ, vac: WedgeState(tuple(sorted(occ, reverse=True)), tuple(sorted(vac))),
    hs.sets(hs.integers(-1, 10)),
    hs.sets(hs.integers(-10, -2)),
)
slots = hs.integers(-12, 12)


@settings(max_examples=300, deadline=None)
@given(state=wedge_states, k=slots, i=slots)
def test_clifford_relations_random_states(state, k, i):
    base = {state: 1.0 + 0j}
    anti = vec_add(apply_b(k, apply_c(i, base)), apply_c(i, apply_b(k, base)))
    assert anti == (base if k == i else {})
    assert vec_add(apply_b(k, apply_b(i, base)), apply_b(i, apply_b(k, base))) == {}
    assert vec_add(apply_c(k, apply_c(i, base)), apply_c(i, apply_c(k, base))) == {}
    # the Koszul sign counts the occupied slots above the index
    above = sum(state.is_occupied(x) for x in range(i + 1, 12))
    for op in (apply_c, apply_b):
        for new, sign in op(i, base).items():
            assert sign == (-1) ** above
            assert new.is_occupied(i) != state.is_occupied(i)
            others = [x for x in range(-16, 17) if x != i]
            assert [new.is_occupied(x) for x in others] == [state.is_occupied(x) for x in others]


def composed_bc(k, j, v):
    """:b_k c^j: composed from apply_b and apply_c, switching at j = -1."""
    if j < -1:
        return apply_b(k, apply_c(j, v))
    return vec_scale(apply_c(j, apply_b(k, v)), -1)


def test_normal_ordering_rules():
    assert normal_ordered_bc(-2, -2, VAC) == {}
    out = normal_ordered_bc(-2, 0, VAC)
    assert out == {WedgeState((0,), (-2,)): -1 + 0j}
    for k in range(-6, 7):
        diag = normal_ordered_bc(k, k, VAC)
        assert abs(diag.get(VACUUM, 0j)) == 0.0


@settings(max_examples=300, deadline=None)
@given(state=wedge_states, k=slots, j=slots)
def test_normal_ordered_bc_equals_composition(state, k, j):
    v = {state: 0.7 - 0.3j}
    assert normal_ordered_bc(k, j, v) == composed_bc(k, j, v)


lams = hs.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    states=hs.lists(wedge_states, min_size=1, max_size=3, unique=True),
    i=hs.integers(-6, 6),
    lam=hs.tuples(lams, lams, lams),
)
def test_l_operator_equals_brute_force_sum(states, i, lam):
    params = formal_params(*lam)
    v = {st: complex(1 + n, 0.5 - n) for n, st in enumerate(states)}
    # every j in a window wider than any contributing one (slots lie in
    # [-10, 10], |i| <= 6), composed without the l_operator pruning
    brute = {}
    for j in range(-30, 31):
        for k, c in shifted_constants(i, j, params).items():
            brute = vec_add(brute, vec_scale(composed_bc(k, j, v), c))
    diff = vec_add(l_operator(i, v, params), vec_scale(brute, -1))
    assert vec_norm(diff) <= 1e-14 * max(1.0, vec_norm(brute))


def test_order_independence_of_sign_normalization():
    # building the same occupancy along different operator orders differs
    # at most by the tracked sign, never by state identity
    v1 = apply_c(2, apply_c(0, {VACUUM: 1.0 + 0j}))
    v2 = apply_c(0, apply_c(2, {VACUUM: 1.0 + 0j}))
    (s1, c1), = v1.items()
    (s2, c2), = v2.items()
    assert s1 == s2
    assert c1 == -c2


def test_order_independence_random_battery():
    rng = random.Random(67)
    for _ in range(30):
        ops = [(rng.choice((apply_c, apply_b)), rng.randint(-6, 6)) for _ in range(4)]
        base = {VACUUM: 1.0 + 0j}
        v1 = base
        for op, idx in ops:
            v1 = op(idx, v1)
        shuffled = ops[:]
        rng.shuffle(shuffled)
        v2 = base
        for op, idx in shuffled:
            v2 = op(idx, v2)
        if not v1 or not v2:
            # a vanishing product may reorder into a distinct composition
            # (operators only anticommute up to the delta term), so only
            # delta-free shuffles are comparable; skip collisions
            continue
        indices = [idx for _, idx in ops]
        if len(set(indices)) < len(indices):
            continue
        (s1, c1), = v1.items()
        (s2, c2), = v2.items()
        assert s1 == s2
        assert abs(c1) == abs(c2) == 1.0


def test_l_operator_on_vacuum_witt():
    vac = {VACUUM: 1.0 + 0j}
    out = l_operator(0, vac, WITT_PARAMS)
    # vacuum is homogeneous: L_0 maps it to a multiple of itself (here 0)
    assert set(out) <= {VACUUM}
    for i in range(3, 9):
        assert l_operator(i, vac, WITT_PARAMS) == {}


def test_l_operator_windows_terminate(cfg_square):
    lam = lambda_coefficients(cfg_square)
    rng = random.Random(64)
    for _ in range(20):
        st = random_wedge_state(rng, depth=(3, 6))
        for i in range(-8, 9):
            l_operator(i, {st: 1.0 + 0j}, lam)  # must not raise WindowViolationError


def test_sign_convention():
    # vacuum and excited states at Witt and deformed parameters: only the
    # constant fits them, and every other sign pair misses by far
    deformed = formal_params(0.31 + 0.07j, -0.22 + 0.11j, 0.05 - 0.13j)
    excited = apply_c(1, apply_b(-3, VAC))
    probes = [
        (2, -2, VAC, WITT_PARAMS),
        (2, 0, excited, WITT_PARAMS),
        (1, -3, VAC, deformed),
        (2, -1, excited, deformed),
    ]
    assert determine_sign_convention() == DEFAULT_SIGN_CONVENTION == (1, -1)
    for conv in product((1, -1), repeat=2):
        worst = max(commutator_residual(i, j, v, params, conv) for i, j, v, params in probes)
        if conv == DEFAULT_SIGN_CONVENTION:
            assert worst == 0.0
        else:
            assert worst >= 1e-6, conv


def test_commutator_witt_vacuum():
    vac = {VACUUM: 1.0 + 0j}
    assert commutator_residual(2, -2, vac, WITT_PARAMS, DEFAULT_SIGN_CONVENTION) <= 1e-12
    assert commutator_residual(1, 1, vac, WITT_PARAMS, DEFAULT_SIGN_CONVENTION) == 0.0


def test_commutator_residual_complex_lambdas(cfg_generic):
    # fully complex structure scalars on multi-term vectors
    lam = lambda_coefficients(cfg_generic)
    rng = random.Random(99)
    for _ in range(15):
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        v = {}
        for _ in range(2):
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = vec_add(v, {random_wedge_state(rng, depth=(1, 6)): coeff})
        assert commutator_residual(i, j, v, lam, DEFAULT_SIGN_CONVENTION) <= 1e-9


def test_vacuum_cocycle_extraction():
    # at integer parameters every structure constant and cocycle value is
    # an exactly representable integer, so the wedge vacuum must give
    # sigma_chi * chi_sum bit for bit, at every level and both parities
    sigma_chi = DEFAULT_SIGN_CONVENTION[1]
    integer_lams = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3))
    for params in (WITT_PARAMS, *(formal_params(*map(complex, lams)) for lams in integer_lams)):
        for i in range(-7, 8):
            for j in range(-7, 8):
                if i != j:
                    expect = sigma_chi * chi_sum(i, j, params)
                    assert extract_vacuum_cocycle(i, j, params) == expect, (i, j, params)
