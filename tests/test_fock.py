import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from kntorus.basis import WITT_PARAMS, formal_params, lambda_coefficients
from kntorus.cocycle import chi_sum
from kntorus.fock import (
    VACUUM,
    WedgeState,
    apply_b,
    apply_c,
    canonical_state,
    commutator_residual,
    contract_b,
    determine_sign_convention,
    extract_vacuum_cocycle,
    l_operator,
    normal_ordered_bc,
    state_from_text,
    vec_add,
    vec_norm,
    vec_scale,
    wedge_c,
)
from kntorus.verify import random_wedge_state


def test_vacuum_annihilation():
    assert wedge_c(-2, VACUUM) == {}
    assert wedge_c(-5, VACUUM) == {}
    assert contract_b(-1, VACUUM) == {}
    assert contract_b(3, VACUUM) == {}


def test_vacuum_creation_signs():
    out = wedge_c(0, VACUUM)
    assert out == {WedgeState((0,), ()): 1 + 0j}
    out = contract_b(-2, VACUUM)
    assert out == {WedgeState((), (-2,)): 1 + 0j}
    # removing deeper slots hops over the occupied slot above
    out = contract_b(-3, VACUUM)
    assert out == {WedgeState((), (-3,)): -1 + 0j}


def test_clifford_recovers_vacuum():
    v = apply_c(-3, apply_b(-3, {VACUUM: 1.0 + 0j}))
    assert v == {VACUUM: 1 + 0j}


def test_canonical_chart_unique():
    a = canonical_state(-2, {-1}, {-8})
    b = canonical_state(0, set(), {-8, -2})
    assert a == b == WedgeState((-1,), (-8, -2))


def test_state_text_round_trip():
    state = canonical_state(-1, {0}, {-2})
    text = state.to_text()
    assert text == "s=-1; occ={0}; vac={-2}; sign=+1"
    assert state_from_text(text) == state
    assert state_from_text(VACUUM.to_text()) == VACUUM


def test_states_carry_no_chart_and_no_sign():
    with pytest.raises(ValueError):
        WedgeState(stable_below=0)
    with pytest.raises(ValueError):
        state_from_text("s=-1; occ={0}; vac={-2}; sign=-1")


@hs.composite
def charted_exceptions(draw):
    """A chart s and exception sets consistent with it, inside [-16, 16]."""
    s = draw(hs.integers(-12, 12))
    occ = draw(hs.sets(hs.integers(s, 16), max_size=6))
    vac = draw(hs.sets(hs.integers(-16, s - 1), max_size=6))
    return s, occ, vac


@settings(max_examples=300, deadline=None)
@given(chart=charted_exceptions())
def test_canonical_state_keeps_chart_occupancy(chart):
    s, occ, vac = chart
    state = canonical_state(s, occ, vac)
    for x in range(-16, 17):
        assert state.is_occupied(x) == (x in occ if x >= s else x not in vac), x
    assert state_from_text(state.to_text()) == state
    listed = [", ".join(map(str, exceptions)) for exceptions in (occ, vac)]
    assert state_from_text(f"s={s}; occ={{{listed[0]}}}; vac={{{listed[1]}}}; sign=+1") == state


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
    for op in (wedge_c, contract_b):
        for new, sign in op(i, state).items():
            assert sign == (-1) ** above
            assert new.is_occupied(i) != state.is_occupied(i)
            others = [x for x in range(-16, 17) if x != i]
            assert [new.is_occupied(x) for x in others] == [state.is_occupied(x) for x in others]


def test_clifford_relations_battery():
    rng = random.Random(61)
    for _ in range(100):
        st = random_wedge_state(rng)
        base = {st: 1.0 + 0j}
        for k in range(-8, 9):
            for i in range(-8, 9):
                anti = vec_add(
                    apply_b(k, apply_c(i, base)), apply_c(i, apply_b(k, base))
                )
                expect = base if k == i else {}
                assert vec_norm(vec_add(anti, vec_scale(expect, -1))) == 0.0


def test_anticommuting_squares():
    rng = random.Random(62)
    for _ in range(30):
        st = random_wedge_state(rng)
        base = {st: 1.0 + 0j}
        for _ in range(10):
            k, l = rng.randint(-8, 8), rng.randint(-8, 8)
            bb = vec_add(apply_b(k, apply_b(l, base)), apply_b(l, apply_b(k, base)))
            cc = vec_add(apply_c(k, apply_c(l, base)), apply_c(l, apply_c(k, base)))
            assert vec_norm(bb) == 0.0 and vec_norm(cc) == 0.0


def test_normal_ordering_rules():
    vac = {VACUUM: 1.0 + 0j}
    assert normal_ordered_bc(-2, -2, vac) == {}
    out = normal_ordered_bc(-2, 0, vac)
    assert out == {WedgeState((0,), (-2,)): -1 + 0j}
    for k in range(-6, 7):
        diag = normal_ordered_bc(k, k, vac)
        assert abs(diag.get(VACUUM, 0j)) == 0.0


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


def test_l_operator_linearity(cfg_square):
    lam = lambda_coefficients(cfg_square)
    rng = random.Random(63)
    v = {random_wedge_state(rng): 0.7 + 0.2j}
    w = {random_wedge_state(rng): -1.1 + 0.4j}
    lhs = l_operator(1, vec_add(vec_scale(v, 2.0), w), lam)
    rhs = vec_add(vec_scale(l_operator(1, v, lam), 2.0), l_operator(1, w, lam))
    assert vec_norm(vec_add(lhs, vec_scale(rhs, -1))) <= 1e-12 * max(1.0, vec_norm(rhs))


def test_l_operator_windows_terminate(cfg_square):
    lam = lambda_coefficients(cfg_square)
    rng = random.Random(64)
    for _ in range(20):
        st = random_wedge_state(rng, depth=(3, 6))
        for i in range(-8, 9):
            l_operator(i, {st: 1.0 + 0j}, lam)  # must not raise WindowViolationError


def test_sign_convention():
    assert determine_sign_convention() == (1, -1)


def test_commutator_witt_vacuum():
    conv = determine_sign_convention()
    vac = {VACUUM: 1.0 + 0j}
    assert commutator_residual(2, -2, vac, WITT_PARAMS, conv) <= 1e-12
    assert commutator_residual(1, 1, vac, WITT_PARAMS, conv) == 0.0


def test_commutator_residual_battery(cfg_square):
    lam = lambda_coefficients(cfg_square)
    conv = determine_sign_convention()
    rng = random.Random(65)
    for _ in range(20):
        i, j = rng.randint(-4, 4), rng.randint(-4, 4)
        v = {random_wedge_state(rng): 1.0 + 0j}
        assert commutator_residual(i, j, v, lam, conv) <= 1e-9


def test_commutator_residual_formal_params():
    conv = determine_sign_convention()
    params = formal_params(0.4 - 0.1j, 0.25j, -0.3)
    rng = random.Random(66)
    for _ in range(10):
        i, j = rng.randint(-3, 3), rng.randint(-3, 3)
        v = {random_wedge_state(rng): 1.0 + 0j}
        assert commutator_residual(i, j, v, params, conv) <= 1e-9


def test_commutator_residual_complex_lambdas(cfg_generic):
    # fully complex structure scalars on multi-term vectors
    lam = lambda_coefficients(cfg_generic)
    conv = determine_sign_convention()
    rng = random.Random(99)
    for _ in range(15):
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        v = {}
        for _ in range(2):
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = vec_add(v, {random_wedge_state(rng, depth=(1, 6)): coeff})
        assert commutator_residual(i, j, v, lam, conv) <= 1e-9


def test_vacuum_cocycle_extraction(cfg_square):
    lam = lambda_coefficients(cfg_square)
    conv = determine_sign_convention()
    for m in (2, 3, 4):
        assert extract_vacuum_cocycle(m, -m, WITT_PARAMS) == conv[1] * chi_sum(
            m, -m, WITT_PARAMS
        )
    for i in range(-5, 6):
        ext = extract_vacuum_cocycle(i, -i, lam)
        expect = conv[1] * chi_sum(i, -i, lam)
        assert abs(ext - expect) <= 1e-9 * max(1.0, abs(expect))
