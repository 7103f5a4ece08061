import copy
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from kntorus.algebra import shifted_constants
from kntorus.basis import WITT_PARAMS, formal_params, lambda_coefficients
from kntorus.cocycle import DEFAULT_SIGN_CONVENTION, chi_sum
from kntorus.errors import WindowViolationError
from kntorus import fock, verify
from kntorus.fock import (
    VACUUM,
    WedgeState,
    apply_b,
    apply_c,
    clifford_residual,
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
    assert clifford_residual(VACUUM, 12) == 0.0


def test_clifford_residual_sees_a_wrong_sign(monkeypatch):
    # a flip at slot 3 that drops its Koszul sign no longer anticommutes
    # with the flips above it
    flip = fock._flip

    def unsigned_at_3(slot, state, occupied):
        image = flip(slot, state, occupied)
        return image and (image[0], 1) if slot == 3 else image

    monkeypatch.setattr(fock, "_flip", unsigned_at_3)
    for state in (VACUUM, WedgeState((5,), ()), WedgeState((3, 0), (-4,))):
        assert clifford_residual(state, 12) == 1.0, state


def test_states_carry_no_chart_and_no_sign():
    # the keyword call of the benchmark harness
    state = WedgeState(stable_below=-1, occupied_above=(3, 0), vacant_below=(-4,))
    assert state == WedgeState((3, 0), (-4,))
    with pytest.raises(ValueError):
        WedgeState(stable_below=0)
    for occ, vac in (((-2,), ()), ((), (-1,))):
        with pytest.raises(ValueError):
            WedgeState(occ, vac)


wedge_states = hs.builds(
    lambda occ, vac: WedgeState(tuple(sorted(occ, reverse=True)), tuple(sorted(vac))),
    hs.sets(hs.integers(-1, 10)),
    hs.sets(hs.integers(-10, -2)),
)
slots = hs.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(state=wedge_states)
def test_state_round_trips_through_its_slot_views(state):
    occ, vac = state.occupied_above, state.vacant_below
    again = WedgeState(occ, vac)
    assert again == state and hash(again) == hash(state)
    assert pickle.loads(pickle.dumps(state)) == state == copy.deepcopy(state)
    assert list(occ) == sorted(set(occ), reverse=True) and min(occ, default=-1) >= -1
    assert list(vac) == sorted(set(vac)) and max(vac, default=-2) < -1


def occupied(state: WedgeState, slot: int) -> bool:
    """Whether the slot is occupied, read from the state's views."""
    return slot in state.occupied_above if slot >= -1 else slot not in state.vacant_below


@settings(max_examples=300, deadline=None)
@given(state=wedge_states, i=slots)
def test_clifford_relations_random_states(state, i):
    assert clifford_residual(state, 12) == 0.0
    base = {state: 1.0 + 0j}
    # the Koszul sign counts the occupied slots above the index
    above = sum(occupied(state, x) for x in range(i + 1, 12))
    for op in (apply_c, apply_b):
        for new, sign in op(i, base).items():
            assert sign == (-1) ** above
            assert occupied(new, i) != occupied(state, i)
            others = [x for x in range(-16, 17) if x != i]
            assert [occupied(new, x) for x in others] == [occupied(state, x) for x in others]


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


# the currents a commutator applies: L_k with k = i + j + 2t for i, j in
# [-5, 5], so negative ones whose j >= -1 terms reach k < -1 among them
currents = hs.integers(-16, 16)


@settings(max_examples=60, deadline=None)
@given(
    states=hs.lists(wedge_states, min_size=1, max_size=3, unique=True),
    i=currents,
    lam=hs.tuples(lams, lams, lams),
)
def test_l_operator_equals_brute_force_sum(states, i, lam):
    params = formal_params(*lam)
    v = {st: complex(1 + n, 0.5 - n) for n, st in enumerate(states)}
    # every j in a window wider than any contributing one, composed without
    # the l_operator pruning: c^j needs a vacant j >= -10 when j < -1, and
    # b_k an occupied k >= i + j when j >= -1, so j <= 10 - i <= 26
    brute = {}
    for j in range(-30, 31):
        for k, c in shifted_constants(i, j, params).items():
            brute = vec_add(brute, vec_scale(composed_bc(k, j, v), c))
    diff = vec_add(l_operator(i, v, params), vec_scale(brute, -1))
    assert vec_norm(diff) <= 1e-14 * max(1.0, vec_norm(brute))


def l_operator_by_terms(i, v, params):
    """L_i v term by term: :b_k c^j: per (state, j, k) in l_operator's order,
    each constant built once per call, and the same product."""
    out = {}
    constants = {}
    for state, coeff in v.items():
        j_hi = state.hi.bit_length() - 2 - i
        for j in (*state.vacant_below, *range(-1, j_hi + 3)):
            if j not in constants:
                constants[j] = shifted_constants(i, j, params)
            for k, c in constants[j].items():
                image = fock._normal_ordered(k, j, state)
                if image is not None:
                    fock._accumulate(out, image[0], c * (coeff * image[1]))
    return out


# zero parts of either sign drawn often; the tests compare reprs, which see
# the order of the items and the bits of each part, signed zeros included
signed_parts = hs.sampled_from((0.0, -0.0)) | hs.floats(-2.0, 2.0)
signed_complex = hs.builds(complex, signed_parts, signed_parts)


@settings(max_examples=150, deadline=None)
@given(
    states=hs.lists(wedge_states, min_size=1, max_size=3, unique=True),
    coeffs=hs.lists(signed_complex, min_size=3, max_size=3),
    i=currents,
    lam=hs.tuples(signed_complex, signed_complex, signed_complex),
)
def test_l_operator_is_the_term_loop_bit_for_bit(states, coeffs, i, lam):
    params = formal_params(*lam)
    v = dict(zip(states, coeffs))
    expect = repr(list(l_operator_by_terms(i, v, params).items()))
    assert repr(list(l_operator(i, v, params).items())) == expect
    # a table shared with another current, empty and then already filled
    table = {}
    for _ in range(2):
        l_operator(1 - i, v, params, table)
        assert repr(list(l_operator(i, v, params, table).items())) == expect


# a wedge_commutators benchmark op: one state with 1 to 10 excitations in
# [-10, 10], each occupying a slot >= -1 or vacating one below
excited_states = hs.builds(
    lambda slots: WedgeState(
        tuple(sorted((s for s in slots if s >= -1), reverse=True)), tuple(sorted(s for s in slots if s < -1))
    ),
    hs.sets(hs.integers(-10, 10), min_size=1, max_size=10),
)


@settings(max_examples=100, deadline=None)
@given(
    i=hs.integers(-5, 5),
    j=hs.integers(-5, 5),
    state=excited_states,
    params=hs.just(WITT_PARAMS) | hs.builds(formal_params, signed_complex, signed_complex, signed_complex),
)
def test_commutator_is_the_term_loop_bit_for_bit(i, j, state, params):
    # the commutator vector, its residual and the vacuum cocycle are those
    # of the term loop, bit for bit
    v = {state: 1.0 + 0j}

    def results():
        commutator = fock._commutator(i, j, v, params, {})
        residual = commutator_residual(i, j, v, params, DEFAULT_SIGN_CONVENTION)
        return repr((list(commutator.items()), residual, extract_vacuum_cocycle(i, j, params)))

    expect = results()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "l_operator", lambda k, w, lam, table=None: l_operator_by_terms(k, w, lam))
        assert results() == expect


def test_one_commutator_builds_each_constant_once(cfg_square, monkeypatch):
    # the (i, j) pairs each commutator requests from shifted_constants; the
    # l_operator calls of verify fock outside a commutator record under None
    requests = {None: []}
    scope = [None]
    built = fock.shifted_constants

    def recorded(i, j, params):
        requests[scope[-1]].append((i, j))
        return built(i, j, params)

    def scoped(fn):
        def call(*args):
            scope.append(len(requests))
            requests[scope[-1]] = []
            try:
                return fn(*args)
            finally:
                scope.pop()

        return call

    monkeypatch.setattr(fock, "shifted_constants", recorded)
    monkeypatch.setattr(fock, "commutator_residual", scoped(fock.commutator_residual))
    monkeypatch.setattr(fock, "extract_vacuum_cocycle", scoped(fock.extract_vacuum_cocycle))
    deformed = formal_params(0.31 + 0.07j, -0.22 + 0.11j, 0.05 - 0.13j)
    excited = apply_c(1, apply_b(-3, VAC))
    probes = ((2, -2, VAC, WITT_PARAMS), (2, 0, excited, WITT_PARAMS), (1, -3, excited, deformed))
    for i, j, v, params in probes:
        fock.commutator_residual(i, j, v, params, DEFAULT_SIGN_CONVENTION)
    verify.verify_fock(cfg_square)
    commutators = [pairs for scope_id, pairs in requests.items() if scope_id is not None]
    assert len(commutators) == 3 + 10 + 11  # the probes, then verify fock's
    for pairs in commutators:
        assert pairs and len(set(pairs)) == len(pairs), sorted(pairs)


def test_window_violation_names_the_current_and_j(monkeypatch):
    # a constant at the occupied slot 3 for every j: b_3 then c^j reaches
    # the vacant j = 2 beyond the bound j <= 3 - i = 1 of L_2
    built = fock.shifted_constants
    monkeypatch.setattr(fock, "shifted_constants", lambda i, j, params: {**built(i, j, params), 3: 1.0 + 0j})
    state = {WedgeState((3,), ()): 1.0 + 0j}
    message = r"^L_2 produced a contribution at j=2 beyond the derived bound 1$"
    with pytest.raises(WindowViolationError, match=message):
        l_operator(2, state, WITT_PARAMS)


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
