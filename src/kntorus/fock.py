"""Semi-infinite wedge representation and the operator-valued cocycle oracle.

States are wedges of weight-2 forms labelled by integers, differing from
the vacuum pattern (all slots below -1 occupied) in finitely many slots.
A basis state is that finite set of exceptions, relative to the vacuum;
it carries no sign, so every sign lives in a vector coefficient.
The mode operators

    c^i : insert form i (zero if occupied),
    b_k : remove form k (zero if vacant),

carry the Koszul sign (-1)**(number of occupied slots above the index) of
the canonical descending ordering and satisfy the Clifford relations
{b_k, c^i} = delta, {b,b} = {c,c} = 0 exactly.

Every operator is defined once on a basis state, where it gives one state
and a sign or zero: _flip is b or c, _normal_ordered is :b_k c^j:
(normal ordering switching at j = -1), and _linear extends either to a
FockVector.  The current operators L_i = sum_{j,k} C_ij^k :b_k c^j:
(shifted structure constants) realize the centrally extended algebra.
Their commutator connects the abstract cocycle chi_sum to the operator
anomaly through the sign convention (sigma_c, sigma_chi), the constant
cocycle.DEFAULT_SIGN_CONVENTION; the tests ground it exactly, at integer
parameter probes where every coefficient is an exact integer.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable

from .basis import AlgebraParams
from .algebra import shifted_constants
from .cocycle import DEFAULT_SIGN_CONVENTION, chi_sum
from .errors import WindowViolationError


@dataclass(frozen=True)
class WedgeState:
    """Semi-infinite wedge as its exceptions to the vacuum.

    Slots >= -1 are vacant except those in occupied_above; slots < -1 are
    occupied except those in vacant_below.  Each occupancy has exactly one
    such representation, and a state has no sign of its own: signs live in
    the coefficients of a FockVector.  stable_below names the boundary of
    the exception sets and accepts only the vacuum boundary -1.
    """

    occupied_above: tuple[int, ...] = ()  # descending, all >= -1
    vacant_below: tuple[int, ...] = ()  # ascending, all < -1
    stable_below: InitVar[int] = -1

    def __post_init__(self, stable_below: int) -> None:
        if stable_below != -1:
            raise ValueError(
                f"WedgeState is stored relative to the vacuum boundary stable_below=-1, "
                f"got {stable_below}"
            )

    def is_occupied(self, slot: int) -> bool:
        if slot >= -1:
            return slot in self.occupied_above
        return slot not in self.vacant_below


VACUUM = WedgeState()

FockVector = dict[WedgeState, complex]
# a basis-state operator: the image state and its sign, or None for zero
StateImage = tuple[WedgeState, int] | None


def _accumulate(vec: FockVector, state: WedgeState, coeff: complex) -> None:
    new = vec.get(state, 0j) + coeff
    if new == 0:
        vec.pop(state, None)
    else:
        vec[state] = new


def _flip(slot: int, state: WedgeState, occupied: bool) -> StateImage:
    """b_slot (occupied=True) or c^slot (occupied=False) on a basis state.

    Zero (None) unless slot's occupancy is `occupied`; otherwise the state
    with slot toggled and the Koszul sign (-1)**(occupied slots above slot).
    """
    occ, vac = state.occupied_above, state.vacant_below
    if slot >= -1:
        if (slot in occ) != occupied:
            return None
        above = sum(1 for x in occ if x > slot)
        return WedgeState(tuple(sorted(set(occ) ^ {slot}, reverse=True)), vac), (-1) ** above
    if (slot not in vac) != occupied:
        return None
    # every listed slot >= -1 lies above, and the -2 - slot slots in
    # (slot, -1) are occupied unless listed vacant
    above = len(occ) - 2 - slot - sum(1 for x in vac if x > slot)
    return WedgeState(occ, tuple(sorted(set(vac) ^ {slot}))), (-1) ** above


def _normal_ordered(k: int, j: int, state: WedgeState) -> StateImage:
    """:b_k c^j: on a basis state, read right to left.

    c^j acts first for j < -1; otherwise the reordered -c^j b_k (b_k first)
    is applied.  This switch makes every vacuum expectation value vanish.
    """
    if j < -1:
        first = _flip(j, state, False)
        second = first and _flip(k, first[0], True)
        return second and (second[0], first[1] * second[1])
    first = _flip(k, state, True)
    second = first and _flip(j, first[0], False)
    return second and (second[0], -first[1] * second[1])


def _linear(op: Callable[[WedgeState], StateImage], vec: FockVector) -> FockVector:
    """Extend a basis-state operator linearly to a vector."""
    out: FockVector = {}
    for state, coeff in vec.items():
        image = op(state)
        if image is not None:
            _accumulate(out, image[0], coeff * image[1])
    return out


def apply_c(i: int, vec: FockVector) -> FockVector:
    return _linear(lambda state: _flip(i, state, False), vec)


def apply_b(k: int, vec: FockVector) -> FockVector:
    return _linear(lambda state: _flip(k, state, True), vec)


def normal_ordered_bc(k: int, j: int, v: FockVector) -> FockVector:
    """:b_k c^j: applied to a vector (see _normal_ordered)."""
    return _linear(lambda state: _normal_ordered(k, j, state), v)


def vec_scale(vec: FockVector, factor: complex) -> FockVector:
    if factor == 0:
        return {}
    return {s: c * factor for s, c in vec.items()}


def vec_add(*vecs: FockVector) -> FockVector:
    out: FockVector = {}
    for v in vecs:
        for s, c in v.items():
            _accumulate(out, s, c)
    return out


def vec_norm(vec: FockVector) -> float:
    return max((abs(c) for c in vec.values()), default=0.0)


def clifford_residual(state: WedgeState, bound: int) -> float:
    """Max-norm residual of {b_k, c^i} = delta_ki on one basis state, over
    k, i in [-bound, bound]; the relations hold exactly, so it is 0.0."""
    worst = 0.0
    labels = range(-bound, bound + 1)
    created = {i: _flip(i, state, False) for i in labels}
    removed = {k: _flip(k, state, True) for k in labels}
    for k in labels:
        for i in labels:
            anti: FockVector = {state: -1.0 + 0j} if k == i else {}
            # b_k c^i and c^i b_k
            for first, slot, occupied in ((created[i], k, True), (removed[k], i, False)):
                second = first and _flip(slot, first[0], occupied)
                if second:
                    _accumulate(anti, second[0], complex(first[1] * second[1]))
            worst = max(worst, vec_norm(anti))
    return worst


def l_operator(i: int, v: FockVector, params: AlgebraParams) -> FockVector:
    """Apply L_i = sum_{j,k} C_ij^k :b_k c^j: with C the shifted constants.

    Finiteness of the sum, per input state:
      * j < -1: c^j acts first, so j must currently be vacant; the vacant
        slots below -1 form a finite set.
      * j >= -1: b_k acts first, so k must currently be occupied, and
        k >= i + j (support window) bounds j <= max_occupied - i.
    Two extra j values beyond the derived upper bound are scanned; any
    nonzero contribution there raises WindowViolationError.
    """
    out: FockVector = {}
    for state, coeff in v.items():
        j_hi = max(state.occupied_above, default=-2) - i
        for j in (*state.vacant_below, *range(-1, j_hi + 3)):
            contributed = False
            for k, c in shifted_constants(i, j, params).items():
                image = _normal_ordered(k, j, state)
                if image is not None:
                    _accumulate(out, image[0], c * (coeff * image[1]))
                    contributed = True
            if contributed and j >= -1 and j > j_hi:
                raise WindowViolationError(
                    f"L_{i} produced a contribution at j={j} beyond the "
                    f"derived bound {j_hi}"
                )
    return out


def _commutator(i: int, j: int, v: FockVector, params: AlgebraParams) -> FockVector:
    """(L_i L_j - L_j L_i) v."""
    return vec_add(
        l_operator(i, l_operator(j, v, params), params),
        vec_scale(l_operator(j, l_operator(i, v, params), params), -1),
    )


def commutator_residual(
    i: int,
    j: int,
    v: FockVector,
    params: AlgebraParams,
    convention: tuple[int, int],
) -> float:
    """Max-norm residual of the centrally extended commutation relation.

    Compares (L_i L_j - L_j L_i) v against
    sigma_c * sum_k C_ij^k L_k v + sigma_chi * chi_sum(i, j) * v and
    normalizes by the squared parameter scale times the vector norm.
    """
    sigma_c, sigma_chi = convention
    rhs: FockVector = vec_scale(v, sigma_chi * chi_sum(i, j, params))
    for k, c in shifted_constants(i, j, params).items():
        rhs = vec_add(rhs, vec_scale(l_operator(k, v, params), sigma_c * c))
    diff = vec_add(_commutator(i, j, v, params), vec_scale(rhs, -1))
    scale = params.scale()
    return vec_norm(diff) / (scale * scale * max(1.0, vec_norm(v)))


def extract_vacuum_cocycle(i: int, j: int, params: AlgebraParams) -> complex:
    """Coefficient of the vacuum in (L_i L_j - L_j L_i)|0> minus the
    structure-constant part (which has no vacuum component)."""
    return _commutator(i, j, {VACUUM: 1.0 + 0j}, params).get(VACUUM, 0j)


def determine_sign_convention() -> tuple[int, int]:
    """(sigma_c, sigma_chi) for commutator_residual, the constant
    cocycle.DEFAULT_SIGN_CONVENTION; a function because perfbench calls it."""
    return DEFAULT_SIGN_CONVENTION
