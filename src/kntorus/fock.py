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

The current operators L_i = sum_{j,k} C_ij^k :b_k c^j: (shifted structure
constants, normal ordering switching at j = -1) realize the centrally
extended algebra.  Their commutator fixes the empirical sign convention
(sigma_c, sigma_chi) connecting the abstract cocycle chi_sum to the
operator anomaly.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass
from functools import lru_cache

from .basis import AlgebraParams, WITT_PARAMS, formal_params
from .algebra import shifted_constants
from .cocycle import chi_sum
from .errors import WindowViolationError


@dataclass(frozen=True)
class WedgeState:
    """Semi-infinite wedge as its exceptions to the vacuum.

    Slots >= -1 are vacant except those in occupied_above; slots < -1 are
    occupied except those in vacant_below.  Each occupancy has exactly one
    such representation, and a state has no sign of its own: signs live in
    the coefficients of a FockVector.  stable_below names the chart of the
    exception sets and accepts only the vacuum boundary -1; other charts
    are read through canonical_state.
    """

    occupied_above: tuple[int, ...] = ()  # descending, all >= -1
    vacant_below: tuple[int, ...] = ()  # ascending, all < -1
    stable_below: InitVar[int] = -1

    def __post_init__(self, stable_below: int) -> None:
        if stable_below != -1:
            raise ValueError(
                f"WedgeState is stored in the chart stable_below=-1, got {stable_below}; "
                "use canonical_state to convert"
            )

    def is_occupied(self, slot: int) -> bool:
        if slot >= -1:
            return slot in self.occupied_above
        return slot not in self.vacant_below

    def to_text(self) -> str:
        occ = ", ".join(str(x) for x in self.occupied_above)
        vac = ", ".join(str(x) for x in self.vacant_below)
        return f"s=-1; occ={{{occ}}}; vac={{{vac}}}; sign=+1"


VACUUM = WedgeState()

_TEXT_RE = re.compile(
    r"s=(-?\d+); occ=\{([^}]*)\}; vac=\{([^}]*)\}; sign=([+-]1)"
)


def state_from_text(text: str) -> WedgeState:
    m = _TEXT_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"unparseable wedge state: {text!r}")
    if m.group(4) != "+1":
        raise ValueError(f"a basis state carries no sign: {text!r}")
    occ = {int(x) for x in m.group(2).split(",") if x.strip()}
    vac = {int(x) for x in m.group(3).split(",") if x.strip()}
    return canonical_state(int(m.group(1)), occ, vac)


def canonical_state(s: int, occ: set[int], vac: set[int]) -> WedgeState:
    """Convert the chart stable_below = s (slots < s occupied except vac,
    slots >= s vacant except occ) to the vacuum-relative state.

    The charts agree outside [min(s, -1), max(s, -1)) and disagree on every
    default inside it, so the vacuum exceptions are the symmetric difference
    of the chart exceptions with that range.
    """
    if any(x < s for x in occ) or any(x >= s for x in vac):
        raise ValueError("exception sets out of range for the given chart")
    flipped = (set(occ) | set(vac)) ^ set(range(min(s, -1), max(s, -1)))
    return WedgeState(
        occupied_above=tuple(sorted((x for x in flipped if x >= -1), reverse=True)),
        vacant_below=tuple(sorted(x for x in flipped if x < -1)),
    )


FockVector = dict[WedgeState, complex]


def _accumulate(vec: FockVector, state: WedgeState, coeff: complex) -> None:
    new = vec.get(state, 0j) + coeff
    if new == 0:
        vec.pop(state, None)
    else:
        vec[state] = new


def _toggle(slot: int, state: WedgeState) -> tuple[WedgeState, complex]:
    """The state with slot flipped, and the Koszul sign
    (-1)**(number of occupied slots above slot)."""
    occ, vac = state.occupied_above, state.vacant_below
    above = sum(1 for x in occ if x > slot)
    if slot >= -1:
        new = WedgeState(tuple(sorted(set(occ) ^ {slot}, reverse=True)), vac)
    else:
        # the slots in (slot, -1) are occupied unless listed vacant
        above += -2 - slot - sum(1 for x in vac if x > slot)
        new = WedgeState(occ, tuple(sorted(set(vac) ^ {slot})))
    return new, complex((-1) ** above)


def wedge_c(i: int, state: WedgeState) -> FockVector:
    """Insert form i; zero if the slot is occupied."""
    if state.is_occupied(i):
        return {}
    new, sign = _toggle(i, state)
    return {new: sign}


def contract_b(k: int, state: WedgeState) -> FockVector:
    """Remove form k; zero if the slot is vacant."""
    if not state.is_occupied(k):
        return {}
    new, sign = _toggle(k, state)
    return {new: sign}


def apply_c(i: int, vec: FockVector) -> FockVector:
    out: FockVector = {}
    for state, coeff in vec.items():
        for new, s in wedge_c(i, state).items():
            _accumulate(out, new, coeff * s)
    return out


def apply_b(k: int, vec: FockVector) -> FockVector:
    out: FockVector = {}
    for state, coeff in vec.items():
        for new, s in contract_b(k, state).items():
            _accumulate(out, new, coeff * s)
    return out


def normal_ordered_bc(k: int, j: int, v: FockVector) -> FockVector:
    """:b_k c^j: applied to a vector.

    Reads the product right to left: c^j acts first for j < -1, otherwise
    the reordered -c^j b_k (b_k first) is applied.  This switch makes every
    vacuum expectation value vanish.
    """
    if j < -1:
        return apply_b(k, apply_c(j, v))
    out = apply_c(j, apply_b(k, v))
    return {s: -c for s, c in out.items()}


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


def l_operator(i: int, v: FockVector, params: AlgebraParams) -> FockVector:
    """Apply L_i = sum_{j,k} C_ij^k :b_k c^j: with C the shifted constants.

    Finiteness of the sum, per input state:
      * j < -1 branch: c^j acts first, so j must currently be vacant; the
        vacant slots below -1 form a finite set.
      * j >= -1 branch: b_k acts first, so k must currently be occupied,
        and k >= i + j (support window) bounds j <= max_occupied - i.
    Two extra j values beyond the derived upper bound are scanned; any
    nonzero contribution there raises WindowViolationError.
    """
    out: FockVector = {}
    for state, coeff in v.items():
        base: FockVector = {state: coeff}
        # branch 1: j < -1, j vacant
        for j in state.vacant_below:
            terms = shifted_constants(i, j, params)
            if not terms:
                continue
            inserted = apply_c(j, base)
            for k, c in terms.items():
                for s2, c2 in apply_b(k, inserted).items():
                    _accumulate(out, s2, c * c2)
        # branch 2: j >= -1, k occupied and k in [i+j, i+j+6]
        j_hi = max(state.occupied_above, default=-2) - i
        for j in range(-1, j_hi + 3):
            terms = shifted_constants(i, j, params)
            contributed = False
            for k, c in terms.items():
                if not state.is_occupied(k):
                    continue
                removed = apply_b(k, base)
                if not removed:
                    continue
                for s2, c2 in apply_c(j, removed).items():
                    _accumulate(out, s2, -c * c2)
                    contributed = True
            if contributed and j > j_hi:
                raise WindowViolationError(
                    f"L_{i} produced a contribution at j={j} beyond the "
                    f"derived bound {j_hi}"
                )
    return out


def commutator_residual(
    i: int,
    j: int,
    v: FockVector,
    params: AlgebraParams,
    convention: tuple[int, int] | None = None,
) -> float:
    """Max-norm residual of the centrally extended commutation relation.

    Compares (L_i L_j - L_j L_i) v against
    sigma_c * sum_k C_ij^k L_k v + sigma_chi * chi_sum(i, j) * v and
    normalizes by the squared parameter scale times the vector norm.
    """
    if convention is None:
        convention = determine_sign_convention()
    sigma_c, sigma_chi = convention
    lhs = vec_add(
        l_operator(i, l_operator(j, v, params), params),
        vec_scale(l_operator(j, l_operator(i, v, params), params), -1),
    )
    rhs: FockVector = vec_scale(v, sigma_chi * chi_sum(i, j, params))
    for k, c in shifted_constants(i, j, params).items():
        rhs = vec_add(rhs, vec_scale(l_operator(k, v, params), sigma_c * c))
    diff = vec_add(lhs, vec_scale(rhs, -1))
    scale = params.scale()
    return vec_norm(diff) / (scale * scale * max(1.0, vec_norm(v)))


def extract_vacuum_cocycle(i: int, j: int, params: AlgebraParams) -> complex:
    """Coefficient of the vacuum in (L_i L_j - L_j L_i)|0> minus the
    structure-constant part (which has no vacuum component)."""
    vac: FockVector = {VACUUM: 1.0 + 0j}
    comm = vec_add(
        l_operator(i, l_operator(j, vac, params), params),
        vec_scale(l_operator(j, l_operator(i, vac, params), params), -1),
    )
    return comm.get(VACUUM, 0j)


@lru_cache(maxsize=None)
def determine_sign_convention() -> tuple[int, int]:
    """Empirically fix (sigma_c, sigma_chi) from operator probes.

    Minimizes the commutator residual over the four sign choices, using
    Witt and deformed formal parameters on vacuum and excited states.
    The result is the stored convention used by every identity check.
    """
    deformed = formal_params(0.31 + 0.07j, -0.22 + 0.11j, 0.05 - 0.13j)
    excited = apply_c(1, apply_b(-3, {VACUUM: 1.0 + 0j}))
    probes = [
        (2, -2, {VACUUM: 1.0 + 0j}, WITT_PARAMS),
        (2, 0, excited, WITT_PARAMS),
        (1, -3, {VACUUM: 1.0 + 0j}, deformed),
        (2, -1, excited, deformed),
    ]
    best: tuple[int, int] | None = None
    best_res = None
    results = {}
    for sigma_c in (1, -1):
        for sigma_chi in (1, -1):
            res = max(
                commutator_residual(a, b, vec, ps, (sigma_c, sigma_chi))
                for a, b, vec, ps in probes
            )
            results[(sigma_c, sigma_chi)] = res
            if best_res is None or res < best_res:
                best, best_res = (sigma_c, sigma_chi), res
    others = sorted(r for key, r in results.items() if key != best)
    if best_res > 1e-9 or others[0] < 1e-6:
        raise ArithmeticError(f"sign convention probes inconclusive: {results}")
    return best
