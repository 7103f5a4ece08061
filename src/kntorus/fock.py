"""Semi-infinite wedge representation and the operator-valued cocycle oracle.

States are wedges of weight-2 forms labelled by integers, differing from
the vacuum pattern (all slots below -1 occupied) in finitely many slots.
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
from dataclasses import dataclass

from .basis import AlgebraParams, WITT_PARAMS, formal_params
from .algebra import shifted_constants
from .cocycle import chi_sum
from .errors import WindowViolationError


@dataclass(frozen=True)
class WedgeState:
    """Canonical semi-infinite wedge.

    All slots < stable_below are occupied except those in vacant_below;
    slots >= stable_below are vacant except those in occupied_above.
    Canonical form pins stable_below = -1 (the vacuum boundary chart),
    which makes the representation of an occupancy unique in the vacuum
    charge sector.  The sign field is +-1 relative to descending order;
    canonical vector keys always carry +1 (signs live in coefficients).
    """

    stable_below: int
    occupied_above: tuple[int, ...]  # descending, all >= stable_below
    vacant_below: tuple[int, ...]  # ascending, all < stable_below
    sign: int = 1

    def is_occupied(self, slot: int) -> bool:
        if slot >= self.stable_below:
            return slot in self.occupied_above
        return slot not in self.vacant_below

    def occupied_above_count(self, slot: int) -> int:
        """Number of occupied slots with index strictly greater than slot."""
        count = sum(1 for x in self.occupied_above if x > slot)
        if slot < self.stable_below:
            count += (self.stable_below - slot - 1) - sum(
                1 for x in self.vacant_below if x > slot
            )
        return count

    def exception_count(self) -> int:
        return len(self.occupied_above) + len(self.vacant_below)

    def to_text(self) -> str:
        occ = ", ".join(str(x) for x in self.occupied_above)
        vac = ", ".join(str(x) for x in self.vacant_below)
        return (
            f"s={self.stable_below}; occ={{{occ}}}; vac={{{vac}}}; "
            f"sign={'+1' if self.sign >= 0 else '-1'}"
        )


VACUUM = WedgeState(stable_below=-1, occupied_above=(), vacant_below=())

_TEXT_RE = re.compile(
    r"s=(-?\d+); occ=\{([^}]*)\}; vac=\{([^}]*)\}; sign=([+-]1)"
)


def state_from_text(text: str) -> WedgeState:
    m = _TEXT_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"unparseable wedge state: {text!r}")
    s = int(m.group(1))
    occ = tuple(int(x) for x in m.group(2).split(",") if x.strip())
    vac = tuple(int(x) for x in m.group(3).split(",") if x.strip())
    return canonical_state(s, set(occ), set(vac), 1 if m.group(4) == "+1" else -1)


def canonical_state(s: int, occ: set[int], vac: set[int], sign: int = 1) -> WedgeState:
    """Convert any (stable_below, exceptions) chart to the s = -1 chart."""
    occ = set(occ)
    vac = set(vac)
    if any(x < s for x in occ) or any(x >= s for x in vac):
        raise ValueError("exception sets out of range for the given chart")
    if s <= -1:
        # slots in [s, -1) are vacant unless listed occupied
        vac = vac | {x for x in range(s, -1) if x not in occ}
        occ = {x for x in occ if x >= -1}
    else:
        # slots in [-1, s) are occupied unless listed vacant
        occ = occ | {x for x in range(-1, s) if x not in vac}
        vac = {x for x in vac if x < -1}
    return WedgeState(
        stable_below=-1,
        occupied_above=tuple(sorted(occ, reverse=True)),
        vacant_below=tuple(sorted(vac)),
        sign=sign,
    )


FockVector = dict[WedgeState, complex]


def vector(*terms: tuple[WedgeState, complex]) -> FockVector:
    out: FockVector = {}
    for state, coeff in terms:
        _accumulate(out, state, coeff)
    return out


def _accumulate(vec: FockVector, state: WedgeState, coeff: complex) -> None:
    if state.sign != 1:
        coeff = coeff * state.sign
        state = WedgeState(state.stable_below, state.occupied_above, state.vacant_below, 1)
    new = vec.get(state, 0j) + coeff
    if new == 0:
        vec.pop(state, None)
    else:
        vec[state] = new


def wedge_c(i: int, state: WedgeState) -> FockVector:
    """Insert form i; zero if the slot is occupied."""
    if state.is_occupied(i):
        return {}
    sign = state.sign * (-1) ** state.occupied_above_count(i)
    if i >= state.stable_below:
        new = canonical_state(
            state.stable_below,
            set(state.occupied_above) | {i},
            set(state.vacant_below),
        )
    else:
        new = canonical_state(
            state.stable_below,
            set(state.occupied_above),
            set(state.vacant_below) - {i},
        )
    return {new: complex(sign)}


def contract_b(k: int, state: WedgeState) -> FockVector:
    """Remove form k; zero if the slot is vacant."""
    if not state.is_occupied(k):
        return {}
    sign = state.sign * (-1) ** state.occupied_above_count(k)
    if k >= state.stable_below:
        new = canonical_state(
            state.stable_below,
            set(state.occupied_above) - {k},
            set(state.vacant_below),
        )
    else:
        new = canonical_state(
            state.stable_below,
            set(state.occupied_above),
            set(state.vacant_below) | {k},
        )
    return {new: complex(sign)}


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


def _vacant_slots_below(state: WedgeState, bound: int) -> list[int]:
    """All vacant slots with index < bound (finite by construction)."""
    slots = [x for x in state.vacant_below if x < bound]
    slots.extend(
        x
        for x in range(state.stable_below, bound)
        if x not in state.occupied_above
    )
    return slots


def _max_occupied(state: WedgeState) -> int:
    if state.occupied_above:
        return state.occupied_above[0]
    return state.stable_below - 1


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
        for j in _vacant_slots_below(state, -1):
            terms = shifted_constants(i, j, params)
            if not terms:
                continue
            inserted = apply_c(j, base)
            for k, c in terms.items():
                for s2, c2 in apply_b(k, inserted).items():
                    _accumulate(out, s2, c * c2)
        # branch 2: j >= -1, k occupied and k in [i+j, i+j+6]
        j_hi = _max_occupied(state) - i
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


_SIGN_CONVENTION_CACHE: tuple[int, int] | None = None


def determine_sign_convention() -> tuple[int, int]:
    """Empirically fix (sigma_c, sigma_chi) from operator probes.

    Minimizes the commutator residual over the four sign choices, using
    Witt and deformed formal parameters on vacuum and excited states.
    The result is the stored convention used by every identity check.
    """
    global _SIGN_CONVENTION_CACHE
    if _SIGN_CONVENTION_CACHE is not None:
        return _SIGN_CONVENTION_CACHE
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
    _SIGN_CONVENTION_CACHE = best
    return best
