"""Semi-infinite wedge representation and the operator-valued cocycle oracle.

States are wedges of weight-2 forms labelled by integers, differing from
the vacuum pattern (all slots below -1 occupied) in finitely many slots.
A basis state is that finite set of exceptions, relative to the vacuum,
held as two int bitmasks: hi for the occupied slots >= -1 and lo for the
vacant slots < -1.  It carries no sign, so every sign lives in a vector
coefficient.  The mode operators

    c^i : insert form i (zero if occupied),
    b_k : remove form k (zero if vacant),

carry the Koszul sign (-1)**(number of occupied slots above the index) of
the canonical descending ordering and satisfy the Clifford relations
{b_k, c^i} = delta, {b,b} = {c,c} = 0 exactly.  On the masks each is one
xor, and its sign one popcount: of the bits of hi above the slot for
s >= -1; for s < -1, of all of hi plus the -2 - s slots in (s, -1) minus
the bits of lo below the slot's bit (the vacant ones among them).

Every operator is defined once on a basis state, where it gives one state
and a sign or zero: _flip is b or c, _then composes two flips (the rule
that _normal_ordered and clifford_residual compose by), _normal_ordered
is :b_k c^j: (normal ordering switching at j = -1), and _linear extends
either to a FockVector.  The current operators
L_i = sum_{j,k} C_ij^k :b_k c^j: (shifted structure constants) realize
the centrally extended algebra.  l_operator, the hot loop, takes each
first flip once per state and works the second on the masks in place,
term by term as _normal_ordered gives them and with the same products,
so its values keep their bits (the tests pin it to that term loop).  It
reads its constants from a table that one commutator builds and shares
among its calls, so each C_ij^k is built once per commutator; no table
outlives the call that made it.
Their commutator connects the abstract cocycle chi_sum to the operator
anomaly through the sign convention (sigma_c, sigma_chi), the constant
cocycle.DEFAULT_SIGN_CONVENTION; the tests ground it exactly, at integer
parameter probes where every coefficient is an exact integer.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from .basis import AlgebraParams
from .algebra import shifted_constants
from .cocycle import DEFAULT_SIGN_CONVENTION, chi_sum
from .errors import WindowViolationError


class WedgeState(tuple):
    """Semi-infinite wedge as its exceptions to the vacuum, held in two ints.

    Slots >= -1 are vacant except the occupied ones, bit s + 1 of `hi`;
    slots < -1 are occupied except the vacant ones, bit -2 - s of `lo`.
    Each occupancy has exactly one such pair.  The state is the immutable
    tuple (hi, lo), so it hashes and compares as that pair, and it has no
    sign of its own: signs live in the coefficients of a FockVector.  The
    constructor takes the exception sets as slots, in any order, and
    stable_below, the boundary of those sets, which accepts only the vacuum
    boundary -1; it goes once perfbench no longer passes it.
    """

    __slots__ = ()

    def __new__(
        cls,
        occupied_above: tuple[int, ...] = (),
        vacant_below: tuple[int, ...] = (),
        stable_below: int = -1,
    ) -> WedgeState:
        if stable_below != -1:
            raise ValueError(
                f"WedgeState is stored relative to the vacuum boundary stable_below=-1, "
                f"got {stable_below}"
            )
        if any(s < -1 for s in occupied_above) or any(s >= -1 for s in vacant_below):
            raise ValueError(
                f"WedgeState needs occupied_above >= -1 and vacant_below < -1, "
                f"got {occupied_above} and {vacant_below}"
            )
        hi = sum({1 << (s + 1) for s in occupied_above})
        lo = sum({1 << (-2 - s) for s in vacant_below})
        return _masks(cls, (hi, lo))

    hi = property(itemgetter(0))
    lo = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # pickle and copy rebuild the state through __new__ from its slots
        return self.occupied_above, self.vacant_below

    def __repr__(self) -> str:
        return f"WedgeState(occupied_above={self.occupied_above}, vacant_below={self.vacant_below})"

    @property
    def occupied_above(self) -> tuple[int, ...]:
        """The occupied slots >= -1, strictly descending."""
        hi = self.hi
        return tuple(b - 1 for b in range(hi.bit_length() - 1, -1, -1) if hi >> b & 1)

    @property
    def vacant_below(self) -> tuple[int, ...]:
        """The vacant slots < -1, strictly ascending."""
        lo = self.lo
        return tuple(-2 - b for b in range(lo.bit_length() - 1, -1, -1) if lo >> b & 1)


# builds a WedgeState straight from its masks, as the operators do
_masks = tuple.__new__


VACUUM = WedgeState()

FockVector = dict[WedgeState, complex]
# a basis-state operator: the image state and its sign, or None for zero
StateImage = tuple[WedgeState, int] | None
# (i, j) -> the items of shifted_constants(i, j, params): the constants of
# one commutator, shared by its l_operator calls and dropped with it
ConstantTable = dict[tuple[int, int], tuple[tuple[int, complex], ...]]


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
    hi, lo = state
    if slot >= -1:
        bit = 1 << (slot + 1)
        if bool(hi & bit) != occupied:
            return None
        return _masks(WedgeState, (hi ^ bit, lo)), -1 if (hi >> (slot + 2)).bit_count() & 1 else 1
    bit = 1 << (-2 - slot)
    if bool(lo & bit) == occupied:
        return None
    # every occupied slot >= -1 lies above, and the -2 - slot slots in
    # (slot, -1) are occupied unless vacant (the bits of lo below bit)
    above = hi.bit_count() + (-2 - slot) - (lo & (bit - 1)).bit_count()
    return _masks(WedgeState, (hi, lo ^ bit)), -1 if above & 1 else 1


def _then(first: StateImage, slot: int, occupied: bool) -> StateImage:
    """_flip(slot, ., occupied) after the image `first`: zero if either is
    zero, else the final state and the product of the two signs."""
    second = first and _flip(slot, first[0], occupied)
    return second and (second[0], first[1] * second[1])


def _normal_ordered(k: int, j: int, state: WedgeState) -> StateImage:
    """:b_k c^j: on a basis state, read right to left.

    c^j acts first for j < -1; otherwise the reordered -c^j b_k (b_k first)
    is applied.  This switch makes every vacuum expectation value vanish.
    """
    if j < -1:
        return _then(_flip(j, state, False), k, True)
    image = _then(_flip(k, state, True), j, False)
    return image and (image[0], -image[1])


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
    """1.0 at the first violation on one basis state of {b_k, c^i} = delta_ki,
    {b_k, b_i} = 0 or {c^k, c^i} = 0 for k, i in [-bound, bound], else 0.0.

    The signed images XY|s> and YX|s> are both zero or one state with
    opposite signs; for {b_k, c^k} one is zero and the other is |s> with
    sign +1.  {b, b} runs over pairs of occupied slots and {c, c} over pairs
    of vacant ones: elsewhere both images vanish at a flip of the wrong
    occupancy, which the {b, c} sweep already exercises.
    """
    labels = range(-bound, bound + 1)
    created = {i: _flip(i, state, False) for i in labels}
    removed = {k: _flip(k, state, True) for k in labels}

    def opposite(xy: StateImage, yx: StateImage) -> bool:
        return xy == (yx and (yx[0], -yx[1]))

    for k in labels:
        for i in labels:  # b_k c^i and c^i b_k
            xy, yx = _then(created[i], k, True), _then(removed[k], i, False)
            if not ({xy, yx} == {None, (state, 1)} if k == i else opposite(xy, yx)):
                return 1.0
    for images, occupied in ((removed, True), (created, False)):
        slots = [s for s in labels if images[s]]
        for n, k in enumerate(slots):
            for i in slots[n:]:
                if not opposite(_then(images[i], k, occupied), _then(images[k], i, occupied)):
                    return 1.0
    return 0.0


def _constants(
    table: ConstantTable, i: int, j: int, params: AlgebraParams
) -> tuple[tuple[int, complex], ...]:
    """The items (k, C_ij^k) of shifted_constants(i, j, params), in k order,
    built into `table` on first use."""
    terms = table.get((i, j))
    if terms is None:
        terms = table[i, j] = tuple(shifted_constants(i, j, params).items())
    return terms


def l_operator(
    i: int, v: FockVector, params: AlgebraParams, table: ConstantTable | None = None
) -> FockVector:
    """Apply L_i = sum_{j,k} C_ij^k :b_k c^j: with C the shifted constants.

    Finiteness of the sum, per input state:
      * j < -1: c^j acts first, so j must currently be vacant; the vacant
        slots below -1 form a finite set.
      * j >= -1: b_k acts first, so k must currently be occupied, and
        k >= i + j (support window) bounds j <= max_occupied - i.
    Two extra j values beyond the derived upper bound are scanned; any
    nonzero contribution there raises WindowViolationError.

    Each term is :b_k c^j: on the state, as _normal_ordered gives it, with
    the first flip taken once per state: c^j once for all k when j < -1,
    b_k once per k when j >= -1, held as masks and a sign parity.  The
    second flip is _flip's rule worked on those masks in the loop (a bit
    test, an xor and a popcount), the image is added with _accumulate's
    rule, and a WedgeState is built only for an image that enters the
    output.  The terms run in the order state, j, k, and each value is
    c * (coeff * sign) with an int sign of +-1, so every value keeps the
    bits of the term loop.  The constants come from `table`, which one
    commutator shares among its calls; without one the call builds its own.
    """
    if table is None:
        table = {}
    out: FockVector = {}
    for state, coeff in v.items():
        hi, lo = state
        n_hi = hi.bit_count()
        signed = (coeff * 1, coeff * -1)  # coeff * (-1)**parity, with the term loop's int signs
        # j < -1, the vacant slots in ascending order: c^j, then b_k
        for b in range(lo.bit_length() - 1, -1, -1):
            bit = 1 << b
            if not lo & bit:
                continue
            lo1 = lo ^ bit
            parity = n_hi + b - (lo & (bit - 1)).bit_count()
            for k, c in _constants(table, i, -2 - b, params):
                if k >= -1:
                    kbit = 1 << (k + 1)
                    if not hi & kbit:
                        continue
                    key = (hi ^ kbit, lo1)
                    above = (hi >> (k + 2)).bit_count()
                else:
                    kbit = 1 << (-2 - k)
                    if lo1 & kbit:
                        continue
                    key = (hi, lo1 ^ kbit)
                    above = n_hi - 2 - k - (lo1 & (kbit - 1)).bit_count()
                value = c * signed[(parity + above) & 1]
                old = out.get(key)
                if old is None:
                    new = 0j + value
                    if new != 0:
                        out[_masks(WedgeState, key)] = new
                elif (new := old + value) == 0:
                    del out[key]
                else:
                    out[key] = new
        # j >= -1: b_k, then c^j, with the reordering sign -1 folded into
        # the parity of each b_k image, which is (hi, lo, parity) or None
        j_hi = hi.bit_length() - 2 - i  # the highest occupied slot, minus i
        removed: dict[int, tuple[int, int, int] | None] = {}
        for j in range(-1, j_hi + 3):
            jbit = 1 << (j + 1)
            for k, c in _constants(table, i, j, params):
                first = removed.get(k, False)
                if first is False:  # b_k on the state, once per k
                    if k >= -1:
                        kbit = 1 << (k + 1)
                        above = (hi >> (k + 2)).bit_count()
                        first = removed[k] = (hi ^ kbit, lo, above + 1) if hi & kbit else None
                    else:
                        kbit = 1 << (-2 - k)
                        above = n_hi - 2 - k - (lo & (kbit - 1)).bit_count()
                        first = removed[k] = None if lo & kbit else (hi, lo ^ kbit, above + 1)
                if first is None or first[0] & jbit:
                    continue
                if j > j_hi:
                    raise WindowViolationError(
                        f"L_{i} produced a contribution at j={j} beyond the "
                        f"derived bound {j_hi}"
                    )
                hi1, lo1, parity = first
                key = (hi1 ^ jbit, lo1)
                value = c * signed[(parity + (hi1 >> (j + 2)).bit_count()) & 1]
                old = out.get(key)
                if old is None:
                    new = 0j + value
                    if new != 0:
                        out[_masks(WedgeState, key)] = new
                elif (new := old + value) == 0:
                    del out[key]
                else:
                    out[key] = new
    return out


def _commutator(
    i: int, j: int, v: FockVector, params: AlgebraParams, table: ConstantTable
) -> FockVector:
    """(L_i L_j - L_j L_i) v, every l_operator call reading one table."""
    return vec_add(
        l_operator(i, l_operator(j, v, params, table), params, table),
        vec_scale(l_operator(j, l_operator(i, v, params, table), params, table), -1),
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
    One constant table serves every l_operator call and C_ij^k itself.
    """
    sigma_c, sigma_chi = convention
    table: ConstantTable = {}
    rhs: FockVector = vec_scale(v, sigma_chi * chi_sum(i, j, params))
    for k, c in _constants(table, i, j, params):
        factor = sigma_c * c
        for state, coeff in l_operator(k, v, params, table).items():
            _accumulate(rhs, state, coeff * factor)
    diff = vec_add(_commutator(i, j, v, params, table), vec_scale(rhs, -1))
    scale = params.scale()
    return vec_norm(diff) / (scale * scale * max(1.0, vec_norm(v)))


def extract_vacuum_cocycle(i: int, j: int, params: AlgebraParams) -> complex:
    """Coefficient of the vacuum in (L_i L_j - L_j L_i)|0> minus the
    structure-constant part (which has no vacuum component)."""
    return _commutator(i, j, {VACUUM: 1.0 + 0j}, params, {}).get(VACUUM, 0j)


def determine_sign_convention() -> tuple[int, int]:
    """(sigma_c, sigma_chi) for commutator_residual, the constant
    cocycle.DEFAULT_SIGN_CONVENTION; a function because perfbench calls it."""
    return DEFAULT_SIGN_CONVENTION
