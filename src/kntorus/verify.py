"""Deterministic invariant batteries for every module.

Each suite returns a list of CheckResult records; the CLI serializes them
and pytest reuses them.  All randomness is seeded, so repeated runs with
identical inputs produce identical reports.

Every check hands its residuals to _check, the one place that reduces them:
max_residual is their maximum, 0.0 when there are none, and NaN when any
residual is NaN, which fails the check.

The suites in WINDOWED_SUITES sweep a label window [-window, window], and
verify_suite refuses a window that is missing or below 1 for them.  The
identity checks of verify algebra and verify cocycle read one residual
cube per parameter set, over [-5, 5]^3 (Jacobi) and [-4, 4]^3 (cocycle);
verify basis reads one frame_array call over every point it evaluates,
and verify elliptic one wp_pair_array and one wp_array call.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, basis, cocycle, elliptic, fock, propagation
from .basis import WITT_PARAMS, formal_params, lambda_coefficients
from .config import TorusConfig, complex_abs, distance_to_points_array, reduce_mod_lattice_array
from .errors import DegenerateModuliError, PoleProximityError, QuadratureError
from .quadrature import segment_integral

# gate of the pointwise wp identities and omega_antisymmetry (wp_periodicity: ten times it)
IDENTITY_TOL = 1e-10
# least distance of a random sample point from a puncture or from the
# half periods tau/2 and (1 + tau)/2
SAMPLE_MARGIN = 0.08


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    max_residual: float
    tolerance: float
    detail: str = ""  # why the check failed when its residual cannot say

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _check(name: str, residuals, tol: float, error: str = "") -> CheckResult:
    """Reduce a check's residuals to its max_residual and decide pass or fail.

    residuals is one number or a collection of them: a generator (consumed
    here, in the order it yields), a list, or a numpy array of any shape
    (nested lists and tuples of equal length alike).  max_residual is their
    maximum as a float, 0.0 when there are none and NaN when any is NaN;
    the check passes when it is at most tol.  A check whose computation
    raised (an unconverged quadrature, a degenerate moduli expression)
    fails whatever its residuals, and the error message becomes the
    check's detail.
    """
    values = np.array(list(residuals) if isinstance(residuals, Iterator) else residuals, dtype=float)
    max_residual = float(values.max()) if values.size else 0.0
    return CheckResult(
        name=name,
        status="pass" if not error and max_residual <= tol else "fail",
        max_residual=max_residual,
        tolerance=tol,
        detail=error,
    )


def _relative(value: complex, ref: complex) -> float:
    """|value - ref| relative to max(1, |ref|)."""
    return abs(value - ref) / max(1.0, abs(ref))


def random_points(cfg: TorusConfig, count: int, seed: int) -> list[complex]:
    """Deterministic sample of cell points away from punctures and lattice:
    a one-at-a-time rejection loop, each batch of candidates as large as
    the number of points still missing."""
    rng = random.Random(seed)
    tau = cfg.tau
    marks = (*cfg.punctures(), 0.5 * tau, 0.5 + 0.5 * tau)
    points: list[complex] = []
    while len(points) < count:
        ab = [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(count - len(points))]
        z = np.array([complex(a + b * tau.real, b * tau.imag) for a, b in ab])
        points += z[distance_to_points_array(z, marks, tau) > SAMPLE_MARGIN].tolist()
    return points


def random_formal_sets(count: int, seed: int) -> list[basis.AlgebraParams]:
    """Deterministic formal parameter sets with lam5..lam7 in the unit square."""
    rng = random.Random(seed)

    def c() -> complex:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    return [formal_params(c(), c(), c()) for _ in range(count)]


def random_wedge_state(rng: random.Random, depth: tuple[int, int] = (1, 5)) -> fock.WedgeState:
    """Wedge state reached from the vacuum by a run of depth random b/c operators."""
    vec: fock.FockVector = {fock.VACUUM: 1.0 + 0j}
    for _ in range(rng.randint(*depth)):
        idx = rng.randint(-8, 8)
        op = rng.choice((fock.apply_c, fock.apply_b))
        cand = op(idx, vec)
        if cand:
            vec = cand
    return next(iter(vec))


# ---------------------------------------------------------------------------


def verify_elliptic(cfg: TorusConfig) -> list[CheckResult]:
    pts = random_points(cfg, 30, seed=101)
    rng = random.Random(102)
    hp = elliptic.half_period_values(cfg)
    tau = cfg.tau
    # one wp_pair_array call at the points and the negated first 15; one
    # wp_array call at lattice shifts of the first 10 and at their reductions
    values, primes = elliptic.wp_pair_array(np.array([*pts, *(-z for z in pts[:15])]), cfg)
    p, dp, p_neg, dp_neg = values[:30], primes[:30], values[30:], primes[30:]
    periodic = [z + rng.randint(-3, 3) + rng.randint(-3, 3) * tau for z in pts[:10] for _ in range(3)]
    shifted = np.array([z + 2 + tau for z in pts[:10]])
    moved = elliptic.wp_array(np.concatenate([periodic, shifted, reduce_mod_lattice_array(shifted, tau)]), cfg)

    def relative(value: np.ndarray, ref: np.ndarray) -> np.ndarray:
        return np.abs(value - ref) / np.maximum(1.0, np.abs(ref))

    scale = max(1.0, abs(hp.e1), abs(hp.e2), abs(hp.e3))
    return [
        _check("wp_periodicity", relative(moved[:30], np.repeat(p[:10], 3)), 10 * IDENTITY_TOL),
        _check("wp_parity", [relative(p_neg, p[:15]), relative(-dp_neg, dp[:15])], IDENTITY_TOL),
        _check("wp_differential_equation",
               np.abs(dp * dp - 4.0 * (p - hp.e1) * (p - hp.e2) * (p - hp.e3)) / (1.0 + np.abs(p) ** 3),
               IDENTITY_TOL),
        _check("wp_reduction_consistency", relative(moved[40:], moved[30:40]), IDENTITY_TOL),
        _check("half_period_sum", abs(hp.e1 + hp.e2 + hp.e3) / scale, IDENTITY_TOL),
    ]


def verify_differential(cfg: TorusConfig) -> list[CheckResult]:
    checks = []
    rng = random.Random(201)
    pts = random_points(cfg, 50, seed=202)

    # omega at 1/2 + w against 1/2 - w, and at -w against w, from one frame_array call
    w = np.array(pts)
    omega = basis.frame_array(np.array([0.5 + w, 0.5 - w, -w, w]), cfg)[1]
    lhs, rhs = omega[0::2], omega[1::2]
    relative = np.abs(lhs + rhs) / np.maximum(1.0, np.abs(lhs))
    checks.append(_check("omega_antisymmetry", relative, IDENTITY_TOL))

    # residues (+1, -1/2, -1/2), or (+1, -1) at the merged out-puncture
    punctures = cfg.punctures()
    outs = len(punctures) - 1
    residues = [propagation.residue_at(s, cfg) for s in punctures]
    expected = (1.0, *(-1.0 / outs,) * outs)
    checks.append(_check("residue_triple", (abs(r - e) for r, e in zip(residues, expected)), 1e-8))
    checks.append(_check("residue_sum", abs(sum(residues)), 1e-8))

    try:
        pa, pb = propagation.period_real_parts(cfg)
        checks.append(_check("period_real_parts", (abs(pa), abs(pb)), 1e-8))
    except QuadratureError as exc:
        checks.append(_check("period_real_parts", abs(exc.estimate.real), 1e-8, str(exc)))

    # skip a segment near a puncture here, and one passing where frame_array raises below
    draws = [(rng.choice(pts), rng.choice(pts)) for _ in range(20)]
    mids = distance_to_points_array(np.array([0.5 * (z0 + z1) for z0, z1 in draws]), cfg.punctures(), cfg.tau)
    segments = [(z0, z1) for (z0, z1), d in zip(draws, mids.tolist()) if z0 != z1 and d >= 0.05]
    residuals, unconverged = [], ""
    integrals = segment_integral(lambda z: basis.frame_array(z, cfg)[1], segments)
    # one array call for every segment's ends costs less than two scalar calls
    ends = propagation.time_coordinate(np.array(segments, dtype=complex).reshape(-1, 2), cfg)
    for (t0, t1), rhs in zip(ends.tolist(), integrals):
        if isinstance(rhs, PoleProximityError):
            continue
        if isinstance(rhs, QuadratureError):
            rhs, unconverged = rhs.estimate, str(rhs)
        residuals.append(abs(t1 - t0 - rhs.real))
    checks.append(_check("time_vs_line_integral", residuals, 1e-7, unconverged))

    try:
        sep0 = propagation.separation_time(cfg.two_point_limit())
        mu = propagation.mu_modulus(cfg)
        checks.append(_check("mu_vs_separation_time", abs(mu.separation_time_two_point - sep0), 1e-10))
    except DegenerateModuliError as exc:
        checks.append(_check("mu_vs_separation_time", 0.0, 1e-10, str(exc)))
    return checks


def verify_basis(cfg: TorusConfig) -> list[CheckResult]:
    rng = random.Random(301)
    pts = random_points(cfg, 40, seed=302)
    lams = lambda_coefficients(cfg).as_tuple()
    h = 1e-5  # the finite-difference step
    zs = [*pts, *(-z for z in pts), *(z + h for z in pts), *(z - h for z in pts)]
    # Python complexes, so that monomial names the label of a vanishing wp - p
    frames = dict(zip(zs, zip(*(a.tolist() for a in basis.frame_array(np.array(zs), cfg)))))

    def value(k: int, z: complex) -> complex:
        return basis.monomial(k, *frames[z][:2])

    def expansion(k: int, z: complex) -> complex:
        # lam4 A_k + lam5 A_{k+2} + lam6 A_{k+4} + lam7 A_{k+6} at z
        return sum(lam * value(k + 2 * t, z) for t, lam in enumerate(lams))

    # each check draws its points and labels from rng before the next one
    even = [(rng.choice(pts), 2 * rng.randint(-4, 4), rng.randint(-8, 8)) for _ in range(100)]
    checks = [_check("even_product_law", (
        _relative(value(i, z) * value(j, z), value(i + j, z)) for z, i, j in even
    ), 1e-8)]
    odd = [(rng.choice(pts), 2 * rng.randint(-4, 3) + 1, 2 * rng.randint(-4, 3) + 1) for _ in range(60)]
    checks.append(_check("odd_product_law", (
        _relative(value(i, z) * value(j, z), expansion(i + j, z)) for z, i, j in odd
    ), 1e-8))
    parity = [(k, rng.choice(pts)) for k in range(-5, 6)]
    checks.append(_check("basis_parity", (
        _relative(value(k, -z), (1.0 if k % 2 == 0 else -1.0) * value(k, z)) for k, z in parity
    ), 1e-8))
    derivative = [(k, rng.choice(pts)) for k in range(-6, 7) for _ in range(3)]
    checks.append(_check("derivative_vs_finite_difference", (
        _relative((value(k, z + h) - value(k, z - h)) / (2 * h), basis.monomial_derivative(k, *frames[z]))
        for k, z in derivative
    ), 1e-6))

    # order k at the in-point and out_puncture_order(k) at each out-puncture
    outs = [basis.out_puncture_order(k, cfg.two_point) for k in range(-6, 7)]
    expected = np.array([range(-6, 7), *[outs] * (len(cfg.punctures()) - 1)])
    mismatches = (basis.winding_order(cfg, 6) != expected).any(axis=0).sum()
    checks.append(_check("order_triples_vs_winding", mismatches, 0.0))
    checks.append(_check("omega_squared_expansion", (
        abs(frames[z][1] ** 2 - expansion(-2, z)) for z in pts
    ), 1e-8))
    return checks


def verify_algebra(cfg: TorusConfig, window: int) -> list[CheckResult]:
    rng = random.Random(401)
    pts = random_points(cfg, 25, seed=402)
    params = lambda_coefficients(cfg)
    labels = range(-window, window + 1)
    # five draws of a sample point per pair (i, j), in (i, j) order
    draws = np.array([rng.randrange(len(pts)) for _ in range(5 * len(labels) ** 2)])
    try:
        contraction, numeric = algebra.bracket_oracle(
            params, labels, basis.frame_array(np.array(pts), cfg), draws.reshape(len(labels), len(labels), 5)
        )
        with np.errstate(all="ignore"):  # a thin lattice's overflow fails the check, as NaN or inf
            relative = np.abs(contraction - numeric) / np.maximum(1.0, np.abs(numeric))
        checks = [_check("bracket_oracle_equivalence", relative, 1e-7)]
    except DegenerateModuliError as exc:  # a power of wp - p that a draw reads is not finite
        checks = [_check("bracket_oracle_equivalence", 0.0, 1e-7, str(exc))]

    formal = (params, *random_formal_sets(3, seed=403))
    residuals = [algebra.jacobi_residual(5, ps) for ps in formal]
    checks.append(_check("jacobi_identity", residuals, 1e-9))

    rows = algebra.build_structure_table(params, window)
    table = {(i, j, k): c for i, j, k, c in rows}
    antisymmetry = (abs(c + table.get((j, i, k), 0j)) for (i, j, k), c in table.items())
    grading_violation = sum(not (i + j - 1 <= k <= i + j + 5) for i, j, k, _ in rows)
    parity_violation = sum((k - (i + j - 1)) % 2 != 0 for i, j, k, _ in rows)
    checks.append(_check("table_antisymmetry", antisymmetry, 1e-12))
    checks.append(_check("grading_window", grading_violation, 0.0))
    checks.append(_check("support_parity", parity_violation, 0.0))

    if not cfg.two_point:
        # largest slot difference over [-6, 6]^2 from the two-point constants,
        # relative to max(1, their largest magnitude)
        labels = range(-6, 7)
        ref = algebra.bracket_slots(lambda_coefficients(cfg.two_point_limit()), labels, labels)
        scale = max(1.0, float(complex_abs(ref).max()))
        gaps = []
        for qq in (1e-1, 1e-2, 1e-3):
            slots = algebra.bracket_slots(lambda_coefficients(replace(cfg, q=qq)), labels, labels)
            gaps.append(complex_abs(slots - ref) / scale)
        monotone = 0.0 if gaps[0].max() > gaps[1].max() > gaps[2].max() else 1.0
        checks.append(_check("degeneration_monotone", monotone, 0.0))
        # the relative gap at q = 1e-3 is P'(e1)*1e-6 ~ (0.9..1.1)e-4 over the
        # admissible tau range; the acceptance criterion pins 1e-4 at tau=0.8i
        checks.append(_check("degeneration_final_gap", gaps[2], 2e-4))
    return checks


def verify_cocycle(cfg: TorusConfig, window: int) -> list[CheckResult]:
    params = lambda_coefficients(cfg)
    route_pairs = ((0, 0), (3, 3), (-4, -4), (2, 0), (-1, 1), (3, 5), (1, -1))
    checks = [
        # |p - delta| as abs(complex) rounds it: np.abs can differ in the last bit
        _check("pairing_duality", complex_abs(cocycle.pairing(cfg, 6) - np.eye(13)), 1e-8),
        _check("pairing_route_consistency", (
            abs(a - b) for a, b in (cocycle.pairing_residue_routes(j, k, cfg) for j, k in route_pairs)
        ), 1e-8),
    ]

    table = cocycle.build_cocycle_table(params, window)
    checks.append(_check("chi_antisymmetry", (
        abs(v + table.get((j, i), 0j)) for (i, j), v in table.items()
    ), 1e-12))
    # the table visits the support alone, so these two scan the whole window
    nonzero = [
        (i, j)
        for i in range(-window, window + 1)
        for j in range(-window, window + 1)
        if cocycle.chi_sum(i, j, params) != 0
    ]
    off_support = sum(1 for i, j in nonzero if i + j not in (0, -2, -4, -6, -8, -10, -12))
    checks.append(_check("chi_support", off_support, 0.0))
    mixed = sum(1 for i, j in nonzero if i % 2 != j % 2)
    checks.append(_check("chi_mixed_parity", mixed, 0.0))

    witt = cocycle.build_cocycle_table(WITT_PARAMS, 8)
    checks.append(_check("witt_cocycle_values", [
        *(abs(witt.get((m, -m), 0j) - 13.0 / 6.0 * (m**3 - m)) for m in range(-8, 9)),
        *(abs(v) for (i, j), v in witt.items() if i + j != 0),
    ], 1e-9))

    formal = (WITT_PARAMS, params, *random_formal_sets(1, seed=404))
    residuals = [cocycle.cocycle_identity_residual(4, ps) for ps in formal]
    checks.append(_check("two_cocycle_identity", residuals, 1e-9))

    params0 = lambda_coefficients(cfg.two_point_limit())
    qv0 = cocycle.q_values(params0)
    deep = [
        v
        for (i, j), v in cocycle.build_cocycle_table(params0, window).items()
        if i + j in (-10, -12) or (i + j == -6 and i % 2 != 0 and j % 2 != 0)
    ]
    checks.append(_check("starred_q_vanishing_two_point", [
        *(abs(qv0[k]) for k in cocycle.STARRED_Q_KEYS), *map(abs, deep)
    ], 1e-10))

    # informational: tolerance -1 flags a reported (not gated) quantity;
    # the closed-form tables are transcribed verbatim and disagreements are
    # emitted as a machine-readable report, never silently corrected
    report = cocycle.reconciliation_report(params, window)
    checks.append(
        CheckResult(
            name="closed_form_reconciliation_reported",
            status="pass",
            max_residual=float(len(report)),
            tolerance=-1.0,
        )
    )
    return checks


def _canonical(st: fock.WedgeState) -> bool:
    """The canonical form that gives each occupancy one WedgeState key, and
    the round trip from the views back to the same state."""
    occ, vac = list(st.occupied_above), list(st.vacant_below)
    return (
        occ == sorted(set(occ), reverse=True) and min(occ, default=-1) >= -1
        and vac == sorted(set(vac)) and max(vac, default=-2) < -1
        and fock.WedgeState(st.occupied_above, st.vacant_below) == st
    )


def verify_fock(cfg: TorusConfig) -> list[CheckResult]:
    rng = random.Random(501)
    params = lambda_coefficients(cfg)
    vac: fock.FockVector = {fock.VACUUM: 1.0 + 0j}
    checks = [
        _check("clifford_relations", (
            fock.clifford_residual(random_wedge_state(rng), 6) for _ in range(30)
        ), 0.0),
        _check("normal_ordering_vacuum", (
            abs(fock.normal_ordered_bc(k, k, vac).get(fock.VACUUM, 0j)) for k in range(-6, 7)
        ), 0.0),
        _check("annihilation_side", (
            fock.vec_norm(fock.l_operator(i, vac, WITT_PARAMS)) for i in range(3, 9)
        ), 0.0),
    ]

    v1 = {random_wedge_state(rng): 0.7 + 0.2j}
    v2 = {random_wedge_state(rng): -0.4 + 1.1j}
    lin = fock.vec_add(
        fock.l_operator(2, fock.vec_add(v1, v2), params),
        fock.vec_scale(fock.l_operator(2, v1, params), -1),
        fock.vec_scale(fock.l_operator(2, v2, params), -1),
    )
    checks.append(_check("l_operator_linearity", fock.vec_norm(lin), 1e-12))

    conv = cocycle.DEFAULT_SIGN_CONVENTION
    # the arguments draw i, then j, then the state
    checks.append(_check("commutator_relation", (
        fock.commutator_residual(
            rng.randint(-4, 4), rng.randint(-4, 4), {random_wedge_state(rng): 1.0 + 0j}, params, conv
        )
        for _ in range(10)
    ), 1e-9))
    checks.append(_check("vacuum_cocycle_grounding", (
        _relative(fock.extract_vacuum_cocycle(i, -i, params), conv[1] * cocycle.chi_sum(i, -i, params))
        for i in range(-5, 6)
    ), 1e-9))
    bad = sum(not _canonical(random_wedge_state(rng)) for _ in range(10))
    checks.append(_check("wedge_state_canonical", bad, 0.0))
    return checks


# suite name -> runner; the suite functions are looked up when a suite runs,
# so a rebinding of the module attributes (e.g. by a profiler) takes effect
_RUNNERS = {
    "elliptic": lambda cfg, window: verify_elliptic(cfg),
    "differential": lambda cfg, window: verify_differential(cfg),
    "basis": lambda cfg, window: verify_basis(cfg),
    "algebra": lambda cfg, window: verify_algebra(cfg, window),
    "cocycle": lambda cfg, window: verify_cocycle(cfg, window),
    "fock": lambda cfg, window: verify_fock(cfg),
}
SUITES = tuple(_RUNNERS)
# the suites (and "all") whose checks sweep a label window [-window, window]
WINDOWED_SUITES = ("all", "algebra", "cocycle")


def verify_suite(suite: str, cfg: TorusConfig, window: int | None) -> list[CheckResult]:
    """The checks of one suite, or of all; only WINDOWED_SUITES read window,
    which they require to be an int >= 1."""
    if suite != "all" and suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    if suite in WINDOWED_SUITES and (window is None or window < 1):
        raise ValueError(f"verify {suite} needs a window >= 1, got {window!r}")
    names = SUITES if suite == "all" else (suite,)
    return [check for name in names for check in _RUNNERS[name](cfg, window)]
