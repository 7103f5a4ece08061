"""Deterministic invariant batteries for every module.

Each suite returns a list of CheckResult records; the CLI serializes them
and pytest reuses them.  All randomness is seeded, so repeated runs with
identical inputs produce identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, basis, cocycle, elliptic, fock, propagation
from .basis import WITT_PARAMS, formal_params, lambda_coefficients
from .config import EXCLUSION_RADIUS, TorusConfig, distance_to_points, reduce_mod_lattice
from .errors import DegenerateModuliError, QuadratureError
from .quadrature import segment_integral

# gate of the pointwise wp identities and omega_antisymmetry (wp_periodicity: ten times it)
IDENTITY_TOL = 1e-10


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


def _check(name: str, residual: float, tol: float, error: str = "") -> CheckResult:
    """Pass when the residual meets tol; a check whose computation raised (an
    unconverged quadrature, a degenerate moduli expression) fails whatever its
    residual, and the error message becomes the check's detail."""
    return CheckResult(
        name=name,
        status="pass" if not error and residual <= tol else "fail",
        max_residual=residual,
        tolerance=tol,
        detail=error,
    )


def random_points(cfg: TorusConfig, count: int, seed: int, margin: float = 0.08) -> list[complex]:
    """Deterministic sample of cell points away from punctures and lattice."""
    rng = random.Random(seed)
    tau = cfg.tau
    points = []
    while len(points) < count:
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        z = complex(a + b * tau.real, b * tau.imag)
        if distance_to_points(z, (*cfg.punctures(), 0.5 * tau, 0.5 + 0.5 * tau), tau) > margin:
            points.append(z)
    return points


def random_formal_sets(count: int, seed: int) -> list[basis.AlgebraParams]:
    """Deterministic formal parameter sets with lam5..lam7 in the unit square."""
    rng = random.Random(seed)

    def c() -> complex:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    return [formal_params(c(), c(), c()) for _ in range(count)]


def label_grid(bound: int) -> list[np.ndarray]:
    """Every label triple (i, j, k) in [-bound, bound]^3, as the broadcastable
    arrays that algebra.jacobi_residual and cocycle.cocycle_identity_residual
    take."""
    labels = np.arange(-bound, bound + 1)
    return np.meshgrid(labels, labels, labels, indexing="ij", sparse=True)


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
    checks = []
    pts = random_points(cfg, 30, seed=101)
    rng = random.Random(102)

    worst = 0.0
    for z in pts[:10]:
        ref = elliptic.wp(z, cfg)
        for _ in range(3):
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            worst = max(worst, abs(elliptic.wp(z + m + n * cfg.tau, cfg) - ref) / max(1.0, abs(ref)))
    checks.append(_check("wp_periodicity", worst, 10 * IDENTITY_TOL))

    worst = 0.0
    for z in pts[:15]:
        p1, d1 = elliptic.wp_pair(z, cfg)
        p2, d2 = elliptic.wp_pair(-z, cfg)
        worst = max(worst, abs(p1 - p2) / max(1.0, abs(p1)), abs(d1 + d2) / max(1.0, abs(d1)))
    checks.append(_check("wp_parity", worst, IDENTITY_TOL))

    hp = elliptic.half_period_values(cfg)
    worst = 0.0
    for z in pts:
        p, dp = elliptic.wp_pair(z, cfg)
        res = dp * dp - 4.0 * (p - hp.e1) * (p - hp.e2) * (p - hp.e3)
        worst = max(worst, abs(res) / (1.0 + abs(p) ** 3))
    checks.append(_check("wp_differential_equation", worst, IDENTITY_TOL))

    worst = 0.0
    for z in pts[:10]:
        direct = elliptic.wp(z + 2 + cfg.tau, cfg)
        reduced = elliptic.wp(reduce_mod_lattice(z + 2 + cfg.tau, cfg.tau), cfg)
        worst = max(worst, abs(direct - reduced) / max(1.0, abs(direct)))
    checks.append(_check("wp_reduction_consistency", worst, IDENTITY_TOL))

    scale = max(1.0, abs(hp.e1), abs(hp.e2), abs(hp.e3))
    checks.append(_check("half_period_sum", abs(hp.e1 + hp.e2 + hp.e3) / scale, IDENTITY_TOL))
    return checks


def verify_differential(cfg: TorusConfig) -> list[CheckResult]:
    checks = []
    rng = random.Random(201)
    pts = random_points(cfg, 50, seed=202)

    worst = 0.0
    for w in pts:
        lhs = propagation.omega_hat(0.5 + w, cfg)
        rhs = propagation.omega_hat(0.5 - w, cfg)
        worst = max(worst, abs(lhs + rhs) / max(1.0, abs(lhs)))
        lhs2 = propagation.omega_hat(-w, cfg)
        rhs2 = propagation.omega_hat(w, cfg)
        worst = max(worst, abs(lhs2 + rhs2) / max(1.0, abs(lhs2)))
    checks.append(_check("omega_antisymmetry", worst, IDENTITY_TOL))

    # residues (+1, -1/2, -1/2), or (+1, -1) at the merged out-puncture
    punctures = cfg.punctures()
    outs = len(punctures) - 1
    residues = [propagation.residue_at(s, cfg) for s in punctures]
    expected = (1.0, *(-1.0 / outs,) * outs)
    worst = max(abs(r - e) for r, e in zip(residues, expected))
    total = abs(sum(residues))
    checks.append(_check("residue_triple", worst, 1e-8))
    checks.append(_check("residue_sum", total, 1e-8))

    try:
        pa, pb = propagation.period_real_parts(cfg)
        checks.append(_check("period_real_parts", max(abs(pa), abs(pb)), 1e-8))
    except QuadratureError as exc:
        checks.append(_check("period_real_parts", abs(exc.estimate.real), 1e-8, str(exc)))

    worst, unconverged = 0.0, ""
    for _ in range(20):
        z0, z1 = rng.choice(pts), rng.choice(pts)
        if z0 == z1:
            continue
        # skip a segment near a puncture, or one passing where frame_array raises
        if (
            cfg.distance_to_punctures(0.5 * (z0 + z1)) < 0.05
            or propagation._min_distance_segment(z0, z1, cfg) <= EXCLUSION_RADIUS
        ):
            continue
        lhs = propagation.time_coordinate(z1, cfg) - propagation.time_coordinate(z0, cfg)
        try:
            rhs = segment_integral(lambda z: basis.frame_array(z, cfg)[1], z0, z1).real
        except QuadratureError as exc:
            rhs, unconverged = exc.estimate.real, str(exc)
        worst = max(worst, abs(lhs - rhs))
    checks.append(_check("time_vs_line_integral", worst, 1e-7, unconverged))

    mu = propagation.mu_modulus(cfg)
    try:
        sep0 = propagation.separation_time(cfg.two_point_limit())
        checks.append(_check("mu_vs_separation_time", abs(mu.separation_time_two_point - sep0), 1e-10))
    except DegenerateModuliError as exc:
        checks.append(_check("mu_vs_separation_time", 0.0, 1e-10, str(exc)))
    return checks


def verify_basis(cfg: TorusConfig) -> list[CheckResult]:
    checks = []
    rng = random.Random(301)
    pts = random_points(cfg, 40, seed=302)
    params = lambda_coefficients(cfg)
    frames = {z: basis.frame(z, cfg) for z in pts}

    def value(k: int, z: complex) -> complex:
        return basis.monomial(k, *frames[z][:2])

    worst = 0.0
    for _ in range(100):
        z = rng.choice(pts)
        i = 2 * rng.randint(-4, 4)
        j = rng.randint(-8, 8)
        lhs = value(i, z) * value(j, z)
        rhs = value(i + j, z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(_check("even_product_law", worst, 1e-8))

    worst = 0.0
    for _ in range(60):
        z = rng.choice(pts)
        i = 2 * rng.randint(-4, 3) + 1
        j = 2 * rng.randint(-4, 3) + 1
        lhs = value(i, z) * value(j, z)
        rhs = sum(lam * value(i + j + 2 * t, z) for t, lam in enumerate(params.as_tuple()))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(_check("odd_product_law", worst, 1e-8))

    worst = 0.0
    for k in range(-5, 6):
        z = rng.choice(pts)
        even_sign = 1.0 if k % 2 == 0 else -1.0
        lhs = basis.basis_value(k, -z, cfg)
        rhs = even_sign * value(k, z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(_check("basis_parity", worst, 1e-8))

    h = 1e-5
    worst = 0.0
    for k in range(-6, 7):
        for _ in range(3):
            z = rng.choice(pts)
            fd = (basis.basis_value(k, z + h, cfg) - basis.basis_value(k, z - h, cfg)) / (2 * h)
            an = basis.monomial_derivative(k, *frames[z])
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    checks.append(_check("derivative_vs_finite_difference", worst, 1e-6))

    mismatches = 0.0
    punctures = cfg.punctures()
    for k in range(-6, 7):
        out = basis.out_puncture_order(k, cfg.two_point)
        expected = (k, *(out,) * (len(punctures) - 1))
        if tuple(basis.winding_order(k, s, cfg) for s in punctures) != expected:
            mismatches += 1
    checks.append(_check("order_triples_vs_winding", mismatches, 0.0))

    worst = 0.0
    for z in pts:
        w2 = frames[z][1] ** 2
        rhs = sum(lam * value(-2 + 2 * t, z) for t, lam in enumerate(params.as_tuple()))
        worst = max(worst, abs(w2 - rhs))
    checks.append(_check("omega_squared_expansion", worst, 1e-8))
    return checks


def verify_algebra(cfg: TorusConfig, window: int = 8) -> list[CheckResult]:
    checks = []
    rng = random.Random(401)
    pts = random_points(cfg, 25, seed=402)
    params = lambda_coefficients(cfg)
    frames = {z: basis.frame(z, cfg) for z in pts}

    worst = 0.0
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            terms = algebra.bracket(i, j, params)
            for _ in range(5):
                frame = frames[rng.choice(pts)]
                num = algebra.bracket_numeric(i, j, frame)
                cf = algebra.bracket_eval(terms, frame)
                worst = max(worst, abs(num - cf) / max(1.0, abs(num)))
    checks.append(_check("bracket_oracle_equivalence", worst, 1e-7))

    triples = label_grid(5)
    worst = max(
        float(algebra.jacobi_residual(*triples, ps).max())
        for ps in (params, *random_formal_sets(3, seed=403))
    )
    checks.append(_check("jacobi_identity", worst, 1e-9))

    table = algebra.build_structure_table(params, window)
    worst = 0.0
    grading_violation = 0.0
    parity_violation = 0.0
    for (i, j), terms in table.items():
        mirror = table.get((j, i), {})
        for k, c in terms.items():
            worst = max(worst, abs(c + mirror.get(k, 0j)))
            if not (i + j - 1 <= k <= i + j + 5):
                grading_violation += 1
            if (k - (i + j - 1)) % 2 != 0:
                parity_violation += 1
    checks.append(_check("table_antisymmetry", worst, 1e-12))
    checks.append(_check("grading_window", grading_violation, 0.0))
    checks.append(_check("support_parity", parity_violation, 0.0))

    if not cfg.two_point:
        two_point = algebra.build_structure_table(lambda_coefficients(cfg.two_point_limit()), 6)
        gaps = [
            algebra.table_gap(algebra.build_structure_table(lambda_coefficients(replace(cfg, q=qq)), 6), two_point)
            for qq in (1e-1, 1e-2, 1e-3)
        ]
        monotone = 0.0 if gaps[0] > gaps[1] > gaps[2] else 1.0
        checks.append(_check("degeneration_monotone", monotone, 0.0))
        # the relative gap at q = 1e-3 is P'(e1)*1e-6 ~ (0.9..1.1)e-4 over the
        # admissible tau range; the acceptance criterion pins 1e-4 at tau=0.8i
        checks.append(_check("degeneration_final_gap", gaps[2], 2e-4))
    return checks


def verify_cocycle(cfg: TorusConfig, window: int = 8) -> list[CheckResult]:
    checks = []
    params = lambda_coefficients(cfg)

    worst = 0.0
    for j in range(-6, 7):
        for k in range(-6, 7):
            expect = 1.0 if j == k else 0.0
            worst = max(worst, abs(cocycle.pairing(j, k, cfg) - expect))
    checks.append(_check("pairing_duality", worst, 1e-8))

    worst = 0.0
    for j, k in ((0, 0), (3, 3), (-4, -4), (2, 0), (-1, 1), (3, 5), (1, -1)):
        a, b = cocycle.pairing_residue_routes(j, k, cfg)
        worst = max(worst, abs(a - b))
    checks.append(_check("pairing_route_consistency", worst, 1e-8))

    worst = 0.0
    support_violation = 0.0
    mixed_violation = 0.0
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            v = cocycle.chi_sum(i, j, params)
            worst = max(worst, abs(v + cocycle.chi_sum(j, i, params)))
            if v != 0 and (i + j) not in (0, -2, -4, -6, -8, -10, -12):
                support_violation += 1
            if v != 0 and (i % 2) != (j % 2):
                mixed_violation += 1
    checks.append(_check("chi_antisymmetry", worst, 1e-12))
    checks.append(_check("chi_support", support_violation, 0.0))
    checks.append(_check("chi_mixed_parity", mixed_violation, 0.0))

    worst = 0.0
    for m in range(-8, 9):
        expect = 13.0 / 6.0 * (m**3 - m)
        worst = max(worst, abs(cocycle.chi_sum(m, -m, WITT_PARAMS) - expect))
    off = max(
        abs(cocycle.chi_sum(i, j, WITT_PARAMS))
        for i in range(-8, 9)
        for j in range(-8, 9)
        if i + j != 0
    )
    checks.append(_check("witt_cocycle_values", max(worst, off), 1e-9))

    triples = label_grid(4)
    worst = max(
        float(cocycle.cocycle_identity_residual(*triples, ps).max())
        for ps in (WITT_PARAMS, params, *random_formal_sets(1, seed=404))
    )
    checks.append(_check("two_cocycle_identity", worst, 1e-9))

    params0 = lambda_coefficients(cfg.two_point_limit())
    qv0 = cocycle.q_values(params0)
    starred = max(abs(qv0[k]) for k in cocycle.STARRED_Q_KEYS)
    deep = max(
        (
            abs(cocycle.chi_sum(i, j, params0))
            for i in range(-window, window + 1)
            for j in range(-window, window + 1)
            if i + j in (-10, -12) or (i + j == -6 and i % 2 != 0 and j % 2 != 0)
        ),
        default=0.0,
    )
    checks.append(_check("starred_q_vanishing_two_point", max(starred, deep), 1e-10))

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


def verify_fock(cfg: TorusConfig) -> list[CheckResult]:
    checks = []
    rng = random.Random(501)
    params = lambda_coefficients(cfg)

    worst = 0.0
    for _ in range(30):
        st = random_wedge_state(rng)
        base = {st: 1.0 + 0j}
        worst = max(worst, fock.clifford_residual(st, 6))
        k, l = rng.randint(-8, 8), rng.randint(-8, 8)
        worst = max(
            worst,
            fock.vec_norm(
                fock.vec_add(fock.apply_b(k, fock.apply_b(l, base)), fock.apply_b(l, fock.apply_b(k, base)))
            ),
        )
        worst = max(
            worst,
            fock.vec_norm(
                fock.vec_add(fock.apply_c(k, fock.apply_c(l, base)), fock.apply_c(l, fock.apply_c(k, base)))
            ),
        )
    checks.append(_check("clifford_relations", worst, 0.0))

    vac: fock.FockVector = {fock.VACUUM: 1.0 + 0j}
    worst = 0.0
    for k in range(-6, 7):
        out = fock.normal_ordered_bc(k, k, vac)
        worst = max(worst, abs(out.get(fock.VACUUM, 0j)))
    checks.append(_check("normal_ordering_vacuum", worst, 0.0))

    worst = 0.0
    for i in range(3, 9):
        worst = max(worst, fock.vec_norm(fock.l_operator(i, vac, WITT_PARAMS)))
    checks.append(_check("annihilation_side", worst, 0.0))

    v1 = {random_wedge_state(rng): 0.7 + 0.2j}
    v2 = {random_wedge_state(rng): -0.4 + 1.1j}
    lin = fock.vec_add(
        fock.l_operator(2, fock.vec_add(v1, v2), params),
        fock.vec_scale(fock.l_operator(2, v1, params), -1),
        fock.vec_scale(fock.l_operator(2, v2, params), -1),
    )
    checks.append(_check("l_operator_linearity", fock.vec_norm(lin), 1e-12))

    conv = cocycle.DEFAULT_SIGN_CONVENTION
    worst = 0.0
    for _ in range(10):
        i, j = rng.randint(-4, 4), rng.randint(-4, 4)
        v = {random_wedge_state(rng): 1.0 + 0j}
        worst = max(worst, fock.commutator_residual(i, j, v, params, conv))
    checks.append(_check("commutator_relation", worst, 1e-9))

    worst = 0.0
    for i in range(-5, 6):
        ext = fock.extract_vacuum_cocycle(i, -i, params)
        expect = conv[1] * cocycle.chi_sum(i, -i, params)
        worst = max(worst, abs(ext - expect) / max(1.0, abs(expect)))
    checks.append(_check("vacuum_cocycle_grounding", worst, 1e-9))

    # the canonical form that gives each occupancy one WedgeState key
    bad = 0.0
    for _ in range(10):
        st = random_wedge_state(rng)
        occ, vac = list(st.occupied_above), list(st.vacant_below)
        if not (
            occ == sorted(set(occ), reverse=True) and min(occ, default=-1) >= -1
            and vac == sorted(set(vac)) and max(vac, default=-2) < -1
        ):
            bad += 1
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


def verify_suite(suite: str, cfg: TorusConfig, window: int = 8) -> list[CheckResult]:
    if suite == "all":
        return [check for name in SUITES for check in _RUNNERS[name](cfg, window)]
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    return _RUNNERS[suite](cfg, window)
