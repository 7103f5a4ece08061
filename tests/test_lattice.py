"""Property tests of the lattice helpers shared through kntorus.config."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fundamental_taus, reduced_distance
from kntorus.config import (
    TorusConfig,
    complex_abs,
    complex_array,
    complex_multiply,
    distance_to_points_array,
    lattice_distance,
    reduce_mod_lattice,
    reduce_mod_lattice_array,
    reduced_basis,
)

coords = st.floats(-3.0, 3.0)
points = st.builds(complex, coords, coords)
# skewed lattices, |Re tau| beyond 1/2 and |tau| below 1 included; in this
# range a 7x7 block around the rounded lattice coordinates of z always holds
# the nearest lattice point
skewed_taus = st.builds(complex, st.floats(-1.5, 1.5), st.floats(0.4, 2.0))


def brute_force_distance(z: complex, tau: complex) -> float:
    n0 = round(z.imag / tau.imag)
    m0 = round(z.real - n0 * tau.real)
    return min(
        abs(z - (m0 + dm) - (n0 + dn) * tau)
        for dm in range(-3, 4)
        for dn in range(-3, 4)
    )


@settings(max_examples=300, deadline=None)
@given(z=points, tau=skewed_taus)
@example(z=1.7272502951672069 - 1.185463793952833j, tau=-1.4391603397422559 + 0.40228426386457117j)
def test_lattice_distance_is_exact(z, tau):
    assert math.isclose(lattice_distance(z, tau), brute_force_distance(z, tau), rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    z=points,
    tau=st.one_of(skewed_taus, fundamental_taus),
    q=st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)
def test_puncture_distance_exact_near_punctures(z, tau, q):
    try:
        cfg = TorusConfig(tau=tau, q=q)
    except ValueError:
        cfg = TorusConfig(tau=tau)
    per_point = float(distance_to_points_array(np.array([z]), cfg.punctures(), tau)[0])
    exact = min(lattice_distance(z - s, tau) for s in cfg.punctures())
    if min(per_point, exact) < 0.25 * abs(reduced_basis(tau)[0]):
        assert math.isclose(per_point, exact, rel_tol=1e-12, abs_tol=1e-15)


def test_lattice_distance_finishes_on_extreme_tau():
    for tau in (1e-300 + 1e-300j, 0.3 + 1e-10j, 1e300 + 1j, -7.3 + 0.01j):
        assert math.isfinite(lattice_distance(0.2 + 0.1j, tau))


@settings(max_examples=200, deadline=None)
@given(
    zs=st.lists(points, min_size=1, max_size=30),
    tau=st.one_of(skewed_taus, fundamental_taus),
    marks=st.lists(points, min_size=1, max_size=3),
)
def test_array_twins_equal_scalar_bit_for_bit(zs, tau, marks):
    # the level-line skip masks rest on this equality, not on closeness
    z = np.array(zs)
    assert [complex(w) for w in reduce_mod_lattice_array(z, tau)] == [reduce_mod_lattice(w, tau) for w in zs]
    assert distance_to_points_array(z, tuple(marks), tau).tolist() == [reduced_distance(w, marks, tau) for w in zs]


# finite parts, signed zeros included, small enough that no product or
# modulus overflows
parts = st.floats(-1e150, 1e150)


def hexes(values) -> list[tuple[str, str]]:
    return [(w.real.hex(), w.imag.hex()) for w in map(complex, values)]


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.tuples(parts, parts, parts, parts), min_size=1, max_size=30), k=st.tuples(parts, parts))
@example(entries=[(-0.0, 0.0, 0.0, -0.0), (-0.0, -0.0, -0.0, -0.0)], k=(-0.0, 0.0))
def test_complex_helpers_round_as_python(entries, k):
    # entry by entry, bit for bit: the Jacobi and two-cocycle cubes and the
    # wp array path rest on this equality
    re, im, re2, im2 = (np.array(column) for column in zip(*entries))
    xs = [complex(a, b) for a, b, _, _ in entries]
    ys = [complex(c, d) for _, _, c, d in entries]
    k = complex(*k)
    x, y = complex_array(re, im), complex_array(re2, im2)
    assert hexes(x) == hexes(xs) and hexes(y) == hexes(ys)
    assert hexes(complex_multiply(x, y)) == hexes(a * b for a, b in zip(xs, ys))
    assert hexes(complex_multiply(k, y)) == hexes(k * b for b in ys)
    assert [v.hex() for v in complex_abs(x).tolist()] == [abs(a).hex() for a in xs]


def test_config_shifts_re_tau_by_even_integers():
    # an even shift keeps the lattice and the half-period labels e1, e2, e3
    assert TorusConfig(tau=1e300 + 1j, q=0.2) == TorusConfig(tau=1j, q=0.2)
    assert TorusConfig(tau=2.7 + 0.3j).tau == (2.7 - 2) + 0.3j
    for tau in (1 + 1j, -1 + 0.5j, 0.5 + 1j):
        assert TorusConfig(tau=tau).tau == tau
