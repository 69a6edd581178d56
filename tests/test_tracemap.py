"""Trace-map layer: coupling constant, block recursion, escape region."""

import math

import numpy as np
import pytest

from cmvsubshift.errors import ValidationError
from cmvsubshift.tracemap import (
    coupling_constant,
    iterate_traces,
    trace_a_grid,
    trace_bound_check,
    trace_orbit,
)
from cmvsubshift.transfer import VerblunskyMap, unit_point
from cmvsubshift.words import PERIOD_DOUBLING, substitution_word
from reference import word_product

RNG_SEED = 8152026


def direct_block(letter, level, z, f):
    """Site-by-site product over the expanded period-doubling word S^level(letter)."""
    return word_product(substitution_word(PERIOD_DOUBLING, letter, level), z, f)


def random_map(rng, radius=0.9):
    def draw():
        return radius * rng.uniform() * np.exp(2j * np.pi * rng.uniform())

    return VerblunskyMap(draw(), draw())


def test_coupling_constant_reference_values():
    assert abs(coupling_constant(VerblunskyMap(0.5, -0.5)) - 10.0 / 3.0) < 1e-12
    assert abs(coupling_constant(VerblunskyMap(0.0, 0.5)) - 4.0 / math.sqrt(3.0)) < 1e-12
    assert coupling_constant(VerblunskyMap(0.3j, 0.3j)) == pytest.approx(2.0, abs=1e-14)


def test_coupling_constant_lower_bound_and_equality_case():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(300):
        f = random_map(rng)
        c = coupling_constant(f)
        assert c >= 2.0 - 1e-12
        if f.alpha_a == f.alpha_b:
            assert abs(c - 2.0) < 1e-12


def test_coupling_constant_equals_mixed_block_trace():
    # independent route: C = tr(B(1) A(1)^{-1}), which is z-independent
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        f = random_map(rng)
        c = coupling_constant(f)
        for _ in range(3):
            z = unit_point(rng.uniform(0, 2 * np.pi))
            block_a, block_b = direct_block("a", 1, z, f), direct_block("b", 1, z, f)
            mixed = np.trace(block_b @ np.linalg.inv(block_a))
            assert abs(mixed.imag) < 1e-12
            assert abs(mixed.real - c) < 1e-10


def test_orbit_traces_follow_recursion_identity():
    # tr A(n+1) = x_n y_n - C and tr B(n+1) = x_n^2 - 2 against real products
    rng = np.random.default_rng(RNG_SEED + 4)
    f = random_map(rng, radius=0.7)
    z = unit_point(rng.uniform(0, 2 * np.pi))
    orbit = trace_orbit(z, f, 7)
    for level in (2, 4, 7):
        mat_trace = np.trace(direct_block("a", level, z, f))
        assert abs(mat_trace.imag) < 1e-7 * max(1.0, abs(mat_trace))
        rel = abs(orbit.trace_a_at(level) - mat_trace.real) / max(1.0, abs(mat_trace))
        assert rel < 1e-9


def test_free_case_orbit():
    orbit = trace_orbit(1j, VerblunskyMap(0.0, 0.0), 6)
    assert orbit.coupling == pytest.approx(2.0)
    assert np.allclose(orbit.trace_a, [0.0, -2.0, 2.0, 2.0, 2.0, 2.0], atol=1e-14)
    assert np.allclose(orbit.trace_b, [0.0, -2.0, 2.0, 2.0, 2.0, 2.0], atol=1e-14)
    om = 0.9
    assert trace_orbit(unit_point(om), VerblunskyMap(0.0, 0.0), 1).trace_a_at(
        1
    ) == pytest.approx(2 * math.cos(om))


def test_escape_region_is_invariant():
    # once inside the escape region the orbit never leaves it
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(200):
        c = 2.0 + 3.0 * rng.uniform()
        x = (c + 0.01 + 3 * rng.uniform()) * (1 if rng.uniform() < 0.5 else -1)
        y = 2.0 + 0.01 + 3 * rng.uniform()
        for _ in range(12):
            x, y = x * y - c, x * x - 2.0
            if not (math.isfinite(x) and math.isfinite(y)):
                break
            assert abs(x) > c and y > 2.0


def test_trace_bound_check_band_and_escape_points():
    free = VerblunskyMap(0.0, 0.0)
    res = trace_bound_check(unit_point(math.pi / 3), free, 8)
    assert res.ok and res.first_violation is None and res.worst_excess <= 0
    f = VerblunskyMap(0.9, 0.3)
    res_bad = trace_bound_check(1.0 + 0j, f, 6)
    assert not res_bad.ok and res_bad.first_violation is not None


def test_grid_traces_match_scalar_orbit():
    rng = np.random.default_rng(RNG_SEED + 6)
    f = VerblunskyMap(0.5, -0.5)
    omegas = rng.uniform(0, 2 * np.pi, 16)
    zs = np.exp(1j * omegas)
    grid = trace_a_grid(zs, f, 5)
    for k in range(len(zs)):
        scalar = trace_orbit(zs[k], f, 5).trace_a_at(5)
        assert grid[k] == scalar


def test_iterate_traces_seed_is_level_one():
    orbit = list(iterate_traces(1.5, -0.5, 2.5, 4))
    assert len(orbit) == 4
    (x1, y1), (x2, y2) = orbit[:2]
    assert x1.tolist() == [1.5] and y1.tolist() == [-0.5]
    assert x2.tolist() == [1.5 * -0.5 - 2.5] and y2.tolist() == [1.5**2 - 2.0]
    with pytest.raises(ValidationError):
        list(iterate_traces(0.0, 0.0, 2.0, 0))
