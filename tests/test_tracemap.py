"""Trace-map layer: coupling constant, block recursion, escape classification."""

import cmath
import math

import numpy as np
import pytest

from cmvsubshift.errors import NumericAssertionError, ValidationError
from cmvsubshift.tracemap import (
    block_matrix,
    classify_orbit,
    coupling_constant,
    iterate_traces,
    level_one_blocks,
    trace_a_grid,
    trace_bound_check,
    trace_orbit,
)
from cmvsubshift.transfer import VerblunskyMap, unit_point

RNG_SEED = 8152026


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
        if f.is_constant:
            assert abs(c - 2.0) < 1e-12


def test_coupling_constant_equals_mixed_block_trace():
    # independent route: C = tr(B(1) A(1)^{-1}), which is z-independent
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        f = random_map(rng)
        c = coupling_constant(f)
        for _ in range(3):
            z = unit_point(rng.uniform(0, 2 * np.pi))
            block_a, block_b = level_one_blocks(z, f)
            mixed = (block_b @ block_a.inverse()).trace
            assert abs(mixed.imag) < 1e-12
            assert abs(mixed.real - c) < 1e-10


def test_block_recursion_matches_direct_products():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(4):
        f = random_map(rng, radius=0.75)
        z = unit_point(rng.uniform(0, 2 * np.pi))
        for letter in ("a", "b"):
            for level in (1, 2, 4, 6):
                rec = block_matrix(letter, level, z, f, "recursion").mat
                dir_ = block_matrix(letter, level, z, f, "direct").mat
                assert np.allclose(rec, dir_, rtol=1e-9, atol=1e-12)


def test_blocks_are_unimodular():
    rng = np.random.default_rng(RNG_SEED + 3)
    f = random_map(rng)
    z = unit_point(1.1)
    for level in (1, 3, 5):
        assert abs(block_matrix("a", level, z, f).det - 1.0) < 1e-9


def test_orbit_traces_follow_recursion_identity():
    # tr A(n+1) = x_n y_n - C and tr B(n+1) = x_n^2 - 2 against real products
    rng = np.random.default_rng(RNG_SEED + 4)
    f = random_map(rng, radius=0.7)
    z = unit_point(rng.uniform(0, 2 * np.pi))
    orbit = trace_orbit(z, f, 7)
    for level in (2, 4, 7):
        mat_trace = block_matrix("a", level, z, f).trace
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


def test_classification_frozen_cases():
    f = VerblunskyMap(0.5, -0.5)
    orbit = trace_orbit(cmath.exp(2.7j), f, 1)
    verdict = classify_orbit(orbit.trace_a_at(1), orbit.trace_b_at(1), orbit.coupling)
    assert verdict.status == "unstable"
    assert verdict.first_escape_level == 3
    assert verdict.region == "positive"

    orbit2 = trace_orbit(1.0, VerblunskyMap(0.9, 0.3), 1)
    verdict2 = classify_orbit(orbit2.trace_a_at(1), orbit2.trace_b_at(1), orbit2.coupling)
    assert verdict2.first_escape_level == 1

    # boundary fixed point (2, 2) never certifies escape
    verdict3 = classify_orbit(0.0, 0.0, 2.0, max_levels=64)
    assert verdict3.status == "not-decided"
    assert verdict3.first_escape_level is None and verdict3.levels_checked == 64


def test_classification_validates_coupling():
    with pytest.raises(ValidationError):
        classify_orbit(0.0, 0.0, 1.5)


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
        assert abs(grid[k] - scalar) < 1e-8 * max(1.0, abs(scalar))


def test_reality_assertion_is_live():
    # |z| = 1 + 9e-9 leaves the unit circle: the level-1 traces there carry an
    # imaginary part of about 1.4e-8, which the tolerance must reject; on the
    # circle it passes
    f = VerblunskyMap(0.4j, 0.2)
    off_circle = unit_point(0.7) * (1 + 9e-9)
    with pytest.raises(NumericAssertionError):
        trace_orbit(off_circle, f, 3)
    trace_orbit(unit_point(0.7), f, 3)


def test_iterate_traces_seed_is_level_one():
    orbit = list(iterate_traces(1.5, -0.5, 2.5, 4))
    assert len(orbit) == 4
    (x1, y1), (x2, y2) = orbit[:2]
    assert x1.tolist() == [1.5] and y1.tolist() == [-0.5]
    assert x2.tolist() == [1.5 * -0.5 - 2.5] and y2.tolist() == [1.5**2 - 2.0]
    with pytest.raises(ValidationError):
        list(iterate_traces(0.0, 0.0, 2.0, 0))
