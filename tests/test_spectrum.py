"""Band spectra: discriminants, arc extraction, Floquet cross-validation."""

import math

import numpy as np
import pytest

from cmvsubshift.errors import ValidationError
from cmvsubshift.spectrum import (
    FloquetOperator,
    PeriodicAlphas,
    build_floquet,
    discriminant,
    discriminant_grid,
    floquet_discriminant_residual,
    period_doubling_arcs,
    periodic_approximant,
    spectrum_arcs,
)
from cmvsubshift.tracemap import trace_bound_check, trace_orbit
from cmvsubshift.transfer import VerblunskyMap, transfer_product, unit_point
from cmvsubshift.words import FIBONACCI, PERIOD_DOUBLING

TAU = 2 * math.pi
RNG_SEED = 314159


def random_alphas(rng, q, radius=0.8):
    mags = radius * np.sqrt(rng.uniform(0, 1, q))
    return PeriodicAlphas(tuple(mags * np.exp(2j * np.pi * rng.uniform(0, 1, q))))


def test_periodic_alphas_indexing():
    al = PeriodicAlphas((0.1, 0.2j, -0.3))
    assert al.period == 3
    assert al.alpha(1) == 0.1 and al.alpha(2) == 0.2j and al.alpha(3) == -0.3
    assert al.alpha(4) == 0.1 and al.alpha(0) == -0.3  # periodic wrap
    with pytest.raises(ValidationError):
        PeriodicAlphas(())
    with pytest.raises(ValidationError):
        PeriodicAlphas((1.0,))


def test_periodic_approximant_reads_substitution_prefix():
    f = VerblunskyMap(0.4, -0.7j)
    al = periodic_approximant(PERIOD_DOUBLING, 2, f)
    assert al.values == (0.4, -0.7j, 0.4, 0.4)  # word abaa
    with pytest.raises(ValidationError):
        periodic_approximant(PERIOD_DOUBLING, 1, f)


def test_discriminant_free_case_and_trace_equality():
    free = PeriodicAlphas((0.0, 0.0))
    om = 1.37
    assert discriminant(unit_point(om), free) == pytest.approx(2 * math.cos(om), abs=1e-12)
    al = PeriodicAlphas((0.5, 0.5))
    z = 1.0 + 0j
    tr = transfer_product(al.alpha, z, 1, 2).trace
    assert discriminant(z, al) == pytest.approx(tr.real, abs=1e-14)
    with pytest.raises(ValidationError):
        discriminant(z, PeriodicAlphas((0.1, 0.2, 0.3)))  # odd period


def test_discriminant_grid_matches_scalar():
    rng = np.random.default_rng(RNG_SEED)
    al = random_alphas(rng, 6)
    omegas = rng.uniform(0, TAU, 11)
    grid = discriminant_grid(np.exp(1j * omegas), al)
    for om, val in zip(omegas, grid):
        assert val == pytest.approx(discriminant(unit_point(om), al), abs=1e-10)


def test_constant_period_two_band_measure_closed_form():
    # |disc| <= 2 reduces to cos(omega) <= 1 - 2|alpha|^2, so the band
    # measure is 2*pi - 2*arccos(1 - 2|alpha|^2), decreasing in |alpha|.
    # The discriminant touches -2 tangentially at omega = pi, which sign
    # scanning can only localize to ~sqrt(eps); hence the 1e-6 tolerance.
    prev = TAU + 1
    for a in np.linspace(0.1, 0.9, 9):
        arcs = spectrum_arcs(PeriodicAlphas((a, a)), resolution=4096)
        want = TAU - 2 * math.acos(1 - 2 * a * a)
        assert arcs.measure == pytest.approx(want, abs=1e-6)
        assert arcs.measure < prev
        prev = arcs.measure
        assert not arcs.complement().is_empty


def test_free_case_band_is_the_whole_circle():
    arcs = spectrum_arcs(PeriodicAlphas((0.0, 0.0)), resolution=1024)
    assert arcs.is_full and arcs.measure == pytest.approx(TAU)


def test_band_edges_are_located_precisely():
    a = 0.5
    arcs = spectrum_arcs(PeriodicAlphas((a, a)), resolution=4096)
    # band edge at cos(omega) = 1 - 2 a^2 = 1/2, i.e. omega = pi/3
    edges = sorted(float(lo) for lo, _ in arcs.arcs)
    assert min(abs(e - math.pi / 3) for e in edges) < 1e-9


def test_period_doubling_grid_route_matches_direct_product_route():
    f = VerblunskyMap(0.3, -0.3)
    for level in (2, 3):
        via_recursion = period_doubling_arcs(level, f, resolution=4096)
        via_products = spectrum_arcs(
            periodic_approximant(PERIOD_DOUBLING, level, f), resolution=4096
        )
        assert via_recursion.count == via_products.count
        assert via_recursion.measure == pytest.approx(via_products.measure, abs=1e-8)
        for (lo1, hi1), (lo2, hi2) in zip(via_recursion.arcs, via_products.arcs):
            assert lo1 == pytest.approx(lo2, abs=1e-8)
            assert hi1 == pytest.approx(hi2, abs=1e-8)


def test_period_doubling_scalar_discriminant_matches_product():
    rng = np.random.default_rng(RNG_SEED + 1)
    f = VerblunskyMap(0.35 + 0.1j, -0.2)
    for level in (2, 3, 4):
        al = periodic_approximant(PERIOD_DOUBLING, level, f)
        for om in rng.uniform(0, TAU, 3):
            z = unit_point(om)
            assert trace_orbit(z, f, level).trace_a_at(level) == pytest.approx(
                discriminant(z, al), rel=1e-9, abs=1e-9
            )


def test_band_measures_shrink_for_period_doubling():
    f = VerblunskyMap(0.3, -0.3)
    m4 = period_doubling_arcs(4, f).measure
    m6 = period_doubling_arcs(6, f).measure
    assert m4 == pytest.approx(2.53786504, abs=1e-6)  # pinned regression values
    assert m6 == pytest.approx(1.35645115, abs=1e-6)
    assert m6 < m4


def test_floquet_operator_structure_and_unitarity():
    rng = np.random.default_rng(RNG_SEED + 2)
    for q in (4, 8):
        al = random_alphas(rng, q)
        flo = build_floquet(al, unit_point(0.9))
        assert isinstance(flo, FloquetOperator)
        assert flo.unitarity_defect() < 1e-12
        nonzeros = (np.abs(flo.mat) > 1e-15).sum(axis=1)
        assert nonzeros.max() <= 4  # banded-plus-corner structure
    with pytest.raises(ValidationError):
        build_floquet(PeriodicAlphas((0.1, 0.2)), 1.0)  # q = 2 too small
    with pytest.raises(ValidationError):
        build_floquet(random_alphas(rng, 4), 2.0)  # phase off the circle


def test_floquet_eigenvalues_satisfy_band_equation():
    rng = np.random.default_rng(RNG_SEED + 3)
    for q in (4, 8):
        al = random_alphas(rng, q)
        for ang in rng.uniform(0, TAU, 4):
            rep = floquet_discriminant_residual(al, unit_point(ang))
            assert rep["unitarity_defect"] < 1e-12
            assert rep["worst_residual"] < 1e-8


def test_floquet_on_substitution_approximant():
    f = VerblunskyMap(0.5, -0.5)
    al = periodic_approximant(PERIOD_DOUBLING, 3, f)
    rep = floquet_discriminant_residual(al, unit_point(2.2))
    assert rep["q"] == 8 and rep["worst_residual"] < 1e-9
    # the Fibonacci prefix at level 3 has odd length 5, so it runs as period 10
    fib = periodic_approximant(FIBONACCI, 3, f)
    assert fib.period == 10 and fib.values[:5] == fib.values[5:]
    rep = floquet_discriminant_residual(fib, unit_point(2.2))
    assert rep["q"] == 10 and rep["worst_residual"] < 1e-9


def test_trace_bound_connection():
    # points drawn from a deep approximant's bands keep consecutive trace
    # pairs within the coupling window -- spot check at level 8
    f = VerblunskyMap(0.3, -0.3)
    arcs = period_doubling_arcs(8, f)
    rng = np.random.default_rng(RNG_SEED + 4)
    omegas = arcs.sample_interior(25, 1e-7, rng)
    for om in omegas:
        z = unit_point(om)
        assert abs(trace_orbit(z, f, 8).trace_a_at(8)) <= 2 + 1e-6
        assert trace_bound_check(z, f, 7).ok
