"""Band spectra: discriminants, arc extraction, Floquet cross-validation."""

import math

import numpy as np
import pytest

from cmvsubshift import spectrum, transfer
from cmvsubshift.errors import NumericAssertionError, ValidationError
from cmvsubshift.spectrum import (
    CHUNK,
    FLOQUET_ROTATION,
    FloquetOperator,
    PeriodicAlphas,
    _bisect_band_edges,
    _cyclic_runs,
    _run_count,
    approximant_discriminant,
    band_arcs,
    band_arcs_from_function,
    build_floquet,
    discriminant_grid,
    floquet_discriminant_residual,
    periodic_approximant,
    periodic_discriminant,
)
from cmvsubshift.tracemap import trace_bound_check, trace_orbit
from cmvsubshift.transfer import UNIT_ROUNDOFF, VerblunskyMap, transfer_product, transfer_product_grid, unit_point
from cmvsubshift.words import FIBONACCI, PERIOD_DOUBLING, THUE_MORSE
from reference import (
    angle_mismatch,
    bisect_band_edges,
    cyclic_runs_by_walking,
    floquet_residuals_phase_by_phase,
    full_grid_band_arcs,
)

TAU = 2 * math.pi
RNG_SEED = 314159
NANS = (float("nan"), complex(0.0, float("nan")))  # every comparison with them is False


def discriminant_at(z, alphas):
    """The discriminant at one point: a grid of length 1."""
    return float(discriminant_grid(np.array([complex(z)]), alphas)[0])


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
    for nan in NANS:
        with pytest.raises(ValidationError, match="unit disk"):
            PeriodicAlphas((0.1, nan))


def test_periodic_approximant_reads_substitution_prefix():
    f = VerblunskyMap(0.4, -0.7j)
    al = periodic_approximant(PERIOD_DOUBLING, 2, f)
    assert al.values == (0.4, -0.7j, 0.4, 0.4)  # word abaa
    with pytest.raises(ValidationError):
        periodic_approximant(PERIOD_DOUBLING, 1, f)


def test_discriminant_free_case_and_trace_equality():
    free = PeriodicAlphas((0.0, 0.0))
    om = 1.37
    assert discriminant_at(unit_point(om), free) == pytest.approx(2 * math.cos(om), abs=1e-12)
    al = PeriodicAlphas((0.5, 0.5))
    z = 1.0 + 0j
    tr = np.trace(transfer_product(al.alpha, z, 1, 2))
    assert discriminant_at(z, al) == pytest.approx(tr.real, abs=1e-14)
    with pytest.raises(ValidationError):
        discriminant_at(z, PeriodicAlphas((0.1, 0.2, 0.3)))  # odd period


def test_discriminant_grid_matches_scalar():
    rng = np.random.default_rng(RNG_SEED)
    al = random_alphas(rng, 6)
    omegas = rng.uniform(0, TAU, 11)
    grid = discriminant_grid(np.exp(1j * omegas), al)
    for om, val in zip(omegas, grid):
        assert val == pytest.approx(discriminant_at(unit_point(om), al), abs=1e-10)


def test_constant_period_two_band_measure_closed_form():
    # |disc| <= 2 reduces to cos(omega) <= 1 - 2|alpha|^2, so the band
    # measure is 2*pi - 2*arccos(1 - 2|alpha|^2), decreasing in |alpha|.
    # The discriminant touches -2 tangentially at omega = pi, which sign
    # scanning can only localize to ~sqrt(eps); hence the 1e-6 tolerance.
    prev = TAU + 1
    for a in np.linspace(0.1, 0.9, 9):
        arcs = band_arcs(periodic_discriminant(PeriodicAlphas((a, a))), resolution=4096)
        want = TAU - 2 * math.acos(1 - 2 * a * a)
        assert arcs.measure == pytest.approx(want, abs=1e-6)
        assert arcs.measure < prev
        prev = arcs.measure
        assert not arcs.complement().is_empty


def test_free_case_band_is_the_whole_circle():
    arcs = band_arcs(periodic_discriminant(PeriodicAlphas((0.0, 0.0))), resolution=1024)
    assert arcs.is_full and arcs.measure == pytest.approx(TAU)


def test_band_edges_are_located_precisely():
    a = 0.5
    arcs = band_arcs(periodic_discriminant(PeriodicAlphas((a, a))), resolution=4096)
    # band edge at cos(omega) = 1 - 2 a^2 = 1/2, i.e. omega = pi/3
    edges = sorted(float(lo) for lo, _ in arcs.arcs)
    assert min(abs(e - math.pi / 3) for e in edges) < 1e-9


def test_cyclic_runs_match_walking_reference():
    rng = np.random.default_rng(RNG_SEED)
    masks = [
        np.array([1, 1, 0, 0, 1, 0, 1, 1], dtype=bool),  # a run through index 0
        np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=bool),  # runs of length 1
        np.array([1, 0, 1, 1, 1, 1, 1, 1], dtype=bool),  # a single gap
        np.array([1, 1, 1, 1, 1, 1, 1, 0], dtype=bool),  # a single gap at the end
        np.array([1, 0], dtype=bool),
        np.ones(5, dtype=bool),
        np.zeros(5, dtype=bool),
    ]
    masks += [rng.uniform(0, 1, int(n)) < rng.uniform(0, 1) for n in rng.integers(1, 200, 500)]
    for mask in masks:
        starts, ends = _cyclic_runs(mask)
        assert (list(starts), list(ends)) == cyclic_runs_by_walking(mask)
        assert _run_count(mask) == len(starts)  # what the scan's stop rule reads


def test_period_doubling_grid_route_matches_direct_product_route():
    f = VerblunskyMap(0.3, -0.3)
    for level in (2, 3):
        via_recursion = band_arcs(approximant_discriminant(PERIOD_DOUBLING, level, f), resolution=4096)
        via_products = band_arcs(
            periodic_discriminant(periodic_approximant(PERIOD_DOUBLING, level, f)), resolution=4096
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
                discriminant_at(z, al), rel=1e-9, abs=1e-9
            )


def test_band_measures_shrink_for_period_doubling():
    f = VerblunskyMap(0.3, -0.3)
    m4 = band_arcs(approximant_discriminant(PERIOD_DOUBLING, 4, f)).measure
    m6 = band_arcs(approximant_discriminant(PERIOD_DOUBLING, 6, f)).measure
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
    for nan in NANS:
        with pytest.raises(ValidationError, match="unit circle"):
            build_floquet(random_alphas(rng, 4), nan)
        with pytest.raises(ValidationError, match="unit circle"):
            floquet_discriminant_residual(random_alphas(rng, 4), [1.0, nan])


def test_floquet_eigenvalues_satisfy_band_equation():
    rng = np.random.default_rng(RNG_SEED + 3)
    for q in (4, 8):
        al = random_alphas(rng, q)
        for ang in rng.uniform(0, TAU, 4):
            rep = floquet_discriminant_residual(al, unit_point(ang))
            assert rep["unitarity_defect"] < 1e-12
            assert rep["worst_residual"] < 1e-8


def counting_eigvals(monkeypatch):
    """Route np.linalg.eigvals through a counter; returns the call list."""
    calls, general = [], np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return general(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls, general


def test_floquet_eigenvalues_fall_back_on_a_rotation_tie(monkeypatch):
    # e^{i(gamma + t)} and e^{i(gamma - t)} share cos(omega - gamma), so the
    # Hermitian eigensolve mixes their eigenvectors and only the residual
    # check keeps the mixed Rayleigh quotients out of the result
    rng = np.random.default_rng(RNG_SEED + 4)
    q = 8
    t = rng.uniform(0.3, 2.8, q // 2)
    omegas = FLOQUET_ROTATION + np.concatenate([t, -t])
    basis, _ = np.linalg.qr(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))
    flo = FloquetOperator(basis @ np.diag(np.exp(1j * omegas)) @ basis.conj().T, q, 1.0)
    calls, general = counting_eigvals(monkeypatch)
    z0 = flo.eigenvalues()
    assert calls == [(q, q)]
    assert angle_mismatch(z0, general(flo.mat)) <= 1e-12
    assert angle_mismatch(z0, np.exp(1j * omegas)) <= 1e-12


def test_floquet_eigenvalues_skip_the_fallback_when_certified(monkeypatch):
    calls, general = counting_eigvals(monkeypatch)
    flo = build_floquet(random_alphas(np.random.default_rng(RNG_SEED + 5), 32), unit_point(0.4))
    z0 = flo.eigenvalues()
    assert calls == []
    assert angle_mismatch(z0, general(flo.mat)) <= 1e-12


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


def floquet_sequences(rng, q):
    """Real and complex coefficient sequences of period q, and a complex one
    with signed zeros at every third site."""
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
    signed = list(random_alphas(rng, q, 0.5).values)
    signed[::3] = [zeros[i] for i in rng.integers(0, len(zeros), len(signed[::3]))]
    return [PeriodicAlphas(tuple(rng.uniform(-0.5, 0.5, q))), random_alphas(rng, q, 0.5), PeriodicAlphas(tuple(signed))]


@pytest.mark.parametrize("chunk", [CHUNK, 40])  # 40 points: 10 phases per fold at q = 4, one at q >= 34
@pytest.mark.parametrize("phi_count", [1, 4, 7, 16])
def test_floquet_phases_in_one_pass_match_phase_by_phase(monkeypatch, phi_count, chunk):
    monkeypatch.setattr(spectrum, "CHUNK", chunk)
    rng = np.random.default_rng(RNG_SEED + 6)
    phis = [unit_point(TAU * k / phi_count) for k in range(phi_count)]
    # every kind up to q = 34; the real one at 64, the signed-zero one at 144
    for q, kind in [(q, kind) for q in (4, 6, 10, 34) for kind in range(3)] + [(64, 0), (144, 2)]:
        alphas = floquet_sequences(rng, q)[kind]
        assert floquet_discriminant_residual(alphas, phis) == floquet_residuals_phase_by_phase(alphas, phis)
    # one phase on its own is a batch of length 1
    assert floquet_discriminant_residual(alphas, phis[-1]) == floquet_residuals_phase_by_phase(alphas, phis[-1:])[0]


def phase_drift(alphas, phi):
    """The determinant drift ``pair_trace`` checks at one phase's unit
    eigenvalues, in units of q * u."""
    z0 = build_floquet(alphas, phi).eigenvalues()
    a, b, e = transfer_product_grid(alphas.alpha, z0 / np.abs(z0), 1, alphas.period)
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    drift = np.max(np.abs(aa - bb - np.ldexp(1.0, -2 * np.asarray(e))) / (aa + bb))
    return float(drift) / (alphas.period * UNIT_ROUNDOFF)


@pytest.mark.parametrize("chunk", [CHUNK, 100])  # 100 points: three phases per fold at q = 32
def test_floquet_drift_failure_names_the_first_failing_phase(monkeypatch, chunk):
    # the f that exits 3 at Thue-Morse level 8 (ROADMAP defect 2), at level 5,
    # where every drift is within the bound; with the bound lowered between
    # the two smallest drifts, the phase of the smallest passes and every
    # later one fails.  The first to fail has the smallest drift of the
    # failures and the next the largest, so a check over a whole fold would
    # name another phase
    alphas = periodic_approximant(THUE_MORSE, 5, VerblunskyMap(-0.29023768532166183, 0.5705004876213009))
    drifts = {phi: phase_drift(alphas, phi) for phi in (unit_point(TAU * k / 8) for k in range(8))}
    phis = sorted(drifts, key=drifts.get)
    phis[2:] = phis[:1:-1]  # smallest, second smallest, then the largest first
    low, second = sorted(drifts.values())[:2]
    assert second > 1.01 * low
    monkeypatch.setattr(spectrum, "CHUNK", chunk)
    monkeypatch.setattr(transfer, "DRIFT_PER_SITE", math.sqrt(low * second))
    with pytest.raises(NumericAssertionError) as alone:
        floquet_residuals_phase_by_phase(alphas, phis[1:2])
    with pytest.raises(NumericAssertionError) as by_phase:
        floquet_residuals_phase_by_phase(alphas, phis)
    with pytest.raises(NumericAssertionError) as batched:
        floquet_discriminant_residual(alphas, phis)
    assert str(batched.value) == str(by_phase.value) == str(alone.value)
    assert floquet_discriminant_residual(alphas, phis[:1]) == floquet_residuals_phase_by_phase(alphas, phis[:1])


def test_trace_bound_connection():
    # points drawn from a deep approximant's bands keep consecutive trace
    # pairs within the coupling window -- spot check at level 8
    f = VerblunskyMap(0.3, -0.3)
    arcs = band_arcs(approximant_discriminant(PERIOD_DOUBLING, 8, f))
    rng = np.random.default_rng(RNG_SEED + 4)
    omegas = arcs.sample_interior(25, 1e-7, rng)
    for om in omegas:
        z = unit_point(om)
        assert abs(trace_orbit(z, f, 8).trace_a_at(8)) <= 2 + 1e-6
        assert trace_bound_check(z, f, 7).ok


# first complex draw of the benchmark's pd10 pool, and first real draws of its
# generic-tm6, generic-tm7, generic-fib7 and generic-fib10 pools
PD_COMPLEX_DRAW = VerblunskyMap(0.022228 - 0.101427j, -0.110942 - 0.012698j)
REAL_DRAWS = [
    (THUE_MORSE, 6, VerblunskyMap(0.130306, -0.481518)),
    (THUE_MORSE, 7, VerblunskyMap(0.492858, -0.265565)),
    (FIBONACCI, 7, VerblunskyMap(-0.456549, -0.146835)),
    (FIBONACCI, 10, VerblunskyMap(-0.454683, -0.578871)),
]
EVEN_CASES = [
    *((PERIOD_DOUBLING, level, f) for level in range(4, 11)
      for f in (VerblunskyMap(0.3, -0.3), PD_COMPLEX_DRAW)),
    *REAL_DRAWS,
]


@pytest.mark.parametrize("resolution", [8, 9, 1001, 4096])
def test_half_circle_scan_matches_full_circle_scan(resolution):
    # mirrored samples differ from direct ones in their last bits; no grid
    # point here lies within rounding of |disc| = 2, so the arcs agree exactly
    for rule, level, f in EVEN_CASES:
        disc = approximant_discriminant(rule, level, f)
        assert disc.even
        half = band_arcs_from_function(disc.sample, resolution, even=True)
        full = band_arcs_from_function(disc.sample, resolution, even=False)
        assert half.arcs == full.arcs and half.measure == full.measure, (rule, level, f)


@pytest.mark.parametrize("resolution", [8, 9, 1001])
def test_half_circle_scan_samples_only_zero_to_pi(resolution):
    # level 2 has four wide bands: every resolution here doubles at least once
    calls = []
    sample = approximant_discriminant(PERIOD_DOUBLING, 2, VerblunskyMap(0.3, -0.3)).sample

    def recorded(omegas):
        calls.append(np.array(omegas))
        return sample(omegas)

    band_arcs_from_function(recorded, resolution, even=True)
    assert len(calls[0]) == resolution // 2 + 1 and calls[0][-1] <= math.pi
    assert len(calls[1]) == (resolution + 1) // 2 and calls[1][-1] <= math.pi


def test_discriminant_is_even_by_route():
    complex_f = VerblunskyMap(0.25 + 0.1j, -0.2j)
    assert approximant_discriminant(PERIOD_DOUBLING, 4, complex_f).even
    assert approximant_discriminant(THUE_MORSE, 4, VerblunskyMap(0.3, -0.3)).even
    assert periodic_discriminant(PeriodicAlphas((0j, 0.5, -0.25 - 0.0j))).even
    assert not approximant_discriminant(THUE_MORSE, 4, complex_f).even
    assert not periodic_discriminant(PeriodicAlphas((0.5, 0.1j))).even


SOURCE_CASES = [
    (rule, level, f)
    for rule, level in ((PERIOD_DOUBLING, 5), (THUE_MORSE, 5), (FIBONACCI, 6), (FIBONACCI, 8))
    for f in (VerblunskyMap(0.3, -0.45), VerblunskyMap(0.25 + 0.1j, -0.2j))
]


@pytest.mark.parametrize("rule, level, f", SOURCE_CASES)
def test_approximant_and_periodic_sources_agree(rule, level, f):
    # the letter-length route and the per-site fold over the built word
    fast = approximant_discriminant(rule, level, f)
    fold = periodic_discriminant(periodic_approximant(rule, level, f))
    assert fast.period == fold.period
    if f.alpha_a.imag == 0 and f.alpha_b.imag == 0:
        assert fast.even == fold.even
    omegas = np.arange(1001) * (TAU / 1001)
    np.testing.assert_allclose(fast.sample(omegas), fold.sample(omegas), rtol=1e-9, atol=1e-9)


def test_first_grid_in_no_band_keeps_doubling():
    # at 8 angles the level-3 grid misses all 8 bands; the scan doubles on
    # until the count repeats instead of returning the empty set
    disc = approximant_discriminant(PERIOD_DOUBLING, 3, VerblunskyMap(0.3, -0.3))
    assert not (np.abs(disc.sample(np.arange(8) * (TAU / 8))) <= 2).any()
    coarse = band_arcs(disc, 8)
    assert coarse.arcs == band_arcs(disc, 16).arcs
    assert coarse.as_dict()["count"] == disc.period == 8


def test_edge_families_bisect_together_as_each_would_alone():
    # left brackets from a 256-angle grid need more halvings than right
    # brackets from a 2^16-angle grid; the short family freezes first
    disc = approximant_discriminant(PERIOD_DOUBLING, 5, VerblunskyMap(0.3, -0.3))

    def inside(omegas):
        return np.abs(disc.sample(omegas)) <= 2.0

    def brackets(res, side):
        starts, ends = _cyclic_runs(inside(np.arange(res) * (TAU / res)))
        step = TAU / res
        return ((starts - 1) * step, starts * step) if side == "left" else ((ends + 1) * step, ends * step)

    families = [brackets(256, "left"), brackets(1 << 16, "right")]
    calls = []

    def recorded(omegas):
        calls.append(len(omegas))
        return disc.sample(omegas)

    got = _bisect_band_edges(recorded, families)
    steps = []
    for (out_angles, in_angles), edges in zip(families, got):
        ref_calls = []

        def counted(omegas):
            ref_calls.append(len(omegas))
            return inside(omegas)

        assert np.array_equal(edges, bisect_band_edges(counted, out_angles, in_angles))
        steps.append(len(ref_calls))
    sizes = [len(out_angles) for out_angles, _ in families]
    assert steps[0] > steps[1] > 0
    assert calls == [sum(sizes)] * steps[1] + [sizes[0]] * (steps[0] - steps[1])


@pytest.mark.parametrize("even", [False, True], ids=["full-circle", "half-circle"])
@pytest.mark.parametrize(
    "rule, level", [(PERIOD_DOUBLING, 7), (THUE_MORSE, 5)], ids=["trace-route", "pair-route"]
)
def test_block_scan_past_chunk_matches_full_grid_scan(rule, level, even):
    # 3 CHUNK + 5 angles: every grid ends in a partial block, the first grid
    # evaluated in blocks and the reference's in one call per grid
    disc = approximant_discriminant(rule, level, VerblunskyMap(0.3, -0.3))
    assert disc.even
    arcs = band_arcs_from_function(disc.sample, 3 * CHUNK + 5, even=even)
    ref = full_grid_band_arcs(disc.sample, 3 * CHUNK + 5)
    assert arcs.count > 1 and arcs.arcs == ref.arcs and arcs.measure == ref.measure
