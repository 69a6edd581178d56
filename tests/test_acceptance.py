"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with ``python3 -m pytest tests/test_acceptance.py -s -v`` so the verdict
lines reach the terminal.  Each check pins its tolerance and a runtime cap.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cmvsubshift.gordon import golden_limits, gordon_set, monte_carlo_measure, verify_membership
from cmvsubshift.quadratic import GOLDEN_MEAN
from cmvsubshift.spectrum import (
    PeriodicAlphas,
    approximant_discriminant,
    band_arcs,
    discriminant_grid,
    floquet_discriminant_residual,
    periodic_approximant,
    periodic_discriminant,
)
from cmvsubshift.tracemap import coupling_constant, trace_orbit, trace_bound_check
from cmvsubshift.transfer import VerblunskyMap, gordon_inequality_check
from cmvsubshift.words import (
    PERIOD_DOUBLING,
    continued_fraction,
    even_q_indices,
    substitution_word,
    sturmian_coding,
)
from reference import det2, site_matrix, word_product

TAU = 2.0 * math.pi

# Direct-product traces overflow doubly exponentially once an orbit escapes;
# past this magnitude a float64 comparison is meaningless, not failed.
COMPARE_CEILING = 1e100


def _verdict(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} ({elapsed:.2f}s / {limit:.0f}s cap): {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num}: runtime {elapsed:.2f}s over the {limit:.0f}s cap"


def _random_disk(rng, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(count))
    return r * np.exp(1j * TAU * rng.random(count))


def _random_circle(rng, count: int) -> np.ndarray:
    return np.exp(1j * TAU * rng.random(count))


def test_criterion_01_single_step_determinants():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    alphas = _random_disk(rng, 10_000, 0.999)
    zs = _random_circle(rng, 10_000)
    worst = 0.0
    for alpha, z in zip(alphas, zs):
        for parity in (0, 1):
            worst = max(worst, abs(det2(site_matrix(complex(alpha), complex(z), parity)) + 1.0))
    elapsed = time.perf_counter() - t0
    _verdict(1, worst <= 1e-12, elapsed, 1.0,
             f"det deviates from -1 by at most {worst:.2e} over 10^4 draws, both parities")


def test_criterion_02_coupling_constant():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    f = VerblunskyMap(0.5, -0.5)
    value = coupling_constant(f)
    worst_oracle = 0.0
    for z in (1.0 + 0j, complex(np.exp(2.1j))):
        block_a, block_b = (word_product(substitution_word(PERIOD_DOUBLING, c, 1), z, f) for c in "ab")
        oracle = np.trace(block_b @ np.linalg.inv(block_a))
        worst_oracle = max(worst_oracle, abs(value - oracle.real), abs(oracle.imag))
    exact_gap = abs(value - 10.0 / 3.0)
    floor = min(
        coupling_constant(VerblunskyMap(complex(a), complex(b)))
        for a, b in zip(_random_disk(rng, 1000, 0.95), _random_disk(rng, 1000, 0.95))
    )
    elapsed = time.perf_counter() - t0
    ok = worst_oracle <= 1e-12 and exact_gap <= 1e-12 and floor >= 2.0 - 1e-12
    _verdict(2, ok, elapsed, 1.0,
             f"matrix oracle gap {worst_oracle:.2e}, |value - 10/3| = {exact_gap:.2e}, "
             f"min over 10^3 pairs = {floor:.6f} >= 2")


def _direct_block_trace(word_text: str, z: complex, f: VerblunskyMap) -> complex:
    """Trace of the ordered step-matrix product, composed by pairwise tree."""
    mats = {
        (letter, parity): site_matrix(f.alpha(letter), z, parity)
        for letter in "ab"
        for parity in (0, 1)
    }
    stack = np.array([mats[(letter, (i + 1) & 1)] for i, letter in enumerate(word_text)])
    while len(stack) > 1:
        stack = stack[1::2] @ stack[0::2]
    return complex(stack[0, 0, 0] + stack[0, 1, 1])


def test_criterion_03_recursion_matches_direct_products():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    top = 14
    words = {
        (letter, level): substitution_word(PERIOD_DOUBLING, letter, level).text
        for letter in "ab"
        for level in range(1, top + 1)
    }
    worst_rel = 0.0
    worst_imag = 0.0
    compared = 0
    for _ in range(100):
        f = VerblunskyMap(complex(_random_disk(rng, 1, 0.6)[0]), complex(_random_disk(rng, 1, 0.6)[0]))
        z = complex(_random_circle(rng, 1)[0])
        orbit = trace_orbit(z, f, top)
        for level in range(1, top + 1):
            x_rec = orbit.trace_a_at(level)
            y_rec = orbit.trace_b_at(level)
            if max(abs(x_rec), abs(y_rec)) > COMPARE_CEILING:
                break
            x_dir = _direct_block_trace(words[("a", level)], z, f)
            y_dir = _direct_block_trace(words[("b", level)], z, f)
            for rec, dir_ in ((x_rec, x_dir), (y_rec, y_dir)):
                worst_rel = max(worst_rel, abs(rec - dir_.real) / max(1.0, abs(dir_)))
                worst_imag = max(worst_imag, abs(dir_.imag) / max(1.0, abs(dir_)))
                compared += 1
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_imag <= 1e-9 and compared >= 100 * 2 * 5
    _verdict(3, ok, elapsed, 30.0,
             f"{compared} trace comparisons to level {top}: worst relative gap {worst_rel:.2e}, "
             f"worst imaginary residual {worst_imag:.2e}")


def test_criterion_04_floquet_eigenvalues_hit_discriminant():
    t0 = time.perf_counter()
    f = VerblunskyMap(0.3, -0.3)
    worst_res = 0.0
    worst_unit = 0.0
    for level in (2, 3):  # periods 4 and 8
        alphas = periodic_approximant(PERIOD_DOUBLING, level, f)
        for k in range(16):
            phi = complex(np.exp(1j * TAU * k / 16))
            report = floquet_discriminant_residual(alphas, phi)
            worst_res = max(worst_res, report["worst_residual"])
            worst_unit = max(worst_unit, report["unitarity_defect"])
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-8 and worst_unit < 1e-12
    _verdict(4, ok, elapsed, 5.0,
             f"q in {{4, 8}}, 16 angles each: worst residual {worst_res:.2e}, "
             f"worst unitarity defect {worst_unit:.2e}")


def test_criterion_05_band_samples_respect_trace_bound():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    f = VerblunskyMap(0.3, -0.3)
    arcs = band_arcs(approximant_discriminant(PERIOD_DOUBLING, 12, f))
    angles = arcs.sample_interior(200, 1e-9, rng)
    violations = 0
    worst = 0.0
    for omega in angles:
        res = trace_bound_check(complex(np.exp(1j * float(omega))), f, 10, tol=1e-6)
        if not res.ok:
            violations += 1
        worst = max(worst, res.worst_excess)
    elapsed = time.perf_counter() - t0
    _verdict(5, violations == 0, elapsed, 60.0,
             f"200 level-12 band samples, levels <= 10: {violations} violations, "
             f"worst excess over the coupling {worst:.2e}")


def test_criterion_06_band_measures_shrink():
    t0 = time.perf_counter()
    f = VerblunskyMap(0.3, -0.3)
    levels = (4, 6, 8, 10, 12)
    measures = [
        float(band_arcs(approximant_discriminant(PERIOD_DOUBLING, level, f)).measure) for level in levels
    ]
    monotone = all(a >= b for a, b in zip(measures, measures[1:]))
    halved = measures[-1] < 0.5 * measures[0]
    elapsed = time.perf_counter() - t0
    _verdict(6, monotone and halved, elapsed, 120.0,
             "level " + ", ".join(f"{lv}: {m:.4f}" for lv, m in zip(levels, measures))
             + f"; non-increasing and {measures[-1]:.4f} < half of {measures[0]:.4f}")


def test_criterion_07_golden_mean_constants():
    t0 = time.perf_counter()
    report = golden_limits(30)
    ratio_gap = abs(report.ratio - 2.0 / (math.sqrt(5.0) - 1.0))
    gap_gap = abs(report.scaled_gap - 1.0 / math.sqrt(5.0))
    elapsed = time.perf_counter() - t0
    ok = ratio_gap < 1e-10 and gap_gap < 1e-6
    _verdict(7, ok, elapsed, 1.0,
             f"depth 30: ratio off by {ratio_gap:.2e} (tol 1e-10), "
             f"scaled gap off by {gap_gap:.2e} (tol 1e-6)")


def test_criterion_08_gordon_measure_bounds():
    t0 = time.perf_counter()
    cf = continued_fraction(GOLDEN_MEAN, 18)
    indices = []
    for n in even_q_indices(cf):
        if n + 2 > cf.depth:
            break
        rep = gordon_set(GOLDEN_MEAN, n)
        if rep.applicable and rep.bound > 0:
            indices.append((n, rep))
        if len(indices) == 3:
            break
    ok = len(indices) == 3
    detail_parts = []
    for n, rep in indices:
        mc = monte_carlo_measure(rep.arcs, 100_000, np.random.default_rng(800 + n))
        sigma_gap = abs(mc["estimate"] - rep.measure)
        ok = ok and rep.measure >= rep.bound and sigma_gap < 3 * mc["sigma"]
        detail_parts.append(
            f"n={n}: measure {rep.measure:.5f} >= bound {rep.bound:.5f}, MC off by {sigma_gap / mc['sigma']:.2f} sigma"
        )
    elapsed = time.perf_counter() - t0
    _verdict(8, ok, elapsed, 60.0, "; ".join(detail_parts))


def test_criterion_09_gordon_end_to_end():
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    n = 9
    rep = gordon_set(GOLDEN_MEAN, n)
    q = rep.q
    phases = [Fraction(float(b)) for b in rep.arcs.sample_interior(100, 1e-9, rng)]
    passed = sum(verify_membership(GOLDEN_MEAN, beta, n) for beta in phases)

    f = VerblunskyMap(0.3, -0.3)
    approximant = PeriodicAlphas(
        tuple(f.alpha(c) for c in sturmian_coding(GOLDEN_MEAN, 0).window(1, q).values)
    )
    band = band_arcs(periodic_discriminant(approximant))
    zs = [complex(np.exp(1j * float(w))) for w in band.sample_interior(10, 1e-9, rng)]
    holds = 0
    for beta, z in zip(phases[:10], zs):
        window = sturmian_coding(GOLDEN_MEAN, beta).window(1 - q, 2 * q)
        coeffs = f.coefficients(window)
        check = gordon_inequality_check(coeffs.__getitem__, z, q, variant="two")
        three = gordon_inequality_check(coeffs.__getitem__, z, q, variant="three")
        holds += check.holds and three.holds
    elapsed = time.perf_counter() - t0
    ok = passed == 100 and holds == 10
    _verdict(9, ok, elapsed, 120.0,
             f"{passed}/100 sampled phases pass the three-block test at q={q}; "
             f"{holds}/10 (phase, z) pairs meet the solution-norm bound")


def test_criterion_10_free_case_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for q in (4, 8):
        alphas = PeriodicAlphas((0j,) * q)
        omegas = np.linspace(0.0, TAU, 1 << 12, endpoint=False)
        disc = discriminant_grid(np.exp(1j * omegas), alphas)
        worst = max(worst, float(np.max(np.abs(disc - 2.0 * np.cos(q * omegas / 2.0)))))
    measure_gap = abs(float(band_arcs(periodic_discriminant(PeriodicAlphas((0j,) * 4))).measure) - TAU)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and measure_gap < 1e-6
    _verdict(10, ok, elapsed, 5.0,
             f"max |disc - 2cos(q omega/2)| = {worst:.2e} on 4096 angles (q = 4, 8); "
             f"full-circle measure off by {measure_gap:.2e}")
