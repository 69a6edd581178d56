"""Property tests: independent routes to the same numbers must agree.

Hypothesis draws coefficient pairs, spectral points and levels, and exact
quadratic-field values; every test is derandomized so a run is
reproducible.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvsubshift.errors import ValidationError
from cmvsubshift.quadratic import Quadratic, exact
from cmvsubshift.spectrum import (
    PeriodicAlphas,
    approximant_discriminant,
    band_arcs_from_function,
    build_floquet,
    discriminant_grid,
    periodic_approximant,
    substitution_discriminant,
)
from cmvsubshift.tracemap import trace_orbit
from cmvsubshift.transfer import VerblunskyMap, unit_point
from cmvsubshift.words import FIBONACCI, PERIOD_DOUBLING, THUE_MORSE, Word, fixed_point_prefix, substitution_word
from reference import angle_mismatch, full_grid_band_arcs, quadratic_mpf, word_product

angles = st.floats(0.0, 2 * math.pi, allow_nan=False)


def disk_points(radius):
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)), st.floats(0.0, radius), angles)


maps = st.builds(VerblunskyMap, disk_points(0.9), disk_points(0.9))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@PROPERTY
@given(f=maps, omega=angles, levels=st.integers(1, 8))
def test_trace_orbit_matches_direct_block_products(f, omega, levels):
    # rounding in a product's trace scales with the product's norm
    z = unit_point(omega)
    orbit = trace_orbit(z, f, levels)
    for level in range(1, levels + 1):
        for letter, rec in (("a", orbit.trace_a_at(level)), ("b", orbit.trace_b_at(level))):
            direct = word_product(substitution_word(PERIOD_DOUBLING, letter, level), z, f)
            scale = max(1.0, np.linalg.norm(direct, 2))
            assert abs(np.trace(direct).imag) <= 1e-10 * scale
            assert abs(rec - np.trace(direct).real) <= 1e-10 * scale


@PROPERTY
@given(f=maps, omega=angles, levels=st.integers(1, 60))
def test_classify_reports_first_escaped_row(f, omega, levels):
    orbit = trace_orbit(unit_point(omega), f, levels)
    rows = list(orbit.rows())
    assert all(math.isfinite(v) for row in rows for v in row[1:3])
    if len(rows) < levels:  # rows stop where the orbit overflows, after it escaped
        assert rows[-1][3]
        stop = len(rows)
        assert not (math.isfinite(orbit.trace_a[stop]) and math.isfinite(orbit.trace_b[stop]))


@PROPERTY
@given(
    values=st.integers(2, 8).flatmap(lambda half: st.lists(disk_points(0.8), min_size=2 * half, max_size=2 * half)),
    theta=angles,
)
def test_discriminant_at_floquet_eigenvalues(values, theta):
    alphas = PeriodicAlphas(tuple(values))
    phi = unit_point(theta)
    for z0 in build_floquet(alphas, phi).eigenvalues():
        assert abs(discriminant_grid(np.array([z0 / abs(z0)]), alphas)[0] - 2 * math.cos(theta)) < 1e-8


def random_disk_values(seed, count, radius=0.9):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(2j * np.pi * rng.uniform(0, 1, count))


FLOQUET_PROPERTY = settings(derandomize=True, deadline=None, max_examples=10)
seeds = st.integers(0, 2**32 - 1)


@FLOQUET_PROPERTY
@given(half=st.integers(2, 128), seed=seeds, theta=angles)
def test_floquet_eigenvalues_match_general_eigensolver(half, seed, theta):
    flo = build_floquet(PeriodicAlphas(tuple(random_disk_values(seed, 2 * half))), unit_point(theta))
    assert angle_mismatch(flo.eigenvalues(), np.linalg.eigvals(flo.mat)) <= 1e-12


@FLOQUET_PROPERTY
@given(half=st.integers(1, 8), repeats=st.integers(2, 16), seed=seeds, phi=st.sampled_from([1.0, -1.0]))
def test_floquet_eigenvalues_at_closed_gaps(half, repeats, seed, phi):
    # a real block repeated r times: at phi = +-1 the q-periodic operator's
    # eigenvalues are those of the block at the r-th roots of phi, and the
    # roots w, 1/w give the same discriminant -- double eigenvalues
    block = random_disk_values(seed, 2 * half).real
    flo = build_floquet(PeriodicAlphas(tuple(block) * repeats), phi)
    assert angle_mismatch(flo.eigenvalues(), np.linalg.eigvals(flo.mat)) <= 1e-12


@pytest.mark.parametrize("phi", [1.0, -1.0])
def test_floquet_eigenvalues_period_doubling_level_9(phi):
    # real coefficients at a real phase give a real matrix: the reference runs
    # the real general eigensolver on it, a quarter of the complex one's cost
    flo = build_floquet(periodic_approximant(PERIOD_DOUBLING, 9, VerblunskyMap(0.3, -0.3)), phi)
    assert flo.q == 512 and not flo.mat.imag.any()
    assert angle_mismatch(flo.eigenvalues(), np.linalg.eigvals(flo.mat.real)) <= 1e-12


@pytest.mark.parametrize("rule", [PERIOD_DOUBLING, THUE_MORSE, FIBONACCI], ids=["pd", "tm", "fib"])
@PROPERTY
@given(f=maps, omegas=st.lists(angles, min_size=1, max_size=4), level=st.integers(2, 8))
def test_substitution_blocks_match_direct_products(rule, f, omegas, level):
    # Fibonacci prefixes of odd length (levels 2, 3, 5, 6, 8) run as two copies
    word = fixed_point_prefix(rule, level)
    if len(word) % 2:
        word = Word(word.text * 2)
    disc = substitution_discriminant(rule, level, f)(np.array(omegas))
    for omega, value in zip(omegas, disc):
        direct = word_product(word, unit_point(omega), f)
        assert abs(value - np.trace(direct).real) <= 1e-10 * max(1.0, np.linalg.norm(direct, 2))


small_coefficients = st.one_of(st.floats(-0.6, 0.6), disk_points(0.6))
small_maps = st.builds(VerblunskyMap, small_coefficients, small_coefficients)


@pytest.mark.parametrize(
    "rule, levels", [(PERIOD_DOUBLING, (5, 10)), (THUE_MORSE, (4, 7))], ids=["pd", "tm"]
)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data(), f=small_maps, resolution=st.sampled_from([1000, 3 << 9, 1 << 11]))
def test_grid_reuse_matches_full_grid_scan(rule, levels, data, f, resolution):
    # halving the step is exact, so reusing the coarse mask changes no bit
    level = data.draw(st.integers(*levels))
    sample = approximant_discriminant(rule, level, f).sample
    arcs = band_arcs_from_function(sample, resolution)
    ref = full_grid_band_arcs(sample, resolution)
    assert arcs.period == ref.period and arcs.arcs == ref.arcs


def _mp_block_trace(rule, level, f, omega, dps=30):
    """Trace of the level-n prefix product in mpmath: full 2x2 site matrices,
    multiplied down the substitution tree, no rescaling (mpf exponents are
    unbounded)."""
    with mpmath.workdps(dps):
        z = mpmath.expj(omega)

        def site(letter, odd):
            a = mpmath.mpc(f.alpha(letter))
            r = mpmath.sqrt(1 - abs(a) ** 2)
            if odd:
                return ((-mpmath.conj(a) / r, z / r), (1 / (z * r), -a / r))
            return ((-a / r, 1 / r), (1 / r, -mpmath.conj(a) / r))

        def mul(m, n):
            return tuple(tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in (0, 1)) for i in (0, 1))

        memo = {}

        def block(letter, m, odd):
            if (letter, m, odd) not in memo:
                if m == 0:
                    memo[letter, m, odd] = site(letter, odd)
                else:
                    prod, parity = None, odd
                    for d in rule.image(letter):
                        sub = block(d, m - 1, parity)
                        prod = sub if prod is None else mul(sub, prod)
                        parity ^= len(substitution_word(rule, d, m - 1)) & 1
                    memo[letter, m, odd] = prod
            return memo[letter, m, odd]

        m = block("a", level, 1)
        return mpmath.re(m[0][0] + m[1][1])


def test_thue_morse_level_12_blocks_stay_finite_and_accurate():
    # unscaled, these blocks reach |a| ~ 4e305 and their |a|^2 overflows
    f = VerblunskyMap(0.3, -0.3)
    sample = substitution_discriminant(THUE_MORSE, 12, f)
    grid = sample(np.arange(1 << 12) * (2 * math.pi / (1 << 12)))
    assert np.all(np.isfinite(grid)) and np.max(np.abs(grid)) > 1e300
    omegas = [0.1 + k * math.pi / 4 for k in range(8)]
    for omega, value in zip(omegas, sample(np.array(omegas))):
        ref = float(_mp_block_trace(THUE_MORSE, 12, f, omega))
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


# -- exact quadratic arithmetic against mpmath ---------------------------------
#
# A value is drawn as a recipe (m + k*theta_d) / c with theta_d = sqrt(d) - r,
# r = floor(sqrt(d)), whose continued fraction is [0; t, t, t, ...].  Near
# ties and near-integers come from the convergents p_n/q_n of theta_d: adding
# s*(q_n*theta_d - p_n) / c moves a value by about 1/q_{n+1}, far below what
# a float resolves.  A near cancellation is that residual alone: its triple
# has A ~ -B*sqrt(d).  Half the recipes are small (below 1e21), half large:
# their triples have 900 to 1,200 bits.  The reference evaluates every recipe
# in mpmath at ``ref_dps`` digits.

REF_DPS = 60
FIELDS = {2: (1, 2), 5: (2, 4), 17: (4, 8)}  # d: (floor(sqrt(d)), partial quotient)
QUADRATIC_PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)
BIG = (1 << 900, 1 << 1200)


def convergent(d, n):
    """p_n, q_n of theta_d = [0; t, t, ...], with p_0/q_0 = 0/1."""
    t = FIELDS[d][1]
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for _ in range(n):
        p_prev, q_prev, p, q = p, q, t * p + p_prev, t * q + q_prev
    return p, q


def build(d, m, k, c):
    theta = Quadratic(-FIELDS[d][0], 1, d)
    return (m + k * theta) / c


def ref_dps(*recipes):
    """Digits that decide every sign, floor and float of ``recipes``.

    With b the largest bit length in the recipes, a nonzero value or
    difference of two values is at least about 2^(-4b) / 10 (theta_d is
    badly approximable), and 60 + 2b digits put rounding and the cut-off of
    ``ref_sign`` far below that.
    """
    bits = max(abs(x).bit_length() for recipe in recipes for x in recipe)
    return REF_DPS + 2 * bits


def reference(d, m, k, c, dps):
    with mpmath.workdps(dps):
        return (m + k * (mpmath.sqrt(d) - FIELDS[d][0])) / c


def ref_sign(value, dps, *recipes):
    """Sign of a reference value built from ``recipes`` at ``dps`` digits:
    zero when it is within 10^(10 - dps) of the terms' size, far above their
    rounding and far below every nonzero value."""
    scale = 1 + sum(abs(m) + abs(k) for m, k, _ in recipes)
    if abs(value) <= mpmath.mpf(10) ** (10 - dps) * scale:
        return 0
    return 1 if value > 0 else -1


# deepest n with q_n < 1e20, so that small recipes stay below 1e21; and the
# depths with 900 to 990 bits, so that a near cancellation, about
# 1 / (c q_{n+1}), stays a normal float
MAX_DEPTH = {d: max(n for n in range(100) if convergent(d, n)[1] < 10**20) for d in FIELDS}
BIG_DEPTHS = {
    d: [n for n in range(2000) if 900 <= convergent(d, n)[1].bit_length() <= 990] for d in FIELDS
}
fields = st.sampled_from(sorted(FIELDS))
signs = st.sampled_from([-1, 1])


def depths(d, big):
    return st.sampled_from(BIG_DEPTHS[d]) if big else st.integers(1, MAX_DEPTH[d])


@st.composite
def recipes(draw, d):
    """(m, k, c): generic, rational, within ~1/q_{n+1} of an integer, or a
    near cancellation; small or large."""
    kind = draw(st.sampled_from(["generic", "rational", "near-integer", "near-cancellation"]))
    big = draw(st.booleans())
    if kind in ("generic", "rational"):
        if big:
            c = draw(st.integers(*BIG))
            m, k = (draw(signs) * draw(st.integers(*BIG)) for _ in range(2))
        else:
            c = draw(st.integers(1, 1000))
            m, k = (draw(st.integers(-10**6, 10**6)) for _ in range(2))
        return (m, 0, c) if kind == "rational" else (m, k, c)
    c = draw(st.integers(1, 1000))
    m = draw(st.integers(-10**6, 10**6)) if kind == "near-integer" else 0
    p, q = convergent(d, draw(depths(d, big)))
    s = draw(signs)
    return m * c - s * p, s * q, c


@st.composite
def pairs(draw):
    """Two recipes in one field: a near tie, the same value written with a
    common factor, or an independent draw."""
    d = draw(fields)
    x = draw(recipes(d))
    m, k, c = x
    kind = draw(st.sampled_from(["near-tie", "equal", "independent"]))
    if kind == "near-tie":
        p, q = convergent(d, draw(depths(d, draw(st.booleans()))))
        s = draw(signs)
        y = (m - s * p, k + s * q, c)
    elif kind == "equal":
        g = draw(st.integers(2, 50))
        y = (g * m, g * k, g * c)
    else:
        y = draw(recipes(d))
    return d, x, y


@QUADRATIC_PROPERTY
@given(case=pairs())
def test_quadratic_order_matches_mpmath(case):
    d, x_recipe, y_recipe = case
    x, y = build(d, *x_recipe), build(d, *y_recipe)
    dps = ref_dps(x_recipe, y_recipe)
    xr, yr = reference(d, *x_recipe, dps), reference(d, *y_recipe, dps)
    with mpmath.workdps(dps):
        want = ref_sign(xr - yr, dps, x_recipe, y_recipe)
    assert (x < y) == (want < 0)
    assert (x <= y) == (want <= 0)
    assert (x > y) == (want > 0)
    assert (x >= y) == (want >= 0)
    assert (x == y) == (want == 0)
    assert (x - y).sign() == want


@QUADRATIC_PROPERTY
@given(d=fields, data=st.data())
def test_quadratic_sign_floor_frac_match_mpmath(d, data):
    recipe = data.draw(recipes(d))
    x = build(d, *recipe)
    dps = ref_dps(recipe)
    with mpmath.workdps(dps):
        ref = reference(d, *recipe, dps)
        floor_ref = int(mpmath.floor(ref))
        assert x.sign() == ref_sign(ref, dps, recipe)
        assert math.floor(x) == floor_ref
        fr = x.frac()
        assert Quadratic(0) <= fr < Quadratic(1)
        assert fr == x - floor_ref
        # float conversion is correctly rounded, as mpmath's rounding of the
        # reference value is
        assert float(x) == float(ref)
        assert float(fr) == float(ref - floor_ref)


@QUADRATIC_PROPERTY
@given(d=fields, data=st.data())
def test_quadratic_hash_agrees_with_equality(d, data):
    m, k, c = data.draw(recipes(d))
    x = build(d, m, k, c)
    again = (x * 3 + 7) / 3 - Fraction(7, 3)  # the same value by another route
    assert again == x and hash(again) == hash(x)
    if k == 0:
        assert x == Fraction(m, c) and hash(x) == hash(Fraction(m, c))


@pytest.mark.parametrize("d", sorted(FIELDS))
@pytest.mark.parametrize("s", [-1, 1])
@pytest.mark.parametrize("j", [1, 3])
def test_quadratic_float_rounds_values_next_to_a_midpoint(d, s, j):
    # 1 + j 2^-53 (j odd) is the midpoint between two adjacent floats; the
    # convergent residual moves the value off it by about 1e-20 * 2^-40.  The
    # first integer bracket float() tries has the midpoint as one end, and
    # that end rounds to even: to the lower float for j = 1, the upper for
    # j = 3.  So for a value above the midpoint with j = 1, or below it with
    # j = 3, the bracket's ends round apart and the bracket must be narrowed.
    p, q = convergent(d, MAX_DEPTH[d])
    theta = Quadratic(-FIELDS[d][0], 1, d)
    x = 1 + Fraction(j, 2**53) + s * (q * theta - p) / 2**40
    with mpmath.workdps(REF_DPS):
        residual = s * (q * (mpmath.sqrt(d) - FIELDS[d][0]) - p) / mpmath.mpf(2) ** 40
        ref = 1 + j * mpmath.mpf(2) ** -53 + residual
        assert float(x) == float(ref)
    assert float(x) == 1 + (j + 1 if residual > 0 else j - 1) * 2.0**-53


# -- reading circle coordinates exactly ---------------------------------------


@st.composite
def binary_values(draw):
    """A float, or a finite mpmath value rounded to 15-60 decimal digits."""
    if draw(st.booleans()):
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    dps = draw(st.integers(15, 60))
    mantissa = draw(st.integers(-(10**dps), 10**dps))
    with mpmath.workdps(dps):
        return mpmath.mpf(mantissa) * mpmath.mpf(10) ** draw(st.integers(-400, 400))


@QUADRATIC_PROPERTY
@given(x=binary_values())
def test_exact_reads_binary_values_without_rounding(x):
    value = exact(x)
    assert value.is_rational
    assert quadratic_mpf(value, 200) == x
    if isinstance(x, float):
        assert float(value) == x


@pytest.mark.parametrize(
    "x",
    [math.inf, -math.inf, math.nan, mpmath.inf, -mpmath.inf, mpmath.nan,
     "0.5", None, 0.5j, mpmath.mpc(0.5, 0), [0.5]],
)
def test_exact_rejects_non_finite_and_non_numbers(x):
    with pytest.raises(ValidationError):
        exact(x)
