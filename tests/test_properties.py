"""Property tests: independent routes to the same numbers must agree.

Hypothesis draws coefficient pairs, spectral points and levels, and exact
quadratic-field values; every test is derandomized so a run is
reproducible.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvsubshift.quadratic import Quadratic
from cmvsubshift.spectrum import PeriodicAlphas, build_floquet, discriminant
from cmvsubshift.tracemap import block_matrix, classify_orbit, trace_orbit
from cmvsubshift.transfer import VerblunskyMap, unit_point

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
            direct = block_matrix(letter, level, z, f, "direct")
            scale = max(1.0, direct.norm())
            assert abs(direct.trace.imag) <= 1e-10 * scale
            assert abs(rec - direct.trace.real) <= 1e-10 * scale


@PROPERTY
@given(f=maps, omega=angles, levels=st.integers(1, 60))
def test_classify_reports_first_escaped_row(f, omega, levels):
    orbit = trace_orbit(unit_point(omega), f, levels)
    rows = list(orbit.rows())
    verdict = classify_orbit(orbit.trace_a_at(1), orbit.trace_b_at(1), orbit.coupling, levels)
    escaped = [row for row in rows if row[3]]
    if escaped:
        level, trace_a = escaped[0][:2]
        assert verdict.status == "unstable" and verdict.first_escape_level == level
        assert verdict.region == ("positive" if trace_a > 0 else "negative")
    else:
        assert verdict.status == "not-decided" and verdict.levels_checked == len(rows)
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
        assert abs(discriminant(z0 / abs(z0), alphas) - 2 * math.cos(theta)) < 1e-8


# -- exact quadratic arithmetic against mpmath ---------------------------------
#
# A value is drawn as a recipe (m + k*theta_d) / c with theta_d = sqrt(d) - r,
# r = floor(sqrt(d)), whose continued fraction is [0; t, t, t, ...].  Near
# ties and near-integers come from the convergents p_n/q_n of theta_d: adding
# s*(q_n*theta_d - p_n) / c moves a value by about 1/q_{n+1}, far below what
# the float approximations resolve.  The reference evaluates every recipe in
# mpmath at 60 digits.

REF_DPS = 60
FIELDS = {2: (1, 2), 5: (2, 4), 17: (4, 8)}  # d: (floor(sqrt(d)), partial quotient)
QUADRATIC_PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


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


def reference(d, m, k, c):
    with mpmath.workdps(REF_DPS):
        return (m + k * (mpmath.sqrt(d) - FIELDS[d][0])) / c


def ref_sign(value, *recipes):
    """Sign of a 60-digit reference value built from ``recipes``.

    Terms stay below 1e21 and nonzero values above 1e-25, so rounding (about
    1e-60 of the terms) stays far below the 1e-50 cut-off and the cut-off far
    below every nonzero value.
    """
    scale = 1 + sum(abs(m) + abs(k) for m, k, _ in recipes)
    if abs(value) <= mpmath.mpf(10) ** -50 * scale:
        return 0
    return 1 if value > 0 else -1


# deepest n with q_n < 1e20, so that 60 digits resolve every near tie
MAX_DEPTH = {d: max(n for n in range(100) if convergent(d, n)[1] < 10**20) for d in FIELDS}
fields = st.sampled_from(sorted(FIELDS))
signs = st.sampled_from([-1, 1])


def depths(d):
    return st.integers(1, MAX_DEPTH[d])


@st.composite
def recipes(draw, d):
    """(m, k, c): generic, rational, or within ~1/q_{n+1} of an integer."""
    kind = draw(st.sampled_from(["generic", "rational", "near-integer"]))
    c = draw(st.integers(1, 1000))
    m = draw(st.integers(-10**6, 10**6))
    if kind == "rational":
        return m, 0, c
    if kind == "generic":
        return m, draw(st.integers(-10**6, 10**6)), c
    p, q = convergent(d, draw(depths(d)))
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
        p, q = convergent(d, draw(depths(d)))
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
    xr, yr = reference(d, *x_recipe), reference(d, *y_recipe)
    with mpmath.workdps(REF_DPS):
        want = ref_sign(xr - yr, x_recipe, y_recipe)
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
    with mpmath.workdps(REF_DPS):
        ref = reference(d, *recipe)
        floor_ref = int(mpmath.floor(ref))
        assert x.sign() == ref_sign(ref, recipe)
        assert math.floor(x) == floor_ref
        fr = x.frac()
        assert Quadratic(0) <= fr < Quadratic(1)
        assert fr == x - floor_ref
        # float conversion is correctly rounded, as mpmath's rounding of the
        # 60-digit value is
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
