"""Property tests: independent routes to the same numbers must agree.

Hypothesis draws coefficient pairs, spectral points and levels; every test
is derandomized so a run is reproducible.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
