"""Gordon phase sets: bad arcs, measure bounds, membership, golden asymptotics."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cmvsubshift.errors import ValidationError
from cmvsubshift.gordon import (
    bad_arcs,
    convergent_gap,
    golden_limits,
    gordon_set,
    monte_carlo_measure,
    verify_membership,
)
from cmvsubshift.quadratic import GOLDEN_MEAN, SQRT2_MINUS_1, Quadratic, parse_theta
from cmvsubshift.words import continued_fraction

# theta with partial quotients all 8 -- fast denominator growth makes the
# generic rotation-coding bound nonvacuous
FAST_THETA = Quadratic(-4, 1, 17)


def test_convergent_gap_matches_direct_arithmetic():
    cf = continued_fraction(GOLDEN_MEAN, 12)
    for n in (2, 5, 9):
        direct = abs(GOLDEN_MEAN * cf.q[n] - cf.p[n])
        assert convergent_gap(GOLDEN_MEAN, cf, n) == direct
    with pytest.raises(ValidationError):
        convergent_gap(GOLDEN_MEAN, cf, 12)


def test_sturmian_bad_arcs_collapse_onto_single_orbit():
    # both endpoint orbits land on {-j*theta}, so at most q+1 arcs survive
    for n in (6, 9):
        cf = continued_fraction(GOLDEN_MEAN, n + 2)
        bad = bad_arcs(GOLDEN_MEAN, [Quadratic(1) - GOLDEN_MEAN, Quadratic(0)], n, cf=cf)
        assert bad.count <= cf.q[n] + 1
        # every center really is covered
        for j in (1, cf.q[n] // 2, cf.q[n] + 1):
            assert bad.contains((-GOLDEN_MEAN * j).frac())


def test_golden_index9_report_closed_form():
    rep = gordon_set(GOLDEN_MEAN, 9)
    assert rep.q == 34 and rep.q_next == 55 and rep.applicable
    # bound = 1 - 2*35*|34 theta - 21| = 2661 - 1190 sqrt(5), exactly
    assert rep.bound == pytest.approx(float(Quadratic(2661, -1190, 5)), abs=1e-14)
    assert rep.bound == pytest.approx(0.07910677525026127, abs=1e-12)
    assert rep.measure >= rep.bound
    assert rep.arcs.count == 20  # pinned: merged arc count at this depth
    assert rep.gap == pytest.approx(float(abs(GOLDEN_MEAN * 34 - 21)), abs=1e-15)


def test_measure_dominates_bound_along_even_indices():
    for n in (9, 12, 15):
        rep = gordon_set(GOLDEN_MEAN, n)
        assert rep.applicable and rep.bound > 0
        assert rep.measure >= rep.bound
        # report splits the circle between good and bad exactly
        bad = bad_arcs(GOLDEN_MEAN, [Quadratic(1) - GOLDEN_MEAN, Quadratic(0)], n)
        assert bad.union(rep.arcs).is_full
        assert float(bad.intersect(rep.arcs).measure) == 0.0


def three_gap_measure(theta, n):
    """Sturmian good-set measure in closed form (Steinhaus / Sos three gaps).

    The q_n + 1 bad-arc centres -j*theta cut the circle into one gap delta_n,
    q_n - q_{n-1} + 1 gaps delta_{n-1} and q_{n-1} - 1 gaps
    delta_n + delta_{n-1}, with delta_k = |q_k theta - p_k|.  Arcs of radius
    delta_n leave max(gap - 2 delta_n, 0) of each gap.
    """
    cf = continued_fraction(theta, n + 1)
    q, q_prev = cf.q[n], cf.q[n - 1]
    delta = abs(theta * q - cf.p[n])
    delta_prev = abs(theta * q_prev - cf.p[n - 1])
    short = max(delta_prev - 2 * delta, Quadratic(0))
    return (q - q_prev + 1) * short + (q_prev - 1) * (delta_prev - delta)


@pytest.mark.parametrize(
    "theta, n",
    [pytest.param(GOLDEN_MEAN, n, id=f"golden-{n}") for n in (6, 9, 12, 15, 20)]
    + [pytest.param(SQRT2_MINUS_1, n, id=f"sqrt2-1-{n}") for n in (4, 7, 8)]
    + [pytest.param(FAST_THETA, n, id=f"fast-{n}") for n in (3, 4)],
)
@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_sturmian_measure_matches_three_gap_closed_form(theta, n):
    rep = gordon_set(theta, n)
    expected = three_gap_measure(theta, n)
    assert isinstance(rep.arcs.measure, Quadratic)
    assert rep.arcs.measure == expected
    assert rep.measure == float(expected)


def test_admissible_phases_pass_membership():
    rep = gordon_set(GOLDEN_MEAN, 9)
    rng = np.random.default_rng(2026)
    for b in rep.arcs.sample_interior(12, 1e-9, rng):
        assert verify_membership(GOLDEN_MEAN, Fraction(float(b)), 9)


def test_orbit_centers_are_excluded():
    rep = gordon_set(GOLDEN_MEAN, 9)
    for j in (1, 7, 35):
        assert not rep.arcs.contains((-GOLDEN_MEAN * j).frac())


def test_exact_and_mpf_routes_agree():
    with mpmath.workdps(50):
        th = (mpmath.sqrt(5) - 1) / 2
    exact = gordon_set(GOLDEN_MEAN, 9)
    approx = gordon_set(th, 9)
    assert approx.arcs.count == exact.arcs.count
    assert approx.measure == pytest.approx(exact.measure, abs=1e-12)
    assert approx.bound == pytest.approx(exact.bound, abs=1e-12)


@pytest.mark.parametrize("n", [12, 20, 24])
@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_decimal_theta_runs_at_conversion_precision(n):
    # 55 digits of the golden mean, read as the exact rational they spell:
    # it lies within 1e-55 of the golden mean, so every centre and gap moves
    # by less than q_n * 1e-55 and the decimal route lands on the exact
    # route's floats
    decimal = parse_theta("0.6180339887498948482045868343656381177203091798057628621")
    approx = gordon_set(decimal, n)
    exact = gordon_set(GOLDEN_MEAN, n)
    assert approx.measure == exact.measure
    assert approx.arcs.count == exact.arcs.count
    assert approx.arcs.as_dict() == exact.arcs.as_dict()


def test_odd_denominator_flags_inapplicable():
    with pytest.warns(UserWarning):
        rep = gordon_set(GOLDEN_MEAN, 4)  # q_4 = 3
    assert not rep.applicable
    with pytest.raises(ValidationError):
        verify_membership(GOLDEN_MEAN, Fraction(1, 3), 4)


def test_rotation_coding_mode_bound():
    rep = gordon_set(
        FAST_THETA,
        4,
        mode="coding",
        interval=(Quadratic(Fraction(1, 10)), Quadratic(Fraction(2, 5))),
    )
    assert rep.bound_kind == "rotation-coding"
    assert rep.bound > 0  # 1 - 4 q_n / q_{n+1} with quotients 8
    assert rep.measure >= rep.bound
    cf = continued_fraction(FAST_THETA, 6)
    assert rep.bound == pytest.approx(1 - 4 * cf.q[4] / cf.q[5], abs=1e-12)


def test_mode_validation():
    with pytest.raises(ValidationError):
        gordon_set(GOLDEN_MEAN, 9, mode="sturmian", interval=(0, Fraction(1, 2)))
    with pytest.raises(ValidationError):
        gordon_set(GOLDEN_MEAN, 9, mode="coding")
    with pytest.raises(ValidationError):
        gordon_set(GOLDEN_MEAN, 9, mode="banded")


def test_monte_carlo_measure_sanity():
    rep = gordon_set(GOLDEN_MEAN, 9)
    mc = monte_carlo_measure(rep.arcs, 20000, np.random.default_rng(5))
    assert abs(mc["estimate"] - rep.measure) < 4 * mc["sigma"]
    with pytest.raises(ValidationError):
        monte_carlo_measure(rep.arcs, 0, np.random.default_rng(5))


def test_golden_limits_deep_and_shallow():
    rep = golden_limits(30)
    assert rep.ratio_target == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)
    assert rep.scaled_gap_target == pytest.approx(1 / math.sqrt(5), abs=1e-15)
    assert abs(rep.ratio_error) < 1e-10
    assert abs(rep.scaled_gap_error) < 1e-6
    shallow = golden_limits(1)
    assert shallow.ratio == 1.0  # raw values, no convergence claim
    with pytest.raises(ValidationError):
        golden_limits(0)
