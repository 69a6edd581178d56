"""Gordon phase sets: bad arcs, measure bounds, membership, golden asymptotics."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cmvsubshift import cli
from cmvsubshift import gordon as gordon_module
from cmvsubshift.errors import ValidationError
from cmvsubshift.gordon import (
    _endpoint_floats,
    _orbit_segments,
    _quadratics,
    _round_numerators,
    bad_arcs,
    convergent_gap,
    golden_limits,
    gordon_set,
    monte_carlo_measure,
    verify_membership,
)
from cmvsubshift.errors import RationalThetaError
from cmvsubshift.quadratic import GOLDEN_MEAN, SQRT2_MINUS_1, Quadratic, parse_theta
from cmvsubshift.words import continued_fraction
from reference import sweep_bad_arcs, sweep_good_arcs

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
    [pytest.param(GOLDEN_MEAN, n, id=f"golden-{n}") for n in (6, 9, 12, 15, 20, 24, 27)]
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
    # verify_membership resolves (mode, interval) the same way
    beta = Fraction(1, 3)
    with pytest.raises(ValidationError, match="drop the interval"):
        verify_membership(GOLDEN_MEAN, beta, 9, mode="sturmian", interval=(0, Fraction(1, 2)))
    with pytest.raises(ValidationError):
        verify_membership(GOLDEN_MEAN, beta, 9, mode="coding")
    with pytest.raises(ValidationError):
        verify_membership(GOLDEN_MEAN, beta, 9, mode="banded")
    # the Sturmian coding is the rotation coding of [1 - theta, 1)
    for beta in (Fraction(1, 3), Fraction(5, 7), 1 - 3 * GOLDEN_MEAN):
        sturmian = verify_membership(GOLDEN_MEAN, beta, 9)
        assert sturmian == verify_membership(GOLDEN_MEAN, beta, 9, "coding", (1 - GOLDEN_MEAN, 1))


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


def test_golden_limits_match_a_400_digit_reference():
    # q_d = F_d and p_d = F_{d-1} for the golden mean; at 400 digits the
    # cancellation in F_d theta - F_{d-1} (about 2d/5 digits by depth 150)
    # and the errors (down to about 1e-63) are resolved many times over
    fib = [0, 1]
    while len(fib) < 153:
        fib.append(fib[-1] + fib[-2])
    with mpmath.workdps(400):
        theta = (mpmath.sqrt(5) - 1) / 2
        ratio_target = (1 + mpmath.sqrt(5)) / 2
        scaled_target = 1 / mpmath.sqrt(5)
        for d in range(1, 151):
            ratio = mpmath.mpf(fib[d + 1]) / fib[d]
            scaled = fib[d] * abs(fib[d] * theta - fib[d - 1])
            want = (ratio, ratio_target, ratio - ratio_target,
                    scaled, scaled_target, scaled - scaled_target)
            rep = golden_limits(d)
            got = (rep.ratio, rep.ratio_target, rep.ratio_error,
                   rep.scaled_gap, rep.scaled_gap_target, rep.scaled_gap_error)
            assert rep.depth == d
            assert got == tuple(float(x) for x in want), d


# -- the rotation-order construction against the generic sweep route -------


def assert_matches_sweeps(theta, n, mode, interval=None):
    """gordon_set gives the sweep route's arcs and measure, exactly."""
    cf = continued_fraction(theta, n + 2)
    want = sweep_good_arcs(theta, cf, n, mode, interval)
    got = gordon_set(theta, n, mode, interval).arcs
    assert got.arcs == want.arcs
    assert got.measure == want.measure
    return got


@pytest.mark.parametrize(
    "theta, top",
    [pytest.param(GOLDEN_MEAN, 16, id="golden"), pytest.param(SQRT2_MINUS_1, 10, id="sqrt2-1")],
)
@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_sturmian_sets_match_sweeps(theta, top):
    # every index up to q = 987 (golden) and q = 2,378 (sqrt2-1)
    for n in range(1, top + 1):
        assert_matches_sweeps(theta, n, "sturmian")


@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_decimal_theta_sets_match_sweeps():
    # seeded decimals of 20-60 digits, Sturmian and coding mode, every index
    # with q <= 600
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(8):
        digits = int(rng.integers(20, 61))
        theta = Fraction(int(rng.integers(1, 10**9)) * 10 ** (digits - 9) + int(rng.integers(10**9)), 10**digits)
        try:
            cf = continued_fraction(theta, 14)
        except RationalThetaError:
            continue
        for n in range(1, 12):
            if cf.q[n] > 600:
                break
            assert_matches_sweeps(theta, n, "sturmian")
            lo, hi = (Fraction(int(x), 1000) for x in rng.integers(0, 1000, 2))
            if lo != hi:
                assert_matches_sweeps(theta, n, "coding", (lo, hi))
            checked += 1
    assert checked >= 40


@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_coding_sets_match_sweeps_across_zero():
    # intervals with lo > hi, and good arcs on either side of 0 or across it
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(60):
        lo, hi = (Fraction(int(x), 1000) for x in rng.integers(0, 1000, 2))
        if lo == hi:
            continue
        for theta, n in ((GOLDEN_MEAN, 8), (SQRT2_MINUS_1, 5), (FAST_THETA, 3)):
            arcs = assert_matches_sweeps(theta, n, "coding", (lo, hi)).arcs
            seen.add(("lo > hi", lo > hi))
            if not arcs:
                continue
            seen.add(("starts at 0", arcs[0][0] == 0))
            seen.add(("ends at 1", arcs[-1][1] == 1))
    assert seen == {(kind, flag) for kind in ("lo > hi", "starts at 0", "ends at 1") for flag in (True, False)}


@pytest.mark.parametrize(
    "theta, n",
    [pytest.param(GOLDEN_MEAN, n, id=f"golden-{n}") for n in (1, 2, 5, 9, 12)]
    + [pytest.param(SQRT2_MINUS_1, n, id=f"sqrt2-1-{n}") for n in (1, 4, 7)]
    + [pytest.param(Fraction(6180339887, 10**10), n, id=f"decimal-{n}") for n in (3, 8)],
)
def test_bad_arcs_merge_shared_and_coincident_centres(theta, n):
    cf = continued_fraction(theta, n + 2)
    theta_q = Quadratic(theta) if isinstance(theta, Fraction) else theta
    cases = [
        (1 - theta_q, 0),  # the Sturmian endpoints: q - 1 centres coincide
        (0, 1 - theta_q),
        (0, -5 * theta_q),  # q - 5 coincide, merged from two orbits
        (Fraction(1, 3), Fraction(1, 3) - 2 * theta_q, Fraction(1, 3) - theta_q),
        (0, 1),  # equal mod 1: one orbit
    ]
    for endpoints in cases:
        want = sweep_bad_arcs(theta, endpoints, cf, n)
        got = bad_arcs(theta, endpoints, n, cf=cf)
        assert got.arcs == want.arcs, endpoints
        assert got.measure == want.measure


def test_coding_arc_of_zero_length_is_rejected():
    for interval in ((Fraction(3, 10), Fraction(3, 10)), (Fraction(3, 10), Fraction(13, 10))):
        with pytest.raises(ValidationError, match="positive length"):
            gordon_set(GOLDEN_MEAN, 9, mode="coding", interval=interval)
    # [0, 1) is the whole circle, as for the coding itself
    assert gordon_set(GOLDEN_MEAN, 9, mode="coding", interval=(0, 1)).arcs.count > 0


def continued_fraction_value(terms):
    """[0; a_1, a_2, ...] as an exact Fraction."""
    x = Fraction(0)
    for a in reversed(terms):
        x = 1 / (a + x)
    return x


@pytest.mark.parametrize(
    "theta, top",
    [(GOLDEN_MEAN, 10), (SQRT2_MINUS_1, 8), (FAST_THETA, 4)],
    ids=["golden", "sqrt2-1", "fast"],
)
def test_bad_arcs_at_exact_ties(theta, top):
    tiny = Fraction(1, 10**30)
    for n in range(2, top + 1):
        cf = continued_fraction(theta, n + 2)
        r = convergent_gap(theta, cf, n)
        cases = [
            (0, 2 * r),  # a gap of exactly 2r: the two bad arcs touch
            (Fraction(1, 2), 2 * r - tiny),
            (3 * theta, Fraction(1, 2)),  # a center at 0 exactly
            (3 * theta + tiny, Fraction(1, 2)),  # and within a float of it
            (3 * theta - tiny, Fraction(1, 2)),
            (theta - r,),  # a bad arc ending at 1 exactly
            (theta + r,),  # and one starting at 0
            (theta + r, Fraction(7, 10)),
        ]
        for endpoints in cases:
            want = sweep_bad_arcs(theta, endpoints, cf, n)
            got = bad_arcs(theta, endpoints, n, cf=cf)
            assert got.arcs == want.arcs, (n, endpoints)
            assert got.measure == want.measure
            assert got.complement().arcs == want.complement().arcs


@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_sets_match_sweeps_below_float_resolution():
    # a huge partial quotient a_{n+1} makes r = |q_n theta - p_n| < 1/q_{n+1}
    # far smaller than a float key's error: the Sturmian centers i = 0 and
    # i = q_n are too close for their keys to order, and so is a center
    # within 10r of 0 for its float to give its floor
    for terms in ([40, 2, 10**17, 3, 3, 3], [1, 1, 2, 10**15, 3, 3], [2, 2, 2, 2, 2, 10**15, 3, 3]):
        theta = continued_fraction_value(terms)
        cf = continued_fraction(theta, len(terms))
        for n in range(1, len(terms) - 1):
            if cf.q[n] > 1000:
                break
            assert_matches_sweeps(theta, n, "sturmian")
            assert_matches_sweeps(theta, n, "coding", (Fraction(0), Fraction(1, 2)))
            r = convergent_gap(theta, cf, n)
            for endpoints in ((1 - theta, 0, Fraction(1, 3)), (theta - 10 * r,), (theta + 10 * r,)):
                want = sweep_bad_arcs(theta, endpoints, cf, n)
                got = bad_arcs(theta, endpoints, n, cf=cf)
                assert got.arcs == want.arcs, (terms, n, endpoints)
                assert got.measure == want.measure


def test_sturmian_endpoints_make_one_orbit_segment():
    q = 34
    start = (1 - GOLDEN_MEAN).frac()  # -theta mod 1
    for endpoints in ((1 - GOLDEN_MEAN, 0), (0, 1 - GOLDEN_MEAN), (1 - GOLDEN_MEAN, 0, 1)):
        assert _orbit_segments(GOLDEN_MEAN, endpoints, q) == [(start, q + 1)]
    assert len(_orbit_segments(GOLDEN_MEAN, (0, Fraction(1, 2)), q)) == 2


def test_gordon_cli_outputs_match_pinned_hashes():
    # a subprocess, so that the "q_n is odd" warnings the hashes cover reach
    # stderr instead of pytest's warning capture; exact arithmetic and PCG64
    # make these bytes the same on every platform
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "tools", "pinned_outputs.txt"), encoding="utf-8") as fh:
        names = [line.split()[1] for line in fh if line.split()[1].startswith("gordon-")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "pinned_outputs.py"), "--check", *names],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"{len(names)} of {len(names)} configs match" in proc.stderr


# -- endpoint floats rounded on the numerator arrays --------------------------

GOLDEN_55 = "0.6180339887498948482045868343656381177203091798057628621"


def assert_floats_are_rounded_exact_endpoints(arcs):
    los, his = arcs._float_endpoints()
    assert los == [float(lo) for lo, _ in arcs.arcs]
    assert his == [float(hi) for _, hi in arcs.arcs]


@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_endpoint_floats_equal_the_rounded_exact_endpoints(monkeypatch):
    rounded = []

    def recording(a, b, den, d):
        f, certified = _round_numerators(a, b, den, d)
        rounded.append(certified)
        return f, certified

    monkeypatch.setattr(gordon_module, "_round_numerators", recording)
    for theta, top in ((GOLDEN_MEAN, 24), (SQRT2_MINUS_1, 10)):
        for n in range(1, top + 1):
            assert_floats_are_rounded_exact_endpoints(gordon_set(theta, n).arcs)
    # seeded coding intervals, some across 0 (lo > hi)
    rng = np.random.default_rng(14)
    coded = across = 0
    for k in range(12):
        lo, hi = (Fraction(int(x), 1000) for x in rng.integers(0, 1000, 2))
        if lo == hi:
            continue
        coded += 1
        across += lo > hi
        theta, n = ((GOLDEN_MEAN, 13), (SQRT2_MINUS_1, 8))[k % 2]
        assert_floats_are_rounded_exact_endpoints(gordon_set(theta, n, "coding", (lo, hi)).arcs)
    assert coded >= 10 and across >= 3
    # on every int64 set above, each float came from the arrays
    assert rounded and all(certified.all() for certified in rounded)
    # a rational endpoint is one int division, on int64 numerators (ten
    # digits) as on the object arrays of the 55-digit decimal
    rounded.clear()
    for n in (9, 16, 24):
        assert_floats_are_rounded_exact_endpoints(gordon_set(Fraction(6180339887, 10**10), n).arcs)
    assert_floats_are_rounded_exact_endpoints(gordon_set(parse_theta(GOLDEN_55), 13).arcs)
    assert not rounded


def pell_near_integer(k):
    """(x, y) with x - y*sqrt(5) = (9 - 4 sqrt(5))^k, about 0.0557^k."""
    x, y = 1, 0
    for _ in range(k):
        x, y = 9 * x + 20 * y, 4 * x + 9 * y
    return x, y


def test_round_numerators_falls_back_next_to_a_midpoint():
    midpoint = 2**53 + 5  # between the floats 2^53 + 4 and 2^53 + 6
    cases = [
        # b = 0, exactly on a midpoint
        (midpoint, 0, 1, 5),
        (-midpoint, 0, 1, 0),
        (3 * midpoint, 0, 3, 5),
        (2**53 + 1, 0, 2**52, 0),  # 2 + 2^-52, between 2 and 2 + 2^-51
        # b = 0, (2j + 1) 2^-104 above, then below, the midpoint 2 + (2j + 1) 2^-52
        *((2**53 + 2 * j - 1, 0, 2**52 - 1, 0) for j in range(4)),
        *((2**53 + 2 * j + 3, 0, 2**52 + 1, 0) for j in range(4)),
        # b != 0, within 2^-103 (relative) of a midpoint: a + b sqrt(5) = M -+ eps
        *((midpoint - x, y, 1, 5) for x, y in map(pell_near_integer, (12, 13))),
        *((midpoint + x, -y, 1, 5) for x, y in map(pell_near_integer, (12, 13))),
    ]
    for a_k, b_k, den, d in cases:
        a, b = np.array([a_k]), np.array([b_k])
        assert not _round_numerators(a, b, den, d)[1][0], (a_k, b_k, den, d)
        value = Quadratic(Fraction(a_k, den), Fraction(b_k, den), 5)
        assert _endpoint_floats(a, b, den, d) == [float(value)]
    # within 2^-80 of a midpoint but farther than the error bound: certified,
    # and correctly rounded
    for k in (7, 8):
        x, y = pell_near_integer(k)
        for a_k, b_k in ((midpoint - x, y), (midpoint + x, -y)):
            f, certified = _round_numerators(np.array([a_k]), np.array([b_k]), 1, 5)
            assert certified[0]
            assert f[0] == float(Quadratic(a_k, b_k, 5))
    # a denominator of 2^53 or more need not be a float: every value is exact
    value = Quadratic(Fraction(1, 2**53 + 1))
    assert _endpoint_floats(np.array([1]), np.array([0]), 2**53 + 1, 0) == [float(value)]


@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_good_set_equals_the_complement_of_the_bad_arcs():
    # gordon_set builds the good arcs directly; the bad arcs are their
    # complement, and complementing those again gives the same set
    for theta, top in ((GOLDEN_MEAN, 16), (SQRT2_MINUS_1, 10)):
        for n in range(1, top + 1):
            cf = continued_fraction(theta, n + 2)
            for mode, endpoints, interval in (
                ("sturmian", (1 - theta, 0), None),
                ("coding", (Fraction(1, 10), Fraction(2, 5)), (Fraction(1, 10), Fraction(2, 5))),
                ("coding", (Fraction(9, 10), Fraction(3, 10)), (Fraction(9, 10), Fraction(3, 10))),
            ):
                good = gordon_set(theta, n, mode, interval).arcs
                # read before and after the exact arcs are listed
                before = (good.count, good.as_dict(), good.measure)
                again = bad_arcs(theta, endpoints, n, cf=cf).complement()
                assert good.arcs == again.arcs, (n, mode, interval)
                assert good.measure == again.measure
                assert (good.count, good.as_dict(), good.measure) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["--theta", "golden", "--n", "16", "--mc-samples", "1000", "--seed", "5"],
        ["--theta", "sqrt2-1", "--n", "8", "--mode", "coding", "--interval", "3/4", "2/5"],
    ],
    ids=["golden-16-mc", "coding-across-0"],
)
@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_cli_builds_exact_endpoints_of_the_first_and_last_arc_only(capsys, monkeypatch, argv):
    built = []

    def counting(a, b, den, d):
        built.append(len(a))
        return _quadratics(a, b, den, d)

    monkeypatch.setattr(gordon_module, "_quadratics", counting)
    assert cli.main(["gordon", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["arcs"]["count"] > 100
    # the JSON count reads the first and the last arc: two endpoints each
    assert sum(built) <= 4
