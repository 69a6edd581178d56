"""Exact quadratic-field arithmetic: ordering, floor, conversion accuracy."""

from fractions import Fraction

import mpmath
import pytest

from cmvsubshift.errors import RationalThetaError, ValidationError
from cmvsubshift.quadratic import (
    GOLDEN_MEAN,
    SQRT2_MINUS_1,
    Quadratic,
    continued_fraction_terms,
    parse_theta,
)


def test_golden_mean_algebra():
    th = GOLDEN_MEAN
    assert th * th == 1 - th
    assert 1 / th == th + 1
    assert abs(float(th) - 0.6180339887498949) < 1e-15


def test_sqrt2_minus_1_algebra():
    x = SQRT2_MINUS_1
    assert x * x + 2 * x - 1 == Quadratic(0)
    assert 1 / x == x + 2


def test_perfect_square_radicand_folds_to_rational():
    x = Quadratic(1, 2, 9)
    assert x.is_rational and x == Quadratic(7)


def test_exact_ordering_beats_float_ties():
    th = GOLDEN_MEAN
    assert Fraction(1, 2) < th < Fraction(2, 3)
    # 0.6180339887 < theta < 0.6180339888
    assert th > Fraction(6180339887, 10**10)
    assert th < Fraction(6180339888, 10**10)
    assert (th - th).sign() == 0


def test_floor_and_frac():
    th = GOLDEN_MEAN
    import math

    assert math.floor(th) == 0
    assert math.floor(-th) == -1
    assert math.floor(5 * th) == 3
    fr = (37 * th).frac()
    assert Quadratic(0) <= fr < Quadratic(1)
    assert (Quadratic(Fraction(7, 2))).frac() == Quadratic(Fraction(1, 2))


def test_mixed_radicands_rejected():
    with pytest.raises(ValidationError):
        Quadratic(0, 1, 5) + Quadratic(0, 1, 2)


def test_conversion_matches_high_precision_reference():
    with mpmath.workdps(60):
        ref = (mpmath.sqrt(5) - 1) / 2
    assert float(GOLDEN_MEAN) == float(ref)


def test_tiny_difference_survives_conversion():
    # |q_n*theta - p_n| at depth 30 is ~1e-13; binary64 evaluation of the
    # difference loses most digits, the exact route must not.
    th = GOLDEN_MEAN
    fib = [0, 1]
    while len(fib) < 33:
        fib.append(fib[-1] + fib[-2])
    q30, p30 = fib[30], fib[29]
    gap = abs(q30 * th - p30)
    with mpmath.workdps(60):
        ref = abs(q30 * (mpmath.sqrt(5) - 1) / 2 - p30)
        got = mpmath.mpf(float(gap))
        assert abs(got - ref) / ref < 1e-13
    naive = abs(q30 * float(th) - p30)
    assert abs(naive - float(ref)) / float(ref) > 1e-8  # the trap is real


def test_parse_theta():
    assert parse_theta("golden") == GOLDEN_MEAN
    assert parse_theta("sqrt2-1") == SQRT2_MINUS_1
    val = parse_theta("0.437")
    assert 0 < val < 1
    with pytest.raises(ValidationError):
        parse_theta("1.5")
    with pytest.raises(ValidationError):
        parse_theta("no-such-number")


def test_continued_fraction_terms_exact():
    assert continued_fraction_terms(GOLDEN_MEAN, 10) == [0] + [1] * 9
    assert continued_fraction_terms(SQRT2_MINUS_1, 6) == [0, 2, 2, 2, 2, 2]
    assert continued_fraction_terms(Fraction(5, 8), 5) == [0, 1, 1, 1, 2]
    with pytest.raises(RationalThetaError):
        continued_fraction_terms(Fraction(5, 8), 6)


def test_continued_fraction_terms_mpf_matches_exact():
    with mpmath.workdps(50):
        th = (mpmath.sqrt(5) - 1) / 2
    assert continued_fraction_terms(th, 30) == [0] + [1] * 29
    with pytest.raises(RationalThetaError):
        continued_fraction_terms(0.5, 4)
