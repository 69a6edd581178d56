"""Substitution words, rotation codings, continued-fraction data, block checks."""

from fractions import Fraction

import mpmath
import pytest

from cmvsubshift.errors import (
    RationalThetaError,
    ResourceCapError,
    ValidationError,
)
from cmvsubshift.quadratic import GOLDEN_MEAN, SQRT2_MINUS_1, Quadratic
from cmvsubshift.words import (
    FIBONACCI,
    PERIOD_DOUBLING,
    THUE_MORSE,
    RotationCoding,
    SubstitutionRule,
    Window,
    Word,
    check_three_block,
    check_two_block,
    continued_fraction,
    even_q_indices,
    fixed_point_prefix,
    sturmian_coding,
    substitution_word,
)
from reference import quadratic_mpf


def test_word_positions_are_one_based():
    w = Word("abba")
    assert w.text[0] == "a" and w.text[3] == "a"
    assert len(w) == 4 and w.text == "abba"
    with pytest.raises(ValidationError):
        Word("abc")


def test_named_substitution_prefixes():
    assert fixed_point_prefix(PERIOD_DOUBLING, 3).text == "abaaabab"
    assert fixed_point_prefix(FIBONACCI, 3).text == "abaab"
    assert fixed_point_prefix(THUE_MORSE, 2).text == "abba"
    assert substitution_word(PERIOD_DOUBLING, "b", 2).text == "abab"


def test_period_doubling_lengths_and_prefix_coherence():
    prev = fixed_point_prefix(PERIOD_DOUBLING, 0)
    for n in range(1, 10):
        cur = fixed_point_prefix(PERIOD_DOUBLING, n)
        assert len(cur) == 2**n
        assert cur.text.startswith(prev.text)
        prev = cur


def test_rule_validation():
    with pytest.raises(ValidationError):
        SubstitutionRule("ba", "aa")  # image of a must start with a
    with pytest.raises(ValidationError):
        SubstitutionRule("a", "b")  # too short to extend prefixes
    with pytest.raises(ValidationError):
        SubstitutionRule("aa", "ab")  # b unreachable from a


def test_word_cap_enforced():
    with pytest.raises(ResourceCapError):
        fixed_point_prefix(PERIOD_DOUBLING, 12, cap=1000)


def test_continued_fraction_golden():
    cf = continued_fraction(GOLDEN_MEAN, 10)
    assert cf.a == (0,) + (1,) * 9
    assert cf.q == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)
    assert cf.p == (1, 0, 1, 1, 2, 3, 5, 8, 13, 21)
    assert Fraction(cf.p[5], cf.q[5]) == Fraction(3, 5)
    assert even_q_indices(cf) == [3, 6, 9]


def test_continued_fraction_sqrt2_minus_1():
    cf = continued_fraction(SQRT2_MINUS_1, 7)
    assert cf.a == (0, 2, 2, 2, 2, 2, 2)
    assert cf.q == (0, 1, 2, 5, 12, 29, 70)
    assert cf.p == (1, 0, 1, 2, 5, 12, 29)
    assert even_q_indices(cf) == [2, 4, 6]
    assert even_q_indices(cf, min_index=3) == [4, 6]


def test_convergents_are_best_approximations():
    for theta in (GOLDEN_MEAN, SQRT2_MINUS_1):
        cf = continued_fraction(theta, 12)
        for n in range(1, 11):
            gap = abs(theta * cf.q[n] - cf.p[n])
            assert gap < Quadratic(Fraction(1, cf.q[n + 1]))


def test_rational_theta_rejected():
    with pytest.raises(RationalThetaError):
        continued_fraction(Fraction(3, 7), 10)


def test_sturmian_equals_fibonacci_fixed_point():
    coding = sturmian_coding(GOLDEN_MEAN, 0)
    assert coding.window(1, 8).text() == "abaababa"
    prefix = fixed_point_prefix(FIBONACCI, 12).text  # 233 letters
    n = len(prefix)
    assert coding.window(1, n).text() == prefix
    # shifting the phase by theta shifts the evaluation index by one
    shifted = sturmian_coding(GOLDEN_MEAN, GOLDEN_MEAN)
    assert shifted.window(0, n - 1).text() == prefix


def test_exact_and_float_codings_agree():
    with mpmath.workdps(50):
        th = (mpmath.sqrt(5) - 1) / 2
    exact = sturmian_coding(GOLDEN_MEAN, Fraction(1, 3))
    approx = sturmian_coding(th, Fraction(1, 3))
    assert exact.window(1, 400).text() == approx.window(1, 400).text()


def test_coding_arc_membership_is_half_open():
    # position 0 of the beta = 1 - theta coding sits exactly on the left
    # endpoint of [1 - theta, 1), which counts as inside
    coding = sturmian_coding(GOLDEN_MEAN, Quadratic(1) - GOLDEN_MEAN)
    assert coding.letter(0) == "a"
    generic = RotationCoding(GOLDEN_MEAN, 0, Fraction(1, 4), Fraction(3, 4))
    assert generic.letter(0) == "b"  # 0 outside [1/4, 3/4)
    with pytest.raises(ValidationError):
        RotationCoding(GOLDEN_MEAN, 0, Fraction(1, 4), Fraction(1, 4))
    with pytest.raises(ValidationError):
        RotationCoding(Quadratic(Fraction(2, 5)), 0, 0, Fraction(1, 2))


@pytest.mark.parametrize("quadratic", [GOLDEN_MEAN, SQRT2_MINUS_1])
def test_decimal_sturmian_coding_resolves_its_endpoint(quadratic):
    # a 50-digit mpmath theta is read as its exact binary value, so the arc
    # [1 - theta, 1) is exact: a phase on its left endpoint reads inside and
    # one 1e-40 below reads outside
    theta = quadratic_mpf(quadratic, 50)
    with mpmath.workdps(50):
        on_edge = 1 - theta
        below = on_edge - mpmath.mpf(10) ** -40
    assert sturmian_coding(theta, on_edge).letter(0) == "a"
    assert sturmian_coding(theta, below).letter(0) == "b"


def test_window_block_checks():
    w = Window(list("abab" * 3), 1)
    assert check_two_block(w, 2)
    assert check_two_block(w, 4)
    assert not check_two_block(Window(list("aabbaba b".replace(" ", "")), 1), 4)
    with pytest.raises(ValidationError):
        check_two_block(w, 7)  # needs positions up to 14

    two_sided = Window(list("ababababab"), -3)  # positions -3..6
    assert check_three_block(two_sided, 2)
    assert not check_three_block(Window(list("abababbbab"), -3), 2)
    with pytest.raises(ValidationError):
        check_three_block(two_sided, 4)  # needs positions up to 8
