"""Symbolic sequences: substitution words, rotation codings, block conditions.

Everything downstream reads Verblunsky coefficients off two-letter words, so
this module owns the combinatorial side: substitution rules and their fixed
points, circle-rotation codings (Sturmian words as the special case), the
continued-fraction data of a rotation number, and the repetition ("block")
checks that the Gordon criteria need.  Circle positions are exact: a
rotation number, phase or arc endpoint is read once with
``quadratic.exact``, so a decimal input is the rational it spells.

Indexing follows the operator convention: word positions are 1-based, and
two-sided windows carry their own offset so that position j of the window is
position j of the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ResourceCapError, ValidationError
from .quadratic import Quadratic, continued_fraction_terms, exact

ALPHABET = ("a", "b")

# Hard ceiling on materialized word length; deep substitution levels grow
# exponentially and should fail loudly instead of eating the machine.
DEFAULT_WORD_CAP = 1 << 22


class Word:
    """Immutable word over {a, b} with 1-based positions."""

    __slots__ = ("text",)

    def __init__(self, letters: Union[str, "Word", Iterable[str]]):
        if isinstance(letters, Word):
            text = letters.text
        elif isinstance(letters, str):
            text = letters
        else:
            text = "".join(letters)
        if not text:
            raise ValidationError("empty word")
        bad = set(text) - set(ALPHABET)
        if bad:
            raise ValidationError(f"letters outside alphabet: {sorted(bad)}")
        self.text = text

    def letter(self, i: int) -> str:
        """Letter at 1-based position i."""
        if not 1 <= i <= len(self.text):
            raise ValidationError(f"position {i} outside word of length {len(self.text)}")
        return self.text[i - 1]

    def __len__(self):
        return len(self.text)

    def __iter__(self):
        return iter(self.text)

    def __eq__(self, other):
        if isinstance(other, Word):
            return self.text == other.text
        if isinstance(other, str):
            return self.text == other
        return NotImplemented

    def __hash__(self):
        return hash(self.text)

    def __add__(self, other):
        return Word(self.text + Word(other).text)

    def startswith(self, other) -> bool:
        return self.text.startswith(Word(other).text)

    def __repr__(self):
        if len(self.text) <= 32:
            return f"Word({self.text!r})"
        return f"Word({self.text[:29]!r}..., len={len(self.text)})"


@dataclass(frozen=True)
class SubstitutionRule:
    """A substitution on {a, b}, S(a) = image_a, S(b) = image_b.

    image_a must start with 'a' and have length >= 2 so that the iterates
    S^n(a) are nested prefixes of a one-sided fixed point, and 'b' must be
    reachable from 'a' (otherwise the subshift is trivial).
    """

    image_a: str
    image_b: str

    def __post_init__(self):
        wa, wb = Word(self.image_a), Word(self.image_b)
        object.__setattr__(self, "image_a", wa.text)
        object.__setattr__(self, "image_b", wb.text)
        if not self.image_a.startswith("a") or len(self.image_a) < 2:
            raise ValidationError(
                "image of 'a' must start with 'a' and have length >= 2"
            )
        probe = "a"
        for _ in range(6):
            if "b" in probe:
                break
            probe = self.apply(probe)
        else:
            raise ValidationError("'b' is unreachable from 'a' under this rule")

    def image(self, letter: str) -> str:
        if letter == "a":
            return self.image_a
        if letter == "b":
            return self.image_b
        raise ValidationError(f"letter {letter!r} outside alphabet")

    def apply(self, word: Union[str, Word]) -> str:
        return "".join(self.image(c) for c in Word(word).text)


PERIOD_DOUBLING = SubstitutionRule("ab", "aa")
FIBONACCI = SubstitutionRule("ab", "a")
THUE_MORSE = SubstitutionRule("ab", "ba")

NAMED_RULES = {
    "period-doubling": PERIOD_DOUBLING,
    "fibonacci": FIBONACCI,
    "thue-morse": THUE_MORSE,
}


def substitution_word(
    rule: SubstitutionRule, letter: str, level: int, cap: int = DEFAULT_WORD_CAP
) -> Word:
    """S^level(letter) as a Word; level 0 gives the letter itself."""
    if level < 0:
        raise ValidationError("substitution level must be >= 0")
    w = Word(letter).text
    for _ in range(level):
        grown = rule.apply(w)
        if len(grown) > cap:
            raise ResourceCapError(
                f"substitution word would exceed cap of {cap} letters"
            )
        w = grown
    return Word(w)


def fixed_point_prefix(
    rule: SubstitutionRule, level: int, cap: int = DEFAULT_WORD_CAP
) -> Word:
    """The prefix S^level(a) of the substitution fixed point."""
    return substitution_word(rule, "a", level, cap=cap)


# ---------------------------------------------------------------------------
# rotation codings
# ---------------------------------------------------------------------------


def coding_arc(lo, hi) -> tuple:
    """The coding arc [lo, hi) on the circle, as exact (lo, hi) reduced to
    [0, 1), except that hi = 1 stays 1, so [0, 1) is the whole circle.  An
    arc whose ends coincide mod 1 has zero length and is rejected."""
    hi = exact(hi)
    lo = exact(lo).frac()
    hi = hi if hi == 1 else hi.frac()
    if lo == hi:
        raise ValidationError("coding arc must have positive length")
    return lo, hi


class RotationCoding:
    """Letters read off an irrational rotation through a half-open arc.

    Position n maps to the circle point n*theta + beta (mod 1); the letter is
    'a' when the point lands in [lo, hi) (interpreted with wraparound when
    lo > hi) and 'b' otherwise.  Every input is read with ``exact``, so every
    membership test is exact.
    """

    def __init__(self, theta, beta, lo, hi):
        if isinstance(theta, Quadratic) and theta.is_rational:
            raise ValidationError("rotation number must be irrational")
        self.theta = exact(theta).frac()
        self.beta = exact(beta).frac()
        self.lo, self.hi = coding_arc(lo, hi)

    def position(self, n: int) -> Quadratic:
        """Circle point n*theta + beta reduced to [0, 1)."""
        return (self.theta * n + self.beta).frac()

    def arc_contains(self, x) -> bool:
        if self.lo < self.hi:
            return self.lo <= x < self.hi
        return x >= self.lo or x < self.hi

    def letter(self, n: int) -> str:
        return "a" if self.arc_contains(self.position(n)) else "b"

    def window(self, lo: int, hi: int) -> "Window":
        if hi < lo:
            raise ValidationError("window range is empty")
        return Window([self.letter(n) for n in range(lo, hi + 1)], lo)


def sturmian_coding(theta, beta) -> RotationCoding:
    """The Sturmian coding: arc [1 - theta, 1), inside letter 'a'."""
    return RotationCoding(theta, beta, 1 - exact(theta), 1)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_n and convergent data p_n/q_n of a rotation number.

    Arrays share one indexing: a[0] is the integer part (zero here), and the
    denominators satisfy q_0 = 0, q_1 = 1, q_{n+1} = a_{n} q_n + q_{n-1},
    with the numerators running p_0 = 1, p_1 = a_0 under the same recursion.
    """

    a: tuple
    p: tuple
    q: tuple

    @property
    def depth(self) -> int:
        return len(self.a)

    def convergent(self, n: int) -> Fraction:
        if not 1 <= n < self.depth:
            raise ValidationError(f"convergent index {n} out of range")
        return Fraction(self.p[n], self.q[n])


def continued_fraction(theta, depth: int) -> ContinuedFraction:
    """Expand theta in (0,1) to the given depth (number of stored indices)."""
    terms = continued_fraction_terms(theta, depth)
    a = list(terms)
    p = [1] * depth
    q = [0] * depth
    if depth >= 2:
        p[1] = a[0]
        q[1] = 1
    for n in range(1, depth - 1):
        p[n + 1] = a[n] * p[n] + p[n - 1]
        q[n + 1] = a[n] * q[n] + q[n - 1]
    return ContinuedFraction(tuple(a), tuple(p), tuple(q))


def even_q_indices(cf: ContinuedFraction, min_index: int = 1) -> list:
    """Indices n >= min_index whose denominator q_n is even."""
    return [n for n in range(min_index, cf.depth) if cf.q[n] % 2 == 0]


# ---------------------------------------------------------------------------
# windows and block conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Values attached to a contiguous range of integer positions."""

    values: Sequence
    lo: int
    hi: int = field(init=False)

    def __post_init__(self):
        values = tuple(self.values)
        if not values:
            raise ValidationError("empty window")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "hi", self.lo + len(values) - 1)

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def __getitem__(self, n: int):
        if not self.lo <= n <= self.hi:
            raise ValidationError(f"position {n} outside window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def text(self) -> str:
        return "".join(str(v) for v in self.values)


def check_two_block(window: Window, n: int) -> bool:
    """Does the window satisfy w(j) == w(j + n) for 1 <= j <= n?"""
    if n < 1:
        raise ValidationError("block length must be >= 1")
    if not window.covers(1, 2 * n):
        raise ValidationError("window too short: two-block check reads positions 1..2n")
    return all(window[j] == window[j + n] for j in range(1, n + 1))


def check_three_block(window: Window, n: int) -> bool:
    """Does the window satisfy w(j - n) == w(j) == w(j + n) for 1 <= j <= n?"""
    if n < 1:
        raise ValidationError("block length must be >= 1")
    if not window.covers(1 - n, 2 * n):
        raise ValidationError(
            "window too short: three-block check reads positions 1-n..2n"
        )
    return all(
        window[j - n] == window[j] == window[j + n] for j in range(1, n + 1)
    )
