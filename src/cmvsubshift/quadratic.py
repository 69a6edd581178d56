"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Rotation numbers like the golden mean live in quadratic fields, and the
Gordon-set construction needs exact comparisons between points on the circle
that differ by amounts as small as |q_n * theta - p_n| ~ phi^-n.  Floating
point loses that race long before depth 30, so circle positions are kept
exactly and only converted to floats at the end.

A value is the integer triple (A + B*sqrt(d)) / C with C > 0 and
gcd(A, B, C) = 1; a rational has B = 0 and d = 0.  The triple is canonical
(sqrt(d) is irrational), so two values are equal exactly when their triples
are.

There is one arithmetic, on integers.  Ordering and sign reduce to the sign
of a + b*sqrt(d) for integers a, b, decided by comparing a^2 with b^2 d; floor
takes one integer square root.  ``float(x)`` is the correctly rounded value,
also from integer square roots (the bracket
floor(|B| sqrt(d) 2^k) <= |B| sqrt(d) 2^k < that + 1 is narrowed until both
ends round to the same float).

Every circle coordinate is read as an exact number once, at the boundary,
and all later arithmetic is this one: ``exact`` takes a Quadratic, an int, a
Fraction (a decimal literal is the rational it spells), a float or a finite
mpmath value (its exact binary value).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import RationalThetaError, ValidationError


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _exact_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b (d >= 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    # opposite signs: compare a^2 against b^2 d
    t = a * a - b * b * d
    s = (t > 0) - (t < 0)
    return s if a > 0 else -s


def _make(A: int, B: int, C: int, d: int) -> "Quadratic":
    """The value (A + B*sqrt(d)) / C, any C != 0, in canonical form."""
    if C < 0:
        A, B, C = -A, -B, -C
    g = math.gcd(A, B, C)
    if g != 1:
        A, B, C = A // g, B // g, C // g
    return _raw(A, B, C, d if B else 0)


def _raw(A: int, B: int, C: int, d: int) -> "Quadratic":
    """A Quadratic from a triple already in canonical form."""
    x = object.__new__(Quadratic)
    x.A, x.B, x.C, x.d = A, B, C, d
    return x


class Quadratic:
    """An element (A + B*sqrt(d)) / C of Q(sqrt(d)), d a positive non-square.

    Supports exact ring arithmetic, exact ordering, floor/mod-1, and correctly
    rounded float conversion.  Rationals have B == 0 and d == 0.  The
    constructor takes the rational coordinates: Quadratic(a, b, d) is
    a + b*sqrt(d).
    """

    __slots__ = ("A", "B", "C", "d")

    def __init__(self, a, b=0, d=0):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if b == 0:
            d = 0
        else:
            if not isinstance(d, int) or d <= 0:
                raise ValidationError("surd part requires a positive integer radicand")
            root = math.isqrt(d)
            if root * root == d:
                # perfect square: fold into the rational part
                a += b * root
                b = Fraction(0)
                d = 0
        C = a.denominator * b.denominator
        x = _make(a.numerator * b.denominator, b.numerator * a.denominator, C, d)
        self.A, self.B, self.C, self.d = x.A, x.B, x.C, x.d

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "Quadratic":
        if isinstance(other, Quadratic):
            if self.d and other.d and self.d != other.d:
                raise ValidationError("mixed radicands are not supported")
            return other
        if type(other) is int:
            return _raw(other, 0, 1, 0)
        x = _as_fraction(other)
        return _raw(x.numerator, 0, x.denominator, 0)

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self.A, self.C)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(d)."""
        return Fraction(self.B, self.C)

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if self.C == o.C:
            return _make(self.A + o.A, self.B + o.B, self.C, self.d or o.d)
        return _make(
            self.A * o.C + o.A * self.C, self.B * o.C + o.B * self.C, self.C * o.C, self.d or o.d
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.A, -self.B, self.C, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if self.C == o.C:
            return _make(self.A - o.A, self.B - o.B, self.C, self.d or o.d)
        return _make(
            self.A * o.C - o.A * self.C, self.B * o.C - o.B * self.C, self.C * o.C, self.d or o.d
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.d or o.d
        return _make(
            self.A * o.A + self.B * o.B * d,
            self.A * o.B + self.B * o.A,
            self.C * o.C,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        d = self.d or o.d
        norm = o.A * o.A - o.B * o.B * d
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        # multiply through by the conjugate A' - B' sqrt(d)
        return _make(
            (self.A * o.A - self.B * o.B * d) * o.C,
            (self.B * o.A - self.A * o.B) * o.C,
            self.C * norm,
            d,
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- order -------------------------------------------------------------

    def _cmp(self, o: "Quadratic") -> int:
        """Sign of self - o."""
        return _exact_sign(
            self.A * o.C - o.A * self.C, self.B * o.C - o.B * self.C, self.d or o.d
        )

    def sign(self) -> int:
        """Exact sign of the value."""
        return _exact_sign(self.A, self.B, self.d)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValidationError):
            return NotImplemented
        return self.A == o.A and self.B == o.B and self.C == o.C

    def __hash__(self):
        if self.B == 0:
            return hash(Fraction(self.A, self.C))
        return hash((self.A, self.B, self.C, self.d))

    def __lt__(self, other):
        return self._cmp(self._coerce(other)) < 0

    def __le__(self, other):
        return self._cmp(self._coerce(other)) <= 0

    def __gt__(self, other):
        return self._cmp(self._coerce(other)) > 0

    def __ge__(self, other):
        return self._cmp(self._coerce(other)) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- floor / mod 1 -----------------------------------------------------

    def __floor__(self) -> int:
        if self.B == 0:
            return self.A // self.C
        # B sqrt(d) is irrational, so it lies strictly between m and m + 1,
        # and floor((A + B sqrt(d)) / C) = floor((A + m) / C)
        m = math.isqrt(self.B * self.B * self.d)
        if self.B < 0:
            m = -m - 1
        return (self.A + m) // self.C

    def frac(self) -> "Quadratic":
        """Fractional part, exactly in [0, 1)."""
        k = math.floor(self)
        if k == 0:
            return self
        # gcd(A - kC, B, C) = gcd(A, B, C) = 1: still canonical
        return _raw(self.A - k * self.C, self.B, self.C, self.d)

    # -- conversion --------------------------------------------------------

    def __float__(self) -> float:
        A, B, C = self.A, self.B, self.C
        if B == 0:
            return A / C  # int true division rounds correctly
        # A 2^k + B sqrt(d) 2^k lies strictly between lo and lo + 1; start k
        # where that bracket is ~2^-80 of the larger term and double until it
        # rounds to one float (it must: the value is irrational)
        bb_d = B * B * self.d
        k = max(8, 82 - max(A.bit_length(), (bb_d.bit_length() + 1) // 2))
        while True:
            s = math.isqrt(bb_d << (2 * k))
            lo = (A << k) + s if B > 0 else (A << k) - s - 1
            den = C << k
            f = lo / den
            if f == (lo + 1) / den:
                return f
            k *= 2

    def __repr__(self):
        if self.is_rational:
            return f"Quadratic({self.a})"
        return f"Quadratic({self.a} + {self.b}*sqrt({self.d}))"


GOLDEN_MEAN = Quadratic(Fraction(-1, 2), Fraction(1, 2), 5)  # (sqrt(5) - 1) / 2
SQRT2_MINUS_1 = Quadratic(-1, 1, 2)

_NAMED_THETAS = {
    "golden": GOLDEN_MEAN,
    "sqrt2-1": SQRT2_MINUS_1,
    "silver": SQRT2_MINUS_1,
}


def exact(x) -> Quadratic:
    """x as a Quadratic, exactly: a float or a finite mpmath value is its
    binary value, an int or a Fraction itself; anything else (nan, inf, a
    string) raises ValidationError."""
    if isinstance(x, Quadratic):
        return x
    # an mpf exists only if mpmath is loaded; the library never loads it
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None and isinstance(x, mpmath.mpf) and mpmath.isfinite(x):
        man, exp = x.man_exp  # |x| = man * 2^exp
        man = -man if x < 0 else man
        x = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    try:
        return Quadratic(x)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"cannot read {x!r} as an exact circle coordinate") from None


def parse_theta(text: str):
    """Parse a rotation number: a named constant or a decimal literal.

    Named constants come back as exact Quadratic values; a decimal as the
    Fraction it spells.
    """
    key = text.strip().lower()
    if key in _NAMED_THETAS:
        return _NAMED_THETAS[key]
    try:
        val = Fraction(key)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"unrecognized rotation number {text!r}") from None
    if not 0 < val < 1:
        raise ValidationError("rotation number must lie strictly between 0 and 1")
    return val


def continued_fraction_terms(theta, depth: int) -> list:
    """First ``depth`` partial quotients a_0, ..., a_{depth-1} of theta in (0,1).

    theta is anything ``exact`` reads; the expansion is exact, and a
    remainder of zero (a rational theta) raises RationalThetaError.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    x = exact(theta)
    if not 0 < x < 1:
        raise ValidationError("rotation number must lie strictly between 0 and 1")
    terms = []
    for k in range(depth):
        a = math.floor(x)
        terms.append(a)
        x = x - a
        if k + 1 == depth:
            break
        if x.sign() == 0:
            raise RationalThetaError(
                "continued fraction terminated: rotation number is rational"
            )
        x = 1 / x
    return terms
