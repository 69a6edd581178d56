"""Two-by-two transfer matrices for CMV operators in the GZ normalization.

A Verblunsky sequence alpha(n) in the open unit disk generates, at a spectral
parameter z on the unit circle, one matrix per site whose shape alternates
with the parity of the site index:

    odd n:   (1/rho) [[-conj(alpha), z], [1/z, -alpha]]
    even n:  (1/rho) [[-alpha, 1], [1, -conj(alpha)]]

with rho = sqrt(1 - |alpha|^2).  Both have determinant exactly -1, and at
|z| = 1 they propagate the two solution components isometrically enough that
norms of products control spectral behaviour.  Ordered products moving right
from site 1 (and inverted products moving left from site 0) are the objects
the trace map, the band computation and the Gordon bounds all consume.

On |z| = 1 (where 1/z = conj(z)) every site matrix, and so every product of
them, has the pair form [[a, b], [conj(b), conj(a)]], and that is the one
representation used here.  The site formula is written once, in that form,
in ``gz_pair``.  A product is the pair (a, b) with a power-of-two exponent
per point (``pair_mul``, ``transfer_product_grid``): four complex
multiplies per product, a trace 2 Re(a) that is real by construction, and
determinant drift as the one sanity check (``pair_trace``).  A scalar
product is a grid of length 1, which ``transfer_product`` expands into its
2x2 matrix for the Gordon bounds; ``propagate`` steps with ``gz_pair``
itself.  Coefficients come from a callable ``n -> alpha(n)``
(``PeriodicAlphas.alpha``, a ``Window``'s ``__getitem__``, a lambda).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import NumericAssertionError, ValidationError
from .words import Window, Word, check_three_block, check_two_block

UNIT_MODULUS_TOL = 1e-8
UNIT_ROUNDOFF = 2.0**-53
RESCALE_ABOVE = 2.0**64
# Determinant drift of valid products, in units of length * u: up to ~1e3 on
# uniform scan grids, up to ~2.5e5 at closed-gap Floquet eigenvalues, where
# sub-blocks grow far beyond the product (CHANGES.md has the distribution).
DRIFT_PER_SITE = 2.0**20


def rho_of(alpha: complex) -> float:
    a2 = abs(alpha) ** 2
    if a2 >= 1.0:
        raise ValidationError("Verblunsky coefficient must lie inside the unit disk")
    return math.sqrt(1.0 - a2)


def check_unit_z(z: complex) -> complex:
    z = complex(z)
    if abs(abs(z) - 1.0) > UNIT_MODULUS_TOL:
        raise ValidationError(f"spectral parameter must sit on the unit circle, got |z| = {abs(z)}")
    return z


def unit_point(angle: float) -> complex:
    """e^(i*angle); building z from an angle keeps |z| = 1 by construction."""
    return cmath.exp(1j * angle)


@dataclass(frozen=True)
class VerblunskyMap:
    """Letter-to-coefficient assignment for a two-letter subshift."""

    alpha_a: complex
    alpha_b: complex

    def __post_init__(self):
        for val in (self.alpha_a, self.alpha_b):
            if abs(val) >= 1.0:
                raise ValidationError(
                    "Verblunsky coefficients must lie strictly inside the unit disk"
                )

    def alpha(self, letter: str) -> complex:
        if letter == "a":
            return self.alpha_a
        if letter == "b":
            return self.alpha_b
        raise ValidationError(f"letter {letter!r} outside alphabet")

    def rho(self, letter: str) -> float:
        return rho_of(self.alpha(letter))

    @property
    def is_constant(self) -> bool:
        return self.alpha_a == self.alpha_b

    def coefficients(self, letters: Union[Word, Window, str], lo: int = 1) -> Window:
        """Map a word (or letter window) to a window of coefficients.

        Plain words are anchored at position ``lo``; a letter Window keeps its
        own offset.
        """
        if isinstance(letters, Window):
            return Window([self.alpha(c) for c in letters.values], letters.lo)
        return Window([self.alpha(c) for c in Word(letters)], lo)


AlphaSource = Callable[[int], complex]


def theta_matrix(alpha: complex) -> np.ndarray:
    """The unitary 2x2 building block [[conj(a), rho], [rho, -a]]."""
    r = rho_of(alpha)
    return np.array([[np.conj(alpha), r], [r, -alpha]], dtype=complex)


# ---------------------------------------------------------------------------
# the site formula and the product kernels
# ---------------------------------------------------------------------------


def gz_pair(alpha: complex, z, parity: int):
    """First row (a, b) of the single-site matrix at unit-circle point(s) z.

    The matrix is [[a, b], [conj(b), conj(a)]]: a = -conj(alpha)/rho and
    b = z/rho at odd sites, a = -alpha/rho and b = 1/rho at even sites.
    """
    r = rho_of(alpha)
    if parity & 1:
        return -np.conj(alpha) / r, z / r
    return -alpha / r, 1.0 / r


# A pair-form product is a triple (a, b, e): the matrix 2^e [[a, b], [conj(b),
# conj(a)]], with e an integer per point.  Multiplying two costs four complex
# multiplies; a product whose |a| passes RESCALE_ABOVE is divided by an exact
# power of two per point, so entries never overflow and rescaling adds no
# rounding.  Its determinant 4^e (|a|^2 - |b|^2) is (-1)^length.


def _rescaled(a, b, e):
    big = np.abs(a)
    if not np.max(big) > RESCALE_ABOVE:
        return a, b, e
    k = np.maximum(np.frexp(big)[1], 0)
    scale = np.ldexp(1.0, -k)
    return a * scale, b * scale, e + k


def pair_mul(left, right):
    """The pair-form product left @ right (right acts first)."""
    a1, b1, e1 = left
    a2, b2, e2 = right
    return _rescaled(a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2), e1 + e2)


def transfer_product_grid(alphas: AlphaSource, z: np.ndarray, lo: int, hi: int):
    """Ordered product over sites lo..hi (last on the left) at unit-circle
    points z, as the pair-form triple (a, b, e)."""
    z = np.asarray(z, dtype=complex)
    if np.max(np.abs(np.abs(z) - 1.0)) > UNIT_MODULUS_TOL:
        raise ValidationError("spectral grid must sit on the unit circle")
    prod = (1.0 + 0j, 0j, 0)
    for n in range(lo, hi + 1):
        prod = pair_mul((*gz_pair(complex(alphas(n)), z, n), 0), prod)
    return prod


def transfer_product(alphas: AlphaSource, z: complex, lo: int, hi: int) -> np.ndarray:
    """The 2x2 matrix of the product over sites lo..hi at one point z.

    A length-1 call of ``transfer_product_grid``; an empty range (hi < lo)
    yields the identity.
    """
    prod = transfer_product_grid(alphas, np.array([complex(z)]), lo, hi)
    a, b, e = (np.ravel(v)[0] for v in prod)
    with np.errstate(over="ignore"):
        return np.ldexp(1.0, e) * np.array([[a, b], [np.conj(b), np.conj(a)]])


def pair_trace(prod, length: int) -> np.ndarray:
    """Trace 2^(e+1) Re(a) of a pair-form product of ``length`` sites.

    It is real by construction.  What is checked is the determinant: the
    drift | |a|^2 - |b|^2 - (-1)^length 4^-e |, relative to |a|^2 + |b|^2,
    must stay below DRIFT_PER_SITE * length * u (u = 2^-53) at every point.
    """
    a, b, e = prod
    aa = a.real * a.real + a.imag * a.imag
    bb = b.real * b.real + b.imag * b.imag
    det = np.ldexp(-1.0 if length & 1 else 1.0, -2 * np.asarray(e))
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 and nan fail below
        worst = float(np.max(np.abs(aa - bb - det) / (aa + bb)))
    bound = DRIFT_PER_SITE * min(length, 2.0**1000) * UNIT_ROUNDOFF  # q may pass float range
    if not worst <= bound:
        raise NumericAssertionError(
            f"determinant drift {worst:.3g} of a {length}-site product exceeds {bound:.3g}"
        )
    with np.errstate(over="ignore"):
        return np.ldexp(2.0 * a.real, e)


# ---------------------------------------------------------------------------
# solutions and Gordon-type lower bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionPair:
    """The two solution components along a window of sites, from a seed at 0."""

    u: np.ndarray
    v: np.ndarray
    lo: int
    z: complex

    @property
    def hi(self) -> int:
        return self.lo + len(self.u) - 1

    def _idx(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise ValidationError(f"site {n} outside solution window [{self.lo}, {self.hi}]")
        return n - self.lo

    def u_at(self, n: int) -> complex:
        return complex(self.u[self._idx(n)])

    def v_at(self, n: int) -> complex:
        return complex(self.v[self._idx(n)])

    def norm_at(self, n: int) -> float:
        i = self._idx(n)
        return math.hypot(abs(self.u[i]), abs(self.v[i]))

    def rows(self) -> Iterable[tuple]:
        for k in range(len(self.u)):
            n = self.lo + k
            yield (n, self.u[k], self.v[k], self.norm_at(n))


def propagate(
    alphas: AlphaSource,
    z: complex,
    seed: Sequence[complex] = (1.0, 0.0),
    lo: int = 0,
    hi: int = 0,
) -> SolutionPair:
    """Apply the product family to a seed at site 0 across sites lo..hi."""
    if lo > 0 or hi < 0:
        raise ValidationError("solution window must contain site 0")
    z = check_unit_z(z)
    s = np.asarray(seed, dtype=complex)
    if s.shape != (2,):
        raise ValidationError("seed must be a pair (u0, v0)")
    size = hi - lo + 1
    u = np.empty(size, dtype=complex)
    v = np.empty(size, dtype=complex)
    u[-lo], v[-lo] = s
    state = s.copy()
    for n in range(1, hi + 1):
        a, b = gz_pair(complex(alphas(n)), z, n)
        state = np.array([[a, b], [np.conj(b), np.conj(a)]]) @ state
        u[n - lo], v[n - lo] = state
    state = s.copy()
    for n in range(0, lo, -1):  # a site matrix has determinant -1
        a, b = gz_pair(complex(alphas(n)), z, n)
        state = np.array([[-np.conj(a), b], [np.conj(b), -a]]) @ state
        u[n - 1 - lo], v[n - 1 - lo] = state
    return SolutionPair(u, v, lo, z)


@dataclass(frozen=True)
class GordonCheck:
    """Outcome of one solution-norm lower-bound check."""

    variant: str
    n: int
    trace: complex
    norms: dict
    bound: float
    achieved: float
    holds: bool


def gordon_inequality_check(
    alphas: AlphaSource,
    z: complex,
    n: int,
    variant: str = "three",
    seed: Sequence[complex] = (1.0, 0.0),
) -> GordonCheck:
    """Check the solution-norm lower bound that repetitions force.

    variant "two": coefficients repeat over sites 1..2n; any unit seed obeys
        max(|sol(n)|, |sol(2n)|) >= min(1, 1/|tr|)/2 with tr the trace of the
        n-site product.
    variant "three": coefficients repeat over sites 1-n..2n; then
        max(|sol(-n)|, |sol(n)|, |sol(2n)|) >= 1/2.
    """
    if n < 2 or n % 2:
        raise ValidationError("repetition length must be even and >= 2")
    if variant not in ("two", "three"):
        raise ValidationError("variant must be 'two' or 'three'")
    s = np.asarray(seed, dtype=complex)
    norm = np.linalg.norm(s)
    if norm == 0:
        raise ValidationError("seed must be nonzero")
    s = s / norm
    lo = -n if variant == "three" else 0
    window = Window([alphas(j) for j in range(lo + 1, 2 * n + 1)], lo + 1)
    if not (check_three_block if variant == "three" else check_two_block)(window, n):
        raise ValidationError(f"coefficients fail the {variant}-block repetition condition")
    sol = propagate(alphas, z, s, lo, 2 * n)
    tr = np.trace(transfer_product(alphas, z, 1, n))
    norms = {"n": sol.norm_at(n), "2n": sol.norm_at(2 * n)}
    if variant == "three":
        norms["-n"] = sol.norm_at(-n)
        bound = 0.5
    else:
        at = abs(tr)
        bound = 0.5 * (1.0 if at <= 1.0 else 1.0 / at)
    achieved = max(norms.values())
    return GordonCheck(
        variant=variant,
        n=n,
        trace=complex(tr),
        norms=norms,
        bound=bound,
        achieved=achieved,
        holds=bool(achieved >= bound - 1e-12),
    )
