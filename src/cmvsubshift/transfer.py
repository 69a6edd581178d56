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

The site formula is written once, in ``gz_step_entries``, and the ordered
product once, in ``transfer_product_grid``, which runs over an array of
spectral points; a scalar product is a grid of length 1.  Coefficients come
from a callable ``n -> alpha(n)`` (``PeriodicAlphas.alpha``, a ``Window``'s
``__getitem__``, a lambda).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError
from .words import Window, Word

UNIT_MODULUS_TOL = 1e-8


def rho_of(alpha: complex) -> float:
    a2 = abs(alpha) ** 2
    if a2 >= 1.0:
        raise ValidationError("Verblunsky coefficient must lie inside the unit disk")
    return math.sqrt(1.0 - a2)


def _check_unit_z(z: complex) -> complex:
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


@dataclass(frozen=True)
class TransferMatrix2:
    """A 2x2 complex transfer matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError("transfer matrices are 2x2")
        object.__setattr__(self, "mat", m)

    @property
    def det(self) -> complex:
        m = self.mat
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    @property
    def trace(self) -> complex:
        return self.mat[0, 0] + self.mat[1, 1]

    def __matmul__(self, other):
        if isinstance(other, TransferMatrix2):
            return TransferMatrix2(self.mat @ other.mat)
        other = np.asarray(other, dtype=complex)
        return self.mat @ other

    def inverse(self) -> "TransferMatrix2":
        d = self.det
        if d == 0:
            raise ValidationError("singular transfer matrix")
        m = self.mat
        inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d
        return TransferMatrix2(inv)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat, 2))


def gz_step(alpha: complex, z: complex, n: int) -> TransferMatrix2:
    """Single-site transfer matrix at site index n (only its parity matters).

    The entries are those of ``gz_step_entries``.
    """
    t00, t01, t10, t11 = gz_step_entries(alpha, _check_unit_z(z), n)
    return TransferMatrix2(np.array([[t00, t01], [t10, t11]]))


def theta_matrix(alpha: complex) -> np.ndarray:
    """The unitary 2x2 building block [[conj(a), rho], [rho, -a]]."""
    r = rho_of(alpha)
    return np.array([[np.conj(alpha), r], [r, -alpha]], dtype=complex)


def transfer_product(alphas: AlphaSource, z: complex, lo: int, hi: int) -> TransferMatrix2:
    """Ordered product of single-site matrices for sites lo..hi (last on the left).

    A length-1 call of ``transfer_product_grid``; an empty range (hi < lo)
    yields the identity.
    """
    return TransferMatrix2(transfer_product_grid(alphas, np.array([complex(z)]), lo, hi)[:, :, 0])


# ---------------------------------------------------------------------------
# the product kernel
# ---------------------------------------------------------------------------


def gz_step_entries(alpha: complex, z: np.ndarray, parity: int):
    """Entries (m00, m01, m10, m11) of the single-site matrix at spectral point(s) z."""
    r = rho_of(alpha)
    if parity & 1:
        return (
            -np.conj(alpha) / r + 0.0 * z,
            z / r,
            (1.0 / z) / r,
            -alpha / r + 0.0 * z,
        )
    c = -alpha / r
    cc = -np.conj(alpha) / r
    one = 1.0 / r
    zeros = 0.0 * z
    return (c + zeros, one + zeros, one + zeros, cc + zeros)


def transfer_product_grid(alphas: AlphaSource, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Vectorized ordered product over sites lo..hi; returns shape (2, 2, len(z))."""
    z = np.asarray(z, dtype=complex)
    if np.max(np.abs(np.abs(z) - 1.0)) > UNIT_MODULUS_TOL:
        raise ValidationError("spectral grid must sit on the unit circle")
    m00 = np.ones_like(z)
    m01 = np.zeros_like(z)
    m10 = np.zeros_like(z)
    m11 = np.ones_like(z)
    for n in range(lo, hi + 1):
        t00, t01, t10, t11 = gz_step_entries(complex(alphas(n)), z, n)
        n00 = t00 * m00 + t01 * m10
        n01 = t00 * m01 + t01 * m11
        n10 = t10 * m00 + t11 * m10
        n11 = t10 * m01 + t11 * m11
        m00, m01, m10, m11 = n00, n01, n10, n11
    return np.array([[m00, m01], [m10, m11]])


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
    z = _check_unit_z(z)
    s = np.asarray(seed, dtype=complex)
    if s.shape != (2,):
        raise ValidationError("seed must be a pair (u0, v0)")
    size = hi - lo + 1
    u = np.empty(size, dtype=complex)
    v = np.empty(size, dtype=complex)
    u[-lo], v[-lo] = s
    state = s.copy()
    for n in range(1, hi + 1):
        state = gz_step(complex(alphas(n)), z, n) @ state
        u[n - lo], v[n - lo] = state
    state = s.copy()
    for n in range(0, lo, -1):
        state = gz_step(complex(alphas(n)), z, n).inverse() @ state
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


def _require_blocks(alphas: AlphaSource, n: int, sides: int):
    for j in range(1, n + 1):
        if alphas(j) != alphas(j + n):
            raise ValidationError(
                f"coefficients fail the repetition condition at site {j}"
            )
        if sides == 3 and alphas(j - n) != alphas(j):
            raise ValidationError(
                f"coefficients fail the two-sided repetition condition at site {j}"
            )


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
    _require_blocks(alphas, n, 2 if variant == "two" else 3)
    lo = -n if variant == "three" else 0
    sol = propagate(alphas, z, s, lo, 2 * n)
    tr = transfer_product(alphas, z, 1, n).trace
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
