"""The period-doubling trace map for CMV transfer matrices.

Under the substitution a -> ab, b -> aa, the ordered transfer products over
the level-n images of 'a' and 'b' obey the block recursion

    A(n+1) = B(n) A(n),      B(n+1) = A(n)^2,

and, because all blocks are unimodular 2x2 matrices, their traces x_n, y_n
close into a planar polynomial map

    x_{n+1} = x_n y_n - C,   y_{n+1} = x_n^2 - 2,

where the constant C depends only on the two Verblunsky values (not on z).
Orbits of this map decide whether a spectral parameter can belong to the
approximating band spectra: once |x_n| > C and y_n > 2 the orbit provably
escapes, and that escape region is the only instability test used here.

The recursion is written once, in ``iterate_traces``, which runs over arrays
(a scalar seed is an array of length 1); scalar orbits, grid scans and the
escape classification all read their levels from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import NumericAssertionError, ValidationError
from .transfer import TransferMatrix2, VerblunskyMap, gz_step, rho_of, transfer_product
from .words import PERIOD_DOUBLING, substitution_word

IMAG_TOL = 1e-9
MAX_CLASSIFY_LEVELS = 512


def coupling_constant(f: VerblunskyMap) -> float:
    """The z-independent constant subtracted in the trace recursion.

    Equals 2 * (1 - Re(alpha_a * conj(alpha_b))) / (rho_a * rho_b); always
    >= 2, with equality exactly when both letters carry the same coefficient.
    """
    num = 1.0 - _alpha_overlap(f)
    return 2.0 * num / (rho_of(f.alpha_a) * rho_of(f.alpha_b))


def _alpha_overlap(f: VerblunskyMap) -> float:
    return (f.alpha_a * np.conj(f.alpha_b)).real


def level_one_blocks(z: complex, f: VerblunskyMap):
    """Transfer products over the level-1 images: S(a) = ab, S(b) = aa."""
    t1_a = gz_step(f.alpha_a, z, 1)
    block_a = gz_step(f.alpha_b, z, 2) @ t1_a
    block_b = gz_step(f.alpha_a, z, 2) @ t1_a
    return block_a, block_b


def block_matrix(
    letter: str,
    level: int,
    z: complex,
    f: VerblunskyMap,
    method: str = "recursion",
) -> TransferMatrix2:
    """Ordered transfer product over the level-n substitution image of a letter.

    method "recursion" multiplies blocks pairwise down the substitution tree;
    method "direct" expands the word and multiplies site by site.  The two
    must agree, which the test suite exploits.
    """
    if letter not in ("a", "b"):
        raise ValidationError(f"letter {letter!r} outside alphabet")
    if level < 1:
        raise ValidationError("block level must be >= 1")
    if method == "direct":
        word = substitution_word(PERIOD_DOUBLING, letter, level)
        return transfer_product(lambda n: f.alpha(word.letter(n)), z, 1, len(word))
    if method != "recursion":
        raise ValidationError("method must be 'recursion' or 'direct'")
    block_a, block_b = level_one_blocks(z, f)
    for _ in range(level - 1):
        block_a, block_b = block_b @ block_a, block_a @ block_a
    return block_a if letter == "a" else block_b


@dataclass(frozen=True)
class TraceOrbit:
    """Trace pairs (a-block, b-block) along the substitution levels 1..N."""

    coupling: float
    trace_a: np.ndarray
    trace_b: np.ndarray
    z: Optional[complex]
    imag_residual: float

    @property
    def levels(self) -> int:
        return len(self.trace_a)

    def _check(self, level: int) -> int:
        if not 1 <= level <= self.levels:
            raise ValidationError(f"level {level} outside orbit range 1..{self.levels}")
        return level - 1

    def trace_a_at(self, level: int) -> float:
        return float(self.trace_a[self._check(level)])

    def trace_b_at(self, level: int) -> float:
        return float(self.trace_b[self._check(level)])

    def escaped_at(self, level: int) -> bool:
        k = self._check(level)
        return bool(_in_escape_region(self.trace_a[k], self.trace_b[k], self.coupling))

    def rows(self) -> Iterable[tuple]:
        """(level, x, y, escaped) up to the last level where both traces are
        finite; an orbit that overflows has escaped before it does."""
        for k in range(self.levels):
            if not (math.isfinite(self.trace_a[k]) and math.isfinite(self.trace_b[k])):
                return
            yield (
                k + 1,
                float(self.trace_a[k]),
                float(self.trace_b[k]),
                self.escaped_at(k + 1),
            )


def _in_escape_region(x, y, coupling: float):
    """|x| > C and y > 2: the invariant region of certified escape."""
    return (np.abs(x) > coupling) & (y > 2.0)


def iterate_traces(x, y, coupling: float, levels: int):
    """Yield (x_n, y_n) for n = 1..levels from the level-1 seed (x, y), as float arrays.

    A scalar seed runs as an array of length 1.  Overflow once an orbit has
    escaped is not an error; the traces run on to inf.  No reference to an
    earlier level is kept, so a grid scan holds no more arrays than it needs.
    """
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    yield x, y
    for _ in range(levels - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = x * y - coupling, x * x - 2.0
        yield x, y


def trace_orbit(z: complex, f: VerblunskyMap, levels: int) -> TraceOrbit:
    """Traces of both block families at z, levels 1..N, via the recursion.

    The level-1 traces come from actual matrix products and must be real up
    to ``IMAG_TOL`` (scaled by magnitude); a violation raises, since it would
    mean the spectral parameter or coefficients are invalid.
    """
    block_a, block_b = level_one_blocks(z, f)
    x1, y1 = block_a.trace, block_b.trace
    residual = max(abs(x1.imag), abs(y1.imag))
    scale = max(1.0, abs(x1), abs(y1))
    if residual > IMAG_TOL * scale:
        raise NumericAssertionError(
            f"level-1 traces should be real; imaginary residual {residual}"
        )
    coupling = coupling_constant(f)
    orbit = list(iterate_traces(x1.real, y1.real, coupling, levels))
    xs = np.concatenate([x for x, _ in orbit])
    ys = np.concatenate([y for _, y in orbit])
    return TraceOrbit(coupling, xs, ys, complex(z), residual)


def trace_a_grid(z: np.ndarray, f: VerblunskyMap, level: int) -> np.ndarray:
    """The a-block trace at one level over a grid of spectral points.

    Level-1 traces reduce to 2(Re(conj(alpha_a) alpha_b) + Re z)/(rho_a rho_b)
    and its b-analogue, so the whole iteration runs in real arithmetic.
    """
    z = np.asarray(z, dtype=complex)
    ra, rb = rho_of(f.alpha_a), rho_of(f.alpha_b)
    cos_part = 2.0 * z.real
    orbit = iterate_traces(
        (2.0 * _alpha_overlap(f) + cos_part) / (ra * rb),
        (2.0 * abs(f.alpha_a) ** 2 + cos_part) / (ra * ra),
        coupling_constant(f),
        level,
    )
    for x, _ in orbit:
        pass
    return x


@dataclass(frozen=True)
class StabilityVerdict:
    """Escape-region classification of a trace-map orbit."""

    status: str  # "unstable" or "not-decided"
    first_escape_level: Optional[int]
    region: Optional[str]  # "positive" / "negative" branch of the escape region
    levels_checked: int


def classify_orbit(
    x1: float, y1: float, coupling: float, max_levels: int = MAX_CLASSIFY_LEVELS
) -> StabilityVerdict:
    """Iterate until the orbit certifiably escapes, or give up undecided.

    Only membership in the invariant escape region (|x| beyond the coupling
    constant with y > 2) counts as instability; no growth heuristics.
    """
    if coupling < 2.0 - 1e-12:
        raise ValidationError("coupling constant below its lower bound 2")
    for level, (x, y) in enumerate(iterate_traces(x1, y1, coupling, max_levels), 1):
        if not (np.isfinite(x[0]) and np.isfinite(y[0])):
            return StabilityVerdict("not-decided", None, None, level - 1)
        if _in_escape_region(x[0], y[0], coupling):
            region = "positive" if x[0] > 0 else "negative"
            return StabilityVerdict("unstable", level, region, level)
    return StabilityVerdict("not-decided", None, None, max_levels)


@dataclass(frozen=True)
class TraceBoundResult:
    """Whether consecutive trace pairs stay within the coupling window."""

    ok: bool
    first_violation: Optional[int]
    worst_excess: float


def trace_bound_check(
    z: complex, f: VerblunskyMap, top_level: int, tol: float = 1e-6
) -> TraceBoundResult:
    """Check min(|x_n|, |x_{n+1}|) <= C + tol for 1 <= n <= top_level.

    Points of the approximating band spectra must satisfy this along the
    whole orbit; a single violation certifies the point escapes.
    """
    if top_level < 1:
        raise ValidationError("top level must be >= 1")
    orbit = trace_orbit(z, f, top_level + 1)
    cap = orbit.coupling + tol
    worst = -math.inf
    first = None
    for n in range(1, top_level + 1):
        m = min(abs(orbit.trace_a_at(n)), abs(orbit.trace_a_at(n + 1)))
        worst = max(worst, m - orbit.coupling)
        if m > cap and first is None:
            first = n
    return TraceBoundResult(first is None, first, worst)
