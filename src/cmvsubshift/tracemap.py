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
(a scalar seed is an array of length 1); scalar orbits and grid scans both
read their levels from it.  Its level-1 seed is written once too, in closed
form, in ``level_one_traces``: the traces are real by construction, and no
matrix product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ValidationError
from .transfer import VerblunskyMap, check_unit_z, rho_of


def coupling_constant(f: VerblunskyMap) -> float:
    """The z-independent constant subtracted in the trace recursion.

    Equals 2 * (1 - Re(alpha_a * conj(alpha_b))) / (rho_a * rho_b); always
    >= 2, with equality exactly when both letters carry the same coefficient.
    """
    num = 1.0 - _alpha_overlap(f)
    return 2.0 * num / (rho_of(f.alpha_a) * rho_of(f.alpha_b))


def _alpha_overlap(f: VerblunskyMap) -> float:
    return (f.alpha_a * np.conj(f.alpha_b)).real


def level_one_traces(z, f: VerblunskyMap):
    """Traces (x1, y1) of the level-1 blocks S(a) = ab and S(b) = aa at point(s) z.

    They reduce to 2(Re(conj(alpha_a) alpha_b) + Re z)/(rho_a rho_b) and
    2(|alpha_a|^2 + Re z)/rho_a^2, so the whole recursion runs in real
    arithmetic.
    """
    ra, rb = rho_of(f.alpha_a), rho_of(f.alpha_b)
    cos_part = 2.0 * np.real(z)
    return (
        (2.0 * _alpha_overlap(f) + cos_part) / (ra * rb),
        (2.0 * abs(f.alpha_a) ** 2 + cos_part) / (ra * ra),
    )


@dataclass(frozen=True)
class TraceOrbit:
    """Trace pairs (a-block, b-block) along the substitution levels 1..N."""

    coupling: float
    trace_a: np.ndarray
    trace_b: np.ndarray

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
    A level makes two new arrays, x y - C and x^2 - 2, each subtracted in
    place; every level yields fresh arrays, so a caller may keep them.
    """
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    yield x, y
    for _ in range(levels - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            t = x * y
            t -= coupling
            y = x * x
            y -= 2.0
        x = t
        yield x, y


def trace_orbit(z: complex, f: VerblunskyMap, levels: int) -> TraceOrbit:
    """Traces of both block families at z, levels 1..N, via the recursion."""
    z = check_unit_z(complex(z))
    coupling = coupling_constant(f)
    orbit = list(iterate_traces(*level_one_traces(z, f), coupling, levels))
    xs = np.concatenate([x for x, _ in orbit])
    ys = np.concatenate([y for _, y in orbit])
    return TraceOrbit(coupling, xs, ys)


def trace_a_grid(z: np.ndarray, f: VerblunskyMap, level: int) -> np.ndarray:
    """The a-block trace at one level over a grid of spectral points."""
    for x, _ in iterate_traces(*level_one_traces(z, f), coupling_constant(f), level):
        pass
    return x


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
