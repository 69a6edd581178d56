"""Band spectra of periodic approximants.

A q-periodic Verblunsky sequence (q even) has purely absolutely continuous
spectrum: the set of z = e^{i omega} where the trace of the q-site transfer
product -- the discriminant -- lies in [-2, 2].  This module computes
discriminants, extracts the band arcs by adaptive grid scanning plus
bisection on |disc| = 2, and builds the finite q x q Floquet operator whose
eigenvalues give the exact band correspondence disc(z0) = phi + 1/phi.

Every discriminant, scalar or over a grid, comes from the product kernel
``transfer_product_grid``, except that ``discriminant_sampler`` -- the one
place a route is chosen -- sends period-doubling approximants through the
trace recursion.  ``real_discriminant`` is the one reality check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arcs import ArcSet
from .errors import NumericAssertionError, ValidationError
from .tracemap import trace_a_grid
from .transfer import VerblunskyMap, theta_matrix, transfer_product_grid
from .words import PERIOD_DOUBLING, SubstitutionRule, fixed_point_prefix

TAU = 2.0 * math.pi
DISC_IMAG_TOL = 1e-9
DEFAULT_RESOLUTION = 1 << 14
MAX_RESOLUTION = 1 << 20
EDGE_ANGLE_TOL = 1e-10


@dataclass(frozen=True)
class PeriodicAlphas:
    """A periodic coefficient sequence anchored at a start site.

    alpha(n) = values[(n - start) mod q]; the default anchor start = 1 makes
    values the coefficients of sites 1..q, matching word positions.
    """

    values: tuple
    start: int = 1

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        if not vals:
            raise ValidationError("periodic coefficient list is empty")
        if any(abs(v) >= 1.0 for v in vals):
            raise ValidationError("coefficients must lie strictly inside the unit disk")
        object.__setattr__(self, "values", vals)

    @property
    def period(self) -> int:
        return len(self.values)

    def alpha(self, n: int) -> complex:
        return self.values[(n - self.start) % self.period]


def periodic_approximant(
    rule: SubstitutionRule, level: int, f: VerblunskyMap
) -> PeriodicAlphas:
    """Coefficients read off the level-n substitution prefix, repeated.

    Band computations need an even period, so a prefix of odd length q is
    repeated twice and the approximant has period 2q.
    """
    if level < 2:
        raise ValidationError("approximant level must be >= 2")
    values = tuple(f.alpha(c) for c in fixed_point_prefix(rule, level))
    if len(values) % 2:
        values *= 2
    return PeriodicAlphas(values, start=1)


def _require_even_period(alphas: PeriodicAlphas) -> int:
    q = alphas.period
    if q % 2 or q < 2:
        raise ValidationError("band computations need an even period >= 2")
    return q


def raw_discriminant_grid(z: np.ndarray, alphas: PeriodicAlphas) -> np.ndarray:
    """One-period product trace over an array of points, before the reality check."""
    q = _require_even_period(alphas)
    prod = transfer_product_grid(alphas.alpha, np.asarray(z, dtype=complex), 1, q)
    return prod[0, 0] + prod[1, 1]


def real_discriminant(tr: np.ndarray) -> np.ndarray:
    """Real part of sampled discriminants, which must be real on |z| = 1.

    Complex samples (the product route) fail if their worst relative
    imaginary part exceeds ``DISC_IMAG_TOL``; real samples (the trace route)
    pass through unchecked.
    """
    if not np.iscomplexobj(tr):
        return tr
    worst = float(np.max(np.abs(tr.imag) / np.maximum(1.0, np.abs(tr))))
    if worst > DISC_IMAG_TOL:
        raise NumericAssertionError(
            f"discriminant must be real on the unit circle; worst residual {worst}"
        )
    return tr.real


def discriminant_grid(z: np.ndarray, alphas: PeriodicAlphas) -> np.ndarray:
    """Vectorized discriminant over an array of unit-circle points."""
    return real_discriminant(raw_discriminant_grid(z, alphas))


def discriminant(z: complex, alphas: PeriodicAlphas) -> float:
    """Trace of the one-period transfer product at one point: a length-1 grid."""
    return float(discriminant_grid(np.array([complex(z)]), alphas)[0])


def product_sampler(alphas: PeriodicAlphas) -> Callable[[np.ndarray], np.ndarray]:
    """Raw one-period product trace as a function of angles omega."""

    def sample(omegas: np.ndarray) -> np.ndarray:
        return raw_discriminant_grid(np.exp(1j * omegas), alphas)

    return sample


def discriminant_sampler(
    rule: SubstitutionRule, level: int, f: VerblunskyMap
) -> Callable[[np.ndarray], np.ndarray]:
    """Raw discriminant of the level-n approximant as a function of angles.

    This is where the route is chosen.  Period doubling runs the trace
    recursion (real arithmetic, O(level) per angle); every other rule
    multiplies the per-site matrices over one period and returns complex
    samples for ``real_discriminant`` to check.
    """
    if rule == PERIOD_DOUBLING:
        return lambda omegas: trace_a_grid(np.exp(1j * omegas), f, level)
    return product_sampler(periodic_approximant(rule, level, f))


# ---------------------------------------------------------------------------
# band arcs
# ---------------------------------------------------------------------------


def _cyclic_runs(mask: np.ndarray):
    """Start/end sample indices of cyclic runs of True in a boolean array."""
    n = len(mask)
    change = mask != np.roll(mask, 1)  # True where a run starts at i
    starts = np.nonzero(change & mask)[0]
    ends_next = np.nonzero(change & ~mask)[0]  # first False after a run
    if len(starts) == 0:
        return [], []
    ends = []
    for s in starts:
        nxt = ends_next[ends_next > s]
        e = (nxt[0] if len(nxt) else ends_next[0] + n) - 1
        ends.append(e % n)
    return list(starts), ends


def _bisect_band_edges(
    inside_fn: Callable[[np.ndarray], np.ndarray],
    out_angles: np.ndarray,
    in_angles: np.ndarray,
):
    """Shrink brackets (outside angle, inside angle) down to EDGE_ANGLE_TOL."""
    a = out_angles.astype(float).copy()
    b = in_angles.astype(float).copy()
    for _ in range(64):
        if np.max(np.abs(b - a)) <= EDGE_ANGLE_TOL:
            break
        mid = 0.5 * (a + b)
        mid_in = inside_fn(mid)
        b = np.where(mid_in, mid, b)
        a = np.where(mid_in, a, mid)
    return 0.5 * (a + b)


def band_arcs_from_function(
    disc_fn: Callable[[np.ndarray], np.ndarray],
    resolution: int = DEFAULT_RESOLUTION,
) -> ArcSet:
    """Band arcs {omega : |disc(e^{i omega})| <= 2} for a sampled discriminant.

    ``disc_fn`` maps angles to raw samples, which ``real_discriminant``
    checks.  The grid doubles until the number of bands stabilizes or it
    reaches ``MAX_RESOLUTION`` (a cheap tangency fallback), then every edge
    is bisected to ``EDGE_ANGLE_TOL``.
    """
    if resolution < 8:
        raise ValidationError("resolution too small to scan bands")

    def inside(omegas: np.ndarray) -> np.ndarray:
        return np.abs(real_discriminant(disc_fn(omegas))) <= 2.0

    res = int(resolution)
    prev_count = -1
    while True:
        omegas = np.arange(res) * (TAU / res)
        mask = inside(omegas)
        starts, ends = _cyclic_runs(mask)
        count = len(starts)
        if (count == prev_count and count > 0) or res >= MAX_RESOLUTION or mask.all() or not mask.any():
            break
        prev_count = count
        res *= 2

    if mask.all():
        return ArcSet.full(TAU)
    if not mask.any():
        return ArcSet.empty(TAU)

    step = TAU / res
    starts = np.asarray(starts)
    ends = np.asarray(ends)
    left = _bisect_band_edges(inside, (starts - 1) * step, starts * step)
    right = _bisect_band_edges(inside, (ends + 1) * step, ends * step)
    pairs = []
    for lo, hi in zip(left, right):
        if hi < lo:
            hi += TAU
        pairs.append((lo, hi))
    return ArcSet(pairs, TAU)


def spectrum_arcs(alphas: PeriodicAlphas, resolution: int = DEFAULT_RESOLUTION) -> ArcSet:
    """Band arcs of a periodic coefficient sequence (product route)."""
    return band_arcs_from_function(product_sampler(alphas), resolution)


def period_doubling_arcs(
    level: int, f: VerblunskyMap, resolution: int = DEFAULT_RESOLUTION
) -> ArcSet:
    """Band arcs of the level-n period-doubling approximant (trace route)."""
    return band_arcs_from_function(discriminant_sampler(PERIOD_DOUBLING, level, f), resolution)


# ---------------------------------------------------------------------------
# Floquet operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloquetOperator:
    """The q x q twisted one-period operator at Floquet phase phi."""

    mat: np.ndarray
    q: int
    phi: complex

    def unitarity_defect(self) -> float:
        e = self.mat
        return float(np.linalg.norm(e @ e.conj().T - np.eye(self.q), "fro"))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.mat)


def build_floquet(alphas: PeriodicAlphas, phi: complex) -> FloquetOperator:
    """Assemble the twisted one-period CMV operator from 2x2 unitary blocks.

    Two block-diagonal unitaries interleave: one carries the blocks at even
    offsets 0, 2, ..., q-2, the other the odd offsets 1, 3, ..., q-3 plus a
    wrapped corner block twisted by phi.  Their product is unitary and its
    eigenvalues z0 solve disc(z0) = phi + 1/phi.
    """
    q = alphas.period
    if q < 4 or q % 2:
        raise ValidationError("Floquet operator needs an even period >= 4")
    phi = complex(phi)
    if abs(abs(phi) - 1.0) > 1e-8:
        raise ValidationError("Floquet phase must sit on the unit circle")

    even_part = np.zeros((q, q), dtype=complex)
    for j in range(0, q, 2):
        even_part[j : j + 2, j : j + 2] = theta_matrix(alphas.alpha(j))

    odd_part = np.zeros((q, q), dtype=complex)
    for j in range(1, q - 2, 2):
        odd_part[j : j + 2, j : j + 2] = theta_matrix(alphas.alpha(j))
    corner = theta_matrix(alphas.alpha(q - 1))
    odd_part[q - 1, q - 1] = corner[0, 0]
    odd_part[q - 1, 0] = corner[0, 1] * phi
    odd_part[0, q - 1] = corner[1, 0] / phi
    odd_part[0, 0] = corner[1, 1]

    return FloquetOperator(even_part @ odd_part, q, phi)


def floquet_discriminant_residual(
    alphas: PeriodicAlphas, phi: complex
) -> dict:
    """Cross-validate the Floquet route against the transfer-product route.

    Returns the unitarity defect and the worst |disc(z0) - (phi + 1/phi)|
    over the eigenvalues z0 of the Floquet operator.
    """
    flo = build_floquet(alphas, phi)
    target = (phi + 1.0 / phi).real
    z0 = flo.eigenvalues()
    disc = discriminant_grid(z0 / np.abs(z0), alphas)  # unit modulus up to rounding
    worst = float(np.max(np.abs(disc - target)))
    return {
        "q": flo.q,
        "phi": flo.phi,
        "unitarity_defect": flo.unitarity_defect(),
        "worst_residual": worst,
    }
