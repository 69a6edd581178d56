"""Band spectra of periodic approximants.

A q-periodic Verblunsky sequence (q even) has purely absolutely continuous
spectrum: the set of z = e^{i omega} where the trace of the q-site transfer
product -- the discriminant -- lies in [-2, 2].  This module computes
discriminants, extracts the band arcs by adaptive grid scanning plus
bisection on |disc| = 2, and builds the finite q x q Floquet operator whose
eigenvalues give the exact band correspondence disc(z0) = phi + 1/phi.

Every discriminant comes from the pair-form product of ``transfer`` and is
real by construction; its one check is the determinant drift in
``pair_trace``.  ``discriminant_sampler`` is the one place a band-scan route
is chosen: period-doubling approximants run the trace recursion, every other
rule the substitution blocks of ``substitution_discriminant``; both are
sampled in pieces of ``CHUNK`` angles, and each doubling of the scan grid
evaluates only its new angles.  A periodic sequence given by its values
(``discriminant_grid``, ``spectrum_arcs``, the Floquet cross-check) runs the
per-site fold ``transfer_product_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arcs import ArcSet
from .errors import ValidationError
from .tracemap import trace_a_grid
from .transfer import (
    UNIT_MODULUS_TOL,
    VerblunskyMap,
    gz_pair,
    pair_mul,
    pair_trace,
    theta_matrix,
    transfer_product_grid,
)
from .words import PERIOD_DOUBLING, SubstitutionRule, fixed_point_prefix

TAU = 2.0 * math.pi
DEFAULT_RESOLUTION = 1 << 14
MAX_RESOLUTION = 1 << 20
EDGE_ANGLE_TOL = 1e-10
CHUNK = 1 << 14  # angles per block evaluation: keeps the blocks in cache


@dataclass(frozen=True)
class PeriodicAlphas:
    """A periodic coefficient sequence: values are the coefficients of sites
    1..q, matching word positions, so alpha(n) = values[(n - 1) mod q]."""

    values: tuple

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
        return self.values[(n - 1) % self.period]


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
    return PeriodicAlphas(values)


def discriminant_grid(z: np.ndarray, alphas: PeriodicAlphas) -> np.ndarray:
    """One-period discriminant over an array of unit-circle points (per-site fold)."""
    q = alphas.period
    if q % 2 or q < 2:
        raise ValidationError("band computations need an even period >= 2")
    return pair_trace(transfer_product_grid(alphas.alpha, z, 1, q), q)


def discriminant(z: complex, alphas: PeriodicAlphas) -> float:
    """Trace of the one-period transfer product at one point: a length-1 grid."""
    return float(discriminant_grid(np.array([complex(z)]), alphas)[0])


def approximant_lengths(rule: SubstitutionRule, level: int):
    """(period, parity) of the level-n approximant without building its word: q = |S^n(a)|,
    doubled when odd as in ``periodic_approximant``, and parity[m][c] = |S^m(c)| mod 2."""
    if level < 2:
        raise ValidationError("approximant level must be >= 2")
    lengths, parity = {"a": 1, "b": 1}, [{"a": 1, "b": 1}]
    for _ in range(level):
        lengths = {c: sum(lengths[d] for d in rule.image(c)) for c in "ab"}
        parity.append({c: n & 1 for c, n in lengths.items()})
    return lengths["a"] << parity[level]["a"], parity


def substitution_discriminant(
    rule: SubstitutionRule, level: int, f: VerblunskyMap
) -> Callable[[np.ndarray], np.ndarray]:
    """Discriminant of the level-n approximant from pair-form substitution blocks.

    The product over S^m(c) from a site of parity p is the product of the
    level m-1 blocks of the letters of S(c), each keyed by its letter and
    the parity of its first site.  Only the keys the top block reaches are
    built, one level at a time, so a point costs O(level * |S|) pair
    products instead of O(q).  A prefix of odd length q runs as two copies,
    the second from the even site q+1, as in ``periodic_approximant``.
    """
    period, parity = approximant_lengths(rule, level)
    odd = parity[level]["a"]
    keys = [{("a", 0), ("a", 1)} if odd else {("a", 1)}]  # top down, per level
    for m in range(level, 0, -1):
        below = set()
        for c, p in keys[-1]:
            for d in rule.image(c):
                below.add((d, p))
                p ^= parity[m - 1][d]
        keys.append(below)
    keys.reverse()

    def sample(omegas: np.ndarray) -> np.ndarray:
        z = np.exp(1j * np.asarray(omegas, dtype=float))
        blocks = {(c, p): (*gz_pair(f.alpha(c), z, p), 0) for c, p in keys[0]}
        for m in range(1, level + 1):
            built = {}
            for c, first in keys[m]:
                p, prod = first, None
                for d in rule.image(c):
                    sub = blocks[(d, p)]
                    prod = sub if prod is None else pair_mul(sub, prod)
                    p ^= parity[m - 1][d]
                built[(c, first)] = prod
            blocks = built
        prod = blocks[("a", 1)]
        if odd:
            prod = pair_mul(blocks[("a", 0)], prod)
        return pair_trace(prod, period)

    return sample


def discriminant_sampler(
    rule: SubstitutionRule, level: int, f: VerblunskyMap
) -> Callable[[np.ndarray], np.ndarray]:
    """Discriminant of the level-n approximant as a function of angles.

    This is where the route is chosen.  Period doubling runs the trace
    recursion from cos omega (real arithmetic, O(level) per angle); every
    other rule the pair-form substitution blocks (also O(level) per angle).
    Both run in pieces of ``CHUNK`` angles, whose arrays stay in cache.
    """
    if rule == PERIOD_DOUBLING:
        def piece(omegas: np.ndarray) -> np.ndarray:
            return trace_a_grid(np.cos(omegas), f, level)  # the seed reads only Re z
    else:
        piece = substitution_discriminant(rule, level, f)

    def sample(omegas: np.ndarray) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        out = np.empty(len(omegas))
        for k in range(0, len(omegas), CHUNK):
            out[k : k + CHUNK] = piece(omegas[k : k + CHUNK])
        return out

    return sample


# ---------------------------------------------------------------------------
# band arcs
# ---------------------------------------------------------------------------


def _cyclic_runs(mask: np.ndarray):
    """Start/end sample indices of cyclic runs of True (one may wrap through 0)."""
    n = len(mask)
    change = mask != np.roll(mask, 1)  # True where a run starts at i
    starts = np.nonzero(change & mask)[0]
    ends_next = np.nonzero(change & ~mask)[0]  # first False after a run
    if len(starts) == 0:
        return starts, starts
    ends_next = np.append(ends_next, ends_next[0] + n)
    return starts, (ends_next[np.searchsorted(ends_next, starts, side="right")] - 1) % n


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

    ``disc_fn`` maps angles to real discriminant samples.  The grid doubles
    until the number of bands stabilizes or it reaches ``MAX_RESOLUTION`` (a
    cheap tangency fallback); each doubling evaluates only the new angles,
    as halving the step is exact and the old ones are the even angles of the
    finer grid, bit for bit.  Then every edge is bisected to ``EDGE_ANGLE_TOL``.
    """
    if resolution < 8:
        raise ValidationError("resolution too small to scan bands")

    def inside(omegas: np.ndarray) -> np.ndarray:
        return np.abs(disc_fn(omegas)) <= 2.0

    res = int(resolution)
    mask = inside(np.arange(res) * (TAU / res))
    prev_count = -1
    while True:
        starts, ends = _cyclic_runs(mask)
        count = len(starts)
        if (count == prev_count and count > 0) or res >= MAX_RESOLUTION or mask.all() or not mask.any():
            break
        prev_count = count
        res *= 2
        odd = inside(np.arange(1, res, 2) * (TAU / res))
        mask = np.stack([mask, odd], axis=1).ravel()  # interleave: old angles are the even ones

    if mask.all():
        return ArcSet.full(TAU)
    if not mask.any():
        return ArcSet.empty(TAU)

    step = TAU / res
    left = _bisect_band_edges(inside, (starts - 1) * step, starts * step)
    right = _bisect_band_edges(inside, (ends + 1) * step, ends * step)
    return ArcSet(zip(left, np.where(right < left, right + TAU, right)), TAU)


def spectrum_arcs(alphas: PeriodicAlphas, resolution: int = DEFAULT_RESOLUTION) -> ArcSet:
    """Band arcs of a periodic coefficient sequence (per-site fold)."""
    return band_arcs_from_function(
        lambda omegas: discriminant_grid(np.exp(1j * omegas), alphas), resolution
    )


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
    if abs(abs(phi) - 1.0) > UNIT_MODULUS_TOL:
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
