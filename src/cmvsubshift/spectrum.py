"""Band spectra of periodic approximants.

A q-periodic Verblunsky sequence (q even) has purely absolutely continuous
spectrum: the set of z = e^{i omega} where the trace of the q-site transfer
product -- the discriminant -- lies in [-2, 2].  This module computes
discriminants, extracts the band arcs by adaptive grid scanning plus
bisection on |disc| = 2, and builds the finite q x q Floquet operator whose
eigenvalues give the exact band correspondence disc(z0) = phi + 1/phi.
Those eigenvalues come from a Hermitian eigensolve of the rotated real part
of the unitary operator, accepted only when their residual certifies them;
the general eigensolver runs only where that check fails.  The cross-check
(``floquet_discriminant_residual``) takes all its phases in one call: the
phi-free parts of the operator are built once (``floquet_skeleton``), the
operators and eigensolves follow one phase at a time, and the eigenvalues
of as many phases as fit in ``CHUNK`` points go through one per-site fold.

Every discriminant comes from the pair-form product of ``transfer`` and is
real by construction; its one check is the determinant drift in
``pair_trace``.  ``band_arcs`` scans a ``Discriminant``: sampler, period q
and evenness, decided once where the source is built.
``approximant_discriminant`` is the one place a band-scan route is chosen:
period-doubling approximants run the trace recursion, every other rule the
substitution blocks of ``substitution_discriminant``.  A periodic sequence
given by its values (``periodic_discriminant``, the Floquet cross-check)
runs the per-site fold.

The scan works in bounded memory on every route: each grid, each step of
edge bisection and each block of ``--curve`` rows hands the sampler at
most ``CHUNK`` angles, whose arrays stay in cache, and only the boolean
mask of |disc| <= 2 spans a grid.  The band arcs reach ``ArcSet`` in bulk
(``ArcSet.from_sweeps``).  The CLI writes each block of curve rows, and
the arc endpoints of its JSON, through ``floatfmt.rows``, which formats
them in blocks and writes the bytes of ``float.__repr__``.

On most routes the discriminant is even in omega, and then the scan samples
only [0, pi] (``Discriminant.even``).  The trace route reads z only
through cos omega, so period doubling is even for every f.  Real
coefficients make the CMV operator real, so disc(conj z) = conj disc(z) =
disc(z) on every route.  Grid angle k and angle res - k are omega and
2 pi - omega, so the scan evaluates k <= res/2 and reads the rest back from
index res - k.  Edge bisection and the ``--curve`` rows still evaluate both
halves: 2 pi - omega and a mirrored sample differ from the direct ones in
their last bits, and those reach the output.
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
    VerblunskyMap,
    check_unit_z,
    gz_pair,
    pair_mul,
    pair_trace,
    rho_of,
    theta_matrix,
    transfer_product_grid,
)
from .words import PERIOD_DOUBLING, SubstitutionRule, fixed_point_prefix

TAU = 2.0 * math.pi
DEFAULT_RESOLUTION = 1 << 14
MAX_RESOLUTION = 1 << 20
EDGE_ANGLE_TOL = 1e-10
CHUNK = 1 << 14  # angles per sampler call in the scan and the curve: keeps the blocks in cache
# Floquet eigenvalues: the rotation gamma of H = (e^{-i gamma} U + e^{i gamma} U*)/2,
# and the bound on the eigenpair residual ||UV - V Lambda||_F, per site.  Not
# gamma = 0 or pi: real coefficients at phi = +-1 give a spectrum closed under
# conjugation, which ties cos(omega - gamma) for every pair there.  Over the
# periodic benchmark pools x 16 phases, 1,398 of 1,408 operators pass with
# ||R||_F / q <= 9.2e-13 (CHANGES.md has the distribution).
FLOQUET_ROTATION = 1.0
FLOQUET_RESIDUAL_PER_SITE = 1e-12


@dataclass(frozen=True)
class PeriodicAlphas:
    """A periodic coefficient sequence: values are the coefficients of sites
    1..q, matching word positions, so alpha(n) = values[(n - 1) mod q]."""

    values: tuple

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        if not vals:
            raise ValidationError("periodic coefficient list is empty")
        for v in vals:
            rho_of(v)
        object.__setattr__(self, "values", vals)

    @property
    def period(self) -> int:
        return len(self.values)

    def alpha(self, n: int) -> complex:
        return self.values[(n - 1) % self.period]


def periodic_approximant(
    rule: SubstitutionRule, level: int, f: VerblunskyMap
) -> PeriodicAlphas:
    """Coefficients read off the level-n substitution prefix, repeated to the
    approximant's period q (``approximant_lengths``)."""
    q, _ = approximant_lengths(rule, level)
    prefix = tuple(f.alpha(c) for c in fixed_point_prefix(rule, level))
    return PeriodicAlphas(prefix * (q // len(prefix)))


def discriminant_grid(z: np.ndarray, alphas: PeriodicAlphas) -> np.ndarray:
    """One-period discriminant over an array of unit-circle points (per-site fold)."""
    q = alphas.period
    if q % 2 or q < 2:
        raise ValidationError("band computations need an even period >= 2")
    return pair_trace(transfer_product_grid(alphas.alpha, z, 1, q), q)


def approximant_lengths(rule: SubstitutionRule, level: int):
    """(period, parity) of the level-n approximant without building its word: q = |S^n(a)|,
    doubled when odd (band computations need an even period), and parity[m][c] = |S^m(c)| mod 2."""
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


@dataclass(frozen=True)
class Discriminant:
    """What a band scan reads from its source: ``sample`` maps angles to real
    discriminant samples of a sequence of period ``period``, and ``even`` says
    disc(e^{-i omega}) = disc(e^{i omega}), so that the scan may sample
    [0, pi] only."""

    sample: Callable[[np.ndarray], np.ndarray]
    period: int
    even: bool


def approximant_discriminant(rule: SubstitutionRule, level: int, f: VerblunskyMap) -> Discriminant:
    """Discriminant of the level-n approximant, without building its word.

    This is where the route is chosen.  Period doubling runs the trace
    recursion from cos omega (real arithmetic, O(level) per angle); every
    other rule the pair-form substitution blocks (also O(level) per angle).
    The scan and the curve hand either at most ``CHUNK`` angles at a time,
    whose arrays stay in cache.
    """
    if rule == PERIOD_DOUBLING:
        def sample(omegas: np.ndarray) -> np.ndarray:
            return trace_a_grid(np.cos(omegas), f, level)  # the seed reads only Re z
    else:
        sample = substitution_discriminant(rule, level, f)

    even = rule == PERIOD_DOUBLING or all(complex(c).imag == 0.0 for c in (f.alpha_a, f.alpha_b))
    return Discriminant(sample, approximant_lengths(rule, level)[0], even)


def periodic_discriminant(alphas: PeriodicAlphas) -> Discriminant:
    """Discriminant of a sequence given by its values (per-site fold); even
    when every value is real."""

    def sample(omegas: np.ndarray) -> np.ndarray:
        return discriminant_grid(np.exp(1j * omegas), alphas)

    return Discriminant(sample, alphas.period, all(v.imag == 0.0 for v in alphas.values))


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


def _inside(disc_fn: Callable[[np.ndarray], np.ndarray], omegas: np.ndarray) -> np.ndarray:
    """|disc| <= 2 at the angles omegas, evaluated ``CHUNK`` angles at a time."""
    out = np.empty(len(omegas), dtype=bool)
    for k in range(0, len(omegas), CHUNK):
        out[k : k + CHUNK] = np.abs(disc_fn(omegas[k : k + CHUNK])) <= 2.0
    return out


def _bisect_band_edges(disc_fn: Callable[[np.ndarray], np.ndarray], families):
    """Shrink families of brackets (outside angles, inside angles) down to
    EDGE_ANGLE_TOL, all families in one evaluation per step.

    Each family keeps its own stop test, max |b - a| <= EDGE_ANGLE_TOL, and
    freezes once it passes, so it gets the same evaluations as it would
    alone.  Returns the midpoints, one array per family.
    """
    a = [out_angles.astype(float) for out_angles, _ in families]
    b = [in_angles.astype(float) for _, in_angles in families]
    active = list(range(len(families)))
    for _ in range(64):
        active = [i for i in active if not np.max(np.abs(b[i] - a[i])) <= EDGE_ANGLE_TOL]
        if not active:
            break
        mids = [0.5 * (a[i] + b[i]) for i in active]
        hits = _inside(disc_fn, np.concatenate(mids))
        start = 0
        for i, mid in zip(active, mids):
            hit = hits[start : start + len(mid)]
            start += len(mid)
            a[i], b[i] = np.where(hit, a[i], mid), np.where(hit, mid, b[i])
    return [0.5 * (lo + hi) for lo, hi in zip(a, b)]


def _scan_into(out: np.ndarray, disc_fn, res: int, first: int, even: bool) -> None:
    """Write |disc| <= 2 at the angles k * TAU / res, k = first, first + s,
    ... < res (s = 1 + first: the whole grid from 0, or the odd indices a
    doubling adds), into out, ``CHUNK`` angles at a time from integer
    index ranges.  With ``even`` only k <= res/2 are evaluated, and the
    other indices read the sample of res - k."""
    stride = 1 + first
    step = TAU / res
    n = len(range(first, res // 2 + 1, stride)) if even else len(out)
    for j in range(0, n, CHUNK):
        ks = np.arange(first + j * stride, first + min(j + CHUNK, n) * stride, stride)
        out[j : j + len(ks)] = np.abs(disc_fn(ks * step)) <= 2.0
    if even:
        lo = 1 - first  # angle 0 is its own mirror
        out[n:] = out[lo : lo + len(out) - n][::-1]


def _run_count(mask: np.ndarray) -> int:
    """Number of cyclic runs of True: the False -> True transitions."""
    return int(np.count_nonzero(mask[1:] > mask[:-1])) + int(mask[0] and not mask[-1])


def band_arcs_from_function(
    disc_fn: Callable[[np.ndarray], np.ndarray],
    resolution: int = DEFAULT_RESOLUTION,
    even: bool = False,
) -> ArcSet:
    """Band arcs {omega : |disc(e^{i omega})| <= 2} for a sampled discriminant.

    ``disc_fn`` maps angles to real discriminant samples.  The grid doubles
    until a nonzero band count repeats or it reaches ``MAX_RESOLUTION`` (a
    cheap tangency fallback), so a first grid in no band keeps doubling; one
    in a band everywhere stops at once.  Each doubling evaluates only the new
    angles, as halving the step is exact and the old ones are the even angles
    of the finer grid, bit for bit.  Then every edge is bisected to
    ``EDGE_ANGLE_TOL``.

    The scan holds no float array over a grid: every grid is evaluated
    ``CHUNK`` angles at a time, each block's angles k * (TAU / res) taken
    from an integer index range, and only the boolean mask of |disc| <= 2
    spans the grid.  The stop rule reads the run count off the mask's
    False -> True transitions; the runs themselves are found once, after
    the last grid.  Bisection moves the left and the right edges together,
    one evaluation per step of at most ``CHUNK`` angles per call.

    With ``even`` (``Discriminant.even``) each grid is evaluated only
    at the indices k <= res/2, and index k > res/2 takes the sample of
    res - k: the angles k h and (res - k) h are omega and 2 pi - omega.  The
    new angles of a doubling are odd multiples of the finer step, and so are
    their mirrors, so each grid mirrors onto itself at any resolution, odd
    ones included.  A mirrored sample differs from a direct one in its last
    bits; only which side of |disc| = 2 it falls on is kept.  Bisection runs
    on both halves, since 2 pi - omega is not the float mirror of omega.
    """
    if resolution < 8:
        raise ValidationError("resolution too small to scan bands")

    res = int(resolution)
    mask = np.empty(res, dtype=bool)
    _scan_into(mask, disc_fn, res, 0, even)
    prev_count = -1
    while True:
        count = _run_count(mask)
        if (count == prev_count and count > 0) or res >= MAX_RESOLUTION or mask.all():
            break
        prev_count = count
        res *= 2
        finer = np.empty(res, dtype=bool)
        finer[0::2] = mask  # old angles are the even ones
        _scan_into(finer[1::2], disc_fn, res, 1, even)
        mask = finer

    if mask.all():
        return ArcSet.full(TAU)
    if not mask.any():
        return ArcSet.empty(TAU)

    starts, ends = _cyclic_runs(mask)
    step = TAU / res
    left, right = _bisect_band_edges(
        disc_fn, [((starts - 1) * step, starts * step), ((ends + 1) * step, ends * step)]
    )
    return ArcSet.from_sweeps(left, np.where(right < left, right + TAU, right), TAU)


def band_arcs(disc: Discriminant, resolution: int = DEFAULT_RESOLUTION) -> ArcSet:
    """Band arcs of a discriminant source: the one wiring of source to scan."""
    return band_arcs_from_function(disc.sample, resolution, even=disc.even)


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
        """Eigenvalues of the unitary operator U, in no particular order.

        H = (e^{-i gamma} U + e^{i gamma} U*)/2 is Hermitian and shares U's
        eigenvectors, with eigenvalues cos(omega - gamma) for gamma =
        ``FLOQUET_ROTATION``.  ``eigh`` gives its orthonormal eigenvectors V;
        the eigenvalues are the Rayleigh quotients lambda_j = v_j* U v_j.
        They are accepted when ||UV - V Lambda||_F <= FLOQUET_RESIDUAL_PER_SITE
        * q: V is unitary, so by Hoffman-Wielandt the multiset {lambda_j} is
        then within that residual of U's eigenvalues.  Otherwise -- a near
        tie cos(omega_1 - gamma) = cos(omega_2 - gamma) mixed two distant
        eigenvectors -- this operator falls back to ``numpy.linalg.eigvals``.
        """
        u = self.mat
        h = np.exp(-1j * FLOQUET_ROTATION) * u
        h += h.conj().T  # 2H: the factor does not move eigenvectors
        _, v = np.linalg.eigh(h)
        uv = u @ v
        lam = np.einsum("ij,ij->j", v.conj(), uv)
        uv -= v * lam
        if np.linalg.norm(uv) <= FLOQUET_RESIDUAL_PER_SITE * self.q:
            return lam
        return np.linalg.eigvals(u)


def floquet_skeleton(alphas: PeriodicAlphas):
    """The phi-free parts of the twisted one-period operator, as
    ``build_floquet`` lays them out: the 2x2 blocks at even offsets, the odd
    factor with its two twisted corner entries left at zero, and the corner
    block.  ``theta_matrix`` runs once per distinct coefficient, told apart
    by its bits, signed zeros included."""
    q = alphas.period
    if q < 4 or q % 2:
        raise ValidationError("Floquet operator needs an even period >= 4")
    theta, blocks = {}, []  # blocks[n - 1]: the block of site n
    for v in alphas.values:
        key = (v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag))
        if key not in theta:
            theta[key] = theta_matrix(v)
        blocks.append(theta[key])

    odd_part = np.zeros((q, q), dtype=complex)
    for j in range(1, q - 2, 2):
        odd_part[j : j + 2, j : j + 2] = blocks[j - 1]
    corner = blocks[q - 2]
    odd_part[q - 1, q - 1] = corner[0, 0]
    odd_part[0, 0] = corner[1, 1]
    even_blocks = np.array([blocks[q - 1], *blocks[1 : q - 2 : 2]])  # offsets 0, 2, ..., q - 2
    return even_blocks, odd_part, corner


def build_floquet(alphas: PeriodicAlphas, phi: complex, skeleton=None) -> FloquetOperator:
    """Assemble the twisted one-period CMV operator from 2x2 unitary blocks.

    Two block-diagonal unitaries interleave: one carries the blocks at even
    offsets 0, 2, ..., q-2, the other the odd offsets 1, 3, ..., q-3 plus a
    wrapped corner block twisted by phi.  Their product is unitary and its
    eigenvalues z0 solve disc(z0) = phi + 1/phi.  Row pair (j, j+1) of the
    product is the even block at j times rows j, j+1 of the odd factor, so
    it costs 2 x 2 by 2 x q products, not a dense q x q one.

    Only the two twisted corner entries depend on phi: ``skeleton``, the
    phi-free parts (``floquet_skeleton(alphas)``), lets operators at many
    phases share them; without it they are built here.
    """
    even_blocks, odd_free, corner = floquet_skeleton(alphas) if skeleton is None else skeleton
    phi = check_unit_z(complex(phi))
    q = len(odd_free)
    odd_part = odd_free.copy()
    odd_part[q - 1, 0] = corner[0, 1] * phi
    odd_part[0, q - 1] = corner[1, 0] / phi
    return FloquetOperator((even_blocks @ odd_part.reshape(q // 2, 2, q)).reshape(q, q), q, phi)


def floquet_discriminant_residual(alphas: PeriodicAlphas, phi):
    """Cross-validate the Floquet route against the transfer-product route.

    For each phase phi: the unitarity defect of the Floquet operator and the
    worst |disc(z0) - (phi + 1/phi)| over its eigenvalues z0.  ``phi`` is one
    phase, which returns its report, or a sequence of phases, which returns
    their reports in order; one phase is a sequence of length 1.

    The period and every phase are checked before any operator is built.
    The phi-free parts of the operator are built once (``floquet_skeleton``),
    and the eigensolves run one phase at a time, so memory stays O(q^2)
    whatever the number of phases.  The eigenvalues of as many phases as fit in ``CHUNK`` points (at
    least one phase) go through one per-site fold, and the determinant drift
    check runs on each phase's slice in phase order: the first failing phase
    raises, as it would alone.
    """
    skeleton = floquet_skeleton(alphas)
    phis = [complex(p) for p in check_unit_z(np.atleast_1d(phi))]
    q = alphas.period
    per_fold = max(1, CHUNK // q)
    reports = []
    for first in range(0, len(phis), per_fold):
        batch = phis[first : first + per_fold]
        points, defects = [], []
        for p in batch:
            flo = build_floquet(alphas, p, skeleton)
            z0 = flo.eigenvalues()
            points.append(z0 / np.abs(z0))  # unit modulus up to rounding
            defects.append(flo.unitarity_defect())
        a, b, e = transfer_product_grid(alphas.alpha, np.concatenate(points), 1, q)
        e = np.broadcast_to(e, a.shape)
        for k, (p, defect) in enumerate(zip(batch, defects)):
            at = slice(k * q, (k + 1) * q)
            disc = pair_trace((a[at], b[at], e[at]), q)
            reports.append(
                {
                    "q": q,
                    "phi": p,
                    "unitarity_defect": defect,
                    "worst_residual": float(np.max(np.abs(disc - (p + 1.0 / p).real))),
                }
            )
    return reports if np.ndim(phi) else reports[0]
