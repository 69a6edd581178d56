"""Admissible-phase sets for rotation codings via the Gordon repetition trick.

For an irrational rotation number theta with convergents p_n/q_n, the coded
sequence at phase beta repeats over three consecutive q_n-blocks unless the
orbit point j*theta lands within r = |q_n*theta - p_n| of one of the coding
arc's endpoints (measured on the circle) for some 1 <= j <= q_n.  Removing
the closed "bad" arc of radius r around every such center therefore leaves a
set of phases whose coded words satisfy the three-block condition on the
nose -- which feeds the solution-norm bounds of the transfer layer.

For the Sturmian arc [1 - theta, 1) the two endpoint orbits coincide after a
one-step shift, so the 2*q_n bad arcs collapse onto q_n + 1 distinct centers
{-j*theta : j = 1..q_n+1}, giving the sharper measure bound
1 - 2(q_n + 1) r; a generic coding arc keeps 2*q_n arcs and the cruder bound
1 - 4 q_n / q_{n+1}.

All circle arithmetic is exact, because r decays exponentially and float
endpoints would dissolve into rounding noise long before interesting
depths: theta and the arc endpoints are read once with ``quadratic.exact``
(a quadratic irrational stays one, a decimal is the rational it spells, a
binary float of any precision is its exact binary value).

The arcs are built in circle order, on integer arrays.  Over a common
denominator D, the center s - i*theta - f (f its floor) is
(a + b*sqrt(d))/D with integers a and b affine in i and f.  The centers of
every orbit segment are sorted together by float keys, and neighbours whose
keys are too close to trust are sorted again exactly (``_centers``);
coincident centers merge through their gap of 0.  A gap between neighbours
is then fixed by an integer class (the two segments and the differences of
i and of f), so each class is compared with 2r exactly once, and the
measure is a sum over classes.  The good arcs [c_k + r, c_{k+1} - r) are
emitted directly in ``ArcSet`` normal form as numerator arrays
(``_ExactArcs``): exact endpoints are built only for the arcs a caller
reads, too few to need the garbage collector paused.  The bad arcs are
their complement.

The float of every endpoint (for JSON and sampling) comes from the same
arrays: for a rational a/den one correctly rounded int division, for a surd
(a + b*sqrt(d))/den double-double arithmetic (``_round_numerators``),
Dekker's TwoProd and Knuth's TwoSum on exact two-float splits of the int64
numerators and of sqrt(d), with an error below
E = 2^-98 (|a| + |b| sqrt(d)) / den; its rounding is accepted wherever the
value lies more than E inside the rounding interval of that float.  Every
other surd (within E of a midpoint between two floats, a denominator of
2^53 or more, or numerators past int64) takes ``float`` of its exact value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .arcs import ArcSet
from .errors import ResourceCapError, ValidationError
from .quadratic import GOLDEN_MEAN, Quadratic, _exact_sign, _make, _raw, exact
from .words import (
    ContinuedFraction,
    RotationCoding,
    check_three_block,
    coding_arc,
    continued_fraction,
)

MODES = ("sturmian", "coding")

# The float key of s - i*theta, s and theta in [0, 1), is within
# (i + 3) * KEY_ERROR of its value: three roundings of at most 2^-53 each
# (theta's carried i times) and a subtraction, with room to spare.
KEY_ERROR = 2.0 ** -50

# int64 numerators while every one stays below this; Python ints beyond
_INT64_SAFE = 1 << 62


def _mode_arc(theta: Quadratic, mode: str, interval: Optional[Tuple]) -> tuple:
    """The coding arc of a mode, as ``coding_arc`` reads it: [1 - theta, 1) in
    Sturmian mode, which takes no interval, and the interval in coding mode."""
    if mode == "sturmian":
        if interval is not None:
            raise ValidationError("sturmian mode fixes the coding arc; drop the interval")
        return coding_arc(1 - theta, 1)
    if mode == "coding":
        if interval is None:
            raise ValidationError("coding mode needs the arc endpoints")
        return coding_arc(*interval)
    raise ValidationError(f"mode must be one of {MODES}")


def convergent_gap(theta, cf: ContinuedFraction, n: int) -> Quadratic:
    """|q_n * theta - p_n|, exactly."""
    if not 1 <= n < cf.depth:
        raise ValidationError(f"convergent index {n} out of range for depth {cf.depth}")
    return abs(exact(theta) * cf.q[n] - cf.p[n])


def _orbit_segments(theta: Quadratic, endpoints: Sequence, q: int) -> list:
    """(start, length) pairs whose segments {start - i*theta : 0 <= i < length}
    together hold the centers e - j*theta, 1 <= j <= q, of every endpoint e.

    Endpoints equal mod 1 share their orbit.  An endpoint one rotation step
    behind another (e' = e - theta mod 1, as for the Sturmian arc) shares
    q - 1 centers with it, and the two make one segment of q + 1.
    """
    points = []
    for e in endpoints:
        e = exact(e).frac()
        if e not in points:
            points.append(e)
    starts = [(e - theta).frac() for e in points]
    segments, taken = [], set()
    for k, start in enumerate(starts):
        if k in taken:
            continue
        m = next((m for m, e in enumerate(points) if e == start and m not in taken), None)
        if m is not None:
            taken.update((k, m))
            segments.append((start, q + 1))
    segments += [(start, q) for k, start in enumerate(starts) if k not in taken]
    return segments


def _numerators(values: list) -> Tuple[int, int, list]:
    """(den, d, [(a, b), ...]) with every x = (a + b*sqrt(d)) / den."""
    d = max(x.d for x in values)
    if any(x.d not in (0, d) for x in values):
        raise ValidationError("mixed radicands are not supported")
    den = math.lcm(*(x.C for x in values))
    return den, d, [(x.A * (den // x.C), x.B * (den // x.C)) for x in values]


def _centers(theta: Quadratic, segments: list, numerators: tuple):
    """The centers in increasing order on [0, 1), as int arrays
    (segment, i, f): center = start[segment] - i*theta - f, with
    ``numerators`` (den, d, (ta, tb), [(sa, sb), ...]) of theta and starts.

    Float keys x - f, with x = float(start) - i*float(theta), lie within
    KEY_ERROR * (length + 3) of the centers; a floor is checked exactly
    where x lies that close to an integer.  The keys are sorted once, and
    each run of neighbours whose keys are too close to trust is sorted
    again by exact value.  Two centers in the wrong order by their keys
    have keys within the tolerance, and so have all keys between them:
    they share a run.  The sorts are stable, so coincident centers stay one
    after the other: the gap of 0 between them merges their bad arcs like
    any gap of at most 2r.
    """
    starts = [start for start, _ in segments]
    seg = np.concatenate([np.full(length, k, dtype=np.int64) for k, (_, length) in enumerate(segments)])
    idx = np.concatenate([np.arange(length, dtype=np.int64) for _, length in segments])
    x = np.array([float(s) for s in starts])[seg] - idx * float(theta)
    err = KEY_ERROR * (max(length for _, length in segments) + 3)
    f = np.floor(x)
    near = np.flatnonzero((x - f <= err) | (x - f >= 1 - err))
    floor = f.astype(np.int64)
    for k in near.tolist():
        floor[k] = math.floor(starts[seg[k]] - int(idx[k]) * theta)
    key = x - floor
    order = np.argsort(key, kind="stable")
    close = np.flatnonzero(np.diff(key[order]) <= 2 * err)
    if close.size:
        # runs of close neighbours: [a, b) from each first to each last pair
        split = np.diff(close) > 1
        runs = zip(close[np.r_[True, split]].tolist(), (close[np.r_[split, True]] + 2).tolist())
        # exact keys start - i*theta - f = (a + b*sqrt(d)) / den
        den, d, (ta, tb), sn = numerators
        order, segs, ids, floors = order.tolist(), seg.tolist(), idx.tolist(), floor.tolist()

        def exact_key(c):
            sa, sb = sn[segs[c]]
            return _raw(sa - ids[c] * ta - floors[c] * den, sb - ids[c] * tb, den, d)

        for a, b in runs:
            order[a:b] = sorted(order[a:b], key=exact_key)
        order = np.array(order)
    return seg[order], idx[order], floor[order]


def _quadratics(a, b, den: int, d: int) -> list:
    """The values (a + b*sqrt(d)) / den of two numerator arrays."""
    return [_make(x, y, den, d) for x, y in zip(a.tolist(), b.tolist())]


# -- endpoint floats on the arrays ---------------------------------------------


def _two_sum(x, y):
    """s + e = x + y exactly, s = fl(x + y) (Knuth)."""
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def _split(x):
    """x = hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    """p + e = x * y exactly, p = fl(x * y) (Dekker)."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _exact_split(a):
    """Floats (hi, lo) with hi + lo = a exactly for an int64 array a:
    hi = fl(a), and lo the integer rest, |lo| <= 2^-53 |a|."""
    hi = a.astype(np.float64)
    return hi, (a - hi.astype(np.int64)).astype(np.float64)


def _sqrt_pair(d: int) -> Tuple[float, float]:
    """(hi, lo) with hi = fl(sqrt(d)) and |sqrt(d) - hi - lo| <= 2^-105 sqrt(d)."""
    hi = math.sqrt(d)
    # floor(sqrt(d) 2^128) is within 2^-128 of sqrt(d) 2^128; lo rounds the rest
    return hi, float(Fraction(math.isqrt(d << 256), 1 << 128) - Fraction(hi))


def _round_numerators(a, b, den: int, d: int):
    """(f, certified): f the floats of (a + b*sqrt(d)) / den for int64 arrays a
    and b (|a|, |b| < 2^62, 0 < den < 2^53), certified where f is the
    correctly rounded value.

    With u = 2^-53 and S = |a| + |b| sqrt(d), the value is computed as
    q1 + q2 within 25 u^2 S / den:
      * a = a_f + a_r and b = b_f + b_r exactly (``_exact_split``), and
        sqrt(d) = s_hi + s_lo within 2 u^2 sqrt(d) (``_sqrt_pair``);
      * the numerator is a_f + (p + p_err) + t: p + p_err = b_f s_hi exactly
        (``_two_prod``), and t = fl(fl(a_r + fl(b_r s_hi)) + fl(b_f s_lo))
        within 6 u^2 S of a_r + b_r s_hi + b_f s_lo, three terms of at most
        1.02 u S each; b_r s_lo, dropped, and the error of s_lo add 3.1 u^2 S;
      * the four terms, of absolute sum at most 1.01 S, are summed by a
        cascade of TwoSums with the rounding errors summed on the side
        (Sum2 of Ogita, Rump and Oishi), within gamma_3^2 < 9.1 u^2 of that
        sum, into the exact pair n_hi + n_lo;
      * q1 = fl(n_hi / den), the remainder n_hi + n_lo - q1 den is exact up
        to its last two roundings, and q2 = fl(remainder / den): within
        6 u^2 S / den of (n_hi + n_lo) / den.
    The kernel takes E = 2^-98 S_f / den, S_f = |a_f| + |b_f| s_hi, which is
    more than ten times that (25 u^2 < 2^-101).  f = fl(q1 + q2) is the
    correctly rounded value wherever |q1 + q2 - f| + E is below half the gap
    from f to its nearer neighbouring float: the value then lies strictly
    inside f's rounding interval.
    """
    s_hi, s_lo = _sqrt_pair(d)
    a_f, a_r = _exact_split(a)
    b_f, b_r = _exact_split(b)
    p, p_err = _two_prod(b_f, s_hi)
    total, e1 = _two_sum(a_f, p)
    total, e2 = _two_sum(total, p_err)
    total, e3 = _two_sum(total, (a_r + b_r * s_hi) + b_f * s_lo)
    n_hi, n_lo = _two_sum(total, (e1 + e2) + e3)
    q1 = n_hi / den
    p, p_err = _two_prod(q1, float(den))
    q2 = (((n_hi - p) - p_err) + n_lo) / den
    f = q1 + q2
    off = np.abs((q1 - f) + q2) * (1 + 2.0 ** -50)
    bound = 2.0 ** -98 * (np.abs(a_f) + np.abs(b_f) * s_hi) / den
    gap = np.minimum(np.nextafter(f, np.inf) - f, f - np.nextafter(f, -np.inf))
    return f, 2 * (off + bound) < gap


def _endpoint_floats(a, b, den: int, d: int) -> np.ndarray:
    """float((a[k] + b[k]*sqrt(d)) / den) for every k, as a float64 array:
    one int division for a rational, rounded on the arrays where certified,
    and from the exact value everywhere else."""
    if d == 0:
        return np.array([x / den for x in a.tolist()], dtype=float)  # int true division rounds correctly
    if a.dtype != np.int64 or den >= 1 << 53:
        return np.array([float(x) for x in _quadratics(a, b, den, d)], dtype=float)
    f, certified = _round_numerators(a, b, den, d)
    for k in np.flatnonzero(~certified).tolist():
        f[k] = float(_make(int(a[k]), int(b[k]), den, d))
    return f


class _ExactArcs:
    """The arcs [lo_k, hi_k), lo_k = (lo_a[k] + lo_b[k]*sqrt(d)) / den and hi_k
    alike, as numerator arrays: a slice builds the exact arcs it holds."""

    def __init__(self, lo_a, lo_b, hi_a, hi_b, den: int, d: int):
        self.numerators, self.den, self.d = (lo_a, lo_b, hi_a, hi_b), den, d

    def __len__(self) -> int:
        return len(self.numerators[0])

    def __getitem__(self, k: slice) -> list:
        lo_a, lo_b, hi_a, hi_b = (x[k] for x in self.numerators)
        return list(zip(_quadratics(lo_a, lo_b, self.den, self.d), _quadratics(hi_a, hi_b, self.den, self.d)))


def _good_arcs(theta: Quadratic, r: Quadratic, endpoints: Sequence, q: int) -> ArcSet:
    """Complement of the closed arcs of radius r around the centers
    e - j*theta, 1 <= j <= q, of every endpoint e, with its exact measure
    and its float endpoints."""
    if q + 1 >= _INT64_SAFE:
        raise ResourceCapError(f"q_n = {q} is too large to list the orbit centers")
    segments = _orbit_segments(theta, endpoints, q)
    starts = [start for start, _ in segments]
    # numerators over one denominator: x = (a + b sqrt(d)) / den
    den, d, ((ta, tb), (ra, rb), *sn) = _numerators([theta, r, *starts])
    seg, idx, floor = _centers(theta, segments, (den, d, (ta, tb), sn))
    m = len(seg)
    # the gap from each center to the next (the last to the first, plus 1)
    # is fixed by its class (segment, next segment, di, df), packed into one
    # int64 (|di| < m, |df| <= m + 1); compare each class with 2r once
    dfloor = np.roll(floor, -1) - floor
    dfloor[-1] -= 1
    width = 2 * m + 5
    packed = ((seg * len(segments) + np.roll(seg, -1)) * width + np.roll(idx, -1) - idx + m) * width
    packed += dfloor + m + 2
    classes, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)
    two_r = 2 * r
    good_class, measure = [], 0
    for cls, count in zip(classes.tolist(), counts.tolist()):
        rest, df = divmod(cls, width)
        pair, di = divmod(rest, width)
        s1, s2 = divmod(pair, len(segments))
        excess = starts[s2] - starts[s1] - (di - m) * theta - (df - m - 2) - two_r
        good_class.append(excess.sign() > 0)
        if good_class[-1]:
            measure = measure + count * excess
    good = np.flatnonzero(np.array(good_class)[inverse])
    if good.size == 0:
        return ArcSet.empty(1)
    sa, sb = zip(*sn)
    size = (m + 3) * (max(map(abs, sa + sb)) + abs(ta) + abs(tb) + abs(ra) + abs(rb) + den)
    dtype = np.int64 if size < _INT64_SAFE else object
    idx, floor = idx.astype(dtype), floor.astype(dtype)
    ca = np.array(sa, dtype=dtype)[seg] - idx * ta - floor * den
    cb = np.array(sb, dtype=dtype)[seg] - idx * tb
    # arc k is [c_k + r, c_{k+1} - r), the next center of the last one turn on
    lo_a, lo_b = ca[good] + ra, cb[good] + rb
    next_a = np.roll(ca, -1)
    next_a[-1] += den
    hi_a, hi_b = next_a[good] - ra, np.roll(cb, -1)[good] - rb
    if good[-1] == m - 1:
        # the gap across 0: [c_last + r, c_first + 1 - r), one turn back to
        # the front if it lies past 1, split at 0 if it lies across it
        turn = np.array([-den], dtype=dtype)
        if _exact_sign(int(lo_a[-1]) - den, int(lo_b[-1]), d) >= 0:
            lo_a, hi_a = (np.concatenate([x[-1:] + turn, x[:-1]]) for x in (lo_a, hi_a))
            lo_b, hi_b = (np.concatenate([x[-1:], x[:-1]]) for x in (lo_b, hi_b))
        elif _exact_sign(int(hi_a[-1]) - den, int(hi_b[-1]), d) > 0:
            zero = np.zeros(1, dtype=dtype)
            lo_a, lo_b = np.concatenate([zero, lo_a]), np.concatenate([zero, lo_b])
            hi_a = np.concatenate([hi_a[-1:] + turn, hi_a[:-1], -turn])
            hi_b = np.concatenate([hi_b[-1:], hi_b[:-1], zero])
    floats = (_endpoint_floats(lo_a, lo_b, den, d), _endpoint_floats(hi_a, hi_b, den, d))
    return ArcSet._from_normal_form(_ExactArcs(lo_a, lo_b, hi_a, hi_b, den, d), 1, measure, floats=floats)


def bad_arcs(theta, endpoints: Sequence, n: int, cf: Optional[ContinuedFraction] = None) -> ArcSet:
    """Arcs of phases whose orbit approaches a coding-arc endpoint too fast.

    One closed arc of radius r = |q_n*theta - p_n| around every center
    e - j*theta, for each endpoint e and 1 <= j <= q_n, built in circle
    order (module docstring) and returned in normal form with its exact
    measure.
    """
    theta = exact(theta)
    if cf is None:
        cf = continued_fraction(theta, n + 2)
    if n + 1 >= cf.depth:
        raise ValidationError("continued fraction not deep enough for this index")
    return _good_arcs(theta, convergent_gap(theta, cf, n), endpoints, cf.q[n]).complement()


@dataclass(frozen=True)
class GordonReport:
    """Admissible phases at one continued-fraction index, with its bound."""

    mode: str
    index: int
    q: int
    q_next: int
    gap: float
    arcs: ArcSet
    measure: float
    bound: float
    bound_kind: str
    applicable: bool  # the repetition argument needs q_n even

    def as_dict(self, arc_list=None) -> dict:
        """JSON form, the arcs' as ``ArcSet.as_dict(arc_list)`` writes it."""
        return {
            "mode": self.mode,
            "index": self.index,
            "q": self.q,
            "q_next": self.q_next,
            "gap": self.gap,
            "measure": self.measure,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "applicable": self.applicable,
            "arcs": self.arcs.as_dict(arc_list),
        }


def gordon_set(
    theta,
    n: int,
    mode: str = "sturmian",
    interval: Optional[Tuple] = None,
) -> GordonReport:
    """Admissible phases at index n, their exact measure, and the lower bound."""
    theta = exact(theta)
    cf = continued_fraction(theta, n + 2)
    q, q_next = cf.q[n], cf.q[n + 1]
    r = convergent_gap(theta, cf, n)
    # Sturmian: the orbits of the endpoints 1 - theta and 1 share q - 1
    # centers, and together they are the one orbit {-j*theta : 1 <= j <= q + 1}
    good = _good_arcs(theta, r, _mode_arc(theta, mode, interval), q)
    if mode == "sturmian":
        bound, kind = 1 - 2 * (q + 1) * r, "sturmian"
    else:
        bound, kind = 1 - Fraction(4 * q, q_next), "rotation-coding"
    applicable = q % 2 == 0
    if not applicable:
        warnings.warn(
            f"q_{n} = {q} is odd; the repetition argument needs an even block length",
            stacklevel=2,
        )
    return GordonReport(
        mode=mode,
        index=n,
        q=q,
        q_next=q_next,
        gap=float(r),
        arcs=good,
        measure=float(good.measure),
        bound=float(bound),
        bound_kind=kind,
        applicable=applicable,
    )


def verify_membership(
    theta,
    beta,
    n: int,
    mode: str = "sturmian",
    interval: Optional[Tuple] = None,
) -> bool:
    """Check the three-block repetition directly on the coded word.

    This is the ground-truth test the arc construction approximates from
    inside: every phase in the admissible arcs must pass it.
    """
    cf = continued_fraction(theta, n + 1)
    q = cf.q[n]
    if q % 2:
        raise ValidationError("repetition length q_n must be even for the Gordon route")
    coding = RotationCoding(theta, beta, *_mode_arc(exact(theta), mode, interval))
    window = coding.window(1 - q, 2 * q)
    return check_three_block(window, q)


def monte_carlo_measure(arcs: ArcSet, samples: int, rng) -> dict:
    """Uniform-sampling estimate of an arc set's measure, with its 1-sigma error.

    The hits are counted on the sorted samples (``ArcSet.count_contained``,
    two binary searches per arc), the same count as ``contains_many``.
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    xs = rng.uniform(0.0, float(arcs.period), samples)
    hits = arcs.count_contained(xs)
    p = hits / samples
    sigma = float(np.sqrt(max(p * (1.0 - p), 1e-12) / samples)) * float(arcs.period)
    return {
        "samples": samples,
        "estimate": p * float(arcs.period),
        "sigma": sigma,
    }


@dataclass(frozen=True)
class GoldenLimitsReport:
    """Convergent asymptotics for the golden rotation number at one depth."""

    depth: int
    ratio: float
    ratio_target: float
    ratio_error: float
    scaled_gap: float
    scaled_gap_target: float
    scaled_gap_error: float


def golden_limits(depth: int) -> GoldenLimitsReport:
    """Denominator growth ratio q_{d+1}/q_d and scaled gap q_d |q_d theta - p_d|.

    As the depth grows the ratio approaches the golden ratio (1 + sqrt 5)/2
    and the scaled gap approaches 1/sqrt 5; the report carries raw values and
    signed distances to those targets, making no convergence claim itself.
    Every field is an exact value rounded once to float.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    cf = continued_fraction(GOLDEN_MEAN, depth + 2)
    ratio = Fraction(cf.q[depth + 1], cf.q[depth])
    ratio_target = GOLDEN_MEAN + 1
    scaled = cf.q[depth] * convergent_gap(GOLDEN_MEAN, cf, depth)
    scaled_target = Quadratic(0, Fraction(1, 5), 5)
    return GoldenLimitsReport(
        depth=depth,
        ratio=float(ratio),
        ratio_target=float(ratio_target),
        ratio_error=float(ratio - ratio_target),
        scaled_gap=float(scaled),
        scaled_gap_target=float(scaled_target),
        scaled_gap_error=float(scaled - scaled_target),
    )
