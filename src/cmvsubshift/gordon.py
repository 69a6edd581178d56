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
emitted directly in ``ArcSet`` normal form, with one exact endpoint per
end; the bad arcs are their complement.
"""

from __future__ import annotations

import gc
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .arcs import ArcSet
from .errors import ValidationError
from .quadratic import GOLDEN_MEAN, Quadratic, _raw, exact
from .words import (
    ContinuedFraction,
    RotationCoding,
    check_three_block,
    coding_arc,
    continued_fraction,
    sturmian_coding,
)

MODES = ("sturmian", "coding")

# The float key of s - i*theta, s and theta in [0, 1), is within
# (i + 3) * KEY_ERROR of its value: three roundings of at most 2^-53 each
# (theta's carried i times) and a subtraction, with room to spare.
KEY_ERROR = 2.0 ** -50

# int64 numerators while every one stays below this; Python ints beyond
_INT64_SAFE = 1 << 62


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a set's arcs are built.

    They are hundreds of thousands of new objects at golden n = 27, and no
    cycles: with the collector running, its full passes over the growing
    heap take longer than the construction itself.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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


def _centers(theta: Quadratic, segments: list):
    """The centers in increasing order on [0, 1), as int arrays
    (segment, i, f): center = start[segment] - i*theta - f.

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
        den, d, ((ta, tb), *sn) = _numerators([theta, *starts])
        order, segs, ids, floors = order.tolist(), seg.tolist(), idx.tolist(), floor.tolist()

        def exact_key(c):
            sa, sb = sn[segs[c]]
            return _raw(sa - ids[c] * ta - floors[c] * den, sb - ids[c] * tb, den, d)

        for a, b in runs:
            order[a:b] = sorted(order[a:b], key=exact_key)
        order = np.array(order)
    return seg[order], idx[order], floor[order]


def _quadratics(a, b, denominator: int, d: int) -> list:
    """The values (a + b*sqrt(d)) / denominator of two numerator arrays."""
    g = np.gcd(np.gcd(a, b), denominator)
    a, b, c = a // g, b // g, denominator // g
    return [_raw(x, y, z, d if y else 0) for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]


def _good_arcs(theta: Quadratic, r: Quadratic, segments: list) -> ArcSet:
    """Complement of the closed arcs of radius r around every center."""
    seg, idx, floor = _centers(theta, segments)
    m = len(seg)
    starts = [start for start, _ in segments]
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
    # numerators over one denominator: center = (ca + cb sqrt(d)) / den
    den, d, ((ta, tb), (ra, rb), *sn) = _numerators([theta, r, *starts])
    sa, sb = zip(*sn)
    size = (m + 3) * (max(map(abs, sa + sb)) + abs(ta) + abs(tb) + abs(ra) + abs(rb) + den)
    dtype = np.int64 if size < _INT64_SAFE else object
    idx, floor = idx.astype(dtype), floor.astype(dtype)
    ca = np.array(sa, dtype=dtype)[seg] - idx * ta - floor * den
    cb = np.array(sb, dtype=dtype)[seg] - idx * tb
    wrap = good[-1] == m - 1
    if wrap:
        good = good[:-1]
    arcs = list(
        zip(
            _quadratics(ca[good] + ra, cb[good] + rb, den, d),
            _quadratics(ca[good + 1] - ra, cb[good + 1] - rb, den, d),
        )
    )
    if wrap:
        # the gap across 0: [c_last + r, c_first + 1 - r), split at 0 unless
        # it lies on one side of it
        (lo,) = _quadratics(ca[-1:] + ra, cb[-1:] + rb, den, d)
        (hi,) = _quadratics(ca[:1] - ra + den, cb[:1] - rb, den, d)
        if lo >= 1:
            arcs.insert(0, (lo - 1, hi - 1))
        elif hi <= 1:
            arcs.append((lo, hi))
        else:
            arcs.insert(0, (_raw(0, 0, 1, 0), hi - 1))
            arcs.append((lo, 1))
    return ArcSet._from_normal_form(arcs, 1, measure)


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
    r = convergent_gap(theta, cf, n)
    q = cf.q[n]
    with _collector_paused():
        return _good_arcs(theta, r, _orbit_segments(theta, endpoints, q)).complement()


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

    def as_dict(self) -> dict:
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
            "arcs": self.arcs.as_dict(),
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
    if mode == "sturmian":
        if interval is not None:
            raise ValidationError("sturmian mode fixes the coding arc; drop the interval")
        # the orbits of the endpoints 1 - theta and 0 share q - 1 centers:
        # together they are the one orbit {-j*theta : 1 <= j <= q + 1}
        endpoints = (1 - theta, 0)
        bound = 1 - 2 * (q + 1) * r
        kind = "sturmian"
    elif mode == "coding":
        if interval is None:
            raise ValidationError("coding mode needs the arc endpoints")
        coding_arc(*interval)  # the arc verify_membership would read
        endpoints = interval
        bound = 1 - Fraction(4 * q, q_next)
        kind = "rotation-coding"
    else:
        raise ValidationError(f"mode must be one of {MODES}")
    bad = bad_arcs(theta, endpoints, n, cf=cf)
    with _collector_paused():
        good = bad.complement()
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
    if mode == "sturmian":
        coding = sturmian_coding(theta, beta)
    elif mode == "coding":
        if interval is None:
            raise ValidationError("coding mode needs the arc endpoints")
        coding = RotationCoding(theta, beta, interval[0], interval[1])
    else:
        raise ValidationError(f"mode must be one of {MODES}")
    window = coding.window(1 - q, 2 * q)
    return check_three_block(window, q)


def monte_carlo_measure(arcs: ArcSet, samples: int, rng) -> dict:
    """Uniform-sampling estimate of an arc set's measure, with its 1-sigma error."""
    if samples < 1:
        raise ValidationError("need at least one sample")
    xs = rng.uniform(0.0, float(arcs.period), samples)
    hits = int(arcs.contains_many(xs).sum())
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
