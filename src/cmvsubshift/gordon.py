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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import mpmath
import numpy as np

from .arcs import ArcSet
from .errors import ValidationError
from .quadratic import CONVERSION_DPS, GOLDEN_MEAN, Quadratic, exact
from .words import (
    ContinuedFraction,
    RotationCoding,
    check_three_block,
    continued_fraction,
    sturmian_coding,
)

MODES = ("sturmian", "coding")


def convergent_gap(theta, cf: ContinuedFraction, n: int) -> Quadratic:
    """|q_n * theta - p_n|, exactly."""
    if not 1 <= n < cf.depth:
        raise ValidationError(f"convergent index {n} out of range for depth {cf.depth}")
    return abs(exact(theta) * cf.q[n] - cf.p[n])


def _orbit_sweeps(theta: Quadratic, start: Quadratic, count: int, r: Quadratic) -> list:
    """Sweeps of radius r around the centers start - j*theta, 1 <= j <= count."""
    sweeps = []
    center = start
    for _ in range(count):
        center = center - theta
        sweeps.append((center - r, center + r))
    return sweeps


def bad_arcs(theta, endpoints: Sequence, n: int, cf: Optional[ContinuedFraction] = None) -> ArcSet:
    """Arcs of phases whose orbit approaches a coding-arc endpoint too fast.

    One closed arc of radius r = |q_n*theta - p_n| around every center
    e - j*theta, for each endpoint e and 1 <= j <= q_n.
    """
    theta = exact(theta)
    if cf is None:
        cf = continued_fraction(theta, n + 2)
    if n + 1 >= cf.depth:
        raise ValidationError("continued fraction not deep enough for this index")
    r = convergent_gap(theta, cf, n)
    sweeps = []
    for e in endpoints:
        sweeps += _orbit_sweeps(theta, exact(e), cf.q[n], r)
    return ArcSet(sweeps, period=1)


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
        bad = ArcSet(_orbit_sweeps(theta, exact(0), q + 1, r), period=1)
        bound = 1 - 2 * (q + 1) * r
        kind = "sturmian"
    elif mode == "coding":
        if interval is None:
            raise ValidationError("coding mode needs the arc endpoints")
        bad = bad_arcs(theta, interval, n, cf=cf)
        bound = 1 - Fraction(4 * q, q_next)
        kind = "rotation-coding"
    else:
        raise ValidationError(f"mode must be one of {MODES}")
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
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    theta = GOLDEN_MEAN
    cf = continued_fraction(theta, depth + 2)
    with mpmath.workdps(CONVERSION_DPS):
        ratio = mpmath.mpf(cf.q[depth + 1]) / cf.q[depth]
        ratio_target = (1 + mpmath.sqrt(5)) / 2
        gap = convergent_gap(theta, cf, depth)
        scaled = cf.q[depth] * gap.to_mpf()
        scaled_target = 1 / mpmath.sqrt(5)
        return GoldenLimitsReport(
            depth=depth,
            ratio=float(ratio),
            ratio_target=float(ratio_target),
            ratio_error=float(ratio - ratio_target),
            scaled_gap=float(scaled),
            scaled_gap_target=float(scaled_target),
            scaled_gap_error=float(scaled - scaled_target),
        )
