"""Disjoint unions of half-open arcs on a circle.

Band spectra live on the unit circle (period 2*pi, float endpoints) and
Gordon phase sets live on the torus R/Z (period 1, exact Fraction/Quadratic
endpoints).  One container serves both: endpoints may be any totally ordered
numeric type closed under subtraction, and all set algebra (merge, complement,
intersection, measure) stays in that type.  Construction from sweeps sorts
(a plain sort, exact comparisons for exact endpoints) and merges once;
complement and intersection then work on the sorted disjoint arcs directly
(one pass, no re-sorting).  A builder that already has the arcs in normal
form, as ``gordon`` has them in circle order, wraps them without any
comparison (``_from_normal_form``), with its measure if it knows it and
its float endpoints if it has rounded them itself; a complement carries
the known measure over.  Otherwise the measure is summed once per set.
In place of the list, the builder may hand over an object whose slices
build the arcs they hold (``gordon``'s numerator arrays); ``count`` and the
JSON export read only its length and its first and last arc.  Floats appear
only when a caller asks for them (JSON export, sampling, membership), and
each endpoint is converted to a float once per set unless the code that
built the set handed its floats over.  Rounding is monotone,
so the float endpoints of a set in normal form never decrease, and samples
can be counted with two binary searches per arc (``count_contained``).  An
arc across 0 is stored as two pieces, [0, hi) and [lo, period); ``count``
is the number of pieces, the JSON "count" the number of arcs on the circle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .quadratic import Quadratic


def _reduce(x, period):
    """x modulo period, in [0, period)."""
    if isinstance(x, Quadratic):
        if period != 1:
            raise ValidationError("exact endpoints require period 1")
        return x.frac()
    if isinstance(x, (Fraction, int)) and period == 1:
        return Fraction(x) - math.floor(Fraction(x))
    r = x % period
    return r if r < period else r - period


def _lo(arc):
    return arc[0]


class ArcSet:
    """A finite union of half-open arcs [lo, hi) on a circle of given period.

    Input pairs are sweeps from lo to hi (hi may exceed the period or the
    sweep may cross zero); construction normalizes into sorted disjoint arcs
    with endpoints in [0, period], splitting any arc that crosses zero.  A
    sweep of length >= period fills the circle.
    """

    __slots__ = ("period", "_arcs", "_floats", "_measure")

    def __init__(self, arcs: Iterable[Tuple], period=1):
        if isinstance(period, (int, float)) and not period > 0:
            raise ValidationError("period must be positive")
        pieces: List[Tuple] = []
        full = False
        for lo, hi in arcs:
            span = hi - lo
            if span < 0 or (isinstance(span, float) and not math.isfinite(span)):
                raise ValidationError("arc sweep must be non-negative and finite")
            if span == 0:
                continue
            if span >= period:
                full = True
                break
            lo_r = _reduce(lo, period)
            hi_r = lo_r + span
            if hi_r <= period:
                pieces.append((lo_r, hi_r))
            else:
                pieces.append((lo_r, period))
                pieces.append((0 * span, hi_r - period))
        merged: List[Tuple] = []
        if full:
            merged.append((0 * period if not isinstance(period, int) else 0, period))
        else:
            pieces.sort(key=_lo)
            for lo, hi in pieces:
                if merged and lo <= merged[-1][1]:
                    if hi > merged[-1][1]:
                        merged[-1] = (merged[-1][0], hi)
                else:
                    merged.append((lo, hi))
        self.period = period
        self._arcs = merged
        self._floats = self._measure = None

    @classmethod
    def _from_normal_form(cls, arcs: Sequence[Tuple], period, measure=None, floats=None) -> "ArcSet":
        """Wrap arcs already in the normal form __init__ produces (sorted,
        disjoint, non-touching, in [0, period]), as a list or a sized object
        whose slices list them.  ``measure``, when given, is their length;
        ``floats`` the lists ([float(lo), ...], [float(hi), ...])."""
        out = object.__new__(cls)
        out.period = period
        out._arcs = arcs
        out._floats = floats
        out._measure = measure
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def full(period=1) -> "ArcSet":
        if not period > 0:
            raise ValidationError("period must be positive")
        return ArcSet._from_normal_form([(0 * period, period)], period, period)

    @staticmethod
    def empty(period=1) -> "ArcSet":
        return ArcSet([], period)

    # -- basic queries -------------------------------------------------------

    @property
    def arcs(self) -> List[Tuple]:
        """The arcs as a list, built once from what the builder handed over."""
        if not isinstance(self._arcs, list):
            self._arcs = self._arcs[:]
        return self._arcs

    @property
    def count(self) -> int:
        return len(self._arcs)

    @property
    def is_empty(self) -> bool:
        return not len(self._arcs)

    @property
    def is_full(self) -> bool:
        return self.count == 1 and self.arcs[0][0] == 0 and self.arcs[0][1] == self.period

    @property
    def measure(self):
        """Total length in the endpoints' type, summed once per set."""
        if self._measure is None:
            total = 0
            for lo, hi in self.arcs:
                total = total + (hi - lo)
            self._measure = total
        return self._measure

    def contains(self, x) -> bool:
        v = _reduce(x, self.period)
        for lo, hi in self.arcs:
            if lo <= v < hi:
                return True
            if lo > v:
                break
        return False

    def _float_endpoints(self) -> Tuple[List[float], List[float]]:
        """Arc endpoints as floats, converted once per set."""
        if self._floats is None:
            self._floats = ([float(lo) for lo, _ in self.arcs], [float(hi) for _, hi in self.arcs])
        return self._floats

    def contains_many(self, xs: Sequence[float]) -> np.ndarray:
        """Vectorized float membership against the float endpoints."""
        v = np.asarray(xs, dtype=float) % float(self.period)
        los, his = (np.array(e, dtype=float) for e in self._float_endpoints())
        if los.size == 0:
            return np.zeros(v.shape, dtype=bool)
        idx = np.searchsorted(los, v, side="right") - 1
        ok = idx >= 0
        idx = np.clip(idx, 0, len(los) - 1)
        return ok & (v < his[idx])

    def count_contained(self, xs: Sequence[float]) -> int:
        """How many of xs lie in the set: ``contains_many(xs).sum()``, by two
        binary searches per arc in the sorted samples instead of one per
        sample.  Each arc counts the samples with lo <= x < hi; the float
        endpoints never decrease, so no sample is counted twice."""
        v = np.sort(np.asarray(xs, dtype=float) % float(self.period))
        los, his = self._float_endpoints()
        return int(np.searchsorted(v, his, side="left").sum() - np.searchsorted(v, los, side="left").sum())

    # -- set algebra ---------------------------------------------------------

    def _check_same_circle(self, other: "ArcSet"):
        if self.period != other.period:
            raise ValidationError("arc sets live on circles of different periods")

    def union(self, other: "ArcSet") -> "ArcSet":
        self._check_same_circle(other)
        return ArcSet(list(self.arcs) + list(other.arcs), self.period)

    def complement(self) -> "ArcSet":
        """The gaps between consecutive arcs; only the gap that wraps past
        zero is split, into [0, first lo) and [last hi, period)."""
        if self.is_empty:
            return ArcSet.full(self.period)
        if self.is_full:
            return ArcSet.empty(self.period)
        los, his = zip(*self.arcs)
        gaps = list(zip(his[:-1], los[1:]))
        first_lo, last_hi = los[0], his[-1]
        if first_lo > 0:
            gaps.insert(0, (0 * first_lo, first_lo))
        if last_hi < self.period:
            gaps.append((last_hi, self.period))
        measure = None if self._measure is None else self.period - self._measure
        return ArcSet._from_normal_form(gaps, self.period, measure)

    def intersect(self, other: "ArcSet") -> "ArcSet":
        """Two-pointer sweep over both sorted arc lists."""
        self._check_same_circle(other)
        mine, theirs = self.arcs, other.arcs
        out = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            lo1, hi1 = mine[i]
            lo2, hi2 = theirs[j]
            lo = lo1 if lo1 >= lo2 else lo2
            hi = hi1 if hi1 <= hi2 else hi2
            if lo < hi:
                out.append((lo, hi))
            if hi1 <= hi2:
                i += 1
            else:
                j += 1
        return ArcSet._from_normal_form(out, self.period)

    # -- sampling and export ---------------------------------------------------

    def sample_interior(self, count: int, margin, rng) -> np.ndarray:
        """Deterministic (seeded-rng) samples strictly inside the arcs,
        at least ``margin`` away from every endpoint."""
        los, his = [], []
        for lo, hi in zip(*self._float_endpoints()):
            flo, fhi = lo + float(margin), hi - float(margin)
            if fhi > flo:
                los.append(flo)
                his.append(fhi)
        if not los:
            raise ValidationError("no arc interior survives the requested margin")
        los = np.array(los)
        his = np.array(his)
        weights = his - los
        weights = weights / weights.sum()
        which = rng.choice(len(los), size=count, p=weights)
        return los[which] + rng.uniform(0.0, 1.0, count) * (his[which] - los[which])

    def as_dict(self) -> dict:
        """JSON form.  "count" is the number of arcs on the circle: an arc
        across 0, stored as [0, hi) and [lo, period), counts once (exactly)."""
        count = len(self._arcs)
        if count >= 2 and self._arcs[:1][0][0] == 0 and self._arcs[-1:][0][1] == self.period:
            count -= 1
        return {
            "period": float(self.period),
            "count": count,
            "measure": float(self.measure),
            "arcs": [{"lo": lo, "hi": hi} for lo, hi in zip(*self._float_endpoints())],
        }

    def __repr__(self):
        return f"ArcSet(count={self.count}, measure={float(self.measure):.6g}, period={float(self.period):.6g})"
