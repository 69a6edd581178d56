"""Circle arc sets: normalization, exact set algebra, sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvsubshift.arcs import ArcSet
from cmvsubshift.errors import ValidationError
from cmvsubshift.gordon import gordon_set, monte_carlo_measure
from cmvsubshift.quadratic import GOLDEN_MEAN, SQRT2_MINUS_1, Quadratic

TAU = 2 * math.pi


def test_normalization_merges_and_splits():
    s = ArcSet([(0.1, 0.2), (0.2, 0.3), (0.8, 1.05)], period=1)
    assert s.count == 3  # touching arcs merged, wrapping arc split at 0
    assert abs(s.measure - 0.45) < 1e-12
    flat = [(float(lo), float(hi)) for lo, hi in s.arcs]
    assert flat[0] == pytest.approx((0.0, 0.05), abs=1e-12)
    assert flat[1] == pytest.approx((0.1, 0.3), abs=1e-12)
    assert flat[2] == pytest.approx((0.8, 1.0), abs=1e-12)


def test_full_and_empty():
    assert ArcSet([(0.2, 0.2 + 1)], period=1).is_full
    assert ArcSet([(5.0, 5.0 + TAU)], period=TAU).is_full
    assert ArcSet([], period=1).is_empty
    assert ArcSet([(0.3, 0.3)], period=1).is_empty  # zero sweep dropped
    assert ArcSet.full(1).complement().is_empty
    assert ArcSet.empty(1).complement().is_full


def test_exact_fraction_arithmetic():
    s = ArcSet(
        [(Fraction(1, 3), Fraction(1, 2)), (Fraction(3, 4), Fraction(9, 8))],
        period=1,
    )
    assert s.measure == Fraction(1, 6) + Fraction(3, 8)
    comp = s.complement()
    assert comp.measure == 1 - s.measure
    assert comp.complement().arcs == s.arcs


def test_exact_quadratic_endpoints():
    th = GOLDEN_MEAN
    r = Quadratic(Fraction(1, 100))
    centers = [(-j * th).frac() for j in range(1, 6)]
    s = ArcSet([(c - r, c + r) for c in centers], period=1)
    assert s.measure <= Fraction(10, 100)
    for c in centers:
        assert s.contains(c)
        assert s.contains(c + Fraction(9, 1000))
        assert not s.contains(c + Fraction(11, 1000))
    comp = s.complement()
    assert comp.measure == 1 - s.measure
    assert not comp.contains(centers[0])


def test_contains_and_contains_many_agree():
    rng = np.random.default_rng(31)
    s = ArcSet([(0.05, 0.2), (0.5, 0.8), (0.95, 1.04)], period=1)
    xs = rng.uniform(0, 1, 500)
    mask = s.contains_many(xs)
    for x, m in zip(xs, mask):
        assert s.contains(float(x)) == bool(m)


def test_union_intersect():
    a = ArcSet([(0.0, 0.4)], period=1)
    b = ArcSet([(0.3, 0.6)], period=1)
    assert abs(a.union(b).measure - 0.6) < 1e-15
    inter = a.intersect(b)
    assert inter.arcs == [(0.3, 0.4)]
    with pytest.raises(ValidationError):
        a.union(ArcSet([], period=TAU))


def test_invalid_sweeps_rejected():
    with pytest.raises(ValidationError):
        ArcSet([(0.5, 0.2)], period=1)
    with pytest.raises(ValidationError):
        ArcSet([], period=0)


def test_sample_interior_respects_margin():
    s = ArcSet([(0.1, 0.2), (0.6, 0.9)], period=1)
    rng = np.random.default_rng(77)
    xs = s.sample_interior(400, 0.01, rng)
    assert s.contains_many(xs).all()
    for x in xs:
        assert (0.11 <= x <= 0.19) or (0.61 <= x <= 0.89)
    with pytest.raises(ValidationError):
        s.sample_interior(10, 0.4, rng)


def test_as_dict_roundtrip():
    s = ArcSet([(Fraction(1, 4), Fraction(1, 2))], period=1)
    d = s.as_dict()
    assert d["count"] == 1 and abs(d["measure"] - 0.25) < 1e-15
    assert d["arcs"][0] == {"lo": 0.25, "hi": 0.5}


# -- counting samples on sorted samples ----------------------------------------

TINY = Fraction(1, 2**80)


@st.composite
def exact_arc_sets(draw):
    """Exact sets on R/Z whose endpoints k/64 + e 2^-80 often share a float:
    arcs narrower than a float, arcs touching in floats only, pieces [0, hi)
    and [lo, 1), and the empty and the full set."""
    kind = draw(st.sampled_from(["arcs", "arcs", "arcs", "empty", "full"]))
    if kind != "arcs":
        return ArcSet.empty(1) if kind == "empty" else ArcSet.full(1)
    points = st.tuples(st.integers(0, 64), st.integers(0, 3)).filter(lambda p: p[0] < 64 or p[1] == 0)
    cuts = sorted(set(draw(st.lists(points, min_size=2, max_size=16))))
    ends = [Fraction(k, 64) + e * TINY for k, e in cuts]
    sweeps = list(zip(ends[::2], ends[1::2]))
    if draw(st.booleans()) and len(ends) >= 3:
        sweeps.append((ends[-1], ends[0] + 1))  # one sweep across 0
    return ArcSet(sweeps, 1)


@st.composite
def float_arc_sets(draw):
    """Float sets on the circle of period 2 pi."""
    cuts = sorted(set(draw(st.lists(st.floats(0.0, TAU, allow_nan=False), max_size=16))))
    return ArcSet(list(zip(cuts[::2], cuts[1::2])), TAU)


def samples_for(s, draw):
    """Every float endpoint and its two neighbours, 0 and the period, and
    uniform draws on [-period, 2 period)."""
    period = float(s.period)
    xs = [0.0, period]
    for x in (*s._float_endpoints()[0], *s._float_endpoints()[1]):
        xs += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    xs += draw(st.lists(st.floats(-period, 2 * period, allow_nan=False, exclude_max=True), max_size=30))
    return np.array(xs)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), exact=st.booleans())
def test_count_contained_equals_contains_many(data, exact):
    s = data.draw(exact_arc_sets() if exact else float_arc_sets())
    xs = samples_for(s, data.draw)
    assert s.count_contained(xs) == int(s.contains_many(xs).sum())


def reference_monte_carlo(arcs, samples, rng):
    """monte_carlo_measure with its hits counted by contains_many."""
    xs = rng.uniform(0.0, float(arcs.period), samples)
    p = int(arcs.contains_many(xs).sum()) / samples
    sigma = float(np.sqrt(max(p * (1.0 - p), 1e-12) / samples)) * float(arcs.period)
    return {"samples": samples, "estimate": p * float(arcs.period), "sigma": sigma}


@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_monte_carlo_measure_matches_a_contains_many_count():
    sets = [
        gordon_set(GOLDEN_MEAN, 16).arcs,
        gordon_set(SQRT2_MINUS_1, 8, "coding", (Fraction(7, 10), Fraction(1, 5))).arcs,
    ]
    for arcs in sets:
        for seed in range(4):
            got = monte_carlo_measure(arcs, 20_000, np.random.default_rng(seed))
            assert got == reference_monte_carlo(arcs, 20_000, np.random.default_rng(seed))
