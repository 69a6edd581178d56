"""floatfmt.rows writes every float64 as float.__repr__ does, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvsubshift import floatfmt


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    expected = list(map(repr, values.tolist()))
    text = floatfmt.rows([values, "\n"])
    if text != "\n".join(expected) + "\n":  # name the first values that differ, not the whole text
        wrong = [(e, t) for e, t in zip(expected, text.split("\n")) if e != t]
        pytest.fail(f"{len(wrong)} values differ from repr, first (repr, rows): {wrong[:5]}")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64))
def test_drawn_floats(values):
    # tiled past BREAK_EVEN, so the block goes through the kernel
    assert_reprs(np.resize(np.array(values), floatfmt.BREAK_EVEN + 1))


def test_random_bit_patterns():
    bits = np.random.default_rng(19).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_reprs(bits.view(np.float64))


def _edges():
    powers = [s * 2.0**e for e in range(-1074, 1024) for s in (1.0, -1.0)]
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    near = [y for x in tens for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    small = [float(f"{m}e{e}") for e in range(-323, 309) for m in range(1, 100)]
    integers = [float(2**53 + i) for i in range(-1000, 1000)] + [float(2**54 + i) for i in range(-1000, 1000)]
    switches = [1e-4, 1e-5, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e17, 123456789012345680.0]
    switches = [y for x in switches for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf), -x)]
    return powers + near + small + integers + switches + [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]


def test_edge_values():
    assert_reprs(_edges())


def test_curve_block_with_inf_rows_matches_f_strings():
    # one table that ends in a partial block, with escaped (inf) and nan samples
    count = 2 * floatfmt.BLOCK + 37
    rng = np.random.default_rng(5)
    omegas = np.arange(count) * (2 * math.pi / count)
    disc = rng.normal(scale=3.0, size=count) * 10.0 ** rng.integers(-6, 8, count)
    disc[rng.choice(count, 300, replace=False)] = np.inf
    disc[:5] = [-np.inf, np.nan, -0.0, 0.0, 1e-310]
    flags = np.where(np.abs(disc) <= 2.0, b",0.0,1\n", b",0.0,0\n")
    expected = "".join(
        f"{a!r},{v!r},0.0,{int(abs(v) <= 2.0)}\n" for a, v in zip(omegas.tolist(), disc.tolist())
    )
    assert floatfmt.rows([omegas, ",", disc, flags]) == expected


def test_small_block_goes_through_the_template():
    # below BREAK_EVEN values a block is written by a %-template: a literal
    # '%' in a str part and the bytes of a bytes part come through as they are
    values = np.array([0.1, -0.0, np.inf, -np.nan, 5e-324, 1e16, 9.999999999999999e-05, -123.5])
    flags = np.array([b"%d", b"%%", b"x"] * 2 + [b"%r", b"%s"])
    text = floatfmt.rows(["%", values, " %s ", flags, "\n"])
    assert text == "".join(f"%{v!r} %s {f.decode()}\n" for v, f in zip(values.tolist(), flags.tolist()))
