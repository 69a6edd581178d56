"""Float64 arrays written as the bytes of ``float.__repr__``, a block at a time.

``rows`` renders a table whose float columns read exactly as ``repr``
writes each value; the CLI's ``--curve`` rows and JSON arc lists go
through it.  The digits are the shortest that read back to the same
double, and of those the closest, by Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; the JDK's ``DoubleToDecimal``) on
uint64 arrays, with a table of 126-bit approximations of 10^-k.  CPython's
layout is read from a table with one row per sign, digit count and form:
exponent form when the decimal point sits at <= -4 or > 16 (a sign and at
least two exponent digits), positional otherwise, with ``.0`` after an
integral value.  Zero, subnormals, infinities and nan go to
``float.__repr__``.  A block of fewer than ``BREAK_EVEN`` values, where the
kernel's cost per call is about that of 500 reprs, is written row by row
through one %-template, whose '%r' is ``float.__repr__``.  Both tables are
built on first use, never at import.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 1024  # rows per pass; past about 3,000 values a kernel call slows per value
BREAK_EVEN = 512  # values per block below which float.__repr__ is faster
WIDTH = 24  # the longest repr of a float64: '-2.2250738585072014e-308'

_U = np.uint64
_LOW32 = _U(2**32 - 1)
_LOW63 = _U(2**63 - 1)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that Schubfach reaches on float64
_POW10 = np.array([10**j for j in range(20)], _U)

# Each value's source bytes, which its layout picks from: the 18 digits of
# its significand as two halves of 9, each a word '000d' and two words of 4
# digits; then '0.-e', the exponent's sign and three digits, and NULs, which
# pad every text to WIDTH.
_SOURCE = 36
_DIGITS = [3, *range(4, 12), 15, *range(16, 24)]  # the byte of each digit
_ZERO, _DOT, _MINUS, _E, _EXPONENT, _NUL = 24, 25, 26, 27, 28, 32
_FORMS = 22  # decimal point at -3 ... 16, then exponent form with two or three digits


@functools.cache
def _tenth_powers():
    """g = floor(10^-k / 2^r) + 1 for every k, where 2^125 <= 10^-k / 2^r < 2^126,
    as its upper and lower 63 bits, each split in 32-bit halves."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            p = 10**k
            g.append((1 << (125 + p.bit_length())) // p + 1)
    g1, g0 = [x >> 63 for x in g], [x & (2**63 - 1) for x in g]
    return tuple(np.array([x >> shift & (2**32 - 1) for x in half], _U) for half in (g1, g0) for shift in (0, 32))


@functools.cache
def _text_tables():
    """'0000' ... '9999' as native uint32 words and the trailing zeros of
    each; and the exponents -400 ... 400 as words '-ddd' ... '+ddd'."""
    quads = [b"%04d" % i for i in range(10000)]
    exponents = b"".join(b"%+04d" % e for e in range(-400, 401))
    return (
        np.frombuffer(b"".join(quads), np.uint32),
        np.array([4 - len(q.rstrip(b"0")) for q in quads], np.uint8),
        np.frombuffer(exponents, np.uint32),
    )


@functools.cache
def _layouts():
    """For every (sign, digit count, form): the source byte behind each of
    the WIDTH output bytes, NUL past the end of the text."""
    index = np.full((2, 17, _FORMS, WIDTH), _NUL, np.int32)
    for negative in (0, 1):
        for n in range(1, 18):
            for form in range(_FORMS):
                cols = [_MINUS] if negative else []
                if form < 20:  # positional, value = 0.DIGITS * 10^point
                    point = form - 3
                    whole = max(point, 1)
                    digits = [p + point - whole for p in range(whole)] + [None]
                    digits += [point + i for i in range(max(n - point, 1))]
                    cols += [_DOT if j is None else _DIGITS[j] if 0 <= j < n else _ZERO for j in digits]
                else:
                    cols += [_DIGITS[0]] + ([_DOT, *_DIGITS[1:n]] if n > 1 else []) + [_E, _EXPONENT]
                    cols += range(_EXPONENT + 1 + (form == 20), _EXPONENT + 4)
                index[negative, n - 1, form, : len(cols)] = cols
    return index.reshape(-1, WIDTH)


def _product(g_lo, g_hi, c0, c1):
    """The upper and lower 64 bits of g c, for g and c given by 32-bit halves."""
    low, cross1, cross2 = g_lo * c0, g_lo * c1, g_hi * c0
    mid = (low >> _U(32)) + (cross1 & _LOW32) + (cross2 & _LOW32)
    return g_hi * c1 + (cross1 >> _U(32)) + (cross2 >> _U(32)) + (mid >> _U(32)), (mid << _U(32)) | (low & _LOW32)


def _moved(y1, y0, x1, x0, g1, g0, shift, up):
    """(y1, y0, x1) after g1 << shift is added to (y1, y0) and g0 << shift
    to (x1, x0), or subtracted from them when not ``up``."""
    if up:
        y0s, x0s = y0 + (g1 << shift), x0 + (g0 << shift)
        return y1 + (g1 >> (_U(64) - shift)) + (y0s < y0), y0s, x1 + (g0 >> (_U(64) - shift)) + (x0s < x0)
    y0s, x0s = y0 - (g1 << shift), x0 - (g0 << shift)
    return y1 - (g1 >> (_U(64) - shift)) - (y0s > y0), y0s, x1 - (g0 >> (_U(64) - shift)) - (x0s > x0)


def _round_to_odd(y1, y0, x1):
    """floor(g cp / 2^127) from g1 cp = (y1, y0) and the upper half x1 of
    g0 cp, its last bit set when the rest is not 0: the JDK's ``rop``, which
    drops the lower half of g0 cp."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _LOW63) + _LOW63) >> _U(63))


def _shortest(bits):
    """(f, k): f * 10^k is the shortest decimal that reads back to each
    positive normal double, the closest such on a tie in length."""
    t = bits & _U(2**52 - 1)
    biased = bits >> _U(52)
    irregular = (t == 0) & (biased != 1)  # the gap below is half the gap above
    q = biased.astype(np.int64) - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)  # 2 <= h <= 5, so cp < 2^60
    g1_lo, g1_hi, g0_lo, g0_hi = (table.take(k - _K_MIN) for table in _tenth_powers())
    c = t | _U(2**52)
    cp = c << (h + _U(2))
    c0, c1 = cp & _LOW32, cp >> _U(32)
    (y1, y0), (x1, x0) = _product(g1_lo, g1_hi, c0, c1), _product(g0_lo, g0_hi, c0, c1)
    g1, g0 = (g1_hi << _U(32)) | g1_lo, (g0_hi << _U(32)) | g0_lo
    # the interval's ends: cp + 2^(h+1), and cp - 2^(h+1) or, below a power
    # of two, cp - 2^h; an odd significand leaves both out
    odd = c & _U(1)
    vb = _round_to_odd(y1, y0, x1)
    vbl = _round_to_odd(*_moved(y1, y0, x1, x0, g1, g0, h + _U(1) - irregular, False)) + odd
    vbr = _round_to_odd(*_moved(y1, y0, x1, x0, g1, g0, h + _U(1), True)) - odd
    s = vb >> _U(2)
    # at most one multiple of 10^(k+1) lies in the interval; it is the shortest
    sp = s // _U(10) * _U(10)
    coarse_up = (sp << _U(2)) + _U(40) <= vbr
    coarse = (vbl <= sp << _U(2)) != coarse_up
    lower_in, upper_in = vbl <= s << _U(2), (s << _U(2)) + _U(4) <= vbr
    closer_up = (vb & _U(3)) + (s & _U(1)) > 2  # past halfway, or halfway with s odd
    f = s + ((upper_in & ~lower_in) | (upper_in & lower_in & closer_up))
    return f + coarse * (sp + _U(10) * coarse_up - f), k


def _kernel(values):
    """Rows of uint8 text, NUL-padded to WIDTH, for finite normal doubles."""
    bits = values.view(_U)
    f, k = _shortest(bits & _LOW63)
    # 10^k <= 2^q < 10^(k+1) puts s in [2^52, 10 * 2^53): f has 16 or 17 digits
    size = 16 + (f >= _POW10[16])
    rest = f * _POW10.take(18 - size)  # 18 digits, the first not 0
    halves = np.empty((len(values), 2), np.uint32)  # digits 0-8 and 9-17
    halves[:, 0] = rest // _U(10**9)
    halves[:, 1] = rest - halves[:, 0] * _U(10**9)
    quads, trailing, exponents = _text_tables()
    source = np.empty((len(values), _SOURCE), np.uint8)
    words = source.view(np.uint32)
    digit_words = words[:, :6].reshape(len(values), 2, 3)
    tz, zeros = np.zeros(halves.shape, np.uint8), np.ones(halves.shape, bool)
    for col in (2, 1, 0):  # digits 5-8, then 1-4, then 0 as '000d', of each half
        limb = halves - halves // 10000 * 10000 if col else halves
        digit_words[:, :, col] = quads.take(limb)
        tz += zeros * trailing.take(limb)
        zeros &= limb == 0
        halves = halves // 10000
    n = 18 - np.where(zeros[:, 1], 9 + tz[:, 0], tz[:, 1]).astype(np.intp)
    point = size + k
    words[:, _ZERO // 4] = np.frombuffer(b"0.-e", np.uint32)[0]
    words[:, _EXPONENT // 4] = exponents.take(point + 399)
    words[:, _NUL // 4] = 0
    exponent = (point <= -4) | (point > 16)
    form = np.where(exponent, 20 + (np.abs(point - 1) >= 100), point + 3)
    index = _layouts().take(((bits >> _U(63)).astype(np.intp) * 17 + n - 1) * _FORMS + form, axis=0)
    index += (np.arange(len(values), dtype=np.int32) * _SOURCE)[:, None]
    return source.reshape(-1).take(index)


def _by_repr(values):
    text = [float.__repr__(x) for x in values.tolist()]
    return np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def _fields(values):
    """repr(float(x)) for each x of the float64 array ``values``, one
    NUL-padded row of WIDTH bytes each."""
    biased = (values.view(_U) >> _U(52)) & _U(0x7FF)
    special = (biased == 0) | (biased == 0x7FF)  # zero, subnormal, inf, nan
    chars = _kernel(np.where(special, 1.0, values))
    chars[special] = _by_repr(values[special])
    return chars


def _by_template(parts) -> str:
    """The rows of a small block, each through one %-template: '%r' of a
    Python float is float.__repr__."""
    template = "".join(
        p.replace("%", "%%") if isinstance(p, str) else "%r" if p.dtype.kind == "f" else "%s" for p in parts
    )
    columns = [
        p.tolist() if p.dtype.kind == "f" else [x.decode("ascii") for x in p.tolist()]
        for p in parts if not isinstance(p, str)
    ]
    return "".join([template % row for row in zip(*columns)])


def _block(parts) -> str:
    """The rows of one block: below BREAK_EVEN float values through a
    template; otherwise every part's bytes side by side in a table, NULs
    dropped."""
    columns = [p for p in parts if not isinstance(p, str) and p.dtype.kind == "f"]
    rows = len(next(p for p in parts if not isinstance(p, str)))
    if rows * len(columns) < BREAK_EVEN:
        return _by_template(parts)
    fields = iter(_fields(np.concatenate(columns)).reshape(len(columns), rows, WIDTH) if columns else ())
    pieces = [
        np.frombuffer(p.encode("ascii"), np.uint8)[None, :] if isinstance(p, str)
        else p.view(np.uint8).reshape(rows, -1) if p.dtype.kind == "S"
        else next(fields)
        for p in parts
    ]
    table = np.empty((rows, sum(p.shape[1] for p in pieces)), np.uint8)
    start = 0
    for piece in pieces:
        table[:, start : start + piece.shape[1]] = piece
        start += piece.shape[1]
    return table[table != 0].tobytes().decode("ascii")


def rows(parts) -> str:
    """The rows of a table as one string.  Row i joins, part by part: a str
    as it is, repr(float(x[i])) for a float64 array x, and x[i] for a bytes
    array x (numpy 'S' dtype, every item its full width).  Every array part
    has the same length; no part holds a NUL."""
    parts = [p if isinstance(p, str) else np.ascontiguousarray(p) for p in parts]
    for part in parts:
        if not isinstance(part, str) and part.dtype != np.float64 and part.dtype.kind != "S":
            raise TypeError(f"rows takes str, float64 and bytes parts, not {part.dtype}")
    lengths = {len(p) for p in parts if not isinstance(p, str)}
    if len(lengths) != 1:
        raise ValueError(f"rows needs array parts of one length, got {sorted(lengths)}")
    count = lengths.pop()
    blocks = [
        _block([p if isinstance(p, str) else p[start : start + BLOCK] for p in parts])
        for start in range(0, count, BLOCK)
    ]
    return "".join(blocks)
