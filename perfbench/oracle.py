"""Independent reference computations for checking cmvsubshift outputs.

Nothing here imports cmvsubshift.  Words, transfer products, Floquet
operators, continued fractions and Gordon measures are recomputed from their
definitions, so a fault in the library cannot hide behind the same fault in
its checker.

Conventions follow the library's documented ones: sites are 1-based, the
single-site matrix at an odd site n is (1/rho)[[-conj a, z], [1/z, -a]] and
at an even site (1/rho)[[-a, 1], [1, -conj a]], and the discriminant is the
trace of the ordered product over sites 1..q.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

TAU = 2.0 * math.pi
RULES = {
    "period-doubling": ("ab", "aa"),
    "thue-morse": ("ab", "ba"),
    "fibonacci": ("ab", "a"),
}

# Checks introduced by the benchmark (each is listed in CHANGES.md).
EDGE_TOL = 1e-9  # Floquet edge against reported edge, radians
GAP_TOL = 1e-7  # gaps narrower than this count as closed (tangency fuzz ~ sqrt(eps))
EDGE_PROBE = 1e-9  # distance from a reported edge to the inside/outside probes
DISC_SLACK = 1e-8  # slack on |disc| <= 2 beyond the estimated rounding error
MP_SWITCH = 1e-3  # long-double error above this share of ||disc| - 2|: use mpmath
UNITARITY_PER_SITE = 1e-13  # unitarity defect bound per site (times q)
RESIDUAL_PER_SITE = 1e-10  # Floquet residual bound per site (times q)
GORDON_TOL = 1e-13  # exact Gordon measure and arc endpoints, after rounding
MC_SIGMAS = 5.0


# ---------------------------------------------------------------------------
# words and coefficients
# ---------------------------------------------------------------------------


def substitution_prefix(rule: str, level: int) -> str:
    image_a, image_b = RULES[rule]
    w = "a"
    for _ in range(level):
        w = "".join(image_a if c == "a" else image_b for c in w)
    return w


class Approximant:
    """The level-n approximant of a rule with letter values f_a, f_b."""

    def __init__(self, rule: str, level: int, f_a: str, f_b: str):
        self.rule, self.level = rule, level
        self.values = {"a": complex(f_a), "b": complex(f_b)}
        self.word = substitution_prefix(rule, level)
        self.q = len(self.word)

    @property
    def alphas(self) -> np.ndarray:
        """alpha_n for sites n = 1..q, read off the level-n prefix."""
        return np.array([self.values[c] for c in self.word])


# ---------------------------------------------------------------------------
# direct transfer products
# ---------------------------------------------------------------------------
#
# The product T_q ... T_1 over the word is taken block by block: the word
# S^n(a) is the concatenation of S^(n-1)(c) over the letters c of S(a), so the
# product over S^m(c) starting at an odd or even site is the ordered product
# of the level m-1 blocks.  Every single-site matrix enters exactly as in the
# product site by site; only the order in which the 2x2 products are grouped
# differs, which makes a level-14 word (16,384 sites) cost 14 steps per point.
# Each block is kept as entries scaled by a power of two per point and the
# exponent, so nothing overflows (entries reach 2^q) and the scaling adds no
# rounding.

CHUNK = 1 << 14  # points per block-product sweep (bounds the memory)


def _matmul(p, m):
    p00, p01, p10, p11 = p
    m00, m01, m10, m11 = m
    return (p00 * m00 + p01 * m10, p00 * m01 + p01 * m11, p10 * m00 + p11 * m10, p10 * m01 + p11 * m11)


def _site(a, odd: bool, z, one):
    """(1/rho)[[-conj a, z], [1/z, -a]] at odd sites, (1/rho)[[-a, 1], [1, -conj a]] at even."""
    s = one / np.sqrt(one - abs(a) ** 2)
    if odd:
        return (-np.conj(a) * s + 0 * z, z * s, s / z, -a * s + 0 * z)
    return (-a * s + 0 * z, s + 0 * z, s + 0 * z, -np.conj(a) * s + 0 * z)


def _normalise(m, one):
    """m / 2^k with k per point such that the largest entry is below 1, and k.

    Entries below 2^256 are left as they are (k = 0), so short blocks skip
    the rescaling.
    """
    big = np.maximum(
        np.maximum(np.maximum(abs(m[0].real), abs(m[0].imag)), np.maximum(abs(m[1].real), abs(m[1].imag))),
        np.maximum(np.maximum(abs(m[2].real), abs(m[2].imag)), np.maximum(abs(m[3].real), abs(m[3].imag))),
    )
    if not np.max(big) >= 2.0**256:
        return m, 0
    _, k = np.frexp(big)
    scale = np.ldexp(one, -k)
    return tuple(x * scale for x in m), k


def _mp_site(a, odd, z, one):
    a = mpmath.mpc(a.real, a.imag)
    s = 1 / mpmath.sqrt(1 - abs(a) ** 2)
    if odd:
        return (-mpmath.conj(a) * s, z * s, s / z, -a * s)
    return (-a * s, s, s, -mpmath.conj(a) * s)


def _block_trace(approx: Approximant, z, one, cdtype, site=_site, normalise=_normalise):
    """Trace of T_q ... T_1 at the points z as (mantissa, exponent): trace = m 2^e."""
    images = dict(zip("ab", RULES[approx.rule]))
    values = {c: cdtype(v) for c, v in approx.values.items()}
    memo = {}

    def block(c, m, odd):
        """Product over S^m(c) from an odd/even site, its exponent and len S^m(c)."""
        key = (c, m, odd)
        if key not in memo:
            if m == 0:
                memo[key] = (site(values[c], odd, z, one), 0, 1)
            else:
                prod, exp, length, parity = None, 0, 0, odd
                for d in images[c]:
                    sub, e, n = block(d, m - 1, parity)
                    prod = sub if prod is None else _matmul(sub, prod)
                    exp = exp + e
                    length += n
                    parity = parity if n % 2 == 0 else not parity
                prod, k = normalise(prod, one)
                memo[key] = (prod, exp + k, length)
        return memo[key]

    m, e, _ = block("a", approx.level, True)
    return m[0] + m[3], e


def _product_trace(approx: Approximant, omegas: np.ndarray, cdtype) -> np.ndarray:
    """The trace in long double (whose range covers 2^q for q <= 16384)."""
    rdtype = np.longdouble if cdtype == np.clongdouble else np.float64
    out = np.empty(len(omegas), dtype=np.longdouble)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(omegas), CHUNK):
            z = np.exp(1j * np.asarray(omegas[k : k + CHUNK], dtype=rdtype)).astype(cdtype)
            trace, exp = _block_trace(approx, z, rdtype(1), cdtype)
            out[k : k + CHUNK] = np.ldexp(trace.real.astype(np.longdouble), exp)
    return out


def _product_trace_mp(approx: Approximant, omega: float, dps: int = 40) -> float:
    """The same product in mpmath (no rescaling needed: mpf exponents are unbounded)."""
    with mpmath.workdps(dps):
        z = mpmath.expj(mpmath.mpf(omega))
        trace, _ = _block_trace(approx, z, 1, complex, site=_mp_site, normalise=lambda m, one: (m, 0))
        return float(mpmath.re(trace))


def disc_direct(approx: Approximant, omegas) -> tuple:
    """Discriminant by the direct product over the word, with an error estimate.

    Returns (values, errors).  The product runs in float64 and in long
    double; their difference estimates the float64 error, and the long
    double value carries about 2^11 times less.  Where even that is too
    coarse, the point is evaluated in mpmath.  Values beyond 1e300 are
    reported as 1e300 (they are decided: far outside [-2, 2]).
    """
    omegas = np.asarray(omegas, dtype=float)
    if approx.q % 2:
        raise ValueError("direct products are taken over an even period")
    d64 = _product_trace(approx, omegas, np.complex128)
    dld = _product_trace(approx, omegas, np.clongdouble)
    ratio = np.finfo(np.longdouble).eps / np.finfo(np.float64).eps
    err = np.abs(d64 - dld) * ratio * 16 + 1e-14 * np.maximum(1.0, np.abs(dld))
    # mpmath only where long double cannot decide which side of 2 |disc| is on
    bad = ~(err <= MP_SWITCH * np.maximum(1.0, np.abs(np.abs(dld) - 2.0)))
    values = np.clip(dld, -1e300, 1e300).astype(float)
    errors = np.minimum(err, 1e297).astype(float)
    for i in np.nonzero(bad)[0]:
        values[i] = min(max(_product_trace_mp(approx, float(omegas[i])), -1e300), 1e300)
        errors[i] = 1e-20 * max(1.0, abs(values[i]))
    return values, errors


# ---------------------------------------------------------------------------
# band arcs: Floquet edges and pointwise checks
# ---------------------------------------------------------------------------


def floquet_matrix(alphas: np.ndarray, phi: complex) -> np.ndarray:
    """M L for the q-periodic CMV operator twisted by phi (same spectrum as L M).

    L holds the 2x2 blocks Theta(alpha_j) at rows j, j+1 for even offsets j
    (alpha_0 = alpha_q), M those at odd offsets, its last block wrapping
    around the corner with the twist phi.
    """
    q = len(alphas)

    def alpha(j):
        return alphas[(j - 1) % q]

    def theta(a):
        r = math.sqrt(1.0 - abs(a) ** 2)
        return np.array([[np.conj(a), r], [r, -a]])

    big_l = np.zeros((q, q), dtype=complex)
    big_m = np.zeros((q, q), dtype=complex)
    for j in range(0, q, 2):
        big_l[j : j + 2, j : j + 2] = theta(alpha(j))
    for j in range(1, q - 1, 2):
        big_m[j : j + 2, j : j + 2] = theta(alpha(j))
    t = theta(alpha(q - 1))
    big_m[q - 1, q - 1] = t[0, 0]
    big_m[q - 1, 0] = t[0, 1] * phi
    big_m[0, q - 1] = t[1, 0] / phi
    big_m[0, 0] = t[1, 1]
    return big_m @ big_l


def _merge_runs(arcs, tol):
    """Merge sorted (lo, hi) arcs on [0, 2pi] whose gap is below tol, cyclically."""
    merged = []
    for lo, hi in arcs:
        if merged and lo - merged[-1][1] < tol:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    if len(merged) > 1 and merged[0][0] + TAU - merged[-1][1] < tol:
        first = merged.pop(0)
        merged[-1] = (merged[-1][0], first[1] + TAU)
    return merged


def floquet_bands(approx: Approximant) -> list:
    """Bands from the 2q eigenvalues of the phi = +1 and phi = -1 operators.

    Consecutive edges bound either a band or a gap; each interval is
    classified by |disc| at its midpoint, then bands separated by gaps
    narrower than GAP_TOL are merged.
    """
    alphas = approx.alphas
    angles = []
    for phi in (1.0, -1.0):
        ev = np.linalg.eigvals(floquet_matrix(alphas, phi))
        angles.extend(np.mod(np.angle(ev), TAU))
    edges = np.sort(np.asarray(angles))
    nxt = np.append(edges[1:], edges[0] + TAU)
    mids = 0.5 * (edges + nxt)
    values, _ = disc_direct(approx, mids)
    inside = np.abs(values) <= 2.0
    bands = [(lo, hi) for lo, hi, ok in zip(edges, nxt, inside) if ok]
    return _merge_runs(bands, GAP_TOL)


def reported_bands(doc: dict) -> list:
    """The program's arcs as one list of bands, rejoined across omega = 0."""
    return _merge_runs([(a["lo"], a["hi"]) for a in doc["arcs"]], GAP_TOL)


def check_bands_against_floquet(doc: dict, approx: Approximant) -> list:
    expected = floquet_bands(approx)
    found = reported_bands(doc)
    if len(found) != len(expected):
        return [f"{len(found)} bands reported, Floquet edges give {len(expected)}"]
    problems = []
    for (elo, ehi), (flo, fhi) in zip(expected, found):
        if abs(elo - flo) > EDGE_TOL or abs(ehi - fhi) > EDGE_TOL:
            problems.append(f"band [{flo}, {fhi}] against Floquet [{elo}, {ehi}]")
            break
    return problems


INTERIOR_PROBES = 7  # evenly spaced probes inside every arc and every gap


def _interior(lo, hi, n):
    return list(lo + (hi - lo) * np.arange(1, n + 1) / (n + 1))


def check_arcs_pointwise(doc: dict, approx: Approximant) -> list:
    """|disc| by direct product: <= 2 inside every arc, >= 2 in every gap.

    Every reported arc (rejoined across omega = 0) is probed at EDGE_PROBE
    inside both edges and at INTERIOR_PROBES evenly spaced points; every gap
    between bands, merged across gaps under GAP_TOL, at EDGE_PROBE outside
    both edges and at INTERIOR_PROBES evenly spaced points.  Two merged bands
    show where an arc probe lands in the gap between them.  disc is monotone
    between -2 and 2 on each band, so it is > 2 on one gap and < -2 on the
    next: every probe of one gap must see the same sign.  A band missing from
    a gap changes that sign between its two sides, so one missing band (or
    any odd number) is caught whatever its width, and more where a probe
    lands between them.
    """
    arcs = _merge_runs([(a["lo"], a["hi"]) for a in doc["arcs"]], 0.0)
    if not arcs:
        return ["no band reported; a periodic operator has q bands"]
    bands = _merge_runs(arcs, GAP_TOL)
    points, kinds = [], []

    def add(xs, kind, i):
        points.extend(xs)
        kinds.extend([(kind, i)] * len(xs))

    for i, (lo, hi) in enumerate(arcs):
        add(_interior(lo, hi, INTERIOR_PROBES), "in", i)
        if hi - lo > 2 * EDGE_PROBE:
            add([lo + EDGE_PROBE, hi - EDGE_PROBE], "in", i)
    for i, (_, hi) in enumerate(bands):
        lo_next = bands[(i + 1) % len(bands)][0] + (TAU if i + 1 == len(bands) else 0.0)
        if len(bands) == 1 and lo_next - hi < GAP_TOL:
            break
        if lo_next - hi > 2 * EDGE_PROBE:
            add([hi + EDGE_PROBE] + _interior(hi, lo_next, INTERIOR_PROBES) + [lo_next - EDGE_PROBE], "out", i)
    values, errors = disc_direct(approx, np.mod(points, TAU))
    slack = DISC_SLACK + errors
    inside = np.array([k == "in" for k, _ in kinds])
    bad = np.where(inside, np.abs(values) > 2.0 + slack, np.abs(values) < 2.0 - slack)
    if np.any(bad):
        j = int(np.argmax(bad))
        kind, i = kinds[j]
        where = f"inside arc {i}" if kind == "in" else f"in the gap after band {i}"
        return [
            f"|disc| = {float(abs(values[j]))!r} {'>' if kind == 'in' else '<'} 2 {where} at {float(points[j])!r}"
            f" ({int(bad.sum())} of {len(points)} probes wrong)"
        ]
    gap_sign = {}
    for (kind, i), x, v in zip(kinds, points, values):
        if kind == "out" and gap_sign.setdefault(i, v > 0) != (v > 0):
            return [f"disc changes sign inside the gap after band {i} (at {float(x)!r}): a band is missing there"]
    return []


def check_floquet_report(doc: dict, q: int, phi_count: int) -> list:
    problems = []
    if doc["q"] != q or doc["phi_count"] != phi_count or len(doc["phis"]) != phi_count:
        problems.append("period or phase count differs from the request")
        return problems
    for k, row in enumerate(doc["phis"]):
        if abs(row["phi_angle"] - TAU * k / phi_count) > 1e-15:
            problems.append(f"phase {k} is not 2 pi k / {phi_count}")
    worst_u = max(r["unitarity_defect"] for r in doc["phis"])
    worst_r = max(r["worst_residual"] for r in doc["phis"])
    if doc["max_unitarity_defect"] != worst_u or doc["max_residual"] != worst_r:
        problems.append("maxima disagree with the per-phase rows")
    if not worst_u <= UNITARITY_PER_SITE * q:
        problems.append(f"unitarity defect {worst_u} above {UNITARITY_PER_SITE * q}")
    if not worst_r <= RESIDUAL_PER_SITE * q:
        problems.append(f"residual {worst_r} above {RESIDUAL_PER_SITE * q}")
    return problems


# ---------------------------------------------------------------------------
# Gordon phase sets
# ---------------------------------------------------------------------------

GORDON_DPS = 60


def _theta(name: str):
    if name == "golden":
        return (mpmath.sqrt(5) - 1) / 2
    if name == "sqrt2-1":
        return mpmath.sqrt(2) - 1
    raise ValueError(f"no reference value for theta {name!r}")


def convergents(theta, depth: int):
    """Numerators and denominators in the library's documented indexing.

    q_0 = 0, q_1 = 1, p_0 = 1, p_1 = a_0 and x_{n+1} = a_n x_n + x_{n-1}.
    """
    x = theta
    terms = []
    for _ in range(depth):
        a = int(mpmath.floor(x))
        terms.append(a)
        x = 1 / (x - a)
    p, q = [1, terms[0]], [0, 1]
    for n in range(1, depth - 1):
        p.append(terms[n] * p[n] + p[n - 1])
        q.append(terms[n] * q[n] + q[n - 1])
    return p, q


def gordon_reference(theta_name: str, n: int, mode: str, interval=None) -> dict:
    """Good-phase measure and arcs: gaps between sorted centres, less 2r."""
    with mpmath.workdps(GORDON_DPS):
        theta = _theta(theta_name)
        p, q = convergents(theta, n + 2)
        r = abs(q[n] * theta - p[n])
        if mode == "sturmian":
            ends = [1 - theta, mpmath.mpf(0)]
            bound = 1 - 2 * (q[n] + 1) * r
        else:
            ends = [mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator for x in interval]
            bound = 1 - mpmath.mpf(4 * q[n]) / q[n + 1]
        centres = sorted(
            mpmath.frac(e - j * theta) for e in ends for j in range(1, q[n] + 1)
        )
        measure = mpmath.mpf(0)
        arcs = []
        for i, c in enumerate(centres):
            nxt = centres[i + 1] if i + 1 < len(centres) else centres[0] + 1
            gap = nxt - c
            if gap > 2 * r:
                measure += gap - 2 * r
                arcs.append((c + r, nxt - r))
        return {
            "q": q[n],
            "q_next": q[n + 1],
            "gap": float(r),
            "bound": float(bound),
            "measure": float(measure),
            "arcs": _split_at_zero(arcs),
        }


def _split_at_zero(arcs):
    out = []
    for lo, hi in arcs:
        lo_r = mpmath.frac(lo)
        hi_r = lo_r + (hi - lo)
        if hi_r <= 1:
            out.append((float(lo_r), float(hi_r)))
        else:
            out.append((float(lo_r), 1.0))
            out.append((0.0, float(hi_r - 1)))
    return sorted(out)


def check_gordon(doc: dict, ref: dict, mode: str, mc_samples: int) -> list:
    problems = []
    for key in ("q", "q_next"):
        if doc[key] != ref[key]:
            problems.append(f"{key} = {doc[key]}, reference {ref[key]}")
    for key in ("gap", "bound", "measure"):
        if not abs(doc[key] - ref[key]) <= GORDON_TOL:
            problems.append(f"{key} = {doc[key]!r}, reference {ref[key]!r}")
    if mode == "sturmian" and not doc["measure"] >= doc["bound"]:
        problems.append(f"measure {doc['measure']} below the Sturmian bound {doc['bound']}")
    arcs = sorted((a["lo"], a["hi"]) for a in doc["arcs"]["arcs"])
    if len(arcs) != len(ref["arcs"]):
        problems.append(f"{len(arcs)} good arcs, reference {len(ref['arcs'])}")
    elif any(
        abs(lo - rlo) > GORDON_TOL or abs(hi - rhi) > GORDON_TOL
        for (lo, hi), (rlo, rhi) in zip(arcs, ref["arcs"])
    ):
        problems.append("good-arc endpoints differ from the reference")
    if mc_samples:
        mc = doc.get("monte_carlo")
        m = ref["measure"]
        if mc is None or mc["samples"] != mc_samples:
            problems.append("Monte-Carlo estimate missing")
        elif m in (0.0, 1.0):
            if mc["estimate"] != m:
                problems.append(f"Monte-Carlo estimate {mc['estimate']} for measure {m}")
        elif abs(mc["estimate"] - m) > MC_SIGMAS * math.sqrt(m * (1 - m) / mc_samples):
            problems.append(f"Monte-Carlo estimate {mc['estimate']} beyond 5 sigma of {m}")
    return problems


CURVE_REL_TOL = 1e-6  # trace recursion against direct product, relative to max(1, |disc|)
CURVE_MAX_ABS = 1e3  # rows with |disc_real| above this are checked by their in_band flag only


def check_curve(text: str, approx: Approximant, resolution: int) -> list:
    """The discriminant CSV: grid, band flags, and every moderate value."""
    lines = text.splitlines()
    if lines[0] != "angle,disc_real,disc_imag,in_band":
        return ["curve header differs"]
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    if rows.shape != (resolution, 4):
        return [f"curve has shape {rows.shape}, expected ({resolution}, 4)"]
    angle, real, _, flag = rows.T
    if np.max(np.abs(angle - np.arange(resolution) * (TAU / resolution))) > 1e-14:
        return ["curve angles are not the uniform grid"]
    if np.any(flag != (np.abs(real) <= 2.0)):
        return ["in_band flags disagree with disc_real"]
    pick = np.nonzero(np.isfinite(real) & (np.abs(real) < CURVE_MAX_ABS))[0]
    if len(pick) == 0:
        return ["no finite discriminant samples in the curve"]
    values, errors = disc_direct(approx, angle[pick])
    bad = np.abs(real[pick] - values) > CURVE_REL_TOL * np.maximum(1.0, np.abs(values)) + errors
    if np.any(bad):
        j = int(np.argmax(bad))
        return [f"curve row {pick[j]}: disc_real {float(real[pick[j]])!r}, direct product {float(values[j])!r}"]
    return []


# ---------------------------------------------------------------------------
# one job's outputs
# ---------------------------------------------------------------------------

FLOQUET_MAX_Q = 512  # band count and edges against Floquet eigenvalues up to this period


def band_problems(spec: dict, doc: dict) -> list:
    """Problems with the bands of a spectrum output (the missed-band fault)."""
    approx = Approximant(spec["rule"], spec["level"], spec["f_a"], spec["f_b"])
    problems = check_bands_against_floquet(doc, approx) if approx.q <= FLOQUET_MAX_Q else []
    return problems + check_arcs_pointwise(doc, approx)


def _spectrum_problems(spec: dict, docs: dict) -> list:
    doc = docs["output"]
    q = len(substitution_prefix(spec["rule"], spec["level"]))
    if (doc["rule"], doc["level"], doc["q"]) != (spec["rule"], spec["level"], q):
        return ["rule, level or period differs from the request"]
    total = sum(a["hi"] - a["lo"] for a in doc["arcs"])
    if abs(total - doc["measure"]) > 1e-12 * max(1.0, total):
        return [f"measure {doc['measure']} differs from the arc lengths {total}"]
    problems = []
    if "curve" in docs:
        approx = Approximant(spec["rule"], spec["level"], spec["f_a"], spec["f_b"])
        problems += check_curve(docs["curve"], approx, doc["resolution"])
    return problems + band_problems(spec, doc)


def check_job(spec: dict, docs: dict) -> list:
    """Problems with one job's outputs (empty when they pass every check).

    docs holds the parsed JSON output under "output" and the curve CSV text
    under "curve".
    """
    if spec["command"] == "spectrum":
        return _spectrum_problems(spec, docs)
    doc = docs["output"]
    if spec["command"] == "floquet-check":
        if (doc["rule"], doc["level"]) != (spec["rule"], spec["level"]):
            return ["rule or level differs from the request"]
        q = len(substitution_prefix(spec["rule"], spec["level"]))
        return check_floquet_report(doc, q, spec["phi_count"])
    ref = gordon_reference(spec["theta"], spec["n"], spec["mode"], spec["interval"])
    return check_gordon(doc, ref, spec["mode"], spec["mc_samples"])
