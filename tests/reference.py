"""References the tests compare the library against.

The transfer layer's is a full-matrix one, independent of its pair form: the
single-site matrix is written out from the ``transfer.py`` docstring, with
1/z in the lower row of an odd site, and products are plain 2x2 numpy
products, so tests can check the pair-form kernels against it.  The band
scan's re-evaluates the whole grid at every doubling in one call, finds
each run's end by walking it, and bisects one family of edges at a time.  The Floquet eigensolve's is ``numpy.linalg.eigvals``,
compared as a multiset of angles.  The Floquet cross-check's runs one phase
at a time: a 2x2 block per site, a fresh operator, eigensolve and per-site
fold per phase.  Exact quadratic values are evaluated in
mpmath at a chosen number of digits.  The Gordon sets' is the generic
route: one exact sweep per bad-arc centre, normalized by ``ArcSet`` (an
exact sort and merge) and complemented.
"""

import math

import mpmath
import numpy as np

from cmvsubshift.arcs import ArcSet
from cmvsubshift.gordon import convergent_gap
from cmvsubshift.quadratic import exact
from cmvsubshift.spectrum import EDGE_ANGLE_TOL, MAX_RESOLUTION, FloquetOperator, discriminant_grid
from cmvsubshift.transfer import theta_matrix


def site_matrix(alpha, z, n):
    """The single-site matrix at site n (only its parity matters)."""
    r = math.sqrt(1.0 - abs(alpha) ** 2)
    if n % 2:
        return np.array([[-np.conj(alpha) / r, z / r], [(1.0 / z) / r, -alpha / r]], dtype=complex)
    return np.array([[-alpha / r, 1.0 / r], [1.0 / r, -np.conj(alpha) / r]], dtype=complex)


def site_product(alphas, z, lo, hi):
    """Ordered product of site matrices over sites lo..hi (last on the left)."""
    prod = np.eye(2, dtype=complex)
    for n in range(lo, hi + 1):
        prod = site_matrix(complex(alphas(n)), z, n) @ prod
    return prod


def word_product(word, z, f):
    """Product over a letter word placed at sites 1..len(word)."""
    return site_product(lambda n: f.alpha(word.text[n - 1]), z, 1, len(word))


def det2(m):
    """Determinant of a 2x2 matrix, written out."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def angle_mismatch(z, ref):
    """Largest gap between the sorted angles of z and of ref, two multisets of
    points near the unit circle.  Angles are read from the middle of ref's
    widest gap, so no point sits on the cut and sorting pairs them up."""
    t = np.sort(np.angle(ref))
    gaps = np.diff(np.append(t, t[0] + 2 * math.pi))
    k = int(np.argmax(gaps))
    turn = -np.exp(-1j * (t[k] + gaps[k] / 2))  # the cut moves to that middle

    def angles(w):
        return np.sort(np.angle(np.asarray(w) * turn))

    return float(np.max(np.abs(angles(z) - angles(ref))))


def cyclic_runs_by_walking(mask):
    """Start/end indices of cyclic runs of True: walk from every run start
    until the next False, wrapping at n."""
    n = len(mask)
    starts = [i for i in range(n) if mask[i] and not mask[i - 1]]
    ends = []
    for s in starts:
        e = s
        while mask[(e + 1) % n]:
            e += 1
        ends.append(e % n)
    return starts, ends


def bisect_band_edges(inside_fn, out_angles, in_angles):
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


def full_grid_band_arcs(disc_fn, resolution):
    """The band scan with the library's stop rule and bisection, but every
    doubling re-evaluates its whole grid and runs are found by walking."""
    tau = 2 * math.pi

    def inside(omegas):
        return np.abs(disc_fn(omegas)) <= 2.0

    res, prev_count = resolution, -1
    while True:
        mask = inside(np.arange(res) * (tau / res))
        starts, ends = cyclic_runs_by_walking(mask)
        count = len(starts)
        if (count == prev_count and count > 0) or res >= MAX_RESOLUTION or mask.all():
            break
        prev_count = count
        res *= 2
    if mask.all():
        return ArcSet.full(tau)
    if not mask.any():
        return ArcSet.empty(tau)
    step = tau / res
    starts, ends = np.array(starts), np.array(ends)
    left = bisect_band_edges(inside, (starts - 1) * step, starts * step)
    right = bisect_band_edges(inside, (ends + 1) * step, ends * step)
    return ArcSet([(lo, hi + tau if hi < lo else hi) for lo, hi in zip(left, right)], tau)


def floquet_matrix(alphas, phi):
    """The twisted one-period operator, every block built from its site's
    coefficient: the even offsets' blocks times the odd factor, whose wrapped
    corner block is twisted by phi, two rows at a time."""
    q = alphas.period
    even_blocks = np.array([theta_matrix(alphas.alpha(j)) for j in range(0, q, 2)])
    odd_part = np.zeros((q, q), dtype=complex)
    for j in range(1, q - 2, 2):
        odd_part[j : j + 2, j : j + 2] = theta_matrix(alphas.alpha(j))
    corner = theta_matrix(alphas.alpha(q - 1))
    odd_part[q - 1, q - 1] = corner[0, 0]
    odd_part[q - 1, 0] = corner[0, 1] * phi
    odd_part[0, q - 1] = corner[1, 0] / phi
    odd_part[0, 0] = corner[1, 1]
    return (even_blocks @ odd_part.reshape(q // 2, 2, q)).reshape(q, q)


def floquet_residuals_phase_by_phase(alphas, phis):
    """The Floquet cross-check's reports, one phase after another: each
    phase builds its operator, solves it and folds its eigenvalues alone, so
    a drift failure raises at the first failing phase."""
    reports = []
    for phi in map(complex, phis):
        flo = FloquetOperator(floquet_matrix(alphas, phi), alphas.period, phi)
        z0 = flo.eigenvalues()
        disc = discriminant_grid(z0 / np.abs(z0), alphas)
        reports.append(
            {
                "q": flo.q,
                "phi": phi,
                "unitarity_defect": flo.unitarity_defect(),
                "worst_residual": float(np.max(np.abs(disc - (phi + 1.0 / phi).real))),
            }
        )
    return reports


def quadratic_mpf(x, dps):
    """The Quadratic x = (A + B sqrt(d)) / C evaluated in mpmath at dps digits."""
    with mpmath.workdps(dps):
        value = mpmath.mpf(x.A)
        if x.B:
            value += mpmath.mpf(x.B) * mpmath.sqrt(x.d)
        return value / x.C


def orbit_sweeps(theta, start, count, r):
    """Sweeps of radius r around the centres start - j*theta, 1 <= j <= count."""
    sweeps = []
    center = exact(start)
    for _ in range(count):
        center = center - theta
        sweeps.append((center - r, center + r))
    return sweeps


def sweep_bad_arcs(theta, endpoints, cf, n):
    """Bad arcs around e - j*theta, 1 <= j <= q_n, for each endpoint e."""
    theta = exact(theta)
    r = convergent_gap(theta, cf, n)
    sweeps = []
    for e in endpoints:
        sweeps += orbit_sweeps(theta, e, cf.q[n], r)
    return ArcSet(sweeps, period=1)


def sweep_good_arcs(theta, cf, n, mode, interval=None):
    """The admissible phases: the complement of the bad arcs around the one
    Sturmian orbit {-j*theta : 1 <= j <= q_n + 1}, or around both orbits of
    a coding arc's endpoints."""
    theta = exact(theta)
    if mode == "sturmian":
        r = convergent_gap(theta, cf, n)
        bad = ArcSet(orbit_sweeps(theta, 0, cf.q[n] + 1, r), period=1)
    else:
        bad = sweep_bad_arcs(theta, interval, cf, n)
    return bad.complement()
