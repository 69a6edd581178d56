"""Full-matrix reference for the transfer layer, independent of its pair form.

The single-site matrix is written out from the ``transfer.py`` docstring,
with 1/z in the lower row of an odd site, and products are plain 2x2 numpy
products, so tests can check the pair-form kernels against it.
"""

import math

import numpy as np


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
    return site_product(lambda n: f.alpha(word.letter(n)), z, 1, len(word))


def det2(m):
    """Determinant of a 2x2 matrix, written out."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
