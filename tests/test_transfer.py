"""Transfer-matrix layer: determinants, products, solutions, norm bounds."""

import numpy as np
import pytest

from cmvsubshift.errors import ValidationError
from cmvsubshift.transfer import (
    VerblunskyMap,
    gordon_inequality_check,
    propagate,
    rho_of,
    theta_matrix,
    transfer_product,
    transfer_product_grid,
    unit_point,
)
from cmvsubshift.words import Window
from reference import det2, site_matrix, site_product

RNG_SEED = 20260815
NANS = (float("nan"), complex(0.0, float("nan")))  # every comparison with them is False


def random_disk(rng, n, radius=0.95):
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    ph = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * ph)


def single_site(alpha, z, n):
    return transfer_product(lambda m: alpha, z, n, n)


def test_single_step_determinant_is_minus_one():
    rng = np.random.default_rng(RNG_SEED)
    alphas = random_disk(rng, 50)
    angles = rng.uniform(0, 2 * np.pi, 50)
    for alpha, om in zip(alphas, angles):
        z = unit_point(om)
        for n in (1, 2):
            assert abs(det2(single_site(alpha, z, n)) + 1.0) < 1e-14
    # only the parity of the site index matters
    assert np.allclose(single_site(0.3, 1j, 7), single_site(0.3, 1j, 1))
    assert np.allclose(single_site(0.3, 1j, 4), single_site(0.3, 1j, 2))


def test_free_product_closed_form():
    z = unit_point(0.9)
    free = lambda n: 0.0
    m2 = transfer_product(free, z, 1, 2)
    assert np.allclose(m2, np.diag([1 / z, z]), atol=1e-14)
    m_minus2 = np.linalg.inv(transfer_product(free, z, -1, 0))
    assert np.allclose(m_minus2, np.diag([z, 1 / z]), atol=1e-14)
    assert np.allclose(m2 @ m_minus2, np.eye(2), atol=1e-14)
    assert np.allclose(transfer_product(free, z, 1, 0), np.eye(2))  # empty range


def test_negative_products_invert_site_range():
    # the inverse of a product is the product of the single-site inverses,
    # taken in the opposite order
    rng = np.random.default_rng(RNG_SEED + 1)
    vals = random_disk(rng, 8)
    alphas = Window(list(vals), -5).__getitem__
    z = unit_point(2.2)
    back = np.linalg.inv(transfer_product(alphas, z, -2, 0))
    steps = [np.linalg.inv(site_matrix(alphas(n), z, n)) for n in (-2, -1, 0)]
    assert np.allclose(back, np.linalg.multi_dot(steps), atol=1e-12)
    assert np.allclose(back @ transfer_product(alphas, z, -2, 0), np.eye(2), atol=1e-12)


def test_free_case_preserves_norms():
    z = unit_point(1.234)
    sol = propagate(lambda n: 0.0, z, (1.0, 0.0), -8, 8)
    for n in range(-8, 9):
        assert abs(sol.norm_at(n) - 1.0) < 1e-12


def test_theta_coupling_links_solution_components():
    # independent route: the unitary building block must intertwine the two
    # solution components site by site
    rng = np.random.default_rng(RNG_SEED + 2)
    vals = random_disk(rng, 21)
    alphas = Window(list(vals), -10).__getitem__
    z = unit_point(rng.uniform(0, 2 * np.pi))
    sol = propagate(alphas, z, (0.6, 0.8j), -9, 10)
    for j in range(-8, 11):
        th = theta_matrix(alphas(j))
        if j % 2:  # odd site
            got = th @ sol.u[j - 1 - sol.lo : j + 1 - sol.lo]
            want = z * sol.v[j - 1 - sol.lo : j + 1 - sol.lo]
        else:
            got = th @ sol.v[j - 1 - sol.lo : j + 1 - sol.lo]
            want = sol.u[j - 1 - sol.lo : j + 1 - sol.lo]
        assert np.allclose(got, want, atol=1e-11)


def test_theta_matrix_is_unitary_with_det_minus_one():
    rng = np.random.default_rng(RNG_SEED + 3)
    for alpha in random_disk(rng, 20):
        th = theta_matrix(alpha)
        assert np.allclose(th @ th.conj().T, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(th) + 1.0) < 1e-14


def test_verblunsky_map():
    f = VerblunskyMap(0.5, -0.25j)
    assert f.alpha("a") == 0.5 and f.alpha("b") == -0.25j
    assert abs(rho_of(f.alpha("a")) - np.sqrt(0.75)) < 1e-15
    win = f.coefficients("aba")
    assert win.lo == 1 and win[2] == -0.25j
    with pytest.raises(ValidationError):
        VerblunskyMap(1.0, 0.0)
    for nan in NANS:
        with pytest.raises(ValidationError, match="unit disk"):
            VerblunskyMap(0.1, nan)


def test_grid_product_matches_scalar_route():
    # reference: the docstring formula site by site, multiplied by numpy
    rng = np.random.default_rng(RNG_SEED + 5)
    vals = list(random_disk(rng, 6))
    alphas = Window(vals, 1).__getitem__
    omegas = rng.uniform(0, 2 * np.pi, 7)
    zs = np.exp(1j * omegas)
    a, b, e = transfer_product_grid(alphas, zs, 1, 6)
    scale = np.ldexp(1.0, np.broadcast_to(e, zs.shape))
    for k, z in enumerate(zs):
        reference = site_product(alphas, z, 1, 6)
        pair = scale[k] * np.array([[a[k], b[k]], [np.conj(b[k]), np.conj(a[k])]])
        assert np.allclose(pair, reference, atol=1e-12)
        assert np.allclose(transfer_product(alphas, z, 1, 6), reference, atol=1e-12)


def test_matrix_inverse_and_validation():
    z = unit_point(0.4)
    prod = transfer_product(lambda n: (0.2, 0.3)[n - 1], z, 1, 2)
    assert np.allclose(prod, site_matrix(0.3, z, 2) @ site_matrix(0.2, z, 1))
    assert np.allclose(np.linalg.inv(prod) @ prod, np.eye(2), atol=1e-14)
    with pytest.raises(ValidationError):
        single_site(0.2, 1.5 + 0j, 1)
    with pytest.raises(ValidationError):
        single_site(1.2, z, 1)
    with pytest.raises(ValidationError):
        propagate(lambda n: 0.2, 1.5 + 0j, (1, 0), 0, 1)
    for nan in NANS:
        with pytest.raises(ValidationError, match="unit disk"):
            transfer_product_grid(lambda n: nan, np.ones(3, dtype=complex), 1, 2)
        with pytest.raises(ValidationError, match="unit circle"):
            transfer_product_grid(lambda n: 0.1, np.array([1.0, nan, 1j]), 1, 2)


def test_gordon_check_free_case():
    rep = gordon_inequality_check(lambda n: 0.0, 1.0 + 0j, 2, variant="two")
    assert abs(rep.trace - 2.0) < 1e-14
    assert rep.bound == 0.25 and rep.holds
    rep3 = gordon_inequality_check(lambda n: 0.0, unit_point(2.5), 4, variant="three")
    assert rep3.bound == 0.5 and rep3.holds
    assert set(rep3.norms) == {"n", "2n", "-n"}


def test_gordon_check_periodic_coefficients():
    vals = (0.4 + 0.1j, -0.35j)
    alphas = lambda n: vals[n % 2]
    rng = np.random.default_rng(RNG_SEED + 6)
    for om in rng.uniform(0, 2 * np.pi, 25):
        rep = gordon_inequality_check(alphas, unit_point(om), 6, variant="three")
        assert rep.holds
        rep2 = gordon_inequality_check(alphas, unit_point(om), 6, variant="two")
        assert rep2.holds


def test_gordon_check_rejects_broken_blocks():
    vals = {j: 0.1 * j for j in range(-8, 9)}
    with pytest.raises(ValidationError):
        gordon_inequality_check(lambda n: vals[n], 1.0, 2, variant="two")
    with pytest.raises(ValidationError):  # sites 1..4 repeat, sites -1..0 do not
        gordon_inequality_check(lambda n: 0.1 if n >= 1 else 0.2, 1.0, 2, variant="three")
    with pytest.raises(ValidationError):
        gordon_inequality_check(lambda n: 0.0, 1.0, 3, variant="two")  # odd length
    with pytest.raises(ValidationError):
        gordon_inequality_check(lambda n: 0.0, 1.0, 2, seed=(0, 0))


def test_propagate_window_must_contain_origin():
    with pytest.raises(ValidationError):
        propagate(lambda n: 0.0, 1.0, (1, 0), 2, 5)
