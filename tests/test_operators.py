import numpy as np
import pytest

from sbe.grids import GridSpec
from sbe.measures import preset_measure
from sbe.operators import (
    OperatorFamily,
    check_parseval_twisted,
    derivative,
    derivative_multiplier,
    laplacian,
    modes,
    stepping_multiplier,
    twisted_product,
)


def test_family_rejects_inadmissible():
    from sbe.measures import AtomicMeasure1D

    with pytest.raises(ValueError, match="inadmissible"):
        OperatorFamily(
            nu=AtomicMeasure1D({-1: 1.0, 1: 1.0}),
            pi=preset_measure("deriv-backward"),
            mu=preset_measure("product-pointwise"),
        )


def test_family_takes_three_measures_and_caches_nu_bar(fam_bw_ss):
    nu, pi, mu = fam_bw_ss.nu, fam_bw_ss.pi, fam_bw_ss.mu
    with pytest.raises(TypeError):
        OperatorFamily(nu, pi, mu, 5.0)
    with pytest.raises(TypeError):
        OperatorFamily(nu=nu, pi=pi, mu=mu, nu_bar=5.0)
    assert fam_bw_ss.nu_bar == nu.total_variation() == 4.0


def test_laplacian_hand_stencil(fam_bw_ss):
    u = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(laplacian(fam_bw_ss, u, 0.25), [-4.0, 2.0, 0.0, 2.0])


def test_laplacian_kills_constants(fam_bw_ss):
    out = laplacian(fam_bw_ss, np.full(32, 3.7), 1 / 32)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_laplacian_eigenmode(fam_bw_ss):
    from sbe.measures import fourier_nu

    grid = GridSpec(5, 0.25)
    q = 5
    mode = np.exp(2j * np.pi * q * grid.sites)
    lam = fourier_nu(fam_bw_ss.nu, grid.eps * q) / (2 * fam_bw_ss.nu_bar * grid.eps**2)
    for part in (mode.real, mode.imag):
        np.testing.assert_allclose(
            laplacian(fam_bw_ss, part, grid.eps), lam * part, atol=1e-9
        )


def test_derivative_on_ramp(fam_bw_ss):
    grid = GridSpec(4, 0.25)
    u = grid.sites.copy()
    out = derivative(fam_bw_ss, u, grid.eps)
    np.testing.assert_allclose(out[1:], 1.0, atol=1e-12)
    assert out[0] == pytest.approx(1.0 - 1.0 / grid.eps, abs=1e-12)


def test_derivative_mean_free(fam_bw_ss, rng):
    grid = GridSpec(5, 0.25)
    u = rng.standard_normal(grid.M)
    out = derivative(fam_bw_ss, u, grid.eps)
    assert abs(grid.eps * out.sum()) < 1e-12


def test_twisted_product_pointwise(fam_bw_pw, rng):
    f, g = rng.standard_normal((2, 16))
    np.testing.assert_array_equal(twisted_product(fam_bw_pw.mu, f, g), f * g)


def test_twisted_product_constants(fam_bw_ss):
    a, b = 2.5, -1.25
    out = twisted_product(fam_bw_ss.mu, np.full(16, a), np.full(16, b))
    np.testing.assert_allclose(out, a * b, atol=1e-14)


def test_twisted_product_sasamoto_spohn_formula(fam_bw_ss, rng):
    u = rng.standard_normal(32)
    up = np.roll(u, -1)
    expected = (up**2 + u * up + u**2) / 3.0
    np.testing.assert_allclose(twisted_product(fam_bw_ss.mu, u, u), expected, atol=1e-13)


def test_operator_linearity(fam_bw_ss, rng):
    grid = GridSpec(5, 0.25)
    u, v = rng.standard_normal((2, grid.M))
    a, b = 1.7, -0.3
    for op in (laplacian, derivative):
        lhs = op(fam_bw_ss, a * u + b * v, grid.eps)
        rhs = a * op(fam_bw_ss, u, grid.eps) + b * op(fam_bw_ss, v, grid.eps)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_twisted_product_bilinear(fam_bw_ss, rng):
    u, v, w = rng.standard_normal((3, 16))
    lhs = twisted_product(fam_bw_ss.mu, u, 2.0 * v - w)
    rhs = 2.0 * twisted_product(fam_bw_ss.mu, u, v) - twisted_product(fam_bw_ss.mu, u, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_spectral_matches_stencil(fam_bw_ss, rng):
    grid = GridSpec(7, 0.125)
    u = rng.standard_normal(grid.M)
    lap_mult = (stepping_multiplier(fam_bw_ss, grid.eps, grid.M) - 1.0) / grid.dt
    der_mult = derivative_multiplier(fam_bw_ss, grid.eps, grid.M)
    for op, mult in ((laplacian, lap_mult), (derivative, der_mult)):
        np.testing.assert_allclose(
            np.fft.ifft(mult * np.fft.fft(u)).real,
            op(fam_bw_ss, u, grid.eps),
            atol=1e-10,
        )


def test_support_wrap_guard(fam_bw_ss):
    with pytest.raises(ValueError, match="wraps"):
        laplacian(fam_bw_ss, np.zeros(2), 0.5)


def test_sasamoto_spohn_telescoping(fam_bw_ss, rng):
    """The energy-neutrality identity of the Zabusky-type product."""
    grid = GridSpec(6, 0.25)
    for _ in range(5):
        u = rng.standard_normal(grid.M) * 10
        nl = twisted_product(fam_bw_ss.mu, u, u)
        dnl = derivative(fam_bw_ss, nl, grid.eps)
        resid = grid.eps * np.sum(u * dnl)
        denom = grid.eps * np.sum(np.abs(u * dnl)) + 1e-300
        assert abs(resid) / denom < 1e-9


def test_stepping_multiplier_spellings(all_preset_families):
    from sbe.measures import fourier_nu

    for fam in all_preset_families.values():
        for N in (3, 5, 7, 9):
            grid = GridSpec(N, 0.25)
            m = stepping_multiplier(fam, grid.eps, grid.M)
            k = np.rint(np.fft.fftfreq(grid.M) * grid.M)
            assert np.array_equal(m, 1.0 + fourier_nu(fam.nu, grid.eps * k) / (2.0 * fam.nu_bar))
            nonzero = modes(grid.M)[modes(grid.M) != 0]
            assert np.array_equal(m[1:], 1.0 + fourier_nu(fam.nu, grid.eps * nonzero) / (2.0 * fam.nu_bar))
            u = np.cos(2 * np.pi * 3 * grid.sites)
            np.testing.assert_allclose(u + grid.dt * laplacian(fam, u, grid.eps), m[3] * u, atol=1e-12)


class TestDFT:
    def test_mode_layout(self):
        m = modes(8)
        np.testing.assert_array_equal(m, [0, 1, 2, 3, -4, -3, -2, -1])


class TestTwistedParseval:
    def test_random_fields_all_products(self, all_preset_families, rng):
        eps = 1 / 64
        for fam in all_preset_families.values():
            f, g = rng.standard_normal((2, 64))
            assert check_parseval_twisted(fam, f, g, eps) < 1e-10

    def test_constants(self, fam_bw_ss):
        eps = 1 / 32
        c = 1.3
        f = np.full(32, c)
        lhs = eps * np.sum(twisted_product(fam_bw_ss.mu, f, f))
        assert lhs == pytest.approx(c * c, rel=1e-12)
        assert check_parseval_twisted(fam_bw_ss, f, f, eps) < 1e-12

    def test_pointwise_reduces_to_parseval(self, fam_bw_pw, rng):
        f, g = rng.standard_normal((2, 64))
        assert check_parseval_twisted(fam_bw_pw, f, g, 1 / 64) < 1e-12
