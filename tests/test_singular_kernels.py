import numpy as np
import pytest

from sbe.grids import GridSpec
from sbe.heat import HeatKernel, signed_torus_coordinate
from sbe.kernels import (
    DiscreteKernel,
    convolve_kernels,
    increment_bound_probe,
    kernel_mass,
    mollification_loss_probe,
    order_norm,
    renormalized_convolve,
    twisted_kernel_product,
)
from sbe.operators import derivative_multiplier


def split_kernel(fam, N, horizon=0.25):
    grid = GridSpec(N, horizon)
    sp = HeatKernel(grid, fam).split(horizon)
    return DiscreteKernel(sp.K, grid, -1.0), grid


def norm_one_kernel(grid, rows=8):
    """The kernel |z|_{s,eps}^{-1} itself."""
    t = np.arange(rows)[:, None] * grid.dt
    x = signed_torus_coordinate(grid.M, grid.eps)[None, :]
    zn = np.maximum(np.maximum(np.sqrt(t), np.abs(x)), grid.eps)
    return DiscreteKernel(zn**-1.0, grid, -1.0)


class TestOrderNorm:
    def test_zero_kernel(self):
        grid = GridSpec(5, 0.25)
        assert order_norm(DiscreteKernel(np.zeros((4, grid.M)), grid, -1.0), -1.0, 2) == 0.0

    def test_norm_one_kernel_is_exactly_one(self):
        grid = GridSpec(5, 0.25)
        assert order_norm(norm_one_kernel(grid), -1.0, 0) == pytest.approx(1.0, rel=1e-14)

    def test_absolute_homogeneity(self, fam_bw_ss):
        k, grid = split_kernel(fam_bw_ss, 5)
        scaled = DiscreteKernel(-2.5 * k.values, grid, -1.0)
        assert order_norm(scaled, -1.0, 2) == pytest.approx(2.5 * order_norm(k, -1.0, 2), rel=1e-13)

    def test_monotone_in_zeta_on_unit_box(self, fam_bw_ss):
        # every |z|_{s,eps} <= 1 here, so raising zeta divides by smaller
        # powers and the norm can only grow
        k, _ = split_kernel(fam_bw_ss, 5)
        assert order_norm(k, -0.5, 0) >= order_norm(k, -1.0, 0) >= order_norm(k, -1.5, 0)

    def test_split_kernel_stable_across_levels(self, fam_bw_ss):
        vals = [order_norm(split_kernel(fam_bw_ss, N)[0], -1.0, 2) for N in (5, 6, 7, 8)]
        assert max(vals) / min(vals) <= 2.0

    def test_derivative_depth_cap(self, fam_bw_ss):
        k, _ = split_kernel(fam_bw_ss, 5)
        with pytest.raises(ValueError):
            order_norm(k, -1.0, 3)


class TestProductsAndConvolutions:
    def test_product_with_zero(self, fam_bw_pw):
        k, grid = split_kernel(fam_bw_pw, 5)
        z = DiscreteKernel(np.zeros_like(k.values), grid, -1.0)
        out = twisted_kernel_product(k, z, fam_bw_pw.mu)
        assert not out.values.any()
        assert out.claimed_order == -2.0

    def test_squared_kernel_order(self, fam_bw_pw):
        vals = []
        for N in (5, 6, 7):
            k, _ = split_kernel(fam_bw_pw, N)
            p = twisted_kernel_product(k, k, fam_bw_pw.mu)
            vals.append(order_norm(p, -2.0, 0))
        assert max(vals) / min(vals) < 2.0

    def test_self_convolution_after_taylor_subtraction(self, fam_bw_pw):
        vals = []
        for N in (5, 6, 7):
            k, grid = split_kernel(fam_bw_pw, N)
            c = convolve_kernels(k, k)
            assert c.claimed_order == pytest.approx(1.0)
            kbar = DiscreteKernel(c.values - c.values[0, 0], grid, 1.0)
            vals.append(order_norm(kbar, 1.0, 0))
        assert max(vals) / min(vals) < 2.0


class TestRenormalizedConvolve:
    def make_window_pair(self, fam, N):
        k, grid = split_kernel(fam, N)
        dxk = np.fft.ifft(np.fft.fft(k.values, axis=1) * derivative_multiplier(fam, grid.eps, grid.M), axis=1).real
        sq = DiscreteKernel(dxk**2, grid, -3.5)
        return sq, k, grid

    def test_algebraic_identity(self, fam_bw_pw):
        sq, k, grid = self.make_window_pair(fam_bw_pw, 5)
        ren = renormalized_convolve(sq, k)
        plain = convolve_kernels(sq, k)
        embedded = np.zeros_like(plain.values)
        embedded[: k.values.shape[0]] = k.values
        resid = np.max(np.abs(ren.values - (plain.values - kernel_mass(sq) * embedded)))
        assert resid < 1e-12

    def test_constant_second_factor_vanishes(self, fam_bw_pw):
        # the increment K2(z-w) - K2(z) kills constants wherever the
        # shifted support box fully covers the first kernel's support
        sq, k, grid = self.make_window_pair(fam_bw_pw, 5)
        short = DiscreteKernel(sq.values[:16], grid, -3.5)
        rows = 200
        const = DiscreteKernel(np.full((rows, grid.M), 2.0), grid, 0.0)
        out = renormalized_convolve(short, const)
        covered = out.values[15:rows]
        scale = max(1.0, abs(kernel_mass(short)) * 2.0)
        assert np.max(np.abs(covered)) < 1e-10 * scale

    def test_pairing_with_unit_test_function_vanishes(self, fam_bw_pw):
        # <R K, psi> = <K, psi - psi(0)> is identically zero for psi = 1
        sq, _, grid = self.make_window_pair(fam_bw_pw, 5)
        psi = np.ones_like(sq.values)
        pairing = grid.eps**3 * np.sum(sq.values * (psi - psi[0, 0]))
        assert pairing == 0.0

    def test_order_window_enforced(self, fam_bw_pw):
        sq, k, grid = self.make_window_pair(fam_bw_pw, 5)
        bad1 = DiscreteKernel(sq.values, grid, -2.0)
        with pytest.raises(ValueError, match="zeta1"):
            renormalized_convolve(bad1, k)
        bad2 = DiscreteKernel(k.values, grid, -4.0)
        with pytest.raises(ValueError, match="zeta2"):
            renormalized_convolve(sq, bad2)

    def test_diagnostic_norm_finite(self, fam_bw_pw):
        sq, k, _ = self.make_window_pair(fam_bw_pw, 6)
        out = renormalized_convolve(sq, k)
        assert np.isfinite(order_norm(out, out.claimed_order, 0))


class TestProbes:
    def test_increment_probe_kappa_zero_triangle_bound(self, fam_bw_ss):
        k, _ = split_kernel(fam_bw_ss, 6)
        assert increment_bound_probe(k, 0.0) <= order_norm(k, -1.0, 0) + 1e-12

    def test_increment_probe_fractional(self, fam_bw_ss):
        k, _ = split_kernel(fam_bw_ss, 6)
        val = increment_bound_probe(k, 0.5)
        assert np.isfinite(val) and val > 0

    def test_smooth_kernel_any_kappa(self, fam_bw_ss):
        grid = GridSpec(6, 0.25)
        vals = np.exp(-(((np.arange(grid.M) - 32) / 8.0) ** 2))[None, :] * np.ones((16, 1))
        sm = DiscreteKernel(vals, grid, 0.0)
        assert np.isfinite(increment_bound_probe(sm, 0.7))

    def test_mollification_loss_bounded(self, fam_bw_ss):
        k, _ = split_kernel(fam_bw_ss, 6)
        r4 = mollification_loss_probe(k, 4, 0.5)
        r8 = mollification_loss_probe(k, 8, 0.5)
        assert max(r4, r8) / min(r4, r8) < 2.0

    def test_mollification_one_cell_is_identity(self, fam_bw_ss):
        k, _ = split_kernel(fam_bw_ss, 5)
        assert mollification_loss_probe(k, 1, 0.5) == 0.0

    def test_probe_guards(self, fam_bw_ss):
        k, _ = split_kernel(fam_bw_ss, 5)
        with pytest.raises(ValueError):
            increment_bound_probe(k, 1.5)
        with pytest.raises(ValueError):
            mollification_loss_probe(k, 0, 0.5)
