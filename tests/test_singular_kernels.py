import numpy as np
import pytest

from oracles import increment_sums_zeros_like
from sbe import kernels
from sbe.grids import GridSpec, rng_for
from sbe.heat import HeatKernel, signed_torus_coordinate
from sbe.kernels import (
    DiscreteKernel,
    convolve_kernels,
    increment_bound_probe,
    kernel_mass,
    mollification_loss_probe,
    order_norm,
    renormalized_convolve,
    renormalized_square_check,
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


def spacetime_sum(a, b, eps):
    """eps^3 sum_{s, y} a(s, y) b(n - s, x - y) for every (n, x), b zero outside its rows."""
    n1, M = a.shape
    n2 = b.shape[0]
    out = np.zeros((n1 + n2 - 1, M))
    for n in range(n1 + n2 - 1):
        for x in range(M):
            for s in range(max(0, n - n2 + 1), min(n, n1 - 1) + 1):
                out[n, x] += sum(a[s, y] * b[n - s, (x - y) % M] for y in range(M))
    return eps**3 * out


class TestSpacetimeConvolve:
    grid = GridSpec(3, 0.25)

    def rows(self, n, trailing_zeros, seed):
        vals = rng_for(seed, 0).standard_normal((n, self.grid.M))
        if trailing_zeros:
            vals[n - trailing_zeros :] = 0.0
        return vals

    @pytest.mark.parametrize(
        "n1, z1, n2, z2",
        [(5, 0, 3, 0), (3, 0, 7, 0), (6, 2, 4, 0), (4, 0, 6, 3), (5, 4, 5, 1), (1, 0, 4, 0)],
    )
    def test_matches_the_direct_sum(self, n1, z1, n2, z2):
        a, b = self.rows(n1, z1, 1), self.rows(n2, z2, 2)
        got = kernels._spacetime_convolve(a, b, self.grid)
        want = spacetime_sum(a, b, self.grid.eps)
        assert got.shape == (n1 + n2 - 1, self.grid.M)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # rows past the occupied ones are exact zeros
        assert not got[(n1 - z1) + (n2 - z2) - 1 :].any()

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_all_zero_input(self, zero_first):
        zero, other = np.zeros((4, self.grid.M)), self.rows(6, 0, 3)
        a, b = (zero, other) if zero_first else (other, zero)
        got = kernels._spacetime_convolve(a, b, self.grid)
        assert got.shape == (9, self.grid.M)
        assert not got.any()


class TestRenormalizedSquareCheck:
    def test_residual_is_a_rounding_gap(self, fam_bw_pw):
        _, _, resid = renormalized_square_check(fam_bw_pw, GridSpec(5, 0.25))
        assert 0.0 < resid <= 1e-15

    @pytest.mark.parametrize("N", [5, 6])
    def test_direct_sums_equal_the_reference_loop(self, fam_bw_ss, N):
        grid = GridSpec(N, 0.25)
        K = HeatKernel(grid, fam_bw_ss).split(grid.T).K
        dmult = derivative_multiplier(fam_bw_ss, grid.eps, grid.M)[: grid.M // 2 + 1]
        sq = np.fft.irfft(np.fft.rfft(K, axis=1) * dmult, n=grid.M, axis=1) ** 2
        nk, M = K.shape
        rows = 2 * nk - 1
        gen = rng_for(5, N)
        points = [(0, 0), (0, M - 1), (rows - 1, 0), (rows - 1, M - 1), (nk - 1, 3), (nk, M - 2), (1, 1)]
        points += zip(gen.integers(0, rows, 24).tolist(), gen.integers(0, M, 24).tolist())
        got = kernels._direct_sums(K, sq, points, grid.eps)
        assert np.array_equal(got, increment_sums_zeros_like(K, sq, points, grid.eps))

    def test_residual_sees_a_perturbed_convolution(self, fam_bw_pw, monkeypatch):
        # the direct sum does not go through the FFT convolution, so a
        # relative error of 1e-9 there must show in the residual;
        # _finish_with makes the convolution's values from its buffer
        fft_route = kernels._finish_with
        monkeypatch.setattr(kernels, "_finish_with", lambda first, b, grid: fft_route(first, b, grid) * (1 + 1e-9))
        _, _, resid = renormalized_square_check(fam_bw_pw, GridSpec(5, 0.25))
        assert resid > 1e-12


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
