import numpy as np
import pytest

from oracles import increment_sums_zeros_like, renormalized_convolve, spacetime_convolve
from sbe import kernels
from sbe.grids import GridSpec, rng_for
from sbe.heat import HeatKernel
from sbe.kernels import order_norm, renormalized_square_check
from sbe.operators import derivative_multiplier, modes, twisted_product


def split_kernel(fam, N, horizon=0.25):
    grid = GridSpec(N, horizon)
    return HeatKernel(grid, fam).singular_part(horizon), grid


def norm_one_kernel(grid, rows=8):
    """The kernel |z|_{s,eps}^{-1} itself."""
    t = np.arange(rows)[:, None] * grid.dt
    x = (grid.eps * modes(grid.M))[None, :]
    zn = np.maximum(np.maximum(np.sqrt(t), np.abs(x)), grid.eps)
    return zn**-1.0


class TestOrderNorm:
    def test_zero_kernel(self):
        grid = GridSpec(5, 0.25)
        assert order_norm(np.zeros((4, grid.M)), grid, -1.0, 2) == 0.0

    def test_norm_one_kernel_is_exactly_one(self):
        grid = GridSpec(5, 0.25)
        assert order_norm(norm_one_kernel(grid), grid, -1.0, 0) == pytest.approx(1.0, rel=1e-14)

    def test_absolute_homogeneity(self, fam_bw_ss):
        k, grid = split_kernel(fam_bw_ss, 5)
        assert order_norm(-2.5 * k, grid, -1.0, 2) == pytest.approx(2.5 * order_norm(k, grid, -1.0, 2), rel=1e-13)

    def test_monotone_in_zeta_on_unit_box(self, fam_bw_ss):
        # every |z|_{s,eps} <= 1 here, so raising zeta divides by smaller
        # powers and the norm can only grow
        k, grid = split_kernel(fam_bw_ss, 5)
        assert order_norm(k, grid, -0.5, 0) >= order_norm(k, grid, -1.0, 0) >= order_norm(k, grid, -1.5, 0)

    def test_split_kernel_stable_across_levels(self, fam_bw_ss):
        vals = [order_norm(*split_kernel(fam_bw_ss, N), -1.0, 2) for N in (5, 6, 7, 8)]
        assert max(vals) / min(vals) <= 2.0

    def test_derivative_depth_cap(self, fam_bw_ss):
        k, grid = split_kernel(fam_bw_ss, 5)
        with pytest.raises(ValueError):
            order_norm(k, grid, -1.0, 3)


class TestProductsAndConvolutions:
    def test_product_with_zero(self, fam_bw_pw):
        k, grid = split_kernel(fam_bw_pw, 5)
        zero = np.zeros_like(k)
        for f, g in ((k, zero), (zero, k)):
            p = twisted_product(fam_bw_pw.mu, f, g)
            assert p.shape == k.shape and not p.any()
            assert order_norm(p, grid, -2.0, 2) == 0.0

    def test_squared_kernel_order(self, fam_bw_pw):
        vals = []
        for N in (5, 6, 7):
            k, grid = split_kernel(fam_bw_pw, N)
            p = twisted_product(fam_bw_pw.mu, k, k)
            vals.append(order_norm(p, grid, -2.0, 0))
        assert max(vals) / min(vals) < 2.0

    def test_self_convolution_after_taylor_subtraction(self, fam_bw_pw):
        # K * K has order -1 + -1 + 3 = 1
        vals = []
        for N in (5, 6, 7):
            k, grid = split_kernel(fam_bw_pw, N)
            c = spacetime_convolve(k, k, grid)
            vals.append(order_norm(c - c[0, 0], grid, 1.0, 0))
        assert max(vals) / min(vals) < 2.0


class TestRenormalizedConvolve:
    def make_window_pair(self, fam, N):
        """|DxK|^2 (order -3.5), K (order -1) and their grid."""
        k, grid = split_kernel(fam, N)
        dxk = np.fft.ifft(np.fft.fft(k, axis=1) * derivative_multiplier(fam, grid.eps, grid.M), axis=1).real
        return dxk**2, k, grid

    def test_constant_second_factor_vanishes(self, fam_bw_pw):
        # the increment K2(z-w) - K2(z) kills constants wherever the
        # shifted support box fully covers the first kernel's support
        sq, _, grid = self.make_window_pair(fam_bw_pw, 5)
        short = sq[:16]
        rows = 200
        out = renormalized_convolve(short, np.full((rows, grid.M), 2.0), grid)
        covered = out[15:rows]
        scale = max(1.0, abs(grid.eps**3 * np.sum(short)) * 2.0)
        assert np.max(np.abs(covered)) < 1e-10 * scale

    def test_diagnostic_norm_finite(self, fam_bw_pw):
        # R(|DxK|^2) * K has order -3.5 + -1 + 3 = -1.5
        sq, k, grid = self.make_window_pair(fam_bw_pw, 6)
        out = renormalized_convolve(sq, k, grid)
        assert np.isfinite(order_norm(out, grid, -1.5, 0))


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
        [(5, 0, 3, 0), (3, 0, 7, 0), (6, 2, 4, 0), (4, 0, 6, 3), (5, 4, 5, 1), (1, 0, 4, 0), (5, 0, 11, 0)],
    )
    def test_matches_the_direct_sum(self, n1, z1, n2, z2):
        a, b = self.rows(n1, z1, 1), self.rows(n2, z2, 2)
        got = spacetime_convolve(a, b, self.grid)
        want = spacetime_sum(a, b, self.grid.eps)
        assert got.shape == (n1 + n2 - 1, self.grid.M)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # rows past the occupied ones are exact zeros
        assert not got[(n1 - z1) + (n2 - z2) - 1 :].any()

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_all_zero_input(self, zero_first):
        zero, other = np.zeros((4, self.grid.M)), self.rows(6, 0, 3)
        a, b = (zero, other) if zero_first else (other, zero)
        got = spacetime_convolve(a, b, self.grid)
        assert got.shape == (9, self.grid.M)
        assert not got.any()


class TestRenormalizedSquareCheck:
    def test_residual_is_a_rounding_gap(self, fam_bw_pw):
        _, _, resid = renormalized_square_check(fam_bw_pw, GridSpec(5, 0.25))
        assert 0.0 < resid <= 1e-15

    @pytest.mark.parametrize("leaf", [128, 1000, None], ids=["128", "1000", "default"])
    @pytest.mark.parametrize("N", [5, 6])
    def test_direct_sums_equal_the_reference_loop(self, fam_bw_ss, N, leaf, monkeypatch):
        # leaves of the pairwise tree from numpy's own block up: the terms
        # are added in the same order whatever the leaf
        if leaf is not None:
            monkeypatch.setattr(kernels, "_LEAF", leaf)
        grid = GridSpec(N, 0.25)
        K = HeatKernel(grid, fam_bw_ss).singular_part(grid.T)
        dmult = derivative_multiplier(fam_bw_ss, grid.eps, grid.M)[: grid.M // 2 + 1]
        sq = np.fft.irfft(np.fft.rfft(K, axis=1) * dmult, n=grid.M, axis=1) ** 2
        nk, M = K.shape
        rows = 2 * nk - 1
        gen = rng_for(5, N)
        points = [(0, 0), (0, M - 1), (rows - 1, 0), (rows - 1, M - 1), (nk - 1, 3), (nk, M - 2), (1, 1)]
        points += [(nk - 1, 0), (2 * nk - 2, 5)]
        points += zip(gen.integers(0, rows, 24).tolist(), gen.integers(0, M, 24).tolist())
        # chi = 0 at x = M/2, so K(z) = 0 in K's rows and the subtract is
        # skipped, also where K(z) is -0.0 (three rows at N = 6)
        negative = np.flatnonzero(np.signbit(K[:, M // 2])).tolist()
        assert not K[:, M // 2].any() and len(negative) == {5: 0, 6: 3}[N]
        points += [(n, M // 2) for n in [1, nk // 2, nk - 1, nk + 1] + negative]
        got = kernels._direct_sums(K, sq, points, grid.eps)
        assert got.tobytes() == increment_sums_zeros_like(K, sq, points, grid.eps).tobytes()

    # the values before the spectra were converted in place: K's spectra
    # land inside |DxK|^2's field where K occupies fewer rows than the field
    # (T = 1 and 1/2), and reach into K's own field where it occupies them
    # all (T < 1/4)
    @pytest.mark.parametrize(
        "N, T, want",
        [
            (4, 1.0, ("8.0", "13.050620965340404", "1.3611282130696048e-16")),
            (5, 0.5, ("8.0", "19.463594643906443", "3.87207190632774e-16")),
            (6, 1 / 16, ("204.3593907237793", "61.862978267387284", "2.1447481221524697e-17")),
            (7, 1 / 8, ("1473.970790904655", "140.96186871634816", "2.4881093103586817e-16")),
            (5, 1 / 4, ("8.0", "19.463594643906447", "2.6024148646146006e-17")),
            (6, 1 / 4, ("8.0", "28.23803021871658", "3.774392531578612e-16")),
            (7, 1 / 4, ("8.0", "40.43833590366361", "1.0642221835784362e-17")),
        ],
    )
    def test_values_are_pinned(self, fam_bw_ss, N, T, want):
        assert tuple(map(repr, renormalized_square_check(fam_bw_ss, GridSpec(N, T)))) == want

    def test_residual_sees_a_perturbed_convolution(self, fam_bw_pw, monkeypatch):
        # the direct sum does not go through the FFT convolution, so a
        # relative error of 1e-9 there must show in the residual;
        # _convolved yields the convolution's output a block of rows at a time
        fft_route = kernels._convolved

        def perturbed(*args):
            return ((rows, block * (1 + 1e-9)) for rows, block in fft_route(*args))

        monkeypatch.setattr(kernels, "_convolved", perturbed)
        _, _, resid = renormalized_square_check(fam_bw_pw, GridSpec(5, 0.25))
        assert resid > 1e-12
