import numpy as np
import pytest

from sbe.grids import GridSpec
from sbe.heat import CUTOFF_INNER, HeatKernel, parabolic_norm
from sbe.operators import derivative_multiplier, modes


@pytest.fixture(scope="module")
def hk(fam_bw_ss):
    return HeatKernel(GridSpec(5, 0.25), fam_bw_ss)


def test_initial_column_is_scaled_delta(hk):
    col = hk.columns(0)[0]
    expected = np.zeros(32)
    expected[0] = 32.0
    np.testing.assert_array_equal(col, expected)


def test_one_step_values(hk):
    grid = hk.grid
    col = hk.columns(1)[1] * grid.eps
    assert col[0] == pytest.approx(0.75, abs=1e-13)
    assert col[1] == pytest.approx(0.125, abs=1e-13)
    assert col[-1] == pytest.approx(0.125, abs=1e-13)
    np.testing.assert_allclose(col[2:-1], 0.0, atol=1e-13)


def test_one_step_stencil_exact(hk):
    # one application of the explicit step to the scaled delta is exact
    # dyadic arithmetic for the nearest-neighbour family
    grid = hk.grid
    delta = np.zeros(grid.M)
    delta[0] = 1.0 / grid.eps
    col = hk.step(delta) * grid.eps
    assert col[0] == 0.75 and col[1] == 0.125 and col[-1] == 0.125


def test_mass_conservation(hk):
    cols = hk.columns(hk.grid.n_steps)
    mass = hk.grid.eps * cols.sum(axis=1)
    assert np.max(np.abs(mass - 1.0)) < 1e-12


def test_positivity_nearest_neighbour(hk):
    assert hk.columns(hk.grid.n_steps).min() >= -1e-12


def test_multiplier_range(all_preset_families):
    for fam in all_preset_families.values():
        hk = HeatKernel(GridSpec(6, 0.25), fam)
        assert hk.multiplier.min() >= 0.5 - 1e-12
        assert hk.multiplier.max() <= 1.0 + 1e-12
        assert hk.multiplier[0] == pytest.approx(1.0, abs=1e-14)
        assert hk.marginally_oscillatory  # nn family sits at m = 1/2 exactly


def test_step_preserves_constants(hk):
    u = np.full(32, 2.2)
    np.testing.assert_allclose(hk.step(u), u, atol=1e-13)


def test_step_chaining_matches_column(hk):
    grid = hk.grid
    u = np.zeros(grid.M)
    u[0] = 1.0 / grid.eps
    for _ in range(9):
        u = hk.step(u)
    np.testing.assert_allclose(u, hk.columns(9)[9], atol=1e-10)


def test_step_spectral_diagonal(hk, rng):
    grid = hk.grid
    q = 7
    u = np.cos(2 * np.pi * q * grid.sites)
    out = hk.step(u)
    m_q = hk.multiplier[q]
    np.testing.assert_allclose(out, np.fft.ifft(hk.multiplier * np.fft.fft(u)).real, atol=1e-12)
    np.testing.assert_allclose(out, m_q * u, atol=1e-12)


def test_step_paths_agree(hk, rng):
    u = rng.standard_normal(hk.grid.M)
    np.testing.assert_allclose(hk.step(u), np.fft.ifft(hk.multiplier * np.fft.fft(u)).real, atol=1e-10)


def test_semigroup(hk):
    grid = hk.grid
    cols = hk.columns(grid.n_steps)
    for a, b in ((3, 10), (40, 88), (100, 100)):
        conv = grid.eps * np.fft.ifft(np.fft.fft(cols[a]) * np.fft.fft(cols[b])).real
        np.testing.assert_allclose(conv, cols[a + b], atol=1e-10)


class TestSplit:
    def test_origin_values(self, hk):
        K = hk.singular_part(0.25)
        assert K[0, 0] == pytest.approx(1.0 / hk.grid.eps, rel=1e-14)
        # the cutoff is one at the origin: K takes P's value there
        assert K[0, 0] == hk.columns(0)[0, 0]

    def test_outer_support(self, fam_bw_ss):
        from sbe.heat import HeatKernel

        hk_long = HeatKernel(GridSpec(5, 0.5), fam_bw_ss)
        K = hk_long.singular_part(0.5)
        t = np.arange(K.shape[0])[:, None] * hk_long.grid.dt
        x = (hk_long.grid.eps * modes(hk_long.grid.M))[None, :]
        zn = parabolic_norm(t, x)
        assert np.max(np.abs(K[zn >= 0.5])) == 0.0
        # sampled points at |z|_s = 0.6 sit outside the cutoff support
        idx = np.argwhere(np.isclose(zn, 0.6, atol=0.01))
        assert idx.size > 0
        assert all(K[i, j] == 0.0 for i, j in idx)

    def test_inner_region_untouched(self, hk):
        K = hk.singular_part(0.25)
        cols = hk.columns(hk.grid.n_steps)
        t = np.arange(K.shape[0])[:, None] * hk.grid.dt
        x = (hk.grid.eps * modes(hk.grid.M))[None, :]
        zn = parabolic_norm(t, x)
        inner = zn <= CUTOFF_INNER
        assert np.max(np.abs((K - cols)[inner])) == 0.0

    def test_horizon_guard(self, hk):
        with pytest.raises(ValueError):
            hk.singular_part(1.0)


class TestVerifyBounds:
    def test_j0_stable_across_levels(self, fam_bw_ss):
        sups = []
        for N in (4, 5, 6, 7, 8):
            hk = HeatKernel(GridSpec(N, 0.25), fam_bw_ss)
            sups.append(hk.verify_bounds(0.25)[0].sup)
        assert max(sups) / min(sups) < 2.0

    def test_one_step_value(self, hk):
        diag = hk.verify_bounds(0.25)[0]
        # |t|_eps * P at (eps^2, 0): eps * (3/4) / eps
        assert diag.per_time_max[1] == pytest.approx(0.75, abs=1e-12)

    def test_late_time_decay(self, hk):
        diag = hk.verify_bounds(0.25)[0]
        assert diag.per_time_max[-1] < diag.per_time_max[1]


@pytest.mark.parametrize("N", [5, 6, 7, 8])
def test_half_spectrum_equals_the_full_spectrum(fam_bw_ss, N):
    # an independent reference: the complex transforms over all M modes
    grid = GridSpec(N, 0.125)
    hk = HeatKernel(grid, fam_bw_ss)
    n = np.arange(grid.n_steps + 1)[:, None]
    P = np.fft.ifft(hk.multiplier**n, axis=-1).real / grid.eps
    rows = hk.columns(grid.n_steps)
    assert np.all(np.abs(rows - P).max(axis=1) <= 1e-13 * np.abs(P).max(axis=1))
    t = n[:, 0] * grid.dt
    t_eps = np.maximum(np.minimum(np.sqrt(t), 1.0), grid.eps)
    keep = parabolic_norm(t[:, None], grid.eps * modes(grid.M)[None, :]) <= 0.375
    # with P from the same powers exp(n log m) as the rows, only the spectrum route differs
    spec = np.fft.fft(np.fft.ifft(np.exp(n * np.log(hk.multiplier)), axis=-1).real / grid.eps, axis=-1)
    for diag in hk.verify_bounds(grid.T)[1:]:
        dxj = np.fft.ifft(spec * derivative_multiplier(fam_bw_ss, grid.eps, grid.M) ** diag.j, axis=-1).real
        full = np.where(keep, np.abs(dxj) * t_eps[:, None] ** (1 + diag.j), 0.0).max(axis=1)
        assert abs(diag.sup - full.max()) <= 1e-13 * full.max()
        # P's rounding, which D_x^j amplifies by up to (2 / eps)^j, moves single times more
        np.testing.assert_allclose(diag.per_time_max, full, rtol=1e-11, atol=0)
