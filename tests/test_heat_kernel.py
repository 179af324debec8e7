import numpy as np
import pytest

from sbe.grids import GridSpec
from sbe.heat import HeatKernel, parabolic_norm, signed_torus_coordinate


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
    def test_additivity(self, hk):
        sp = hk.split(0.25)
        cols = hk.columns(hk.grid.n_steps)
        assert np.max(np.abs(sp.K + sp.K_hat - cols)) < 1e-14

    def test_origin_values(self, hk):
        sp = hk.split(0.25)
        assert sp.K[0, 0] == pytest.approx(1.0 / hk.grid.eps, rel=1e-14)
        assert sp.K_hat[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_outer_support(self, fam_bw_ss):
        from sbe.heat import HeatKernel

        hk_long = HeatKernel(GridSpec(5, 0.5), fam_bw_ss)
        sp = hk_long.split(0.5)
        t = np.arange(sp.K.shape[0])[:, None] * hk_long.grid.dt
        x = signed_torus_coordinate(hk_long.grid.M, hk_long.grid.eps)[None, :]
        zn = parabolic_norm(t, x)
        assert np.max(np.abs(sp.K[zn >= 0.5])) == 0.0
        # sampled points at |z|_s = 0.6 sit outside the cutoff support
        idx = np.argwhere(np.isclose(zn, 0.6, atol=0.01))
        assert idx.size > 0
        assert all(sp.K[i, j] == 0.0 for i, j in idx)

    def test_inner_region_untouched(self, hk):
        sp = hk.split(0.25)
        cols = hk.columns(hk.grid.n_steps)
        t = np.arange(sp.K.shape[0])[:, None] * hk.grid.dt
        x = signed_torus_coordinate(hk.grid.M, hk.grid.eps)[None, :]
        zn = parabolic_norm(t, x)
        inner = zn <= sp.cutoff_inner
        assert np.max(np.abs((sp.K - cols)[inner])) == 0.0

    def test_horizon_guard(self, hk):
        with pytest.raises(ValueError):
            hk.split(1.0)


class TestVerifyBounds:
    def test_j0_stable_across_levels(self, fam_bw_ss):
        sups = []
        for N in (4, 5, 6, 7, 8):
            hk = HeatKernel(GridSpec(N, 0.25), fam_bw_ss)
            sups.append(hk.verify_bounds(0, 0.25).sup)
        assert max(sups) / min(sups) < 2.0

    def test_one_step_value(self, hk):
        diag = hk.verify_bounds(0, 0.25)
        # |t|_eps * P at (eps^2, 0): eps * (3/4) / eps
        assert diag.per_time_max[1] == pytest.approx(0.75, abs=1e-12)

    def test_late_time_decay(self, hk):
        diag = hk.verify_bounds(0, 0.25)
        assert diag.per_time_max[-1] < diag.per_time_max[1]

    def test_bad_derivative_count(self, hk):
        with pytest.raises(ValueError):
            hk.verify_bounds(3, 0.25)
