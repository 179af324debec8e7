import numpy as np
import pytest

from sbe.grids import GridSpec, NoiseField, sample_noise
from sbe.heat import HeatKernel
from sbe.measures import AtomicMeasure2D, fourier_mu, fourier_pi
from sbe.operators import OperatorFamily, derivative_multiplier
from sbe.solver import (
    BLOWUP_THRESHOLD,
    SchemeConfig,
    drift_coefficient,
    ic_constant,
    ic_white_noise,
    ic_zero,
    run,
    step_forward,
)

from oracles import mild_oracle


def scaled_noise(grid, seed, amp):
    base = sample_noise(grid, seed)
    return NoiseField(grid, seed, amp * base.values)


def test_constant_fixed_point(fam_bw_ss):
    grid = GridSpec(5, 0.25)
    cfg = SchemeConfig(fam_bw_ss, grid, b_drift=0.4)
    u = ic_constant(grid, 1.7)
    out = step_forward(cfg, u, np.zeros(grid.M))
    np.testing.assert_allclose(out, u, atol=1e-13)


def test_single_mode_expansion(fam_bw_ss):
    """One step on a small pure mode: linear multiplier plus the exact
    mode-doubling correction from the twisted square."""
    from sbe.measures import fourier_nu
    from sbe.operators import modes

    grid = GridSpec(5, 2.0**-10)
    q, a = 3, 1e-3
    u = a * np.cos(2 * np.pi * q * grid.sites)
    out = step_forward(SchemeConfig(fam_bw_ss, grid, 0.0), u, np.zeros(grid.M))
    spec = np.fft.fft(out) / grid.M
    k = modes(grid.M)
    m_q = 1 + fourier_nu(fam_bw_ss.nu, grid.eps * q) / (2 * fam_bw_ss.nu_bar)
    pred_q = (a / 2) * m_q
    pred_2q = (
        grid.dt
        * (fourier_pi(fam_bw_ss.pi, -2 * grid.eps * q) / grid.eps)
        * (a * a / 4)
        * fourier_mu(fam_bw_ss.mu, -grid.eps * q, -grid.eps * q)
    )
    assert spec[np.where(k == q)[0][0]] == pytest.approx(pred_q, rel=1e-10)
    assert spec[np.where(k == 2 * q)[0][0]] == pytest.approx(pred_2q, rel=1e-8)


def test_mean_conserved_single_step(fam_bw_ss, rng):
    grid = GridSpec(6, 0.25)
    u = rng.standard_normal(grid.M)
    xi = rng.standard_normal(grid.M) * grid.eps ** (-1.5)
    out = step_forward(SchemeConfig(fam_bw_ss, grid, -0.8), u, xi)
    assert abs(grid.eps * (out.sum() - u.sum())) < 1e-12


def test_zero_everything_stays_zero(fam_bw_ss):
    grid = GridSpec(5, 0.125)
    noise = NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))
    traj = run(SchemeConfig(fam_bw_ss, grid), ic_zero(grid), noise, 0.125)
    assert not traj.blowup
    assert all(not u.any() for _, u in traj.snapshots)


def test_deterministic_self_convergence(fam_bw_pw):
    """Zero noise, smooth data: dyadic refinement halves the discrepancy."""
    T = 0.0625

    def solve(N):
        grid = GridSpec(N, T)
        noise = NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))
        cfg = SchemeConfig(fam_bw_pw, grid, 0.0, record_stride=grid.n_steps)
        return run(cfg, 0.5 * np.sin(2 * np.pi * grid.sites), noise, T).snapshots[-1][1]

    u5, u6, u7 = solve(5), solve(6), solve(7)
    d56 = np.max(np.abs(u5 - u6[::2]))
    d67 = np.max(np.abs(u6 - u7[::2]))
    assert d67 < d56


def test_full_run_no_nan_mean_conserved(fam_bw_ss):
    grid = GridSpec(6, 0.25)
    noise = sample_noise(grid, 17)
    cfg = SchemeConfig(fam_bw_ss, grid, record_stride=8)
    traj = run(cfg, ic_white_noise(grid, 17), noise, 0.25)
    vals = traj.values()
    assert np.all(np.isfinite(vals))
    means = grid.eps * vals.sum(axis=1)
    assert np.max(np.abs(means - means[0])) < 1e-10


def test_blowup_flagged_and_truncated(fam_bw_ss):
    grid = GridSpec(5, 0.125)
    noise = NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))
    hot = 0.9 * BLOWUP_THRESHOLD * np.sin(2 * np.pi * grid.sites)
    traj = run(SchemeConfig(fam_bw_ss, grid), hot, noise, 0.125)
    assert traj.blowup
    assert traj.blowup_time is not None
    assert traj.snapshots[-1][0] < 0.125


def test_nan_flagged_as_blowup(fam_bw_ss):
    """A non-number fails every sup-norm comparison; it must still stop the run."""
    grid = GridSpec(5, 0.125)
    values = np.zeros((grid.n_steps, grid.M))
    values[3, 7] = np.nan
    traj = run(SchemeConfig(fam_bw_ss, grid), ic_zero(grid), NoiseField(grid, 0, values), 0.125)
    assert traj.blowup
    assert traj.blowup_time == 4 * grid.dt
    assert all(np.all(np.isfinite(u)) for _, u in traj.snapshots)


@pytest.mark.parametrize(
    "u0, match",
    [(np.full(32, np.nan), "non-finite"), (np.array([0.0] * 31 + [np.inf]), "non-finite"), (np.zeros(16), r"\(32,\)")],
)
def test_run_rejects_bad_initial_slice(fam_bw_ss, u0, match):
    grid = GridSpec(5, 0.125)
    noise = NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))
    with pytest.raises(ValueError, match=match):
        run(SchemeConfig(fam_bw_ss, grid), u0, noise, 0.125)


def test_drift_coefficient_modes(fam_bw_pw, fam_ce_pw):
    assert drift_coefficient(fam_bw_pw, "none") == 0.0
    assert drift_coefficient(fam_ce_pw, "renormalized") == pytest.approx(0.0, abs=1e-10)
    assert drift_coefficient(fam_bw_pw, "renormalized") == pytest.approx(
        -4.0 * __import__("sbe").c21(fam_bw_pw, "quadrature"), rel=1e-12
    )


def test_ic_white_noise_variance():
    grid = GridSpec(9, 0.0625)
    u = ic_white_noise(grid, 5)
    var = grid.eps**-1
    assert abs(u.var() - var) < 4 * var * np.sqrt(2 / grid.M)


class TestMildOracle:
    def test_t_zero_returns_initial(self, fam_bw_ss):
        grid = GridSpec(5, 0.125)
        noise = sample_noise(grid, 1)
        u0 = ic_white_noise(grid, 1)
        traj = mild_oracle(SchemeConfig(fam_bw_ss, grid), u0, noise, 0.0)
        assert len(traj.snapshots) == 1
        np.testing.assert_array_equal(traj.snapshots[0][1], u0)

    def test_matches_stepping(self, fam_bw_ss):
        grid = GridSpec(5, 50 * 2.0**-10)
        noise = scaled_noise(grid, 0, 0.1)
        cfg = SchemeConfig(fam_bw_ss, grid, b_drift=-0.7)
        u0 = 0.3 * np.sin(2 * np.pi * grid.sites)
        a = run(cfg, u0, noise, grid.T)
        b = mild_oracle(cfg, u0, noise, grid.T)
        gap = max(np.max(np.abs(x[1] - y[1])) for x, y in zip(a.snapshots, b.snapshots))
        assert gap < 1e-10

    def test_linear_solve_oracle(self, fam_bw_ss):
        """mu = 0 reduces the mild form to heat flow plus noise response."""
        zero_mu = AtomicMeasure2D({(0, 0): 0.0})
        fam = OperatorFamily(fam_bw_ss.nu, fam_bw_ss.pi, zero_mu)
        grid = GridSpec(5, 50 * 2.0**-10)
        noise = sample_noise(grid, 3)
        u0 = np.cos(2 * np.pi * grid.sites)
        traj = mild_oracle(SchemeConfig(fam, grid), u0, noise, grid.T)
        hk = HeatKernel(grid, fam)
        d = derivative_multiplier(fam, grid.eps, grid.M)
        acc = hk.multiplier**grid.n_steps * np.fft.fft(u0)
        for s in range(grid.n_steps):
            acc = acc + grid.dt * d * hk.multiplier ** (grid.n_steps - 1 - s) * np.fft.fft(noise.values[s])
        direct = np.fft.ifft(acc).real
        assert np.max(np.abs(traj.snapshots[-1][1] - direct)) < 1e-10


def test_energy_identity_along_noisy_run(fam_bw_ss):
    """The twisted-square transport does no work for this discretization."""
    from sbe.operators import derivative, twisted_product

    grid = GridSpec(6, 0.0625)
    noise = sample_noise(grid, 23)
    cfg = SchemeConfig(fam_bw_ss, grid, record_stride=1)
    traj = run(cfg, ic_white_noise(grid, 23), noise, 0.0625)
    for _, u in traj.snapshots[:64]:
        dnl = derivative(fam_bw_ss, twisted_product(fam_bw_ss.mu, u, u), grid.eps)
        resid = grid.eps * np.sum(u * dnl)
        denom = grid.eps * np.sum(np.abs(u * dnl)) + 1e-300
        assert abs(resid) / denom < 1e-9
