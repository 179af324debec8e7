import numpy as np
import pytest

from sbe.grids import GridSpec, NoiseField, sample_noise
from sbe.heat import HeatKernel
from sbe.measures import AtomicMeasure2D, fourier_mu, fourier_pi
from sbe.operators import OperatorFamily, _blocks, derivative_multiplier
from sbe.solver import (
    BLOWUP_THRESHOLD,
    SchemeConfig,
    _Step,
    drift_coefficient,
    ic_constant,
    ic_white_noise,
    ic_zero,
    run,
    step_forward,
)

from conftest import traced_peak
from oracles import linear_family, mild_oracle, step_roll


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


class TestHeldStep:
    """One prepared step, applied K times, against K step_forward calls and the roll spelling."""

    @staticmethod
    def cfg(fam, N):
        return SchemeConfig(fam, GridSpec(N, 0.25), b_drift=-0.7)

    def steps_agree(self, cfg, u, xis, keep=None):
        """K held steps equal K step_forward calls and K roll steps, bit for bit.

        keep[k], if given, selects the rows that stay after step k. Returns
        every array the held step returned, with a copy made on return.
        """
        held = _Step(cfg, rows=u.shape[0] if u.ndim > 1 else 1)
        v = w = u
        returned = []
        for k, xi in enumerate(xis):
            if u.ndim > 1:
                xi = xi[: u.shape[0]]
            new = held(u, xi)
            returned.append((new, new.copy()))
            v = step_forward(cfg, v, xi)
            w = step_roll(cfg, w, xi)
            assert new.shape == u.shape
            assert np.array_equal(new, v) and np.array_equal(new, w), k
            u = new
            if keep is not None and k in keep:
                u, v, w = u[keep[k]], v[keep[k]], w[keep[k]]
        return returned

    def test_one_slice(self, fam_bw_ss, rng):
        for N in (5, 9):
            cfg = self.cfg(fam_bw_ss, N)
            u = rng.standard_normal(cfg.grid.M)
            self.steps_agree(cfg, u, rng.standard_normal((12, cfg.grid.M)))

    def test_batch_drops_rows_to_none(self, all_preset_families, rng):
        for name, fam in all_preset_families.items():
            cfg = self.cfg(fam, 5)
            u = rng.standard_normal((5, cfg.grid.M))
            keep = {
                2: np.array([True, False, True, True, False]),
                5: np.array([False, True, False]),
                7: np.zeros(1, dtype=bool),
            }
            returned = self.steps_agree(cfg, u, rng.standard_normal((10, 5, cfg.grid.M)), keep)
            assert returned[-1][0].shape == (0, cfg.grid.M), name

    def test_batch_over_several_blocks(self, fam_bw_ss, rng):
        # at M = 512 a block holds 31 rows, so 70 rows take two full blocks and a partial one
        cfg = self.cfg(fam_bw_ss, 9)
        u = rng.standard_normal((70, cfg.grid.M))
        keep = {1: np.arange(70) != 3}
        self.steps_agree(cfg, u, rng.standard_normal((4, 70, cfg.grid.M)), keep)

    def test_returned_arrays_never_overwritten(self, fam_bw_ss, rng):
        cfg = self.cfg(fam_bw_ss, 5)
        for shape in ((cfg.grid.M,), (4, cfg.grid.M)):
            u = rng.standard_normal(shape)
            returned = self.steps_agree(cfg, u, rng.standard_normal((8,) + shape))
            for new, copy in returned:
                assert np.array_equal(new, copy)

    def test_runs_equal_step_by_step(self, fam_bw_ss):
        grid = GridSpec(6, 0.0625)
        cfg = SchemeConfig(fam_bw_ss, grid, b_drift=-0.7, record_stride=1)
        noise = sample_noise(grid, 8)
        traj = run(cfg, ic_white_noise(grid, 8), noise, grid.T)
        u = ic_white_noise(grid, 8)
        for n, (t, snap) in enumerate(traj.snapshots[1:]):
            u = step_roll(cfg, u, noise.values[n])
            assert np.array_equal(snap, u), n


class TestShapesAndHorizons:
    @pytest.mark.parametrize(
        "u_shape, xi_shape, match",
        [
            ((64,), (64,), r"\(64,\).*\(\.\.\., 32\)"),
            ((3, 16), (3, 16), r"\(3, 16\).*\(\.\.\., 32\)"),
            ((32,), (3, 32), r"\(3, 32\).*\(32,\)"),
            ((3, 32), (32,), r"\(32,\).*\(3, 32\)"),
            ((3, 32), (2, 32), r"\(2, 32\).*\(3, 32\)"),
        ],
    )
    def test_step_rejects_bad_shapes(self, fam_bw_ss, u_shape, xi_shape, match):
        cfg = SchemeConfig(fam_bw_ss, GridSpec(5, 0.25))
        u, xi = np.zeros(u_shape), np.zeros(xi_shape)
        with pytest.raises(ValueError, match=match):
            step_forward(cfg, u, xi)
        with pytest.raises(ValueError, match=match):
            _Step(cfg, rows=3)(u, xi)

    @pytest.mark.parametrize(
        "T, match", [(0.1, "not a multiple"), (-0.1, "negative"), (-0.125, "negative"), (2.0**-11, "not a multiple")]
    )
    def test_run_rejects_bad_horizons(self, fam_bw_ss, T, match):
        grid = GridSpec(5, 0.125)
        noise = NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))
        with pytest.raises(ValueError, match=match):
            run(SchemeConfig(fam_bw_ss, grid), ic_zero(grid), noise, T)

    def test_run_takes_a_zero_horizon(self, fam_bw_ss):
        grid = GridSpec(5, 0.125)
        noise = NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))
        traj = run(SchemeConfig(fam_bw_ss, grid), ic_constant(grid, 0.5), noise, 0.0)
        assert len(traj.snapshots) == 1 and not traj.blowup


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


class TestStreamedNoise:
    """A streamed field steps through the rows of sample_noise, drawn a block at a time."""

    @pytest.mark.parametrize(
        "N, T, steps, initial, seed, blowup, partial",
        [
            (5, 0.125, 128, "white-noise", 11, True, False),  # one block
            (6, 0.125, 300, "zero", 3, True, True),
            (7, 0.0625, 1024, "white-noise", 5, True, False),  # escapes in the fourth of eight blocks
            (8, 0.0625, 1000, "zero", 8, False, True),
            (5, 0.125, 0, "white-noise", 2, False, False),  # T = 0
        ],
    )
    def test_equals_the_explicit_field(self, fam_bw_ss, N, T, steps, initial, seed, blowup, partial):
        grid = GridSpec(N, T)
        u0 = ic_white_noise(grid, seed) if initial == "white-noise" else ic_zero(grid)
        cfg = SchemeConfig(fam_bw_ss, grid, record_stride=7)
        block = _blocks(max(steps, 1), 8 * grid.M)[0].stop
        assert (steps % block != 0) == partial
        want = run(cfg, u0, sample_noise(grid, seed), steps * grid.dt)
        got = run(cfg, u0, NoiseField(grid, seed), steps * grid.dt)
        assert want.blowup == got.blowup == blowup
        assert got.blowup_time == want.blowup_time
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values(), want.values())

    def test_holds_less_than_an_eighth_of_the_field(self, fam_bw_ss):
        # the linear scheme runs to the horizon
        grid = GridSpec(8, 0.25)
        cfg = SchemeConfig(linear_family(fam_bw_ss), grid, record_stride=grid.n_steps // 64)
        traj, peak = traced_peak(lambda: run(cfg, ic_zero(grid), NoiseField(grid, 4), grid.T))
        assert not traj.blowup and len(traj.snapshots) == 65
        assert peak < grid.n_steps * grid.M * 8 / 8
