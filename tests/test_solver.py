import hashlib

import numpy as np
import pytest

from sbe import grids
from sbe.grids import GridSpec, NoiseField, sample_noise
from sbe.heat import HeatKernel
from sbe.measures import AtomicMeasure2D, fourier_mu, fourier_pi
from sbe.operators import OperatorFamily, _blocks, derivative_multiplier
from sbe.solver import (
    BLOWUP_THRESHOLD,
    SchemeConfig,
    _escaped,
    _Step,
    coupled_convergence_study,
    drift_coefficient,
    ic_constant,
    ic_white_noise,
    ic_zero,
    run,
    step_forward,
)

from conftest import family, traced_peak
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
    """A non-number fails every sup-norm comparison; it must still stop the run.

    A noise field refuses one when it is made, so it is written into the
    field's values afterwards.
    """
    grid = GridSpec(5, 0.125)
    noise = NoiseField(grid, 0, np.zeros((grid.n_steps, grid.M)))
    noise.values[3, 7] = np.nan
    traj = run(SchemeConfig(fam_bw_ss, grid), ic_zero(grid), noise, 0.125)
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
    """One held step, advanced K times, against K step_forward calls and the roll spelling."""

    @staticmethod
    def cfg(fam, N):
        return SchemeConfig(fam, GridSpec(N, 0.25), b_drift=-0.7)

    def steps_agree(self, cfg, u, xis, keep=None):
        """K held steps equal K step_forward calls and K roll steps, bit for bit.

        The held step takes all K noise rows at once. keep[k], if given,
        selects the rows that stay after step k, and their noise rows with
        them. Returns every array the held step returned, with a copy made
        on return.
        """
        M = cfg.grid.M
        held = _Step(cfg, u.reshape(-1, M))
        np.copyto(held.noise_rows(len(xis)), xis.reshape(len(xis), -1, M))
        ids = np.arange(held.n)
        v = w = u
        returned = []
        for k, xi in enumerate(xis):
            xi = xi[ids] if u.ndim > 1 else xi
            escaped = held.advance(k)
            new = held.states().reshape(u.shape)
            returned.append((new, new.copy()))
            v = step_forward(cfg, v, xi)
            w = step_roll(cfg, w, xi)
            assert new.shape == u.shape
            assert np.array_equal(new, v) and np.array_equal(new, w), k
            assert escaped is None, k
            u = new
            if keep is not None and k in keep:
                held.keep(keep[k])
                ids, u, v, w = ids[keep[k]], u[keep[k]], v[keep[k]], w[keep[k]]
        return returned

    def test_one_slice(self, fam_bw_ss, rng):
        for N in (5, 9):
            cfg = self.cfg(fam_bw_ss, N)
            u = rng.standard_normal(cfg.grid.M)
            self.steps_agree(cfg, u, rng.standard_normal((12, cfg.grid.M)))
            self.steps_agree(SchemeConfig(linear_family(fam_bw_ss), cfg.grid), u, rng.standard_normal((12, cfg.grid.M)))

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


class TestEscapes:
    """The held step's escape test: one reduction over each block's padded rows, then row by row."""

    # N = 9: 31 rows a block, so 70 rows take two full blocks and a partial one
    cfg = SchemeConfig(family("deriv-backward", "product-sasamoto-spohn"), GridSpec(9, 0.25))

    @pytest.mark.parametrize("site", ["first", "last", "interior"])
    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, BLOWUP_THRESHOLD * (1 + 1e-15), -BLOWUP_THRESHOLD * (1 + 1e-15)]
    )
    def test_flags_the_rows_escaped_flags(self, value, site, rng):
        M = self.cfg.grid.M
        u = rng.standard_normal((70, M))
        u[[1, 40]] = BLOWUP_THRESHOLD  # at the threshold, not past it
        u[64, 7] = -BLOWUP_THRESHOLD
        x = {"first": 0, "last": M - 1, "interior": M // 3}[site]
        for rows in ([2], [30, 31], [33, 61, 69]):
            v = u.copy()
            v[rows, x] = value
            held = _Step(self.cfg, v)
            flagged = held.escaped()
            assert flagged is not None and np.array_equal(flagged, _escaped(v)), rows
            assert np.flatnonzero(flagged).tolist() == rows
            np.copyto(held.noise_rows(1), 0.0)
            with np.errstate(invalid="ignore", over="ignore"):  # stepping an inf gives inf - inf
                flagged = held.advance(0)
            assert flagged is not None and np.array_equal(flagged, _escaped(held.states())), rows

    def test_none_when_no_row_escaped(self, rng):
        u = rng.standard_normal((70, self.cfg.grid.M))
        u[[0, 35, 69], [0, 100, 511]] = [BLOWUP_THRESHOLD, -BLOWUP_THRESHOLD, BLOWUP_THRESHOLD]
        assert not _escaped(u).any()
        assert _Step(self.cfg, u).escaped() is None


def digest(*blobs) -> str:
    return hashlib.sha256(b"".join(blobs)).hexdigest()


class TestPinnedBytes:
    """sha256 digests of the scheme's outputs, so that a faster held step keeps every bit."""

    @pytest.mark.parametrize(
        "linear, blowup_time, snapshots, sha256",
        [
            (False, 0.025390625, 9, "3ca346723a3998c77ce0d65fb343e9d43b53f91279a3f078938fbb41d9e8f1aa"),
            (True, None, 44, "91e3942eb1f70938275fa39425df62c42fee8c3d6a93aad75f453782c7d6002f"),
        ],
    )
    def test_run(self, fam_bw_ss, linear, blowup_time, snapshots, sha256):
        # Sasamoto-Spohn with the renormalized drift escapes after 26 steps;
        # the linear family runs to the horizon
        grid = GridSpec(5, 0.125)
        fam = linear_family(fam_bw_ss) if linear else fam_bw_ss
        b = 0.0 if linear else drift_coefficient(fam_bw_ss, "renormalized")
        traj = run(SchemeConfig(fam, grid, b, record_stride=3), ic_white_noise(grid, 9), NoiseField(grid, 9), grid.T)
        assert traj.blowup_time == blowup_time and len(traj.snapshots) == snapshots
        assert digest(traj.times.tobytes(), traj.values().tobytes()) == sha256

    def test_coupled_study(self, fam_bw_ss):
        b = drift_coefficient(fam_bw_ss, "renormalized")
        study = coupled_convergence_study(fam_bw_ss, [4, 5, 6], 0.0625, 12, 3, b_drift=b)
        assert study.dropped == [2, 3, 4, 5, 6, 8, 9, 10] and len(study.rows) == 8
        blob = repr([(r, name, v.hex()) for r, name, v in study.rows]) + repr(study.dropped) + repr(study.escape_times)
        assert digest(blob.encode()) == "c9b950e35dbc3f875843284334ab68d1d4c8a6f967fda4ddb5b9e2943f9c7eb0"


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

    @pytest.mark.parametrize("u_shape", [(64,), (32,), (3, 16), (2, 3, 32)])
    def test_held_step_holds_rows_of_m_sites(self, fam_bw_ss, u_shape):
        cfg = SchemeConfig(fam_bw_ss, GridSpec(5, 0.25))
        with pytest.raises(ValueError, match=r"state has shape .*\(rows, 32\)"):
            _Step(cfg, np.zeros(u_shape))

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

    def test_stops_drawing_at_the_blowup(self, fam_bw_ss, monkeypatch):
        # N = 7, T = 0.0625: 8 blocks of 128 rows; the run escapes in the
        # fourth and draws no block after it
        grid = GridSpec(7, 0.0625)
        drawn = []
        draw = grids._noise_block

        def recorded(gen, grid, rows):
            drawn.append(rows)
            return draw(gen, grid, rows)

        monkeypatch.setattr(grids, "_noise_block", recorded)
        traj = run(SchemeConfig(fam_bw_ss, grid), ic_white_noise(grid, 5), NoiseField(grid, 5), grid.T)
        block = _blocks(grid.n_steps, 8 * grid.M)[0].stop
        stopped = round(traj.blowup_time / grid.dt)
        assert traj.blowup and 3 * block < stopped <= 4 * block
        assert drawn == [block] * 4

    def test_holds_less_than_an_eighth_of_the_field(self, fam_bw_ss):
        # the linear scheme runs to the horizon
        grid = GridSpec(8, 0.25)
        cfg = SchemeConfig(linear_family(fam_bw_ss), grid, record_stride=grid.n_steps // 64)
        traj, peak = traced_peak(lambda: run(cfg, ic_zero(grid), NoiseField(grid, 4), grid.T))
        assert not traj.blowup and len(traj.snapshots) == 65
        assert peak < grid.n_steps * grid.M * 8 / 8
