import numpy as np
import pytest

from sbe.grids import GridSpec, LatticeField, rng_for, sample_noise
from sbe.norms import (
    TestFunctionFamily as BumpFamily,
    besov_norm_negative,
    comparison_norm,
    comparison_terms,
    estimate_exponent,
    holder_norm_parabolic,
    holder_norm_space,
    make_test_family,
    _parabolic_pairing_map,
    _space_pairing_map,
)


def white_slice(grid, seed):
    return rng_for(seed, 5).standard_normal(grid.M) * grid.eps ** (-0.5)


def test_family_construction_guards():
    grid = GridSpec(5, 0.25)
    tf = make_test_family(grid)
    assert tf.scales[0] == grid.eps and tf.scales[-1] == 1.0
    with pytest.raises(ValueError):
        BumpFamily(r=0, scales=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        BumpFamily(r=4, scales=np.array([0.1]))


def test_profile_unit_mass_on_grid():
    # discrete mass of the lambda = 1 copy over its full [-1, 1] support
    grid = GridSpec(8, 0.25)
    tf = make_test_family(grid)
    y = np.arange(-grid.M, grid.M + 1) * grid.eps
    mass = grid.eps * tf.profile(y).sum()
    assert mass == pytest.approx(1.0, abs=1e-9)


class TestHolderSpace:
    def test_constant_field(self):
        grid = GridSpec(5, 0.0625)
        field = LatticeField(grid, np.full((grid.n_steps, grid.M), -2.5), t0_index=1)
        assert holder_norm_space(field, 0.5, 0.0) == pytest.approx(2.5, abs=1e-13)

    def test_linear_slice(self):
        grid = GridSpec(5, 0.25)
        field = LatticeField(grid, grid.sites.copy(), t0_index=1)
        expected = (1 - grid.eps) + (1 - grid.eps) ** 0.5
        assert holder_norm_space(field, 0.5, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_triangle_inequality(self, rng):
        grid = GridSpec(5, 0.0625)
        f = LatticeField(grid, rng.standard_normal((grid.n_steps, grid.M)), t0_index=1)
        g = LatticeField(grid, rng.standard_normal((grid.n_steps, grid.M)), t0_index=1)
        fg = LatticeField(grid, f.values + g.values, t0_index=1)
        args = (0.4, -0.3)
        assert holder_norm_space(fg, *args) <= holder_norm_space(f, *args) + holder_norm_space(g, *args) + 1e-12

    def test_matches_pairwise_loop(self, rng):
        """Every slice and site pair, by the definition, on a field with an explosion weight."""
        grid = GridSpec(4, 0.0625)
        field = LatticeField(grid, rng.standard_normal((grid.n_steps, grid.M)), t0_index=1)
        alpha, eta, T = 0.4, -0.3, 0.03
        best_abs = best_inc = 0.0
        for v, t in zip(field.values, field.times):
            if t > T + 1e-14:
                continue
            te = min(max(np.sqrt(t), grid.eps), 1.0)
            best_abs = max(best_abs, np.abs(v).max() * te ** (-eta))
            for i in range(grid.M):
                for j in range(i + 1, grid.M):
                    best_inc = max(best_inc, te ** (alpha - eta) * abs(v[j] - v[i]) / ((j - i) * grid.eps) ** alpha)
        assert holder_norm_space(field, alpha, eta, T) == pytest.approx(best_abs + best_inc, rel=1e-12)

    def test_alpha_range_guard(self):
        grid = GridSpec(4, 0.0625)
        field = LatticeField(grid, np.zeros(grid.M), t0_index=1)
        with pytest.raises(ValueError):
            holder_norm_space(field, 1.5, 0.0)


class TestHolderParabolic:
    def test_time_constant_equals_space_norm(self, rng):
        grid = GridSpec(5, 0.0625)
        slice_ = rng.standard_normal(grid.M)
        field = LatticeField(grid, np.tile(slice_, (grid.n_steps, 1)), t0_index=1)
        assert holder_norm_parabolic(field, 0.5, 0.3) == pytest.approx(
            holder_norm_space(field, 0.5, 0.3), rel=1e-12
        )

    def test_pure_time_ramp_finite(self):
        grid = GridSpec(5, 0.0625)
        times = (1 + np.arange(grid.n_steps)) * grid.dt
        field = LatticeField(grid, np.tile(times[:, None], (1, grid.M)), t0_index=1)
        val = holder_norm_parabolic(field, 0.5, 0.5)
        assert np.isfinite(val) and val > 0

    def test_alpha_monotone_for_subunit_increments(self, rng):
        grid = GridSpec(5, 0.0625)
        vals = 0.4 * np.sin(2 * np.pi * grid.sites)[None, :] * np.ones((grid.n_steps, 1))
        vals += 0.01 * rng.standard_normal(vals.shape)
        field = LatticeField(grid, vals, t0_index=1)
        norms = [holder_norm_parabolic(field, a, a) for a in (0.2, 0.4, 0.6)]
        assert norms[0] <= norms[1] <= norms[2]


class TestBesovNegative:
    def test_zero_field(self):
        grid = GridSpec(5, 0.25)
        tf = make_test_family(grid)
        assert besov_norm_negative(LatticeField(grid, np.zeros(grid.M)), -0.5, tf) == 0.0

    def test_scaled_delta_order_one(self, fam_bw_ss):
        vals = []
        for N in (4, 5, 6, 7):
            grid = GridSpec(N, 0.25)
            tf = make_test_family(grid)
            u = np.zeros(grid.M)
            u[3] = 1.0 / grid.eps
            vals.append(besov_norm_negative(LatticeField(grid, u), -1.0, tf))
        assert max(vals) / min(vals) < 1.5

    def test_white_noise_boundedness_dichotomy(self):
        meds = {a: [] for a in (-0.6, -0.4)}
        for N in (6, 7, 8, 9):
            grid = GridSpec(N, 0.25)
            tf = make_test_family(grid)
            for a in meds:
                vals = [
                    besov_norm_negative(LatticeField(grid, white_slice(grid, r)), a, tf) for r in range(10)
                ]
                meds[a].append(np.median(vals))
        stable = meds[-0.6]
        assert max(stable) / min(stable) < 2.0
        growing = meds[-0.4]
        assert all(b > a for a, b in zip(growing[:-1], growing[1:]))

    def test_seminorm_properties(self, rng):
        grid = GridSpec(6, 0.25)
        tf = make_test_family(grid)
        f = white_slice(grid, 1)
        g = white_slice(grid, 2)
        nf = besov_norm_negative(LatticeField(grid, f), -0.5, tf)
        assert besov_norm_negative(LatticeField(grid, -3.0 * f), -0.5, tf) == pytest.approx(3 * nf, rel=1e-12)
        nsum = besov_norm_negative(LatticeField(grid, f + g), -0.5, tf)
        assert nsum <= nf + besov_norm_negative(LatticeField(grid, g), -0.5, tf) + 1e-12

    def test_smoothness_requirement(self):
        grid = GridSpec(5, 0.25)
        tf = BumpFamily(r=1, scales=np.array([grid.eps, 2 * grid.eps]))
        with pytest.raises(ValueError, match="must exceed"):
            besov_norm_negative(LatticeField(grid, np.zeros(grid.M)), -1.5, tf)

    def test_parabolic_mode_runs(self):
        grid = GridSpec(5, 0.25)
        tf = make_test_family(grid, lambda_max=0.25)
        noise = sample_noise(grid, 0)
        val = besov_norm_negative(LatticeField(grid, noise.values), -1.6, tf, mode="parabolic")
        assert np.isfinite(val) and val > 0


def test_pairing_scale_equivariance():
    """Pairing a dilated bump at a dilated scale rescales exactly on dyadic grids."""
    grid = GridSpec(8, 0.25)
    tf = make_test_family(grid)
    x = grid.sites
    for mu_, lam in ((1 / 16, 1 / 8), (1 / 8, 1 / 4)):
        g1 = tf.profile((x - 0.5) / mu_) / mu_
        g2 = tf.profile((x - 0.5) / (2 * mu_)) / (2 * mu_)
        p1 = _space_pairing_map(g1, grid, tf, lam).max()
        p2 = _space_pairing_map(g2, grid, tf, 2 * lam).max()
        assert p1 == pytest.approx(2 * p2, rel=1e-6)  # up to grid quantization


class TestComparisonNorm:
    def test_piecewise_constant_injection_small(self, rng):
        coarse = GridSpec(5, 0.25)
        fine = GridSpec(6, 0.25)
        tf = make_test_family(coarse, lambda_min=coarse.eps, lambda_max=0.5)
        u = np.sin(2 * np.pi * coarse.sites) + 0.1 * rng.standard_normal(coarse.M)
        injected = np.repeat(u, 2)
        val = comparison_norm(u[None, :], injected[None, :], np.array([0.125]), coarse, fine, -0.6, -0.6, tf)
        direct = besov_norm_negative(LatticeField(coarse, u), -0.6, tf)
        assert val < 0.5 * max(direct, 1.0)  # quadrature gap only

    def test_independent_fields_no_cancellation(self):
        coarse = GridSpec(5, 0.25)
        fine = GridSpec(6, 0.25)
        tf = make_test_family(coarse, lambda_min=coarse.eps, lambda_max=0.5)
        a = white_slice(coarse, 1)
        b = white_slice(fine, 2)
        val = comparison_norm(a[None, :], b[None, :], np.array([0.125]), coarse, fine, -0.6, -0.6, tf)
        na = besov_norm_negative(LatticeField(coarse, a), -0.6, tf)
        assert 0.3 * na < val < 10 * na

    def test_grid_ordering_guard(self):
        g = GridSpec(5, 0.25)
        tf = make_test_family(g)
        with pytest.raises(ValueError, match="finer"):
            comparison_norm(np.zeros((1, 32)), np.zeros((1, 32)), np.array([0.1]), g, g, -0.5, 0.0, tf)


class TestEstimateExponent:
    def test_smooth_field(self):
        grid = GridSpec(8, 0.25)
        tf = make_test_family(grid, lambda_min=4 * grid.eps, lambda_max=0.125)
        est = estimate_exponent(LatticeField(grid, np.sin(2 * np.pi * grid.sites)), tf, mode="space")
        assert est.exponent >= 0.9

    def test_white_noise_slice(self):
        grid = GridSpec(8, 0.25)
        tf = make_test_family(grid, lambda_min=4 * grid.eps, lambda_max=0.125)
        vals = [
            estimate_exponent(LatticeField(grid, white_slice(grid, r)), tf, mode="space").exponent
            for r in range(20)
        ]
        assert abs(np.mean(vals) + 0.5) < 0.15

    def test_rough_component_dominates(self):
        grid = GridSpec(8, 0.25)
        tf = make_test_family(grid, lambda_min=4 * grid.eps, lambda_max=0.125)
        vals = []
        for r in range(10):
            mix = white_slice(grid, r) + 50 * np.sin(2 * np.pi * grid.sites)
            vals.append(estimate_exponent(LatticeField(grid, mix), tf, mode="space").exponent)
        assert abs(np.mean(vals) + 0.5) < 0.15

    def test_spacetime_noise_parabolic(self):
        grid = GridSpec(8, 0.125)
        tf = make_test_family(grid, lambda_min=4 * grid.eps, lambda_max=0.125)
        vals = [
            estimate_exponent(LatticeField(grid, sample_noise(grid, r).values), tf, mode="parabolic").exponent
            for r in range(5)
        ]
        assert abs(np.mean(vals) + 1.5) < 0.15

    def test_degenerate_field_raises(self):
        grid = GridSpec(6, 0.25)
        tf = make_test_family(grid)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_exponent(LatticeField(grid, np.zeros(grid.M)), tf, mode="space")

    def test_needs_enough_scales(self):
        grid = GridSpec(6, 0.25)
        tf = BumpFamily(r=4, scales=np.array([grid.eps, 2 * grid.eps, 4 * grid.eps]))
        with pytest.raises(ValueError, match="scales"):
            estimate_exponent(LatticeField(grid, white_slice(grid, 0)), tf, mode="space")

    def test_fit_metadata(self):
        grid = GridSpec(7, 0.25)
        tf = make_test_family(grid, lambda_min=2 * grid.eps, lambda_max=0.25)
        est = estimate_exponent(LatticeField(grid, white_slice(grid, 3)), tf, mode="space")
        assert len(est.scales) == len(est.sup_pairings) >= 3
        assert est.mode == "space"
        assert np.isfinite(est.residual)


def test_family_rejects_unordered_scales():
    with pytest.raises(ValueError, match="increasing"):
        BumpFamily(r=4, scales=np.array([0.25, 0.125, 0.5]))
    with pytest.raises(ValueError, match="increasing"):
        BumpFamily(r=4, scales=np.array([0.125, 0.125, 0.25]))
    with pytest.raises(ValueError, match="positive"):
        BumpFamily(r=4, scales=np.array([0.0, 0.125]))


@pytest.mark.parametrize("call", ["besov", "exponent"])
def test_unknown_mode_named(call):
    grid = GridSpec(6, 0.25)
    tf = make_test_family(grid)
    field = LatticeField(grid, white_slice(grid, 0))
    with pytest.raises(ValueError, match="unknown mode"):
        if call == "besov":
            besov_norm_negative(field, -0.5, tf, mode="banana")
        else:
            estimate_exponent(field, tf, mode="banana")


def test_comparison_terms_levels_at_once_match_pairs():
    """Three levels in one call give the two two-level calls, bit for bit.

    The scales start at the middle level's eps, so the smallest one lies
    below the coarse eps and must leave the first pair at 0.
    """
    grids = [GridSpec(n, 0.25) for n in (5, 6, 7)]
    tf = make_test_family(grids[1], lambda_max=0.5)
    slices = [np.stack([white_slice(g, 10 * r + g.N) for r in range(3)]) for g in grids]
    times = np.array([0.01, 0.0625, 0.25])
    at_once = comparison_terms(slices, grids, times, -0.6, tf)
    first = comparison_terms(slices[:2], grids[:2], times, -0.6, tf)
    second = comparison_terms(slices[1:], grids[1:], times, -0.6, tf)
    assert at_once.shape == (2, len(tf.scales), 3)
    assert np.array_equal(at_once, np.concatenate([first, second]))
    assert np.all(at_once[0, 0] == 0.0) and np.all(at_once[1, 0] > 0.0)


def test_parabolic_bands_sample_back_from_the_larger_scale():
    """Band sups equal a per-scale reference that samples times backwards
    from the end of the larger scale's interior, on the smaller scale's strides."""
    grid = GridSpec(6, 0.125)
    tf = make_test_family(grid, lambda_max=0.25)
    vals = sample_noise(grid, 4).values
    est = estimate_exponent(LatticeField(grid, vals), tf, mode="parabolic")
    maps = [_parabolic_pairing_map(vals, grid, tf, lam) for lam in tf.scales]
    maps = maps[: maps.index(None)]
    ref = []
    for lam, (pa, _), (pb, ib) in zip(tf.scales, maps[:-1], maps[1:]):
        st_x = max(1, int(round(lam / (2.0 * grid.eps))))
        st_t = max(1, int(round(lam**2 / (2.0 * grid.dt))))
        tsel = ib[-1] - np.arange(16) * st_t
        tsel = tsel[tsel >= ib[0]]
        xsel = (np.arange(33) * st_x) % grid.M
        ref.append(np.abs(pa - pb)[np.ix_(tsel, xsel)].max())
    assert len(ref) == 3
    assert np.array_equal(est.sup_pairings, ref)
