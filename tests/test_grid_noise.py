import numpy as np
import pytest

from sbe.grids import (
    GridSpec,
    coarsen_noise,
    coarsen_slice,
    mollify,
    sample_noise,
)


def test_grid_invariants():
    grid = GridSpec(5, 0.25)
    assert grid.M * grid.eps == 1.0
    assert grid.n_steps * grid.dt == grid.T
    with pytest.raises(ValueError):
        GridSpec(5, 0.25 + 1e-5)


def test_noise_moments():
    grid = GridSpec(6, 0.25)  # 1024 x 64 > 1e5 sites
    noise = sample_noise(grid, 7)
    n = noise.values.size
    var = grid.eps**-3
    se_mean = np.sqrt(var / n)
    assert abs(noise.values.mean()) < 3 * se_mean
    se_var = var * np.sqrt(2.0 / n)
    assert abs(noise.values.var() - var) < 3 * se_var


def test_noise_determinism_and_seed_sensitivity():
    grid = GridSpec(5, 0.125)
    a = sample_noise(grid, 3)
    b = sample_noise(grid, 3)
    assert np.array_equal(a.values, b.values)
    c = sample_noise(grid, 4)
    assert np.mean(a.values != c.values) > 0.99


def test_coarsen_variance():
    grid = GridSpec(7, 0.25)
    fine = sample_noise(grid, 11)
    coarse = coarsen_noise(fine)
    n = coarse.values.size
    var = (2 * grid.eps) ** -3
    assert abs(coarse.values.var() - var) < 3 * var * np.sqrt(2.0 / n)


def test_coarsen_is_exact_block_mean():
    fine = sample_noise(GridSpec(5, 0.25), 9)
    coarse = coarsen_noise(fine)
    v = fine.values
    box = (((v[0, 0] + v[0, 1]) + (v[1, 0] + v[1, 1])) + ((v[2, 0] + v[2, 1]) + (v[3, 0] + v[3, 1]))) * 0.125
    assert coarse.values[0, 0] == box  # bit-level


def test_double_coarsen_is_64_cell_average():
    fine = sample_noise(GridSpec(6, 0.25), 5)
    twice = coarsen_noise(coarsen_noise(fine))
    direct = fine.values[:16, :4].mean()
    assert abs(twice.values[0, 0] - direct) < 1e-12


def test_coarsen_floor():
    with pytest.raises(ValueError):
        coarsen_noise(sample_noise(GridSpec(0, 4.0), 0))


def test_coupling_consistency_linear_statistic():
    # any linear functional of the coarse field is exactly computable from
    # the fine one: no fresh randomness enters through coarsening
    fine = sample_noise(GridSpec(6, 0.25), 21)
    coarse = coarsen_noise(fine)
    w = np.cos(np.arange(coarse.grid.M))
    stat_coarse = coarse.values[3] @ w
    fine_block = fine.values[12:16]
    stat_from_fine = sum(
        0.125 * (fine_block[:, 2 * i] + fine_block[:, 2 * i + 1]).sum() * w[i] for i in range(coarse.grid.M)
    )
    assert stat_coarse == pytest.approx(stat_from_fine, rel=1e-12)


def test_coarsen_slice_pairwise_mean():
    u = np.arange(8.0)
    np.testing.assert_array_equal(coarsen_slice(u), np.array([0.5, 2.5, 4.5, 6.5]))


class TestMollify:
    def test_identity_at_zero_radii(self):
        noise = sample_noise(GridSpec(5, 0.125), 2)
        out = mollify(noise.values, noise.grid, 0, 0)
        assert np.array_equal(out, noise.values)

    def test_variance_contracts(self):
        noise = sample_noise(GridSpec(5, 0.125), 2)
        out = mollify(noise.values, noise.grid, 1, 1)
        assert out.var() < noise.values.var()

    def test_kernel_mass_normalized(self):
        from sbe.grids import _mollifier_kernel

        grid = GridSpec(5, 0.125)
        w = _mollifier_kernel(grid, 3, 2)
        assert abs(grid.eps**3 * w.sum() - 1.0) < 1e-12

    def test_support_guard(self):
        noise = sample_noise(GridSpec(3, 0.25), 2)
        with pytest.raises(ValueError):
            mollify(noise.values, noise.grid, 1, 5)

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_kernel_is_parabolic_rescaling(self, c):
        from sbe.grids import _mollifier_kernel, bump

        grid = GridSpec(5, 0.125)
        w = _mollifier_kernel(grid, c * c - 1, c - 1)
        sampled = np.outer(bump(np.arange(-c * c, c * c + 1) / c**2), bump(np.arange(-c, c + 1) / c))
        # the sampled rescaling vanishes on its outer rim, so its nonzero
        # entries are exactly the kernel's cells
        assert not sampled[[0, -1]].any() and not sampled[:, [0, -1]].any()
        inner = sampled[1:-1, 1:-1]
        assert (inner > 0).all()
        np.testing.assert_allclose(w, inner / (grid.eps**3 * inner.sum()), rtol=1e-14, atol=0)


def test_field_io_round_trip(tmp_path):
    from sbe.fieldio import read_field, write_field

    vals = sample_noise(GridSpec(4, 0.25), 1).values
    write_field(str(tmp_path), "field", vals, {"N": 4, "T": 0.25, "seed": 1})
    back, meta = read_field(str(tmp_path), "field")
    assert np.array_equal(back, vals)
    assert meta["layout"] == "time-major"
    assert meta["N"] == 4

