import re

import numpy as np
import pytest

from oracles import mollify_loop
from sbe.grids import (
    GridSpec,
    NoiseField,
    _mollifier_kernel,
    block_average,
    bump,
    coarsen_slice,
    mollify,
    sample_noise,
)
from sbe.operators import _blocks


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


def test_streamed_field_holds_no_values():
    grid = GridSpec(5, 0.125)
    streamed, explicit = NoiseField(grid, 3), sample_noise(grid, 3)
    assert streamed.streamed and not explicit.streamed
    with pytest.raises(ValueError, match=r"streamed noise field \(seed 3, N=5\) holds no values"):
        streamed.values
    with pytest.raises(ValueError, match="noise shape inconsistent"):
        NoiseField(grid, 3, explicit.values[1:])


def test_coarsen_variance():
    grid = GridSpec(7, 0.25)
    coarse = block_average(sample_noise(grid, 11).values)
    n = coarse.size
    var = (2 * grid.eps) ** -3
    assert abs(coarse.var() - var) < 3 * var * np.sqrt(2.0 / n)


def test_coarsen_is_exact_block_mean():
    v = sample_noise(GridSpec(5, 0.25), 9).values
    coarse = block_average(v)
    box = (((v[0, 0] + v[0, 1]) + (v[1, 0] + v[1, 1])) + ((v[2, 0] + v[2, 1]) + (v[3, 0] + v[3, 1]))) * 0.125
    assert coarse[0, 0] == box  # bit-level


def test_double_coarsen_is_64_cell_average():
    fine = sample_noise(GridSpec(6, 0.25), 5)
    twice = block_average(block_average(fine.values))
    direct = fine.values[:16, :4].mean()
    assert abs(twice[0, 0] - direct) < 1e-12


def test_coupling_consistency_linear_statistic():
    # any linear functional of the coarse field is exactly computable from
    # the fine one: no fresh randomness enters through coarsening
    fine = sample_noise(GridSpec(6, 0.25), 21)
    coarse = block_average(fine.values)
    w = np.cos(np.arange(coarse.shape[1]))
    stat_coarse = coarse[3] @ w
    fine_block = fine.values[12:16]
    stat_from_fine = sum(
        0.125 * (fine_block[:, 2 * i] + fine_block[:, 2 * i + 1]).sum() * w[i] for i in range(coarse.shape[1])
    )
    assert stat_coarse == pytest.approx(stat_from_fine, rel=1e-12)


def test_coarsen_slice_pairwise_mean():
    u = np.arange(8.0)
    np.testing.assert_array_equal(coarsen_slice(u), np.array([0.5, 2.5, 4.5, 6.5]))


class TestMollify:
    def test_identity_at_zero_radii(self):
        for T in (0.125, 1.0):  # one row block, then several
            noise = sample_noise(GridSpec(5, T), 2)
            out = mollify(noise.values, noise.grid, 0, 0)
            assert np.array_equal(out, noise.values)

    def test_variance_contracts(self):
        noise = sample_noise(GridSpec(5, 0.125), 2)
        out = mollify(noise.values, noise.grid, 1, 1)
        assert out.var() < noise.values.var()

    @pytest.mark.parametrize("rt, rs", [(1, 1), (3, 1), (15, 3)])
    def test_matches_the_double_loop(self, rng, rt, rs):
        # 1300 rows of 32 sites: several row blocks with a partial last one
        grid = GridSpec(5, 0.25)
        values = rng.standard_normal((1300, grid.M))
        blocks = _blocks(values.shape[0], 8 * grid.M)
        assert len(blocks) > 2 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
        want = mollify_loop(values, grid, rt, rs)
        assert np.max(np.abs(mollify(values, grid, rt, rs) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_kernel_mass_normalized(self):
        # each factor has unit sum, so the bump has discrete mass one
        for rt, rs in ((0, 0), (3, 2), (15, 3)):
            wt, wx = _mollifier_kernel(rt, rs)
            assert wt.shape == (2 * rt + 1,) and wx.shape == (2 * rs + 1,)
            assert abs(wt.sum() - 1.0) < 1e-14 and abs(wx.sum() - 1.0) < 1e-14

    def test_support_guard(self):
        noise = sample_noise(GridSpec(3, 0.25), 2)
        with pytest.raises(ValueError):
            mollify(noise.values, noise.grid, 1, 5)

    @pytest.mark.parametrize("shape", [(40, 64), (32,), (2, 5, 32)])
    def test_field_must_be_time_major_with_m_sites(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"M = 32, not shape {shape}")):
            mollify(np.zeros(shape), GridSpec(5, 0.125), 1, 1)

    def test_integer_field_is_read_as_float(self):
        grid = GridSpec(5, 0.125)
        ints = np.arange(17 * grid.M).reshape(17, grid.M) % 7
        assert np.array_equal(mollify(ints, grid, 1, 1), mollify(ints.astype(np.float64), grid, 1, 1))

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_kernel_is_parabolic_rescaling(self, c):
        wt, wx = _mollifier_kernel(c * c - 1, c - 1)
        sampled = np.outer(bump(np.arange(-c * c, c * c + 1) / c**2), bump(np.arange(-c, c + 1) / c))
        # the sampled rescaling vanishes on its outer rim, so its nonzero
        # entries are exactly the kernel's cells
        assert not sampled[[0, -1]].any() and not sampled[:, [0, -1]].any()
        inner = sampled[1:-1, 1:-1]
        assert (inner > 0).all()
        np.testing.assert_allclose(np.outer(wt, wx), inner / inner.sum(), rtol=1e-14, atol=0)


def test_field_io_round_trip(tmp_path):
    from sbe.fieldio import read_field, write_field

    vals = sample_noise(GridSpec(4, 0.25), 1).values
    write_field(str(tmp_path), "field", vals, {"N": 4, "T": 0.25, "seed": 1})
    back, meta = read_field(str(tmp_path), "field")
    assert np.array_equal(back, vals)
    assert meta["layout"] == "time-major"
    assert meta["N"] == 4

