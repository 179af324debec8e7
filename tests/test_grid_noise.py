
import numpy as np
import pytest

from sbe.grids import GridSpec, NoiseField, block_average, coarsen_slice, sample_noise
from sbe.solver import SchemeConfig, run


def test_grid_invariants():
    grid = GridSpec(5, 0.25)
    assert grid.M * grid.eps == 1.0
    assert grid.n_steps * grid.dt == grid.T
    with pytest.raises(ValueError):
        GridSpec(5, 0.25 + 1e-5)


@pytest.mark.parametrize("N", [5, np.int64(5), np.int32(5), np.uint8(5)], ids=["int", "int64", "int32", "uint8"])
def test_integer_levels_accepted(N):
    grid = GridSpec(N, 0.25)
    assert grid == GridSpec(5, 0.25) and type(grid.N) is int and grid.eps == 2.0**-5


@pytest.mark.parametrize("N", [3.5, 5.0, np.float64(5.0), True, False, "5", None], ids=repr)
def test_a_level_that_is_no_integer_is_refused(N):
    with pytest.raises(ValueError, match=r"^N: expected an integer, got "):
        GridSpec(N, 0.25)


@pytest.mark.parametrize("T", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_horizon_that_is_not_finite_is_refused(fam_bw_ss, T):
    with pytest.raises(ValueError, match=r"^T: expected a finite horizon, got "):
        GridSpec(5, T)
    # run builds its grid from the horizon it is given, after refusing a negative one
    grid = GridSpec(5, 0.25)
    with pytest.raises(ValueError, match=r"^(T: expected a finite horizon, got |horizon T=-inf is negative)"):
        run(SchemeConfig(fam=fam_bw_ss, grid=grid), np.zeros(grid.M), NoiseField(grid, 0), T)



@pytest.mark.parametrize("T", [-0.25, -2.0**-10, -1e-300], ids=["-0.25", "-dt", "-1e-300"])
def test_a_negative_horizon_is_refused_as_negative(T):
    # -0.25 and -dt are whole numbers of steps, so "not a multiple of dt" would be the wrong reason
    with pytest.raises(ValueError, match=rf"^T: expected a nonnegative horizon, got {T!r}$"):
        GridSpec(5, T)


@pytest.mark.parametrize("N", [-1, np.int64(-3)], ids=["-1", "int64(-3)"])
def test_a_negative_level_is_refused(N):
    with pytest.raises(ValueError, match=rf"^N: expected a nonnegative integer, got {int(N)}$"):
        GridSpec(N, 0.25)


def test_zero_level_and_horizon_are_grids():
    grid = GridSpec(0, 0.0)
    assert (grid.M, grid.n_steps) == (1, 0)
    assert GridSpec(5, -0.0).n_steps == 0

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
    with pytest.raises(ValueError, match=r"streamed noise field \(seed 3, N=5\) holds no values"):
        streamed.values
    with pytest.raises(ValueError, match="noise shape inconsistent"):
        NoiseField(grid, 3, explicit.values[1:])


@pytest.mark.parametrize("step", [1, 7, 128, 500], ids=["one-row", "partial-last", "one-block", "past-the-end"])
def test_blocks_of_explicit_and_streamed_fields_agree(step):
    # N = 5, T = 0.125: 128 rows, so 7 leaves a last block of 2
    grid = GridSpec(5, 0.125)
    explicit = sample_noise(grid, 3)
    for field in (explicit, NoiseField(grid, 3)):
        blocks = list(field.blocks(step))
        assert [len(b) for b in blocks] == [min(step, 128 - a) for a in range(0, 128, step)]
        got = np.concatenate(blocks)
        assert np.array_equal(got.view(np.int64), explicit.values.view(np.int64))
    # an explicit field's blocks are views of its values
    assert all(np.shares_memory(b, explicit.values) for b in explicit.blocks(step))


@pytest.mark.parametrize(
    "cells, value, match",
    [
        ([(3, 7)], np.nan, "row 3, site 7 holds nan"),
        ([(0, 0)], np.inf, "row 0, site 0 holds inf"),
        ([(127, 31)], -np.inf, "row 127, site 31 holds -inf"),
        ([(5, 2), (3, 9)], np.nan, "row 3, site 9 holds nan"),  # the first in row-major order
    ],
)
def test_explicit_noise_must_be_finite(cells, value, match):
    grid = GridSpec(5, 0.125)
    values = sample_noise(grid, 3).values.copy()
    for cell in cells:
        values[cell] = value
    with pytest.raises(ValueError, match=f"noise values must be finite; {match}"):
        NoiseField(grid, 3, values)


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64, np.complex128])
def test_explicit_noise_must_be_float64(dtype):
    grid = GridSpec(5, 0.125)
    values = np.zeros((grid.n_steps, grid.M), dtype=dtype)
    with pytest.raises(ValueError, match=f"noise values must be float64, not {np.dtype(dtype).name}"):
        NoiseField(grid, 3, values)


def test_streamed_noise_is_not_checked(monkeypatch):
    # a streamed field holds no values, so making and reading it costs no check
    def refused(*args, **kwargs):
        raise AssertionError("a streamed field was checked")

    monkeypatch.setattr(np, "isfinite", refused)
    grid = GridSpec(5, 0.125)
    assert sum(len(block) for block in NoiseField(grid, 3).blocks(50)) == grid.n_steps


@pytest.mark.parametrize("step", [0, -1, -128])
def test_blocks_refuse_a_step_below_one(step):
    # refused when blocks is called, before a block is read
    grid = GridSpec(5, 0.125)
    for field in (sample_noise(grid, 3), NoiseField(grid, 3)):
        with pytest.raises(ValueError, match=f"step: expected >= 1 rows per block, got {step}"):
            field.blocks(step)


def test_blocks_without_a_time_step_is_one_empty_block():
    grid = GridSpec(5, 0.0)
    for field in (sample_noise(grid, 3), NoiseField(grid, 3)):
        blocks = list(field.blocks(4))
        assert len(blocks) == 1 and blocks[0].shape == (0, grid.M)


def test_fields_compare_by_grid_seed_and_value_bytes():
    grid = GridSpec(3, 0.0625)
    field = sample_noise(grid, 1)
    assert field == sample_noise(grid, 1)
    assert NoiseField(grid, 1) == NoiseField(grid, 1)
    signed = field.values.copy()
    signed[0, 0] = 0.0
    flipped = signed.copy()
    flipped[0, 0] = -0.0
    unequal = [
        sample_noise(grid, 2),  # another seed
        NoiseField(grid, 2, field.values),  # the same values under another seed
        sample_noise(GridSpec(3, 0.125), 1),  # another horizon
        NoiseField(grid, 1),  # streamed
        NoiseField(grid, 1, signed),
    ]
    for other in unequal:
        assert field != other and other != field
    assert NoiseField(grid, 1, signed) != NoiseField(grid, 1, flipped)  # 0.0 and -0.0 differ in their bytes
    assert NoiseField(grid, 1, flipped) == NoiseField(grid, 1, flipped.copy())
    assert field != "noise"


def test_fields_hash_by_grid_and_seed():
    grid = GridSpec(3, 0.0625)
    explicit = sample_noise(grid, 1)
    assert hash(explicit) == hash(sample_noise(grid, 1)) == hash(NoiseField(grid, 1)) == hash((grid, 1))
    assert len({explicit, sample_noise(grid, 1), NoiseField(grid, 1), NoiseField(grid, 1), sample_noise(grid, 2)}) == 3


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


def test_field_io_round_trip(tmp_path):
    from sbe.fieldio import read_field, write_field

    vals = sample_noise(GridSpec(4, 0.25), 1).values
    write_field(str(tmp_path), "field", vals, {"N": 4, "T": 0.25, "seed": 1})
    back, meta = read_field(str(tmp_path), "field")
    assert np.array_equal(back, vals)
    assert meta["layout"] == "time-major"
    assert meta["N"] == 4


def test_write_field_writes_the_array_buffer(tmp_path):
    from conftest import traced_peak
    from sbe.fieldio import sha256_file, write_field

    # the bytes the format has always had: little-endian float64, time-major
    vals = sample_noise(GridSpec(6, 0.25), 5).values
    write_field(str(tmp_path), "field", vals, {"N": 6})
    assert sha256_file(str(tmp_path / "field.bin")) == "1b966789e0044584cc408c30b4f98f4efdd78bde3c0c2f66891bbde6733f0eeb"
    # a transposed view is made contiguous first and writes the same bytes
    write_field(str(tmp_path), "copy", np.asfortranarray(vals), {"N": 6})
    assert (tmp_path / "copy.bin").read_bytes() == (tmp_path / "field.bin").read_bytes()
    # a 16.8 MB field goes out from its own buffer, with no field-sized copy
    big = sample_noise(GridSpec(8, 0.125), 1).values
    _, peak = traced_peak(lambda: write_field(str(tmp_path), "big", big, {"N": 8}))
    assert peak < big.nbytes / 4


def test_field_appender_writes_the_files_of_write_field(tmp_path):
    from sbe.fieldio import FieldAppender, write_field

    # blocks of rows appended in order, the last one shorter, give the bytes
    # and the sidecar of the whole field written at once; the sidecar comes last
    vals = sample_noise(GridSpec(5, 0.25), 3).values
    meta = {"N": 5, "T": 0.25, "seed": 3}
    write_field(str(tmp_path), "whole", vals, meta)
    writer = FieldAppender(str(tmp_path), "appended", meta)
    for start in range(0, len(vals), 100):
        writer.append(vals[start : start + 100])
    assert not (tmp_path / "appended.json").exists()
    assert writer.close() == ["appended.bin", "appended.json"]
    assert (tmp_path / "appended.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()
    assert (tmp_path / "appended.json").read_bytes() == (tmp_path / "whole.json").read_bytes()
    ragged = FieldAppender(str(tmp_path), "ragged", meta)
    ragged.append(vals)
    with pytest.raises(ValueError, match=r"rows of shape \(16,\) appended to a field of rows \(32,\)"):
        ragged.append(vals[:, :16])
