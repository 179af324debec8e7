"""The blocked kernel diagnostics against their whole-field spellings in oracles.py.

The heat kernel, its split and decay bounds, the time and space-time
convolutions and the order norm run one block of about
``operators._BLOCK_BYTES`` at a time. Each step is elementwise, per row or
column, or a max, so every comparison is exact. The block counts are read
from ``operators._blocks``, so the fields span several blocks with a partial
last one whatever the block size. The increment probe takes its z-norms at
its sampled points only, which must give the whole field's values. The
memory guards keep the passes free of field-sized temporaries, and the
mollifier to its space pass and its result.
"""

import numpy as np
import pytest

from conftest import traced, traced_peak
from oracles import (
    columns_whole,
    increment_bound_whole,
    order_norm_whole,
    spacetime_convolve_whole,
    split_whole,
    time_convolve_whole,
    verify_bounds_whole,
)
from sbe import kernels
from sbe.grids import GridSpec, mollify
from sbe.heat import HeatKernel
from sbe.kernels import (
    DiscreteKernel,
    increment_bound_probe,
    order_norm,
    renormalized_square_check,
    square_check_bytes,
)
from sbe.operators import _blocks, _time_length, time_convolve


def spans_blocks(n: int, item_bytes: int) -> bool:
    """True when n items of item_bytes make several blocks and the last one is partial."""
    blocks = _blocks(n, item_bytes)
    return len(blocks) > 2 and blocks[-1].stop - blocks[-1].start < blocks[0].stop


@pytest.fixture(scope="module")
def long_grid():
    """M = 32 sites and 1025 time rows: several row blocks in every pass."""
    return GridSpec(5, 1.0)


class TestHeatKernel:
    def test_columns_split_and_bounds_equal_the_whole_field(self, fam_bw_ss, long_grid):
        hk = HeatKernel(long_grid, fam_bw_ss)
        rows, M = long_grid.n_steps + 1, long_grid.M
        assert spans_blocks(rows, 8 * M) and spans_blocks(rows, 16 * M)
        sp = hk.split(long_grid.T)
        K, K_hat = split_whole(hk, long_grid.T)
        assert np.array_equal(hk.columns(long_grid.n_steps), columns_whole(hk, long_grid.n_steps))
        assert np.array_equal(sp.K, K) and np.array_equal(sp.K_hat, K_hat)
        for j in (0, 1, 2):
            diag = hk.verify_bounds(j, long_grid.T)
            assert np.array_equal(diag.per_time_max, verify_bounds_whole(hk, j, long_grid.T)), j

    def test_cache_grown_in_two_calls_keeps_its_rows(self, fam_bw_ss, long_grid):
        hk = HeatKernel(long_grid, fam_bw_ss)
        first = hk.columns(300).copy()  # not on a block boundary
        grown = hk.columns(long_grid.n_steps)
        assert np.array_equal(grown[:301], first)
        assert np.array_equal(grown, columns_whole(hk, long_grid.n_steps))
        assert np.array_equal(hk.columns(7), grown[:8])

    @pytest.mark.parametrize(
        "call",
        [
            lambda hk: hk.columns(-3),
            lambda hk: hk.columns(hk.grid.n_steps + 1),
            lambda hk: hk.split(-hk.grid.dt),
            lambda hk: hk.split(hk.grid.T + hk.grid.dt),
            lambda hk: hk.verify_bounds(1, 1.0),
            lambda hk: hk.verify_bounds(1, -0.01),
            lambda hk: hk.verify_bounds(0, float("nan")),
        ],
        ids=["columns-3", "columns-past-T", "split-dt", "split-past-T", "bounds-1", "bounds-negative", "bounds-nan"],
    )
    def test_horizon_outside_zero_to_T_is_refused(self, fam_bw_ss, call):
        hk = HeatKernel(GridSpec(5, 0.125), fam_bw_ss)
        with pytest.raises(ValueError, match=r"horizon .* outside \[0, T\] with T = 0.125"):
            call(hk)

    def test_horizons_zero_and_T_are_accepted(self, fam_bw_ss):
        hk = HeatKernel(GridSpec(5, 0.125), fam_bw_ss)
        assert hk.columns(0).shape == (1, 32)
        assert hk.split(0.0).K.shape == (1, 32)
        assert hk.verify_bounds(2, 0.125).per_time_max.shape == (129,)


class TestTimeConvolve:
    @pytest.mark.parametrize(
        "n1, n2, W, blocked",
        [
            (5, 11, 1100, True),  # L = 16: unequal rows, several column blocks
            (2000, 1500, 5, True),  # L = 4096: a few columns per block
            (1, 7, 300, False),  # a 1-row input
            (9, 1, 300, False),
        ],
    )
    def test_equals_the_whole_array_transforms(self, rng, n1, n2, W, blocked):
        a = rng.standard_normal((n1, W)) + 1j * rng.standard_normal((n1, W))
        b = rng.standard_normal((n2, W)) + 1j * rng.standard_normal((n2, W))
        L = 1
        while L < n1 + n2:
            L *= 2
        assert spans_blocks(W, 16 * L) == blocked
        out = time_convolve(a, b)
        assert out.shape == (n1 + n2 - 1, W)
        assert np.array_equal(out, time_convolve_whole(a, b))

    def test_broadcast_weights_as_the_pairing_map_passes_them(self, rng):
        # a real field against reversed 1-d time weights seen as a (n, 1) view
        spatial = rng.standard_normal((700, 43))
        wt = rng.standard_normal(33)
        assert spans_blocks(43, 16 * 1024)
        out = time_convolve(spatial, wt[::-1, None])
        assert np.array_equal(out, time_convolve_whole(spatial, wt[::-1, None]))

    def test_all_zero_input(self, rng):
        a, b = np.zeros((6, 300), dtype=complex), rng.standard_normal((4, 300)) + 0j
        assert np.array_equal(time_convolve(a, b), time_convolve_whole(a, b))
        assert not time_convolve(a, b).any()

    def test_mismatched_widths_are_refused(self, rng):
        with pytest.raises(ValueError, match="widths 4 and 3"):
            time_convolve(rng.standard_normal((5, 4)), rng.standard_normal((5, 3)))


class TestSpacetimeConvolve:
    @pytest.mark.parametrize(
        "n1, z1, n2, z2, blocked",
        [
            (600, 3, 700, 0, True),  # unequal rows, several row and column blocks
            (1, 0, 900, 10, False),  # a 1-row kernel
            (700, 0, 1, 0, False),
            (650, 640, 800, 0, False),  # an input occupying 10 of its rows
        ],
    )
    def test_equals_the_whole_field_route(self, rng, n1, z1, n2, z2, blocked):
        grid = GridSpec(5, 0.25)
        a, b = rng.standard_normal((n1, grid.M)), rng.standard_normal((n2, grid.M))
        a[n1 - z1 :] = 0.0
        b[n2 - z2 :] = 0.0
        r = (n1 - z1) + (n2 - z2)
        L = 1
        while L < r:
            L *= 2
        assert (spans_blocks(r - 1, 8 * grid.M) and spans_blocks(grid.M // 2 + 1, 16 * L)) == blocked
        got = kernels._spacetime_convolve(a, b, grid)
        assert np.array_equal(got, spacetime_convolve_whole(a, b, grid))

    def test_renormalized_convolution_equals_the_whole_field(self, rng):
        grid = GridSpec(5, 0.25)
        a, b = rng.standard_normal((600, grid.M)), rng.standard_normal((1100, grid.M))
        assert spans_blocks(1100, 8 * grid.M)
        got = kernels.renormalized_convolve(DiscreteKernel(a, grid, -3.5), DiscreteKernel(b, grid, -1.0))
        want = spacetime_convolve_whole(a, b, grid)
        want[:1100] -= float(grid.eps**3 * np.sum(a)) * b
        assert np.array_equal(got.values, want)

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_all_zero_input(self, rng, zero_first):
        grid = GridSpec(5, 0.25)
        zero, other = np.zeros((600, grid.M)), rng.standard_normal((700, grid.M))
        a, b = (zero, other) if zero_first else (other, zero)
        got = kernels._spacetime_convolve(a, b, grid)
        assert got.shape == (1299, grid.M) and not got.any()
        assert np.array_equal(got, spacetime_convolve_whole(a, b, grid))


class TestOrderNorm:
    def test_split_kernel_equals_the_whole_field(self, fam_bw_ss, long_grid):
        K = HeatKernel(long_grid, fam_bw_ss).split(long_grid.T).K
        assert spans_blocks(K.shape[0], 8 * long_grid.M)
        for m in (0, 1, 2):
            for zeta in (-1.0, -1.5, 2.5):
                got = order_norm(DiscreteKernel(K, long_grid, zeta), zeta, m)
                assert got == order_norm_whole(K, long_grid, zeta, m), (m, zeta)

    def test_largest_time_difference_on_a_block_boundary(self, long_grid):
        # zero up to row b - 1 and a constant from the first row b of a block
        # on: the largest ratio is the time difference at row b - 1, which
        # reads the next block's first row
        b = _blocks(long_grid.n_steps + 1, 8 * long_grid.M)[1].start
        values = np.zeros((long_grid.n_steps + 1, long_grid.M))
        values[b:] = 3.0
        zeta = 2.5
        k = DiscreteKernel(values, long_grid, zeta)
        z_boundary = max(np.sqrt((b - 1) * long_grid.dt), long_grid.eps)
        expected = 3.0 / long_grid.dt / z_boundary ** (zeta - 2)
        assert order_norm(k, zeta, 2) == pytest.approx(expected, rel=1e-14)
        for m in (0, 1, 2):
            assert order_norm(k, zeta, m) == order_norm_whole(values, long_grid, zeta, m), m

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_named(self, bad):
        grid = GridSpec(5, 0.25)
        one_bad = np.ones((2, grid.M))
        one_bad[1, 7] = bad
        all_bad = np.full((2, grid.M), bad)
        for m in (0, 1, 2):
            with pytest.raises(ValueError, match=r"1 non-finite values, the first .* at \(row, site\) \(1, 7\)"):
                order_norm(DiscreteKernel(one_bad, grid, -1.0), -1.0, m)
            with pytest.raises(ValueError, match="64 non-finite values"):
                order_norm(DiscreteKernel(all_bad, grid, -1.0), -1.0, m)

    @pytest.mark.parametrize("m", [-1, 3, 1.5, 1.0, True, "1", None])
    def test_depth_other_than_the_int_0_1_or_2_is_refused(self, m):
        grid = GridSpec(5, 0.25)
        with pytest.raises(ValueError, match="the int 0, 1 or 2"):
            order_norm(DiscreteKernel(np.ones((2, grid.M)), grid, -1.0), -1.0, m)


class TestIncrementProbe:
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    def test_equals_the_whole_field_z_norms(self, fam_bw_ss, long_grid, kappa):
        K = HeatKernel(long_grid, fam_bw_ss).split(long_grid.T).K
        got = increment_bound_probe(DiscreteKernel(K, long_grid, -1.0), kappa)
        assert got == increment_bound_whole(K, long_grid, -1.0, kappa)


class TestMemory:
    """numpy reports its allocations to tracemalloc; fields here are 16.8 MB."""

    @pytest.fixture(scope="class")
    def grid(self):
        return GridSpec(8, 0.125)

    def test_split_allocates_its_results_and_little_else(self, fam_bw_ss, grid):
        hk = HeatKernel(grid, fam_bw_ss)
        sp, peak = traced_peak(lambda: hk.split(grid.T))
        field = sp.K.nbytes
        assert field > 16e6
        # the kernel cache P, K and K_hat
        assert peak - 3 * field < field / 4

    def test_order_norm_allocates_less_than_a_quarter_field(self, fam_bw_ss, grid):
        K = HeatKernel(grid, fam_bw_ss).split(grid.T).K
        for m in (0, 1, 2):
            _, peak = traced_peak(lambda: order_norm(DiscreteKernel(K, grid, -1.0), -1.0, m))
            assert peak < K.nbytes / 4, m

    def test_convolution_holds_one_input_half_spectrum(self, fam_bw_ss, grid):
        K = HeatKernel(grid, fam_bw_ss).split(grid.T).K
        sq = K**2
        out, peak, held = traced(lambda: kernels._spacetime_convolve(sq, K, grid))
        r1, r2 = kernels._occupied_rows(sq), kernels._occupied_rows(K)
        L = 1
        while L < r1 + r2:
            L *= 2
        # the spectrum and the output share one buffer; beside it one input's half-spectrum
        half_row = 16 * (grid.M // 2 + 1)
        assert L * half_row > 1.9 * out.nbytes  # the buffer is about twice the output here
        assert peak <= max(out.nbytes, L * half_row) + max(r1, r2) * half_row + 2**20
        # and the result holds only the output
        assert held <= out.nbytes + 2**20

    def test_square_check_holds_k_the_buffer_and_one_half_spectrum(self, fam_bw_ss, grid):
        (kern, ident, _), peak = traced_peak(lambda: renormalized_square_check(fam_bw_ss, grid))
        K, rows = kern.values, kernels._occupied_rows(kern.values)
        half_row = 16 * (grid.M // 2 + 1)
        buffer = max(_time_length(2 * rows) * half_row, ident.values.nbytes)
        assert peak <= K.nbytes + buffer + rows * half_row + 2**20

    @pytest.mark.parametrize("N", [6, 7])
    def test_square_check_bytes_bound_the_traced_peak(self, fam_bw_ss, N):
        renormalized_square_check(fam_bw_ss, GridSpec(3, 0.25))  # numpy's first FFT call imports its module
        grid = GridSpec(N, 0.25)
        _, peak = traced_peak(lambda: renormalized_square_check(fam_bw_ss, grid))
        assert peak <= square_check_bytes(grid)

    def test_increment_probe_allocates_less_than_a_quarter_field(self, fam_bw_ss, grid):
        K = HeatKernel(grid, fam_bw_ss).split(grid.T).K
        _, peak = traced_peak(lambda: increment_bound_probe(DiscreteKernel(K, grid, -1.0), 0.5))
        assert peak < K.nbytes / 4

    def test_mollify_holds_two_fields(self, fam_bw_ss):
        # the radii of mollification_loss_probe at four cells, on a 4.2 MB kernel
        grid = GridSpec(7, 0.25)
        K = HeatKernel(grid, fam_bw_ss).split(grid.T).K
        _, peak = traced_peak(lambda: mollify(K, grid, 15, 3))
        assert peak <= 2 * K.nbytes + 2**20
