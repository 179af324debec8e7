"""The blocked kernel diagnostics against their whole-field spellings in oracles.py.

The heat kernel, its singular part and decay bounds, the space-time
convolution, the square check's reductions of its output and the order
norm run one block of about ``operators._BLOCK_BYTES`` at a time. Each step
is elementwise, per row, or a max, so every comparison is exact. The block
counts are read from ``operators._blocks``, so the fields span several
blocks with a partial last one whatever the block size. The square check's
direct sums add their terms in leaves of np.sum's pairwise tree, which
must add up to np.sum of the whole bit for bit. The memory guards keep the
passes free of field-sized temporaries, the direct sums to a few rows, the
convolution to its one buffer, the square check to one buffer, and
the heat kernel free of rows kept between calls.
"""

import ctypes
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import count_rows, traced, traced_peak
from oracles import (
    columns_whole,
    order_norm_whole,
    renormalized_convolve,
    spacetime_convolve,
    spacetime_convolve_whole,
    split_whole,
    time_convolve_whole,
    verify_bounds_whole,
)
from sbe import kernels
from sbe.grids import GridSpec
from sbe.heat import HeatKernel, smooth_cutoff, smooth_parabolic_norm
from sbe.kernels import order_norm, renormalized_square_check, square_check_bytes
from sbe.operators import _BLOCK_BYTES, _blocks, derivative_multiplier


def spans_blocks(n: int, item_bytes: int) -> bool:
    """True when n items of item_bytes make several blocks and the last one is partial."""
    blocks = _blocks(n, item_bytes)
    return len(blocks) > 2 and blocks[-1].stop - blocks[-1].start < blocks[0].stop


OUTSIDE = r"horizon .* outside \[0, T\] with T = 0.125"
BETWEEN_STEPS = r"horizon 0.1 is not a multiple of dt=0.0009765625"


@pytest.fixture(scope="module")
def long_grid():
    """M = 32 sites and 1025 time rows: several row blocks in every pass."""
    return GridSpec(5, 1.0)


class TestHeatKernel:
    def test_columns_split_and_bounds_equal_the_whole_field(self, fam_bw_ss, long_grid):
        hk = HeatKernel(long_grid, fam_bw_ss)
        rows, M = long_grid.n_steps + 1, long_grid.M
        assert spans_blocks(rows, 8 * M) and spans_blocks(rows, 16 * M)
        K = hk.singular_part(long_grid.T)
        assert np.array_equal(K, split_whole(hk, long_grid.T))
        assert np.array_equal(hk.columns(long_grid.n_steps), columns_whole(hk, long_grid.n_steps))
        diags = hk.verify_bounds(long_grid.T)
        assert [diag.j for diag in diags] == [0, 1, 2]
        for diag in diags:
            assert np.array_equal(diag.per_time_max, verify_bounds_whole(hk, diag.j, long_grid.T)), diag.j
            assert diag.sup == diag.per_time_max.max()

    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_singular_part_and_blocks_equal_the_whole_field_in_bytes(self, fam_bw_ss, N):
        # bytes, not values: a -0.0 where the whole field has +0.0 fails here
        grid = GridSpec(N, 0.25)
        hk = HeatKernel(grid, fam_bw_ss)
        want = split_whole(hk, grid.T).tobytes()
        assert hk.singular_part(grid.T).tobytes() == want
        blocks = list(hk.singular_blocks(grid.T))
        assert [rows for rows, _ in blocks] == _blocks(grid.n_steps + 1, 16 * grid.M)
        assert b"".join(block.tobytes() for _, block in blocks) == want

    def test_bounds_equal_the_whole_field_in_every_block(self, fam_bw_ss):
        # M = 128: blocks of 64 rows, and every row up to T = 1/8 has sites inside |z|_s <= 3/8
        grid = GridSpec(7, 0.125)
        hk = HeatKernel(grid, fam_bw_ss)
        assert spans_blocks(grid.n_steps + 1, 16 * grid.M)
        for diag in hk.verify_bounds(grid.T):
            assert diag.per_time_max.all(), diag.j
            assert np.array_equal(diag.per_time_max, verify_bounds_whole(hk, diag.j, grid.T)), diag.j

    def test_bounds_make_each_row_of_p_once(self, fam_bw_ss, long_grid, monkeypatch):
        hk = HeatKernel(long_grid, fam_bw_ss)
        made = count_rows(monkeypatch)
        hk.verify_bounds(0.5)
        assert made == [long_grid.n_steps // 2 + 1]

    def test_bounds_take_only_a_horizon(self):
        assert list(inspect.signature(HeatKernel.verify_bounds).parameters) == ["self", "horizon"]

    def test_cache_grown_in_two_calls_keeps_its_rows(self, fam_bw_ss, long_grid):
        hk = HeatKernel(long_grid, fam_bw_ss)
        first = hk.columns(300).copy()  # not on a block boundary
        grown = hk.columns(long_grid.n_steps)
        assert np.array_equal(grown[:301], first)
        assert np.array_equal(grown, columns_whole(hk, long_grid.n_steps))
        assert np.array_equal(hk.columns(7), grown[:8])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda hk: hk.columns(-3), OUTSIDE),
            (lambda hk: hk.columns(hk.grid.n_steps + 1), OUTSIDE),
            (lambda hk: hk.singular_part(-hk.grid.dt), OUTSIDE),
            (lambda hk: hk.singular_part(hk.grid.T + hk.grid.dt), OUTSIDE),
            (lambda hk: hk.singular_blocks(hk.grid.T + hk.grid.dt), OUTSIDE),
            (lambda hk: hk.verify_bounds(1.0), OUTSIDE),
            (lambda hk: hk.verify_bounds(-0.01), OUTSIDE),
            (lambda hk: hk.verify_bounds(float("nan")), OUTSIDE),
            # 0.1 / dt = 102.4 steps at N = 5
            (lambda hk: hk.singular_part(0.1), BETWEEN_STEPS),
            (lambda hk: hk.verify_bounds(0.1), BETWEEN_STEPS),
        ],
        ids=[
            "columns-3",
            "columns-past-T",
            "split-dt",
            "split-past-T",
            "split-blocks-past-T",
            "bounds-1",
            "bounds-negative",
            "bounds-nan",
            "split-between-steps",
            "bounds-between-steps",
        ],
    )
    def test_horizon_outside_zero_to_T_is_refused(self, fam_bw_ss, call, message):
        hk = HeatKernel(GridSpec(5, 0.125), fam_bw_ss)
        with pytest.raises(ValueError, match=message):
            call(hk)

    def test_horizons_zero_and_T_are_accepted(self, fam_bw_ss):
        hk = HeatKernel(GridSpec(5, 0.125), fam_bw_ss)
        assert hk.columns(0).shape == (1, 32)
        assert np.array_equal(hk.singular_part(0.0), hk.columns(0))  # the delta lies inside the cutoff
        assert [diag.per_time_max.shape for diag in hk.verify_bounds(0.125)] == [(129,)] * 3


class TestTimeConvolve:
    """The pipeline's time FFTs over W frequency columns, against whole-array transforms.

    ``_convolved`` reads only M and eps of its grid, so a stand-in with
    M = 2W - 2 sites and eps = 1 gives half-spectra W columns wide, as many
    columns of the time-major buffer as the time FFTs are to run over.
    """

    @staticmethod
    def grid_of_width(W: int) -> SimpleNamespace:
        return SimpleNamespace(M=2 * W - 2, eps=1.0)

    @staticmethod
    def whole(a: np.ndarray, b: np.ndarray, M: int) -> np.ndarray:
        spectra = time_convolve_whole(np.fft.rfft(a, axis=1), np.fft.rfft(b, axis=1))
        return np.fft.irfft(spectra, n=M, axis=1)

    @pytest.mark.parametrize(
        "n1, n2, W, blocked",
        [(5, 11, 1100, True)],  # L = 16: unequal rows, several blocks of frequency rows
    )
    def test_equals_the_whole_array_transforms(self, rng, n1, n2, W, blocked):
        grid = self.grid_of_width(W)
        a, b = rng.standard_normal((n1, grid.M)), rng.standard_normal((n2, grid.M))
        L = kernels._time_length(n1 + n2)
        assert L == 16 and spans_blocks(W, 16 * L) == blocked
        out = spacetime_convolve(a, b, grid)
        assert out.shape == (n1 + n2 - 1, grid.M)
        assert np.array_equal(out, self.whole(a, b, grid.M))

    def test_all_zero_input(self, rng):
        grid = self.grid_of_width(1100)
        a, b = np.zeros((6, grid.M)), rng.standard_normal((4, grid.M))
        out = spacetime_convolve(a, b, grid)
        assert out.shape == (9, grid.M) and not out.any()
        assert np.array_equal(out, self.whole(a, b, grid.M))
        # constant in space: every frequency row but the first is all zero,
        # over several blocks of rows at L = 16, and stays zero through the time FFTs
        a[:] = rng.standard_normal((6, 1))
        assert spans_blocks(1100, 16 * kernels._time_length(10))
        out = spacetime_convolve(a, b, grid)
        assert np.array_equal(out, self.whole(a, b, grid.M))


class TestSpacetimeConvolve:
    @pytest.mark.parametrize(
        "n1, z1, n2, z2, blocked",
        [
            (600, 3, 700, 0, True),  # unequal rows, several row and column blocks
            (1, 0, 900, 10, False),  # a 1-row kernel
            (700, 0, 1, 0, False),
            (650, 640, 800, 0, False),  # an input occupying 10 of its rows
            (5, 0, 11, 0, False),  # L = 16: every column in one block
            (2000, 0, 1500, 0, True),  # L = 4096: two columns per block
            (1, 0, 7, 0, False),  # a 1-row input, L = 8
            (9, 0, 1, 0, False),
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
        got = spacetime_convolve(a, b, grid)
        assert np.array_equal(got, spacetime_convolve_whole(a, b, grid))

    def test_occupied_rows_are_read_from_the_end(self):
        # several blocks of rows, the last partial, nonzero rows in the first
        # and the last but one, and trailing zero rows
        M = 32
        n = 3 * (_BLOCK_BYTES // M) + 5
        assert spans_blocks(n, M)
        a = np.zeros((n, M))
        assert kernels._occupied_rows(a) == 0
        a[7, 3] = 1.0
        assert kernels._occupied_rows(a) == 8
        a[n - 10, 0] = -0.5
        assert kernels._occupied_rows(a) == n - 9

    def test_renormalized_convolution_equals_the_whole_field(self, rng):
        grid = GridSpec(5, 0.25)
        a, b = rng.standard_normal((600, grid.M)), rng.standard_normal((1100, grid.M))
        assert spans_blocks(1100, 8 * grid.M)
        got = renormalized_convolve(a, b, grid)
        want = spacetime_convolve_whole(a, b, grid)
        want[:1100] -= float(grid.eps**3 * np.sum(a)) * b
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_all_zero_input(self, rng, zero_first):
        grid = GridSpec(5, 0.25)
        zero, other = np.zeros((600, grid.M)), rng.standard_normal((700, grid.M))
        a, b = (zero, other) if zero_first else (other, zero)
        got = spacetime_convolve(a, b, grid)
        assert got.shape == (1299, grid.M) and not got.any()
        assert np.array_equal(got, spacetime_convolve_whole(a, b, grid))


class TestSquareCheckReductions:
    """The check's order norm, sup and point values, streamed over the output blocks, against the whole field.

    At N = 6 the output has 2049 rows in blocks of 256, the last holding one.
    """

    grid = GridSpec(6, 0.25)

    def test_equal_the_whole_field(self, fam_bw_ss, monkeypatch):
        reduce, seen = kernels._reduce, []

        def spy(blocks, points, grid, zeta):
            seen.append((points, reduce(blocks, points, grid, zeta)))
            return seen[-1][1]

        monkeypatch.setattr(kernels, "_reduce", spy)
        _, norm, _ = renormalized_square_check(fam_bw_ss, self.grid)
        K = HeatKernel(self.grid, fam_bw_ss).singular_part(self.grid.T)
        M = self.grid.M
        assert spans_blocks(2 * K.shape[0] - 1, 8 * M)
        dmult = derivative_multiplier(fam_bw_ss, self.grid.eps, M)[: M // 2 + 1]
        sq = np.fft.irfft(np.fft.rfft(K, axis=1) * dmult, n=M, axis=1) ** 2
        field = spacetime_convolve_whole(sq, K, self.grid)
        field[: K.shape[0]] -= float(self.grid.eps**3 * np.sum(sq)) * K
        [(points, (got_norm, sup, at))] = seen
        assert len(points) == 36
        assert got_norm == norm == order_norm_whole(field, self.grid, -1.5, 0)
        assert sup == max(field.max(), -field.min())
        n_idx, x_idx = np.array(points).T
        assert np.array_equal(at, field[n_idx, x_idx])

    def test_k_norm_is_that_of_the_singular_part(self, fam_bw_ss):
        k_norm, _, _ = renormalized_square_check(fam_bw_ss, self.grid)
        K = HeatKernel(self.grid, fam_bw_ss).singular_part(self.grid.T)
        assert k_norm == order_norm(K, self.grid, -1.0, m=2)

    def test_k_is_made_twice(self, fam_bw_ss, monkeypatch):
        # once into the buffer and once for the mass times K that the output
        # subtracts; the spectra are converted in place from the fields held
        passes, blocks_of = [], HeatKernel.singular_blocks

        def counted(hk, horizon):
            passes.append(horizon)
            return blocks_of(hk, horizon)

        monkeypatch.setattr(HeatKernel, "singular_blocks", counted)
        made = count_rows(monkeypatch)
        renormalized_square_check(fam_bw_ss, self.grid)
        assert passes == [self.grid.T] * 2
        assert made == [2 * (self.grid.n_steps + 1)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_named_in_the_whole_field(self, fam_bw_ss, monkeypatch, bad):
        blocks = kernels._convolved

        def poisoned(*args):
            for rows, block in blocks(*args):
                if rows.start <= 1000 < rows.stop:  # the fourth block
                    block[1000 - rows.start, 5] = bad
                yield rows, block

        monkeypatch.setattr(kernels, "_convolved", poisoned)
        with pytest.raises(ValueError, match=r"1 non-finite values in rows 768..1023, the first .* at \(row, site\) \(1000, 5\)"):
            renormalized_square_check(fam_bw_ss, self.grid)


class TestOrderNorm:
    def test_split_kernel_equals_the_whole_field(self, fam_bw_ss, long_grid):
        K = HeatKernel(long_grid, fam_bw_ss).singular_part(long_grid.T)
        assert spans_blocks(K.shape[0], 8 * long_grid.M)
        for m in (0, 1, 2):
            for zeta in (-1.0, -1.5, 2.5):
                got = order_norm(K, long_grid, zeta, m)
                assert got == order_norm_whole(K, long_grid, zeta, m), (m, zeta)

    def test_largest_time_difference_on_a_block_boundary(self, long_grid):
        # zero up to row b - 1 and a constant from the first row b of a block
        # on: the largest ratio is the time difference at row b - 1, which
        # reads the next block's first row
        b = _blocks(long_grid.n_steps + 1, 8 * long_grid.M)[1].start
        values = np.zeros((long_grid.n_steps + 1, long_grid.M))
        values[b:] = 3.0
        zeta = 2.5
        z_boundary = max(np.sqrt((b - 1) * long_grid.dt), long_grid.eps)
        expected = 3.0 / long_grid.dt / z_boundary ** (zeta - 2)
        assert order_norm(values, long_grid, zeta, 2) == pytest.approx(expected, rel=1e-14)
        for m in (0, 1, 2):
            assert order_norm(values, long_grid, zeta, m) == order_norm_whole(values, long_grid, zeta, m), m

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_named(self, bad):
        grid = GridSpec(5, 0.25)
        one_bad = np.ones((2, grid.M))
        one_bad[1, 7] = bad
        all_bad = np.full((2, grid.M), bad)
        for m in (0, 1, 2):
            with pytest.raises(ValueError, match=r"1 non-finite values, the first .* at \(row, site\) \(1, 7\)"):
                order_norm(one_bad, grid, -1.0, m)
            with pytest.raises(ValueError, match="64 non-finite values"):
                order_norm(all_bad, grid, -1.0, m)

    def test_width_other_than_the_grid_s_is_refused(self):
        grid = GridSpec(5, 0.25)
        for values in (np.ones((2, grid.M - 1)), np.ones(2 * grid.M), np.ones((grid.M, 2))):
            with pytest.raises(ValueError, match="kernel width disagrees with grid"):
                order_norm(values, grid, -1.0, 0)
        # a single row may be given flat
        assert order_norm(np.ones(grid.M), grid, -1.0, 2) == order_norm(np.ones((1, grid.M)), grid, -1.0, 2)

    @pytest.mark.parametrize("m", [-1, 3, 1.5, 1.0, True, "1", None])
    def test_depth_other_than_the_int_0_1_or_2_is_refused(self, m):
        grid = GridSpec(5, 0.25)
        with pytest.raises(ValueError, match="the int 0, 1 or 2"):
            order_norm(np.ones((2, grid.M)), grid, -1.0, m)


class TestDirectSumTree:
    @pytest.mark.parametrize("n", [999, 1025 * 32, 4097 * 64, 16385 * 256])
    def test_leaves_add_up_to_np_sum_bit_for_bit(self, rng, n):
        # magnitudes over many decades: another order of the additions rounds otherwise
        a = rng.standard_normal(n) * np.exp(6 * rng.standard_normal(n))
        whole = np.sum(a)
        assert kernels._LEAF >= 128
        for leaf in (128, 200, 1000, kernels._LEAF):
            got = kernels._pairwise(0, n, lambda start, size: np.sum(a[start : start + size]), leaf)
            assert np.float64(got).tobytes() == whole.tobytes(), leaf


class TestMemory:
    """numpy reports its allocations to tracemalloc; fields here are 16.8 MB."""

    @pytest.fixture(scope="class")
    def grid(self):
        return GridSpec(8, 0.125)

    def test_split_allocates_its_results_and_little_else(self, fam_bw_ss, grid):
        hk = HeatKernel(grid, fam_bw_ss)
        K, peak = traced_peak(lambda: hk.singular_part(grid.T))
        field = K.nbytes
        assert field > 16e6
        # K alone: P is made a block of rows at a time and not cached
        assert peak - field < field / 4

    def test_heat_kernel_keeps_nothing_between_calls(self, fam_bw_ss, grid):
        hk = HeatKernel(grid, fam_bw_ss)
        field = 8 * (grid.n_steps + 1) * grid.M
        # columns dropped by the caller leave nothing behind
        _, _, held = traced(lambda: hk.columns(grid.n_steps).shape)
        assert held < _BLOCK_BYTES
        # a fresh kernel's decay bounds make P one block of rows at a time
        fresh = HeatKernel(grid, fam_bw_ss)
        _, peak = traced_peak(lambda: fresh.verify_bounds(grid.T))
        assert peak < field / 4
        assert set(vars(hk)) == set(vars(fresh)) == {"grid", "fam", "multiplier"}

    def test_order_norm_allocates_less_than_a_quarter_field(self, fam_bw_ss, grid):
        K = HeatKernel(grid, fam_bw_ss).singular_part(grid.T)
        for m in (0, 1, 2):
            _, peak = traced_peak(lambda: order_norm(K, grid, -1.0, m))
            assert peak < K.nbytes / 4, m

    def test_convolution_holds_only_its_buffer(self, fam_bw_ss, grid):
        K = HeatKernel(grid, fam_bw_ss).singular_part(grid.T)
        sq = K**2
        r1, r2 = kernels._occupied_rows(sq), kernels._occupied_rows(K)
        L, n_out = kernels._time_length(r1 + r2), 2 * K.shape[0] - 1
        spec = kernels._spectra(np.empty((r1 + r2) * (grid.M + 2)), r1 + r2, grid.M)
        spec[:r1], spec[r1:] = np.fft.rfft(sq[:r1], axis=1), np.fft.rfft(K[:r2], axis=1)
        k_blocks = ((rows, K[rows]) for rows in _blocks(K.shape[0], 16 * grid.M))
        blocks = kernels._convolved(spec, r1, r2, n_out, grid, k_blocks, 1.0)
        count, peak = traced_peak(lambda: sum(1 for _ in blocks))
        # the time FFTs run a block of columns at a time and scatter back
        # into the buffer, and the output comes a new block at a time: beside
        # the buffer no half-spectrum (16.9 MB here) and no output field
        # (33.5 MB), only a few blocks of at least one column of L
        assert count == len(_blocks(n_out, 8 * grid.M))
        assert peak <= 4 * max(_BLOCK_BYTES, 16 * L)

    def test_square_check_holds_its_buffer_alone(self, fam_bw_ss, grid):
        _, peak = traced_peak(lambda: renormalized_square_check(fam_bw_ss, grid))
        K = HeatKernel(grid, fam_bw_ss).singular_part(grid.T)
        L = kernels._time_length(2 * kernels._occupied_rows(K))
        buffer = 8 * max(2 * L * (grid.M // 2 + 1), 2 * K.size)
        # neither K (16.8 MB) nor the output field (33.5 MB) nor a
        # half-spectrum (16.9 MB) beside it
        assert peak <= buffer + 4 * max(_BLOCK_BYTES, 16 * L)

    @pytest.mark.parametrize("T", ["dt", 1 / 16, 1 / 4, 1 / 2])
    @pytest.mark.parametrize("N", range(2, 10))
    def test_buffer_covers_the_in_place_conversion(self, N, T):
        grid = GridSpec(N, 4.0**-N if T == "dt" else T)
        M, nt = grid.M, grid.n_steps + 1
        # chi(t, x) <= chi(t, 0), so K occupies at most the rows where chi(t, 0) > 0
        chi = smooth_cutoff(smooth_parabolic_norm(np.arange(nt) * grid.dt, 0.0))
        r = int(np.flatnonzero(chi)[-1]) + 1
        # |DxK|^2's r1 <= r rows of spectra, then K's r2 <= r rows from
        # head to tail, each block's end at or ahead of K's next field row
        # in the tail, and both fields at once before that
        need = max(2 * nt * M, (M + 2) * r + 2 * r + nt * M)
        assert need <= kernels._buffer_items(grid) <= need + (M + 4) * (kernels._max_rows(grid) - r)
        assert kernels._buffer_items(grid) <= 2 * nt * M + (M + 4) * nt  # about two fields at most

    def test_free_heap_is_handed_back(self):
        def resident_mb() -> float:
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024

        try:
            resident_mb()
            ctypes.CDLL("libc.so.6").malloc_trim
        except (OSError, AttributeError):
            pytest.skip("needs /proc and glibc")
        # 32 MB of 64 KiB arrays, below the mmap threshold, under one kept
        # above them: freed, their pages stay in the heap until handed back
        arrays = [np.ones(8192) for _ in range(512)]
        kept = np.ones(8192)
        del arrays
        before = resident_mb()
        kernels._release_free_heap()
        assert resident_mb() < before - 16
        assert kept.all()

    def test_no_glibc_is_no_error(self, monkeypatch):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        kernels._release_free_heap()

    def test_direct_sums_hold_no_field(self, fam_bw_ss):
        # K at N = 7, T = 1/4 is 4.2 MB; the terms are made a leaf at a time
        grid = GridSpec(7, 0.25)
        K = HeatKernel(grid, fam_bw_ss).singular_part(grid.T)
        sq, (nk, M) = K**2, K.shape
        points = [(0, 0), (nk // 2, 3), (nk - 1, M - 1), (2 * nk - 2, 5)]
        _, peak = traced_peak(lambda: kernels._direct_sums(K, sq, points, grid.eps))
        assert peak < K.nbytes / 4

    @pytest.mark.parametrize("N", [6, 7])
    def test_square_check_bytes_bound_the_traced_peak(self, fam_bw_ss, N):
        renormalized_square_check(fam_bw_ss, GridSpec(3, 0.25))  # numpy's first FFT call imports its module
        grid = GridSpec(N, 0.25)
        _, peak = traced_peak(lambda: renormalized_square_check(fam_bw_ss, grid))
        assert peak <= square_check_bytes(grid)
